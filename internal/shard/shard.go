package shard

import (
	"fmt"

	"kgaq/internal/kg"
	"kgaq/internal/stats"
)

// MaxShards bounds a Plan. Beyond this, per-shard strata on realistic
// answer spaces degenerate to single draws and the allocator's per-stratum
// floors dominate the budget.
const MaxShards = 1024

// Assign returns the shard owning node u under an n-way plan, by
// Fibonacci-hashing the node id. The map is deterministic — every engine,
// process and test agrees on ownership without coordination — and
// effectively uniform, so shard weights concentrate near 1/n.
func Assign(u kg.NodeID, n int) int {
	if n <= 1 {
		return 0
	}
	// Knuth's multiplicative hash: the golden-ratio constant scrambles the
	// dense, sequential NodeIDs so consecutive ids land on different
	// shards. The shard is taken from the HIGH bits via a range reduction
	// ((h·n) >> 32) — a plain h mod n would undo the hash for power-of-two
	// n (the constant is ≡ 1 mod 16), reducing ownership to u mod n and
	// letting periodic id patterns (bulk loads interleaving types) skew
	// whole answer populations onto a couple of shards.
	h := uint32(u) * 2654435761
	return int((uint64(h) * uint64(n)) >> 32)
}

// Plan is a validated n-way ownership partition of the node-id space.
type Plan struct {
	shards int
}

// NewPlan returns an n-way plan; n is clamped to [1, MaxShards].
func NewPlan(n int) Plan {
	if n < 1 {
		n = 1
	}
	if n > MaxShards {
		n = MaxShards
	}
	return Plan{shards: n}
}

// Shards returns the number of shards in the plan.
func (p Plan) Shards() int {
	if p.shards < 1 {
		return 1
	}
	return p.shards
}

// Of returns the shard owning node u.
func (p Plan) Of(u kg.NodeID) int { return Assign(u, p.Shards()) }

// Space is one shard's stratum of a query's sampling space: the owned
// candidate answers as indices into the full answer list, their
// probabilities conditional on the stratum (they sum to 1), the stratum's
// inclusion probability Weight = Σ π′(owned answers), and an alias table for
// O(1) conditional draws.
type Space struct {
	Shard  int
	Weight float64
	// Index holds positions into the full answer/probs slices the space was
	// split from; draws from this stratum yield these global indices.
	Index []int
	// CondProbs are the per-draw probabilities conditional on the stratum,
	// parallel to Index.
	CondProbs []float64
	alias     *stats.Alias
}

// DrawInto appends k global answer indices, drawn i.i.d. from the
// stratum's conditional distribution with one word of sm each, to dst, for
// callers that batch draws into a reused buffer.
func (s *Space) DrawInto(dst []int, sm *stats.Splitmix, k int) []int {
	for i := 0; i < k; i++ {
		dst = append(dst, s.Index[s.alias.Pick(sm.Next())])
	}
	return dst
}

// SplitSpace cuts a normalised answer distribution (answers[i] drawn with
// probability probs[i]) into per-shard strata under the plan. Shards owning
// no answer are dropped: their stratum weight is zero, so they contribute
// nothing to the merged estimate. The returned strata are ordered by shard
// index and their weights sum to 1.
func SplitSpace(plan Plan, answers []kg.NodeID, probs []float64) ([]*Space, error) {
	if len(answers) != len(probs) {
		return nil, fmt.Errorf("shard: %d answers vs %d probs", len(answers), len(probs))
	}
	n := plan.Shards()
	byShard := make([][]int, n)
	for i, u := range answers {
		s := plan.Of(u)
		byShard[s] = append(byShard[s], i)
	}
	var out []*Space
	for s, idx := range byShard {
		if len(idx) == 0 {
			continue
		}
		w := 0.0
		for _, i := range idx {
			w += probs[i]
		}
		if w <= 0 {
			continue
		}
		cond := make([]float64, len(idx))
		for k, i := range idx {
			cond[k] = probs[i] / w
		}
		alias := stats.NewAlias(cond)
		if alias == nil {
			return nil, fmt.Errorf("shard: failed to build alias table for shard %d", s)
		}
		out = append(out, &Space{Shard: s, Weight: w, Index: idx, CondProbs: cond, alias: alias})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("shard: no shard owns any candidate answer")
	}
	return out, nil
}
