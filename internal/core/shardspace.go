package core

import (
	"fmt"

	"kgaq/internal/estimate"
	"kgaq/internal/shard"
	"kgaq/internal/stats"
)

// shardSplit is the immutable partition of one compiled sampling space
// (DESIGN.md "Sharded execution"): the candidate answers cut into per-shard
// strata by node ownership, each stratum with its own conditional alias
// table. Computed once — at Prepare for a prepared plan — and shared
// read-only by every execution of the plan.
type shardSplit struct {
	plan   shard.Plan
	spaces []*shard.Space // non-empty strata, ascending shard order
	// posOf maps a global answer index to its stratum's position in spaces.
	posOf []int
}

// newShardSplit cuts an answer space into shards-many strata.
func newShardSplit(sp *answerSpace, shards int) (*shardSplit, error) {
	plan := shard.NewPlan(shards)
	spaces, err := shard.SplitSpace(plan, sp.answers, sp.probs)
	if err != nil {
		return nil, fmt.Errorf("core: sharding sampling space: %w", err)
	}
	split := &shardSplit{
		plan:   plan,
		spaces: spaces,
		posOf:  make([]int, len(sp.answers)),
	}
	for i := range split.posOf {
		split.posOf[i] = -1
	}
	for pos, spc := range spaces {
		for _, i := range spc.Index {
			split.posOf[i] = pos
		}
	}
	return split, nil
}

// shardedSpace is one execution's view of a shard split: the shared
// immutable partition plus the per-execution draw state — each stratum's
// deterministic draw stream, its draw count, and the latest variance
// signals feeding the Neyman allocator. Per-shard validation runs in
// parallel without sharing mutable state (Execution.validate); each
// stratum's draws fold into its own running moments, which merge through
// the stratified Horvitz–Thompson combiner of internal/estimate.
type shardedSpace struct {
	*shardSplit
	// streams are per-stratum generators: each stratum's draw stream is
	// deterministic under the query seed regardless of how the allocator
	// splits a round across strata.
	streams []stats.Splitmix
	// drawn counts draws taken per stratum (allocation state).
	drawn []int
	// sigmas holds the latest per-stratum HT-term standard deviations; the
	// allocator turns them into Neyman shares. Zero until the first
	// estimated round.
	sigmas []float64
	// statsBuf and allocBuf are reusable per-round scratch for the Neyman
	// allocation (one stratum-stats row and one draw-count slot per stratum);
	// sized lazily on first draw and reused for the execution's lifetime.
	statsBuf []estimate.StratumStats
	allocBuf []int
}

// newShardedSpace binds per-execution draw state to a shared split.
func newShardedSpace(split *shardSplit, seed int64) *shardedSpace {
	sh := &shardedSpace{
		shardSplit: split,
		streams:    make([]stats.Splitmix, len(split.spaces)),
		drawn:      make([]int, len(split.spaces)),
		sigmas:     make([]float64, len(split.spaces)),
	}
	for pos, spc := range split.spaces {
		// Each stratum forks an independent stream from the query seed and
		// its shard id, so draws are reproducible per stratum no matter how
		// rounds allocate across strata.
		sh.streams[pos] = stats.NewSplitmix(seed ^ (int64(spc.Shard)+1)*0x9E3779B9)
	}
	return sh
}

// condProb returns the draw probability of global answer index i
// conditional on its stratum.
func (sh *shardedSpace) condProb(sp *answerSpace, i int) float64 {
	return sp.probs[i] / sh.spaces[sh.posOf[i]].Weight
}

// drawInto allocates k draws across strata — Neyman once variance signals
// exist, proportional before — samples each stratum from its own stream,
// and appends the global answer indices to dst in ascending-stratum order.
// The allocation scratch lives on the sharded space, so steady-state rounds
// draw without allocating.
func (sh *shardedSpace) drawInto(dst []int, k int) []int {
	if cap(sh.statsBuf) < len(sh.spaces) {
		sh.statsBuf = make([]estimate.StratumStats, len(sh.spaces))
	}
	st := sh.statsBuf[:len(sh.spaces)]
	for pos, spc := range sh.spaces {
		st[pos] = estimate.StratumStats{Weight: spc.Weight, Sigma: sh.sigmas[pos]}
	}
	sh.allocBuf = estimate.AllocateDrawsInto(sh.allocBuf, k, st)
	for pos, n := range sh.allocBuf {
		if n <= 0 {
			continue
		}
		dst = sh.spaces[pos].DrawInto(dst, &sh.streams[pos], n)
		sh.drawn[pos] += n
	}
	return dst
}

// updateSigmas refreshes the per-stratum variance signals from a round's
// per-stratum moments (in stratum position order) under the aggregate whose
// guarantee is driving the refinement. A stratum without draws keeps its
// previous signal.
func (sh *shardedSpace) updateSigmas(mom []estimate.Moments) {
	for pos, m := range mom {
		if m.N > 0 {
			sh.sigmas[pos] = m.Sigma()
		}
	}
}
