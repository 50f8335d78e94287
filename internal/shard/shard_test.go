package shard

import (
	"math"
	"testing"

	"kgaq/internal/kg"
	"kgaq/internal/kg/kgtest"
	"kgaq/internal/stats"
)

func TestAssignDeterministicAndInRange(t *testing.T) {
	for n := 1; n <= 16; n *= 2 {
		for u := kg.NodeID(0); u < 1000; u++ {
			s := Assign(u, n)
			if s < 0 || s >= n {
				t.Fatalf("Assign(%d, %d) = %d out of range", u, n, s)
			}
			if s != Assign(u, n) {
				t.Fatalf("Assign(%d, %d) not deterministic", u, n)
			}
		}
	}
	if Assign(42, 1) != 0 || Assign(42, 0) != 0 {
		t.Fatal("degenerate plans must map everything to shard 0")
	}
}

func TestAssignBalance(t *testing.T) {
	const nodes, shards = 100000, 8
	counts := make([]int, shards)
	for u := 0; u < nodes; u++ {
		counts[Assign(kg.NodeID(u), shards)]++
	}
	want := nodes / shards
	for s, c := range counts {
		if math.Abs(float64(c-want)) > 0.05*float64(want) {
			t.Fatalf("shard %d owns %d nodes, want %d ± 5%%", s, c, want)
		}
	}
}

func TestNewPlanClamps(t *testing.T) {
	if got := NewPlan(-3).Shards(); got != 1 {
		t.Fatalf("NewPlan(-3).Shards() = %d", got)
	}
	if got := NewPlan(MaxShards + 1).Shards(); got != MaxShards {
		t.Fatalf("NewPlan(MaxShards+1).Shards() = %d", got)
	}
	var zero Plan
	if zero.Shards() != 1 {
		t.Fatalf("zero Plan.Shards() = %d", zero.Shards())
	}
}

func TestSplitSpace(t *testing.T) {
	g := kgtest.Figure1()
	var answers []kg.NodeID
	for u := 0; u < g.NumNodes(); u++ {
		answers = append(answers, kg.NodeID(u))
	}
	probs := make([]float64, len(answers))
	for i := range probs {
		probs[i] = 1 / float64(len(probs))
	}
	plan := NewPlan(3)
	spaces, err := SplitSpace(plan, answers, probs)
	if err != nil {
		t.Fatal(err)
	}
	wsum := 0.0
	covered := map[int]bool{}
	for _, sp := range spaces {
		wsum += sp.Weight
		csum := 0.0
		for k, i := range sp.Index {
			if plan.Of(answers[i]) != sp.Shard {
				t.Fatalf("index %d assigned to wrong shard %d", i, sp.Shard)
			}
			if covered[i] {
				t.Fatalf("answer index %d in two strata", i)
			}
			covered[i] = true
			csum += sp.CondProbs[k]
			if want := probs[i] / sp.Weight; math.Abs(sp.CondProbs[k]-want) > 1e-12 {
				t.Fatalf("conditional prob = %g, want %g", sp.CondProbs[k], want)
			}
		}
		if math.Abs(csum-1) > 1e-9 {
			t.Fatalf("shard %d conditional probs sum to %g", sp.Shard, csum)
		}
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("stratum weights sum to %g", wsum)
	}
	if len(covered) != len(answers) {
		t.Fatalf("strata cover %d of %d answers", len(covered), len(answers))
	}

	// Draws come back as global indices owned by the stratum's shard.
	sm := stats.NewSplitmix(1)
	for _, sp := range spaces {
		for _, i := range sp.DrawInto(nil, &sm, 100) {
			if plan.Of(answers[i]) != sp.Shard {
				t.Fatalf("draw %d escaped shard %d", i, sp.Shard)
			}
		}
	}

	if _, err := SplitSpace(plan, answers, probs[:1]); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

// The ownership hash must not degenerate for power-of-two shard counts: a
// node population whose ids follow a periodic pattern (bulk loads
// interleaving types) must still spread across all shards.
func TestAssignPeriodicIDsSpread(t *testing.T) {
	const n, shards = 4096, 8
	counts := make(map[int]int)
	for i := 0; i < n; i += 4 { // every 4th id, the skew pattern of bulk loads
		counts[Assign(kg.NodeID(i), shards)]++
	}
	if len(counts) != shards {
		t.Fatalf("periodic ids landed on %d of %d shards: %v", len(counts), shards, counts)
	}
	for s, c := range counts {
		if c < n/4/shards/2 || c > n/4/shards*2 {
			t.Fatalf("shard %d owns %d of %d periodic ids — skewed: %v", s, c, n/4, counts)
		}
	}
}
