package semsim

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"kgaq/internal/datagen"
	"kgaq/internal/kg"
)

// A search asked for a leg's every candidate gives each one exactly the
// verdict a search asked for a smaller request gives it, expanding the same
// paths — the property that lets the engine validate a leg's whole stage
// at its first open answer. On every dbpedia-sim leg, seeded request
// batches with duplicates, an off-scope node and the start are held to one
// search over all of them.
func TestStageBatchMatchesRequests(t *testing.T) {
	ds, err := datagen.Generate(datagen.DBpediaSim())
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	c, err := NewCalculator(g, ds.Model, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := ValidatorConfig{MaxLen: 3, Tau: 0.85}
	rng := rand.New(rand.NewSource(11))
	compared := 0
	for _, l := range workloadLegs(t, ds) {
		cands := candidatesOf(g, l, 0)
		if len(cands) == 0 {
			continue
		}
		far := l.root
		scope := g.BoundedSubgraph(l.root, 3)
		for u := kg.NodeID(0); int(u) < g.NumNodes(); u++ {
			if _, in := scope.Dist[u]; !in {
				far = u
				break
			}
		}
		all := append([]kg.NodeID{far, l.root}, cands...)
		whole := make([]bool, len(all))
		wholeStats, _ := Validate(ctx, g, c, l.root, l.pred, all, whole, cfg)
		for b := range 4 {
			req := make([]kg.NodeID, 1+rng.Intn(8))
			at := make([]int, len(req))
			for i := range req {
				at[i] = rng.Intn(len(all))
				req[i] = all[at[i]]
			}
			if b == 0 {
				req, at = req[:1], at[:1]
			}
			got := make([]bool, len(req))
			stats, _ := Validate(ctx, g, c, l.root, l.pred, req, got, cfg)
			want := make([]bool, len(req))
			for i, k := range at {
				want[i] = whole[k]
			}
			if !slices.Equal(got, want) || stats != wholeStats {
				t.Fatalf("root %s: %d answers gave %v and %+v, asked with all %d %v and %+v",
					g.Name(l.root), len(req), got, stats, len(all), want, wholeStats)
			}
			compared++
		}
	}
	if compared < 500 {
		t.Fatalf("only %d comparisons ran", compared)
	}
}
