package semsim

import (
	"context"
	"math/rand"
	"testing"

	"kgaq/internal/datagen"
	"kgaq/internal/kg"
)

// A search asked for a leg's every candidate gives each one exactly the
// result a search asked for a smaller request gives it — the property that
// lets the engine validate a leg's whole stage at its first open answer. On
// every dbpedia-sim leg, under the walk's stationary π, seeded request
// batches with duplicates, an off-scope node and the start are held to one
// search over all candidates, bit for bit, with Repeat 1 and 3 and budgets
// that stop the search early, so the fallback runs both after a dry heap
// and after a budget stop. Each single-answer request is also held to the
// reference search with its per-answer fallback.
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
	rng := rand.New(rand.NewSource(11))
	configs := []ValidatorConfig{
		{Repeat: 3, MaxLen: 3, Tau: 0.85},
		{Repeat: 1, MaxLen: 3, Tau: 0.85},
		{Repeat: 3, MaxLen: 3, Tau: 0.85, Budget: 40},  // runs out
		{Repeat: 3, MaxLen: 3, Tau: 0.85, Budget: 400}, // runs out later
	}
	compared, dry, stopped := 0, 0, 0
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
		pi := stationaryPi(g, c, l.root, l.pred, 3)
		piAt := func(u kg.NodeID) float64 { return pi[u] }
		all := append([]kg.NodeID{far, l.root}, cands...)
		for _, cfg := range configs {
			whole, wholeStats := ValidateFunc(ctx, g, c, l.root, l.pred, piAt, all, cfg)
			if wholeStats.Expansions < cfg.withDefaults().Budget {
				dry++
			} else {
				stopped++
			}
			for b := 0; b < 4; b++ {
				req := make([]kg.NodeID, 1+rng.Intn(8))
				for i := range req {
					req[i] = all[rng.Intn(len(all))]
				}
				if b == 0 {
					req = req[:1]
				}
				got, gotStats := ValidateFunc(ctx, g, c, l.root, l.pred, piAt, req, cfg)
				if gotStats.Expansions > wholeStats.Expansions {
					t.Fatalf("root %s, %+v: %d answers expanded %d paths, all %d candidates %d",
						g.Name(l.root), cfg, len(req), gotStats.Expansions, len(all), wholeStats.Expansions)
				}
				for _, u := range req {
					w, wok := whole[u]
					r, rok := got[u]
					if wok != rok || w != r {
						t.Fatalf("root %s, %+v, answer %s: %+v (%v) asked with %d answers, %+v (%v) with all %d",
							g.Name(l.root), cfg, g.Name(u), r, rok, len(req), w, wok, len(all))
					}
				}
				if b == 0 {
					ref, _ := referenceValidate(ctx, g, c, l.root, l.pred, pi, req, cfg)
					if ref[req[0]] != got[req[0]] {
						t.Fatalf("root %s, %+v, answer %s: %+v, reference %+v",
							g.Name(l.root), cfg, g.Name(req[0]), got[req[0]], ref[req[0]])
					}
				}
				compared++
			}
		}
	}
	if compared < 500 || dry == 0 || stopped == 0 {
		t.Fatalf("%d comparisons, %d searches ran dry, %d stopped on the budget", compared, dry, stopped)
	}
	t.Logf("%d comparisons; %d whole-stage searches ran dry, %d stopped on the budget", compared, dry, stopped)
}
