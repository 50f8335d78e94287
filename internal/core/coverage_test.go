package core

import (
	"context"
	"math"
	"testing"

	"kgaq/internal/baselines"
	"kgaq/internal/datagen"
	"kgaq/internal/query"
)

// TestSeededCoverageTiny scores Theorem 2 empirically on the `tiny`
// profile: every ungrouped COUNT/SUM/AVG workload query under 8 seeds
// through Query, and every valued one under 6 seeds through QueryMulti with
// {COUNT(*), SUM(attr), AVG(attr)} — 320 (query, seed) pairs, 512 scored
// intervals — at eb 0.10 against the exact baselines.SSB answer. An
// interval covers when |V̂ − truth| ≤ ε; an answer the engine could not
// estimate counts as neither covered nor converged.
//
// The floors are the shares this same test measured on the commit before
// the closed-form margin replaced the bootstrap (BLB margin, Eq. 12 damped
// to exponent 1.2), minus 0.02. Measured there: covered 0.9355, converged
// 0.8965, in 3.7 s; with the closed form and undamped sizing: covered
// 0.9395, converged 0.9648, in 0.5 s.
//
// Most `tiny` samples reach |A|, where the census would answer exactly; the
// test turns it off, so it scores the CLT interval it was written for.
func TestSeededCoverageTiny(t *testing.T) {
	p := datagen.TinyProfile()
	ds, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	ssb, err := baselines.NewSSB(ds.Graph, ds.Model, p.OptimalTau, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds.Graph, ds.Model, Options{ErrorBound: 0.10, Tau: p.OptimalTau})
	if err != nil {
		t.Fatal(err)
	}
	truth := func(a *query.Aggregate, fn query.AggFunc, attr string) float64 {
		c := *a
		c.Func, c.Attr = fn, attr
		ans, err := ssb.Execute(&c)
		if err != nil {
			t.Fatalf("SSB %v: %v", c.String(), err)
		}
		return ans.Value
	}
	ctx := context.Background()
	pairs, scored, covered, converged := 0, 0, 0, 0
	score := func(est, moe, want float64, conv bool) {
		scored++
		if conv {
			converged++
		}
		if !math.IsNaN(est) && !math.IsNaN(moe) && math.Abs(est-want) <= moe {
			covered++
		}
	}
	for _, gq := range ds.Queries {
		if gq.Category == "groupby" || gq.Category == "extreme" {
			continue
		}
		a := gq.Agg
		want := truth(a, a.Func, a.Attr)
		for seed := int64(1); seed <= 8; seed++ {
			pairs++
			res, err := eng.Query(ctx, a, WithSeed(seed), withoutCensus())
			if err != nil {
				score(math.NaN(), math.NaN(), want, false)
				continue
			}
			score(res.Estimate, res.MoE, want, res.Converged)
		}
		if a.Attr == "" {
			continue
		}
		specs := []AggSpec{{Func: query.Count}, {Func: query.Sum, Attr: a.Attr}, {Func: query.Avg, Attr: a.Attr}}
		wants := []float64{truth(a, query.Count, ""), truth(a, query.Sum, a.Attr), truth(a, query.Avg, a.Attr)}
		for seed := int64(101); seed <= 106; seed++ {
			pairs++
			mr, err := eng.QueryMulti(ctx, a, specs, WithSeed(seed), withoutCensus())
			for k := range specs {
				if err != nil {
					score(math.NaN(), math.NaN(), wants[k], false)
					continue
				}
				score(mr.Aggs[k].Estimate, mr.Aggs[k].MoE, wants[k], mr.Aggs[k].Converged)
			}
		}
	}
	if pairs < 300 {
		t.Fatalf("only %d (query, seed) pairs, want ≥ 300", pairs)
	}
	coverShare := float64(covered) / float64(scored)
	convShare := float64(converged) / float64(scored)
	t.Logf("%d pairs, %d intervals: covered %.4f, converged %.4f", pairs, scored, coverShare, convShare)
	const (
		parentCovered   = 0.9355
		parentConverged = 0.8965
	)
	if coverShare < parentCovered-0.02 {
		t.Errorf("covered share %.4f below the parent's %.4f − 0.02", coverShare, parentCovered)
	}
	if convShare < parentConverged-0.02 {
		t.Errorf("converged share %.4f below the parent's %.4f − 0.02", convShare, parentConverged)
	}
}
