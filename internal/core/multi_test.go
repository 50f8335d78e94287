package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"kgaq/internal/kg/kgtest"
	"kgaq/internal/query"
	"kgaq/internal/stats"
)

func threeSpecs() []AggSpec {
	return []AggSpec{
		{Func: query.Count},
		{Func: query.Sum, Attr: "price"},
		{Func: query.Avg, Attr: "price"},
	}
}

// The acceptance-criteria test: COUNT+SUM+AVG through QueryMulti must
// perform exactly one answer-space build and one shared draw stream — the
// per-agg round traces all report the same sample sizes, the shared
// SampleSize covers all three, and the stage cache sees a single miss.
func TestQueryMultiSingleBuildSharedSample(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 11})
	ctx := context.Background()
	p, err := e.Prepare(ctx, countQuery())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.QueryMulti(ctx, threeSpecs(), withoutCensus())
	if err != nil {
		t.Fatal(err)
	}
	if cs := e.CacheStats(); cs.Misses != 2 || cs.Plans != 1 {
		t.Fatalf("cache misses = %d, plan entries = %d, want 2 (the plan and its one stage: one answer-space build) and 1", cs.Misses, cs.Plans)
	}
	if !res.Converged {
		t.Fatalf("multi query did not converge: %+v", res)
	}
	if len(res.Aggs) != 3 {
		t.Fatalf("aggs = %d, want 3", len(res.Aggs))
	}
	truths := []float64{5, kgtest.Figure1SumPrice, kgtest.Figure1AvgPrice}
	for k, ar := range res.Aggs {
		if !ar.Converged {
			t.Fatalf("agg %v did not converge", ar.Spec)
		}
		if rel := stats.RelativeError(ar.Estimate, truths[k]); rel > 0.05 {
			t.Fatalf("agg %v estimate %v vs truth %v (rel %v)", ar.Spec, ar.Estimate, truths[k], rel)
		}
		// Shared draw stream: every agg's final round covers the shared
		// sample, and rounds never disagree on the sample they saw.
		if n := len(ar.Rounds); n == 0 || ar.Rounds[n-1].SampleSize != res.SampleSize {
			t.Fatalf("agg %v rounds %v disagree with shared sample size %d", ar.Spec, ar.Rounds, res.SampleSize)
		}
		for ri, r := range ar.Rounds {
			if r.SampleSize != res.Aggs[0].Rounds[ri].SampleSize {
				t.Fatalf("agg %v round %d sample size %d diverges from agg 0's %d — not one stream",
					ar.Spec, ri, r.SampleSize, res.Aggs[0].Rounds[ri].SampleSize)
			}
		}
	}
	if res.Rounds == 0 || res.SampleSize == 0 {
		t.Fatalf("shared counters empty: %+v", res)
	}
}

// QueryMulti must agree with three separate single-aggregate queries (same
// truths, same guarantees) while sharing the sample.
func TestQueryMultiMatchesSingles(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 5})
	ctx := context.Background()
	multi, err := e.QueryMulti(ctx, countQuery(), threeSpecs())
	if err != nil {
		t.Fatal(err)
	}
	for k, q := range []*query.Aggregate{
		countQuery(),
		query.Simple(query.Sum, "price", "Germany", "Country", "product", "Automobile"),
		avgPriceQuery(),
	} {
		single, err := e.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !single.Converged {
			t.Fatalf("single %v did not converge", q.Func)
		}
		// Both carry the eb=0.05 guarantee against one truth, so they agree
		// within twice the bound.
		if rel := math.Abs(multi.Aggs[k].Estimate-single.Estimate) / math.Abs(single.Estimate); rel > 0.10 {
			t.Fatalf("agg %v: multi %v vs single %v", q.Func, multi.Aggs[k].Estimate, single.Estimate)
		}
	}
}

// MAX/MIN specs ride the shared sample without a guarantee.
func TestQueryMultiExtremesRideAlong(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 6})
	specs := append(threeSpecs(),
		AggSpec{Func: query.Max, Attr: "price"},
		AggSpec{Func: query.Min, Attr: "price"})
	res, err := e.QueryMulti(context.Background(), countQuery(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("guaranteed aggs did not converge")
	}
	maxR, minR := res.Aggs[3], res.Aggs[4]
	if maxR.Converged || minR.Converged {
		t.Fatal("extremes must not claim convergence")
	}
	if math.IsNaN(maxR.Estimate) || math.IsNaN(minR.Estimate) || maxR.Estimate < minR.Estimate {
		t.Fatalf("extreme estimates broken: max %v min %v", maxR.Estimate, minR.Estimate)
	}
}

// Extremes-only spec lists work too (fixed-size rounds, no guarantee).
func TestQueryMultiExtremesOnly(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 6})
	res, err := e.QueryMulti(context.Background(), countQuery(), []AggSpec{
		{Func: query.Max, Attr: "price"},
		{Func: query.Min, Attr: "price"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("extremes-only run claims convergence")
	}
	if math.IsNaN(res.Aggs[0].Estimate) || math.IsNaN(res.Aggs[1].Estimate) {
		t.Fatalf("extremes not estimated: %+v", res.Aggs)
	}
}

// GROUP-BY multi execution: every guaranteed spec reports per-group
// results over the one shared sample.
func TestQueryMultiGrouped(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.10, Seed: 17})
	q := countQuery().WithGroupBy("fuel_economy")
	res, err := e.QueryMulti(context.Background(), q, []AggSpec{
		{Func: query.Count},
		{Func: query.Avg, Attr: "price"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ar := range res.Aggs {
		if ar.Groups == nil {
			t.Fatalf("agg %v: no groups", ar.Spec)
		}
		for _, label := range []string{"28", "22", "26", "n/a"} {
			if _, ok := ar.Groups[label]; !ok {
				t.Fatalf("agg %v: group %q missing (have %v)", ar.Spec, label, ar.Groups)
			}
		}
	}
	if gr := res.Aggs[0].Groups["n/a"]; stats.RelativeError(gr.Estimate, 2) > 0.3 {
		t.Fatalf("n/a COUNT group %v, want ≈2", gr.Estimate)
	}
}

// Per-spec error bounds refine until the tightest one is met.
func TestQueryMultiPerSpecBounds(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.20, Seed: 5})
	res, err := e.QueryMulti(context.Background(), countQuery(), []AggSpec{
		{Func: query.Count, ErrorBound: 0.20},
		{Func: query.Avg, Attr: "price", ErrorBound: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	avg := res.Aggs[1]
	if avg.ErrorBound != 0.02 {
		t.Fatalf("avg bound = %v", avg.ErrorBound)
	}
	if !satisfiedWithin(avg.Estimate, avg.MoE, 0.02) {
		t.Fatalf("avg MoE %v does not satisfy its own 2%% bound (estimate %v)", avg.MoE, avg.Estimate)
	}
}

func satisfiedWithin(v, moe, eb float64) bool {
	return moe <= math.Abs(v)*eb/(1+eb)
}

// Spec validation errors are typed.
func TestQueryMultiBadSpecs(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05})
	ctx := context.Background()
	for name, tc := range map[string]struct {
		q     *query.Aggregate
		specs []AggSpec
	}{
		"empty":             {countQuery(), nil},
		"sum-without-attr":  {countQuery(), []AggSpec{{Func: query.Sum}}},
		"grouped-max":       {countQuery().WithGroupBy("fuel_economy"), []AggSpec{{Func: query.Max, Attr: "price"}}},
		"unknown-aggregate": {countQuery(), []AggSpec{{Func: query.AggFunc(99), Attr: "x"}}},
	} {
		if _, err := e.QueryMulti(ctx, tc.q, tc.specs); !errors.Is(err, ErrBadAggSpec) {
			t.Fatalf("%s: err = %v, want ErrBadAggSpec", name, err)
		}
	}
	// Unknown spec attribute surfaces the resolution sentinel.
	if _, err := e.QueryMulti(ctx, countQuery(), []AggSpec{{Func: query.Sum, Attr: "no_such"}}); !errors.Is(err, ErrUnknownAttribute) {
		t.Fatalf("unknown attr: err = %v, want ErrUnknownAttribute", err)
	}
}
