package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"kgaq/internal/baselines"
	"kgaq/internal/datagen"
	"kgaq/internal/obs"
	"kgaq/internal/query"
)

// withoutCensus keeps a refinement sampling to its end: Decide never sees a
// census size, so a test whose fixture is smaller than its sample still
// measures the sampling path it was written for.
func withoutCensus() QueryOption {
	return func(c *queryConfig) { c.noCensus = true }
}

// censusFixture is dbpedia-sim at the given Scale with its SSB oracle and
// an engine at the benchmark's bound (eb 0.10, τ the profile's).
func censusFixture(t *testing.T, scale int) (*Engine, *datagen.Dataset, *baselines.SSB) {
	t.Helper()
	p := datagen.DBpediaSim()
	p.Scale = scale
	ds, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	ssb, err := baselines.NewSSB(ds.Graph, ds.Model, p.OptimalTau, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds.Graph, ds.Model, Options{ErrorBound: 0.10, Tau: p.OptimalTau})
	if err != nil {
		t.Fatal(err)
	}
	return e, ds, ssb
}

// A census is exact for the validator's verdicts; on dbpedia-sim at its
// own Scale they are SSB's, so every census answer — through Query and
// through QueryMulti, ungrouped or per GROUP-BY group — equals the exact
// SSB aggregate bit for bit, with MoE 0. A warm census makes no oracle call.
func TestCensusMatchesSSB(t *testing.T) {
	e, ds, ssb := censusFixture(t, 3)
	ctx := context.Background()
	truth := func(a *query.Aggregate, fn query.AggFunc, attr string) *baselines.Answer {
		c := *a
		c.Func, c.Attr = fn, attr
		ans, err := ssb.Execute(&c)
		if err != nil {
			t.Fatalf("SSB %v: %v", c.String(), err)
		}
		return ans
	}
	same := func(what string, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: census %v ≠ SSB %v", what, got, want)
		}
	}
	answers, exact := 0, 0
	for _, gq := range ds.Queries {
		a := gq.Agg
		switch gq.Category {
		case "extreme":
			continue
		case "groupby":
			want := truth(a, a.Func, a.Attr).Groups
			for seed := int64(1); seed <= 3; seed++ {
				res, err := e.Query(ctx, a, WithSeed(seed))
				if err != nil || !res.Exact {
					continue
				}
				for label, gr := range res.Groups {
					w, ok := want[label]
					if !ok {
						t.Errorf("%v group %s: not an SSB group", a, label)
						continue
					}
					same(a.String()+" group "+label, gr.Estimate, w)
				}
				for label, w := range want {
					if _, ok := res.Groups[label]; !ok && w != 0 {
						t.Errorf("%v: census lacks SSB group %s = %v", a, label, w)
					}
				}
			}
			continue
		}
		specs := []AggSpec{{Func: query.Count}}
		if a.Attr != "" {
			specs = append(specs, AggSpec{Func: query.Sum, Attr: a.Attr}, AggSpec{Func: query.Avg, Attr: a.Attr})
		}
		want := truth(a, a.Func, a.Attr).Value
		for seed := int64(1); seed <= 3; seed++ {
			answers++
			res, err := e.Query(ctx, a, WithSeed(seed))
			if err != nil {
				t.Fatalf("%v seed %d: %v", a, seed, err)
			}
			if res.Exact {
				exact++
				if res.MoE != 0 || !res.Converged {
					t.Errorf("%v seed %d: exact answer with MoE %v, converged %v", a, seed, res.MoE, res.Converged)
				}
				same(a.String(), res.Estimate, want)
			}
			mr, err := e.QueryMulti(ctx, a, specs, WithSeed(seed))
			if err != nil {
				t.Fatalf("%v seed %d multi: %v", a, seed, err)
			}
			for _, ar := range mr.Aggs {
				if !ar.Exact {
					continue
				}
				if ar.MoE != 0 || !ar.Converged {
					t.Errorf("%v %v: exact answer with MoE %v, converged %v", a, ar.Spec, ar.MoE, ar.Converged)
				}
				same(a.String()+" "+ar.Spec.String(), ar.Estimate, truth(a, ar.Spec.Func, ar.Spec.Attr).Value)
			}
		}
	}
	t.Logf("%d of %d ungrouped answers took the census", exact, answers)
	if exact < answers/2 {
		t.Errorf("only %d of %d answers took the census", exact, answers)
	}

	// Warm: the second execution of a plan reads every verdict the first
	// settled.
	a := ds.QueriesByCategory("simple")[0].Agg
	p, err := e.Prepare(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Query(ctx, WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(1, 1).Start("query", a.String())
	res, err := p.Query(obs.WithTrace(ctx, tr), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatalf("%v: the warm execution took no census: %+v", a, res)
	}
	if calls := tr.Counter("validation_calls"); calls != 0 {
		t.Fatalf("warm census made %v validation calls, want 0", calls)
	}
}

// At Scale 30 a chain level holds up to ≈ 1 200 intermediates, and every
// one is expanded, so a forced census of each ungrouped query — chains,
// cycles and flowers included — equals the exact SSB aggregate bit for bit.
func TestCensusMatchesSSBScale30(t *testing.T) {
	t.Parallel()
	e, ds, ssb := censusFixture(t, 30)
	ctx := context.Background()
	n := 0
	for _, gq := range ds.Queries {
		if gq.Category == "extreme" || gq.Category == "groupby" {
			continue
		}
		n++
		a := gq.Agg
		want, err := ssb.Execute(a)
		if err != nil {
			t.Fatalf("SSB %v: %v", a, err)
		}
		res, err := e.Query(ctx, a, WithErrorBound(1e-4), WithSeed(1))
		if err != nil {
			t.Fatalf("%s %v: %v", gq.Category, a, err)
		}
		if !res.Exact || res.MoE != 0 {
			t.Errorf("%s %v: exact %v, MoE %v; want a census", gq.Category, a, res.Exact, res.MoE)
			continue
		}
		if math.Float64bits(res.Estimate) != math.Float64bits(want.Value) {
			t.Errorf("%s %v: census %v ≠ SSB %v", gq.Category, a, res.Estimate, want.Value)
		}
	}
	if n != 88 {
		t.Errorf("%d ungrouped Scale 30 queries, want 88", n)
	}
}

// ROADMAP P5: the final round of refine is Last, so a round the MinCorrect
// gate holds at the round budget reports its estimate without a margin
// instead of failing, and draws nothing it does not fold.
func TestRoundBoundReportsGatedEstimate(t *testing.T) {
	e, _, _ := censusFixture(t, 3)
	q := query.Simple(query.Avg, "age", "Country_6", "Country", "bornIn", "SoccerPlayer")
	x, err := e.Start(context.Background(), q, WithSeed(100009), WithMaxRounds(1), withoutCensus())
	if err != nil {
		t.Fatal(err)
	}
	res, err := x.Refine(context.Background(), 0)
	if err != nil {
		t.Fatalf("round-bound exit under the gate: %v", err)
	}
	if res.Converged || math.IsNaN(res.Estimate) || !math.IsNaN(res.MoE) {
		t.Fatalf("want an estimate without a margin, unconverged: %+v", res)
	}
	if res.SampleSize != x.tab.folded {
		t.Fatalf("SampleSize %d, folded %d", res.SampleSize, x.tab.folded)
	}
}

// Every answer's SampleSize is the sample its last round read: no
// refinement ends holding draws no round evaluated — whether it sampled to
// its round budget or was settled by a census.
func TestSampleSizeIsLastRoundTiny(t *testing.T) {
	e, ds := tinyEngine(t)
	ctx := context.Background()
	// Out of reach in two rounds, with the gate low enough to read margins.
	tight := e.Options()
	tight.ErrorBound, tight.MaxRounds, tight.MinCorrect = 0.01, 2, 5
	checked := 0
	for _, gq := range ds.Queries {
		for seed := int64(1); seed <= 3; seed++ {
			for _, opts := range [][]QueryOption{
				{WithSeed(seed)},
				{WithOptions(tight), WithSeed(seed), withoutCensus()},
			} {
				res, err := e.Query(ctx, gq.Agg, opts...)
				if err != nil || len(res.Rounds) == 0 {
					continue
				}
				checked++
				if last := res.Rounds[len(res.Rounds)-1]; last.SampleSize != res.SampleSize {
					t.Errorf("%v seed %d: SampleSize %d, last round %d", gq.Agg, seed, res.SampleSize, last.SampleSize)
				}
			}
		}
	}
	if checked < len(ds.Queries) {
		t.Fatalf("only %d answers with a round", checked)
	}
}

// Concurrent executions of one cold plan: some settle candidates and
// publish their verdicts while others take the census and read them. Every
// census answer is the same, bit for bit.
func TestCensusConcurrentExecutions(t *testing.T) {
	e, ds := tinyEngine(t)
	ctx := context.Background()
	for _, gq := range ds.QueriesByCategory("simple") {
		p, err := e.Prepare(ctx, gq.Agg)
		if err != nil {
			t.Fatal(err)
		}
		const workers = 8
		var wg sync.WaitGroup
		results := make([]*Result, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := p.Query(ctx, WithSeed(int64(w+1)))
				if err != nil {
					t.Error(err)
					return
				}
				results[w] = res
			}()
		}
		wg.Wait()
		var want *Result
		for _, res := range results {
			if res == nil || !res.Exact {
				continue
			}
			if want == nil {
				want = res
			} else if math.Float64bits(res.Estimate) != math.Float64bits(want.Estimate) {
				t.Fatalf("%v: census answers %v and %v", gq.Agg, res.Estimate, want.Estimate)
			}
		}
		if want == nil {
			t.Fatalf("%v: no execution took the census", gq.Agg)
		}
	}
}
