package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"kgaq/internal/query"
)

// TestQueryCancelMidRefinement is the acceptance test of the context-aware
// API: cancelling after the first refinement round yields ErrInterrupted
// plus the partial estimate of the completed rounds, Converged=false — on a
// plain query, a GROUP-BY query (whose partial result keeps the groups of
// its last round) and a MAX-only QueryMulti, all through the one loop.
func TestQueryCancelMidRefinement(t *testing.T) {
	grouped := countQuery().WithGroupBy("fuel_economy")
	for _, c := range []struct {
		name string
		opts Options
		run  func(e *Engine, ctx context.Context, opts ...QueryOption) (estimate float64, converged bool, err error)
	}{
		{"plain", Options{Seed: 7, MinSample: 10, MinCorrect: 5, FixedDelta: 10},
			func(e *Engine, ctx context.Context, opts ...QueryOption) (float64, bool, error) {
				res, err := e.Query(ctx, avgPriceQuery(), opts...)
				if res == nil {
					return math.NaN(), false, err
				}
				return res.Estimate, res.Converged, err
			}},
		{"grouped", Options{Seed: 7, MinSample: 200},
			func(e *Engine, ctx context.Context, opts ...QueryOption) (float64, bool, error) {
				res, err := e.Query(ctx, grouped, opts...)
				if res == nil {
					return math.NaN(), false, err
				}
				if len(res.Groups) == 0 {
					return res.Estimate, res.Converged, errors.New("partial grouped result lost its groups")
				}
				return res.Estimate, res.Converged, err
			}},
		{"max-only multi", Options{Seed: 7},
			func(e *Engine, ctx context.Context, opts ...QueryOption) (float64, bool, error) {
				res, err := e.QueryMulti(ctx, countQuery(), []AggSpec{{Func: query.Max, Attr: "price"}}, opts...)
				if res == nil {
					return math.NaN(), false, err
				}
				return res.Aggs[0].Estimate, res.Converged, err
			}},
	} {
		e, _ := figure1Engine(t, c.opts)
		ctx, cancel := context.WithCancel(context.Background())
		var rounds []Round
		estimate, converged, err := c.run(e, ctx,
			// An unreachable bound keeps refinement running until cancelled.
			WithErrorBound(1e-9), withoutCensus(),
			OnRound(func(r Round) {
				rounds = append(rounds, r)
				cancel()
			}))
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("%s: err = %v, want ErrInterrupted", c.name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v should also match context.Canceled", c.name, err)
		}
		if converged {
			t.Fatalf("%s: cancelled query claims convergence", c.name)
		}
		if len(rounds) == 0 || math.IsNaN(estimate) {
			t.Fatalf("%s: partial result lacks the completed round (estimate %v)", c.name, estimate)
		}
		if estimate != rounds[len(rounds)-1].Estimate {
			t.Fatalf("%s: partial estimate %v ≠ last round's %v", c.name, estimate, rounds[len(rounds)-1].Estimate)
		}
	}
}

// TestRefineCancelledKeepsEarlierRounds: a Refine call cancelled before
// completing a round of its own still reports the last round of an earlier
// Refine on the same Execution, so interactive tightening never loses an
// already-produced estimate.
func TestRefineCancelledKeepsEarlierRounds(t *testing.T) {
	e, _ := figure1Engine(t, Options{Seed: 7})
	x, err := e.Start(context.Background(), avgPriceQuery())
	if err != nil {
		t.Fatal(err)
	}
	first, err := x.Refine(context.Background(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := x.Refine(ctx, 0.0001)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if math.IsNaN(res.Estimate) || res.Estimate != first.Estimate {
		t.Fatalf("cancelled refine lost the earlier estimate: %v, want %v", res.Estimate, first.Estimate)
	}
	if !IsPartial(err, res) {
		t.Fatal("IsPartial must accept an estimate-bearing interrupt")
	}
	if IsPartial(err, nil) || IsPartial(nil, res) {
		t.Fatal("IsPartial must require both an interrupt and a result")
	}
}

// TestStartCancelled covers cancellation during preparation, before any
// sample exists: no partial result, just ErrInterrupted.
func TestStartCancelled(t *testing.T) {
	e, _ := figure1Engine(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x, err := e.Start(ctx, avgPriceQuery())
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if x != nil {
		t.Fatal("cancelled Start returned an execution")
	}
	if _, err := e.Query(ctx, avgPriceQuery()); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Query err = %v, want ErrInterrupted", err)
	}
	// The topology-only samplers honour ctx during preparation too.
	if _, err := e.Start(ctx, countQuery(), WithSampler(SamplerCNARW)); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("CNARW Start err = %v, want ErrInterrupted", err)
	}
}

// TestQueryOptionOverrides confirms per-query options shadow the engine
// configuration without mutating it.
func TestQueryOptionOverrides(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.02, Seed: 7})
	ctx := context.Background()

	// MaxDraws: an unreachable bound with a tiny budget must stop early.
	res, err := e.Query(ctx, avgPriceQuery(), WithErrorBound(1e-9), WithMaxDraws(40), withoutCensus())
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleSize > 40 {
		t.Fatalf("WithMaxDraws ignored: |S| = %d", res.SampleSize)
	}
	if res.Converged {
		t.Fatal("1e-9 bound cannot converge in 40 draws")
	}
	if e.Options().MaxDraws != 20000 || e.Options().ErrorBound != 0.02 {
		t.Fatalf("engine options mutated: %+v", e.Options())
	}

	// Confidence override shows up on the result.
	res, err = e.Query(ctx, avgPriceQuery(), WithConfidence(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Confidence != 0.9 {
		t.Fatalf("confidence = %v, want 0.9", res.Confidence)
	}

	// Tau override: at τ=0.99 nothing validates, so AVG must fail even
	// though the engine default τ works fine.
	if _, err := e.Query(ctx, avgPriceQuery(), WithTau(0.99), WithMaxRounds(3)); err == nil {
		t.Fatal("WithTau(0.99) did not land")
	}
	if _, err := e.Query(ctx, avgPriceQuery()); err != nil {
		t.Fatalf("engine default run broken after overrides: %v", err)
	}

	// Seed override: same seed reproduces, different seed may differ but
	// both must succeed; determinism is the load-bearing half.
	a, err := e.Query(ctx, avgPriceQuery(), WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Query(ctx, avgPriceQuery(), WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimate != b.Estimate || a.SampleSize != b.SampleSize {
		t.Fatalf("same-seed queries diverged: %v/%d vs %v/%d",
			a.Estimate, a.SampleSize, b.Estimate, b.SampleSize)
	}
}

// TestConcurrentQueries exercises the documented concurrency guarantee:
// one Engine, ≥8 goroutines, per-query seeds; same-seed pairs must agree
// exactly. Run with -race in CI.
func TestConcurrentQueries(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05})
	const workers = 12 // seeds 0..5 twice, so every seed has a twin
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Query(context.Background(), avgPriceQuery(),
				WithSeed(int64(i%6)+1))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	for i := 0; i < 6; i++ {
		a, b := results[i], results[i+6]
		if a.Estimate != b.Estimate || a.SampleSize != b.SampleSize {
			t.Fatalf("seed %d twins diverged under concurrency: %v/%d vs %v/%d",
				i+1, a.Estimate, a.SampleSize, b.Estimate, b.SampleSize)
		}
	}
}

// TestQueryBatch runs a mixed workload over the worker pool: outcomes stay
// index-aligned and per-query failures do not sink the batch.
func TestQueryBatch(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 3})
	qs := []*query.Aggregate{
		countQuery(),
		query.Simple(query.Count, "", "Atlantis", "Country", "product", "Automobile"),
		avgPriceQuery(),
	}
	out := e.QueryBatch(context.Background(), qs, WithParallelism(2))
	if len(out) != len(qs) {
		t.Fatalf("got %d results", len(out))
	}
	for i, br := range out {
		if br.Query != qs[i] {
			t.Fatalf("result %d not index-aligned", i)
		}
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("valid queries failed: %v / %v", out[0].Err, out[2].Err)
	}
	if !errors.Is(out[1].Err, ErrUnknownEntity) {
		t.Fatalf("invalid query err = %v, want ErrUnknownEntity", out[1].Err)
	}
	if out[0].Result.Estimate <= 0 || out[2].Result.Estimate <= 0 {
		t.Fatal("degenerate batch estimates")
	}
}

// TestQueryBatchCancelled: a cancelled batch marks undispatched queries
// with ErrInterrupted instead of hanging.
func TestQueryBatchCancelled(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	qs := make([]*query.Aggregate, 16)
	for i := range qs {
		qs[i] = countQuery()
	}
	out := e.QueryBatch(ctx, qs, WithParallelism(2))
	for i, br := range out {
		if !errors.Is(br.Err, ErrInterrupted) {
			t.Fatalf("result %d: err = %v, want ErrInterrupted", i, br.Err)
		}
	}
}

// TestRoundsStreaming: OnRound sees exactly the rounds the result records,
// one per evaluated round, on the plain, GROUP-BY and multi-aggregate paths
// alike.
func TestRoundsStreaming(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.02, Seed: 7})
	ctx := context.Background()
	for _, c := range []struct {
		name  string
		q     *query.Aggregate
		specs []AggSpec // nil: the query's own aggregate through Refine
	}{
		{"plain", avgPriceQuery(), nil},
		{"grouped", countQuery().WithGroupBy("fuel_economy"), nil},
		{"multi", countQuery(), threeSpecs()},
	} {
		var streamed []Round
		x, err := e.Start(ctx, c.q, OnRound(func(r Round) { streamed = append(streamed, r) }))
		if err != nil {
			t.Fatal(err)
		}
		var recorded []Round
		if c.specs == nil {
			res, err := x.Refine(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			recorded = res.Rounds
		} else {
			res, err := x.queryMulti(ctx, c.specs)
			if err != nil {
				t.Fatal(err)
			}
			recorded = res.Aggs[0].Rounds
		}
		if len(streamed) == 0 || len(streamed) != len(recorded) {
			t.Fatalf("%s: streamed %d rounds, the result %d", c.name, len(streamed), len(recorded))
		}
		for i := range streamed {
			if streamed[i] != recorded[i] {
				t.Fatalf("%s: round %d: streamed %+v, result %+v", c.name, i, streamed[i], recorded[i])
			}
		}
	}
}

// TestSentinelErrors: resolution failures match their typed sentinels
// through errors.Is.
func TestSentinelErrors(t *testing.T) {
	e, _ := figure1Engine(t, Options{})
	ctx := context.Background()
	cases := []struct {
		q    *query.Aggregate
		want error
	}{
		{query.Simple(query.Count, "", "Atlantis", "Country", "product", "Automobile"), ErrUnknownEntity},
		{query.Simple(query.Count, "", "Germany", "Person", "product", "Automobile"), ErrUnknownEntity},
		{query.Simple(query.Count, "", "Germany", "Planet", "product", "Automobile"), ErrUnknownType},
		{query.Simple(query.Count, "", "Germany", "Country", "owns", "Automobile"), ErrUnknownPredicate},
		{query.Simple(query.Avg, "warpSpeed", "Germany", "Country", "product", "Automobile"), ErrUnknownAttribute},
	}
	for i, c := range cases {
		_, err := e.Query(ctx, c.q)
		if !errors.Is(err, c.want) {
			t.Errorf("case %d: err = %v, want %v", i, err, c.want)
		}
	}
}

// TestGroupedStepTimesWithinWall: a grouped Refine charges each interval
// to exactly one step and none to its OnRound callback, so its step times
// add up to no more than the wall time of the call less the time spent in
// the callback.
func TestGroupedStepTimesWithinWall(t *testing.T) {
	e, ds := tinyEngine(t)
	var q *query.Aggregate
	for _, gq := range ds.Queries {
		if gq.Category == "groupby" {
			q = gq.Agg
			break
		}
	}
	ctx := context.Background()
	const pause = 2 * time.Millisecond
	p, err := e.Prepare(ctx, q, WithErrorBound(0.01), OnRound(func(Round) { time.Sleep(pause) }))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		x, err := p.Start(ctx, WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		begin := time.Now()
		res, err := x.Refine(ctx, 0)
		wall := time.Since(begin)
		if err != nil {
			t.Fatal(err)
		}
		steps := res.Times.Sampling + res.Times.Estimation + res.Times.Guarantee
		if callbacks := time.Duration(len(res.Rounds)) * pause; steps > wall-callbacks {
			t.Fatalf("seed %d: steps add up to %v (%+v) over %v of wall time, %v of it in OnRound",
				seed, steps, res.Times, wall, callbacks)
		}
	}
}
