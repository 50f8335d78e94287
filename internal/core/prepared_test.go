package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"kgaq/internal/query"
	"kgaq/internal/stats"
)

// Prepare must compile once — stages built fresh on a cold engine, served
// from cache when the same plan is prepared again — and expose honest plan
// metadata.
func TestPrepareCompilesOnceAndIntrospects(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 1})
	ctx := context.Background()

	p, err := e.Prepare(ctx, avgPriceQuery())
	if err != nil {
		t.Fatal(err)
	}
	info := p.Plan()
	if info.Shape.String() != "simple" {
		t.Fatalf("shape = %v, want simple", info.Shape)
	}
	if info.Paths != 1 || info.HopBound != 3 {
		t.Fatalf("paths/hop bound = %d/%d, want 1/3", info.Paths, info.HopBound)
	}
	if info.Candidates != 6 {
		t.Fatalf("candidates = %d, want 6 (Figure 1 automobiles)", info.Candidates)
	}
	if info.CacheBuilt != 1 || info.CacheHits != 0 {
		t.Fatalf("cold prepare: built/hits = %d/%d, want 1/0", info.CacheBuilt, info.CacheHits)
	}
	if info.EpochPolicy != EpochPin {
		t.Fatalf("default epoch policy = %v, want pin", info.EpochPolicy)
	}
	if _, err := query.Parse(info.Query); err != nil {
		t.Fatalf("Plan().Query %q is not re-parseable: %v", info.Query, err)
	}

	p2, err := e.Prepare(ctx, avgPriceQuery())
	if err != nil {
		t.Fatal(err)
	}
	if info2 := p2.Plan(); info2.CacheBuilt != 0 || info2.CacheHits != 1 {
		t.Fatalf("warm prepare: built/hits = %d/%d, want 0/1", info2.CacheBuilt, info2.CacheHits)
	}
}

// A prepared plan executes repeatedly without rebuilding: the engine's
// stage cache sees exactly one miss however many queries run, and equal
// seeds draw identical samples.
func TestPreparedQueryReuse(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 9})
	ctx := context.Background()
	p, err := e.Prepare(ctx, avgPriceQuery())
	if err != nil {
		t.Fatal(err)
	}
	var first *Result
	for i := 0; i < 5; i++ {
		res, err := p.Query(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("run %d did not converge", i)
		}
		if first == nil {
			first = res
		} else if res.Estimate != first.Estimate || res.SampleSize != first.SampleSize {
			t.Fatalf("run %d diverged under one seed: %v/%d vs %v/%d",
				i, res.Estimate, res.SampleSize, first.Estimate, first.SampleSize)
		}
	}
	if cs := e.CacheStats(); cs.Misses != 2 || cs.Plans != 1 {
		t.Fatalf("cache misses = %d, plan entries = %d after 5 plan executions, want 2 (the plan and its one stage) and 1", cs.Misses, cs.Plans)
	}
	// Seed overrides draw an independent stream without recompiling.
	res, err := p.Query(ctx, WithSeed(1234))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("seed-override run did not converge")
	}
	if cs := e.CacheStats(); cs.Misses != 2 {
		t.Fatalf("cache misses = %d after seed override, want 2", cs.Misses)
	}
}

// One Prepared must serve concurrent executions: forked verdict caches,
// private RNGs, shared immutable space (run with -race).
func TestPreparedConcurrentExecutions(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 3})
	p, err := e.Prepare(context.Background(), countQuery())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	ests := make([]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := p.Query(context.Background(), WithSeed(int64(w+1)))
			if err != nil {
				errs[w] = err
				return
			}
			ests[w] = res.Estimate
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
		if rel := stats.RelativeError(ests[w], 5); rel > 0.25 {
			t.Fatalf("worker %d estimate %v far from the 5 correct automobiles", w, ests[w])
		}
	}
}

// Plan-compiled knobs cannot be overridden per execution; execution-level
// knobs can.
func TestPreparedOptionBoundaries(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 1})
	ctx := context.Background()
	p, err := e.Prepare(ctx, avgPriceQuery())
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]QueryOption{
		"hop bound":    WithHopBound(2),
		"tau":          WithTau(0.7),
		"sampler":      WithSampler(SamplerCNARW),
		"epoch policy": WithEpochPolicy(EpochRepin),
	} {
		if _, err := p.Query(ctx, opt); !errors.Is(err, ErrPlanOption) {
			t.Fatalf("%s override: err = %v, want ErrPlanOption", name, err)
		}
	}
	if _, err := p.Query(ctx, WithErrorBound(0.2), WithSeed(5), WithMaxDraws(5000)); err != nil {
		t.Fatalf("execution-level overrides rejected: %v", err)
	}
}

// Prepare requires the semantic sampler: the topology ablations draw
// during the build and have nothing to compile.
func TestPrepareRejectsTopologySamplers(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05})
	if _, err := e.Prepare(context.Background(), countQuery(), WithSampler(SamplerCNARW)); !errors.Is(err, ErrPlanSampler) {
		t.Fatalf("err = %v, want ErrPlanSampler", err)
	}
	// The one-shot path still accepts them (it routes around Prepare).
	if _, err := e.Query(context.Background(), countQuery(), WithSampler(SamplerCNARW), WithErrorBound(0.3)); err != nil {
		t.Fatalf("one-shot topology query failed: %v", err)
	}
}

// QueryBatch must share one answer-space build across same-graph queries:
// COUNT, SUM and AVG over one query graph are one plan key.
func TestQueryBatchDedupesPlans(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 2})
	qs := []*query.Aggregate{
		countQuery(),
		query.Simple(query.Sum, "price", "Germany", "Country", "product", "Automobile"),
		avgPriceQuery(),
		avgPriceQuery().WithFilterAtLeast("price", 0),
	}
	results := e.QueryBatch(context.Background(), qs, WithParallelism(4))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if !r.Result.Converged {
			t.Fatalf("query %d did not converge", i)
		}
	}
	if cs := e.CacheStats(); cs.Misses != 2 || cs.Plans != 1 {
		t.Fatalf("cache misses = %d, plan entries = %d for a 4-query same-graph batch, want 2 (the plan and its one stage: one shared build) and 1", cs.Misses, cs.Plans)
	}
}
