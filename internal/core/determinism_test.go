package core

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"kgaq/internal/query"
)

// Pooling must be behaviour-invisible: the same query under the same seed
// returns bitwise-identical estimates, margins and draw counts whether the
// hot-loop scratch comes from the sync.Pool or is freshly allocated every
// call. disableScratchPool flips the acquire path; everything else is
// shared code.
func TestPooledMatchesUnpooledQuery(t *testing.T) {
	run := func() *Result {
		e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 11})
		res, err := e.Query(context.Background(), avgPriceQuery())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	disableScratchPool = true
	unpooled := run()
	disableScratchPool = false
	pooled := run()

	if pooled.Estimate != unpooled.Estimate || pooled.MoE != unpooled.MoE {
		t.Fatalf("pooled (%v ± %v) != unpooled (%v ± %v)",
			pooled.Estimate, pooled.MoE, unpooled.Estimate, unpooled.MoE)
	}
	if pooled.SampleSize != unpooled.SampleSize || pooled.Distinct != unpooled.Distinct ||
		pooled.Correct != unpooled.Correct || len(pooled.Rounds) != len(unpooled.Rounds) {
		t.Fatalf("pooled counters %+v != unpooled %+v", pooled, unpooled)
	}
	for i := range pooled.Rounds {
		if pooled.Rounds[i] != unpooled.Rounds[i] {
			t.Fatalf("round %d: pooled %+v != unpooled %+v", i, pooled.Rounds[i], unpooled.Rounds[i])
		}
	}
}

// The multi-aggregate path reuses the same pooled arenas; it must be
// equally pooling-invariant.
func TestPooledMatchesUnpooledQueryMulti(t *testing.T) {
	run := func() *MultiResult {
		e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 13})
		res, err := e.QueryMulti(context.Background(), countQuery(), threeSpecs())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	disableScratchPool = true
	unpooled := run()
	disableScratchPool = false
	pooled := run()

	if pooled.SampleSize != unpooled.SampleSize || pooled.Rounds != unpooled.Rounds ||
		pooled.Distinct != unpooled.Distinct || pooled.Correct != unpooled.Correct {
		t.Fatalf("pooled counters %+v != unpooled %+v", pooled, unpooled)
	}
	for k := range pooled.Aggs {
		pa, ua := pooled.Aggs[k], unpooled.Aggs[k]
		if pa.Estimate != ua.Estimate || pa.MoE != ua.MoE || len(pa.Rounds) != len(ua.Rounds) {
			t.Fatalf("agg %v: pooled (%v ± %v, %d rounds) != unpooled (%v ± %v, %d rounds)",
				pa.Spec, pa.Estimate, pa.MoE, len(pa.Rounds), ua.Estimate, ua.MoE, len(ua.Rounds))
		}
	}
}

// One shared draw stream means QueryMulti and three sequential Query calls
// see the same sample: under a bound loose enough that every aggregate
// settles as soon as the minimum-correct floor is met, the estimates,
// margins and draw counts agree bitwise. This pins that the guarantee
// step never reads the draw stream — ε is a function of the observations
// alone — so running three aggregates together consumes exactly the stream
// one aggregate would.
func TestQueryMultiBitwiseMatchesSequentialSingles(t *testing.T) {
	const seed, eb = 9, 0.5
	e, _ := figure1Engine(t, Options{ErrorBound: eb, Seed: seed})
	ctx := context.Background()

	multi, err := e.QueryMulti(ctx, countQuery(), threeSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if !multi.Converged {
		t.Fatalf("multi did not converge under eb=%v", eb)
	}

	singles := []*query.Aggregate{
		countQuery(),
		query.Simple(query.Sum, "price", "Germany", "Country", "product", "Automobile"),
		avgPriceQuery(),
	}
	for k, q := range singles {
		single, err := e.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		agg := multi.Aggs[k]
		if agg.Estimate != single.Estimate {
			t.Fatalf("%v: multi estimate %v != single %v (bitwise)", q.Func, agg.Estimate, single.Estimate)
		}
		if agg.MoE != single.MoE {
			t.Fatalf("%v: multi MoE %v != single %v (bitwise)", q.Func, agg.MoE, single.MoE)
		}
		if multi.SampleSize != single.SampleSize {
			t.Fatalf("%v: multi drew %d, single drew %d — streams diverged",
				q.Func, multi.SampleSize, single.SampleSize)
		}
	}
}

// Concurrent executions of one shared Prepared plan must neither race on
// the pooled scratch (run under -race in CI) nor let buffer reuse leak
// state between executions: every same-seeded run returns bitwise-identical
// results no matter how many neighbours hammer the pool.
func TestConcurrentQueryMultiSharedPlan(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 17})
	p, err := e.Prepare(context.Background(), countQuery())
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 4
	results := make([]*MultiResult, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				res, err := p.QueryMulti(context.Background(), threeSpecs())
				if err != nil {
					t.Error(err)
					return
				}
				results[w*perWorker+j] = res
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	ref := results[0]
	for i, res := range results {
		if res == nil {
			t.Fatalf("result %d missing", i)
		}
		if res.SampleSize != ref.SampleSize || res.Rounds != ref.Rounds || res.Correct != ref.Correct {
			t.Fatalf("result %d counters %+v diverge from first %+v — pooled state leaked", i, res, ref)
		}
		for k := range res.Aggs {
			if res.Aggs[k].Estimate != ref.Aggs[k].Estimate || res.Aggs[k].MoE != ref.Aggs[k].MoE {
				t.Fatalf("result %d agg %v (%v ± %v) diverges from first (%v ± %v)",
					i, res.Aggs[k].Spec, res.Aggs[k].Estimate, res.Aggs[k].MoE,
					ref.Aggs[k].Estimate, ref.Aggs[k].MoE)
			}
			if math.IsNaN(res.Aggs[k].Estimate) {
				t.Fatalf("result %d agg %v is NaN", i, res.Aggs[k].Spec)
			}
		}
	}
}

// The draw stream is a function of the query seed alone: two executions of
// one plan under a seed draw the same list, however the draws are batched,
// and another seed draws another list.
func TestDrawStreamDeterminism(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05})
	ctx := context.Background()
	p, err := e.Prepare(ctx, countQuery())
	if err != nil {
		t.Fatal(err)
	}
	draws := func(seed int64, batches ...int) []int {
		x, err := p.Start(ctx, WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		defer x.holdScratch()()
		for _, k := range batches {
			x.sampleMore(k)
		}
		return slices.Clone(x.drawIdx)
	}
	a := draws(7, 200)
	if b := draws(7, 200); !slices.Equal(a, b) {
		t.Error("seed 7 drew two different lists")
	}
	if b := draws(7, 50, 150); !slices.Equal(a, b) {
		t.Error("seed 7 drew another list in two batches")
	}
	if c := draws(8, 200); slices.Equal(a, c) {
		t.Error("seeds 7 and 8 drew the same list")
	}
}
