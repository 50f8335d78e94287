package core

import (
	"context"
	"sync"
	"testing"
)

// kgaq_core_draws_total moves by exactly the draws the executions took: for
// one query, for a topology-sampled query (whose first round the sampler's
// build draws), and for two goroutines querying at once (run under -race)
// with sharded and unsharded, plain and multi executions.
func TestDrawsMetricCountsEveryDraw(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 7})
	before := metDraws.Value()
	check := func(want int) {
		t.Helper()
		if want == 0 {
			t.Fatal("the queries drew nothing")
		}
		if got := metDraws.Value() - before; got != float64(want) {
			t.Fatalf("kgaq_core_draws_total moved by %v, the queries drew %d", got, want)
		}
	}
	res, err := e.Query(context.Background(), countQuery(), withoutCensus())
	if err != nil {
		t.Fatal(err)
	}
	check(res.SampleSize)
	// A topology sampler's first round is drawn by its build.
	topo, err := e.Query(context.Background(), countQuery(), WithSampler(SamplerCNARW))
	if err != nil {
		t.Fatal(err)
	}
	check(res.SampleSize + topo.SampleSize)

	const workers, perWorker = 2, 6
	drew := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				opts := []QueryOption{WithSeed(int64(10*w + j + 1)), WithShards(1 + 3*(j%2)), withoutCensus()}
				if j%3 == 2 {
					mr, err := e.QueryMulti(context.Background(), countQuery(), threeSpecs(), opts...)
					if err != nil {
						t.Error(err)
						return
					}
					drew[w] += mr.SampleSize
					continue
				}
				r, err := e.Query(context.Background(), avgPriceQuery(), opts...)
				if err != nil {
					t.Error(err)
					return
				}
				drew[w] += r.SampleSize
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	check(res.SampleSize + topo.SampleSize + drew[0] + drew[1])
}
