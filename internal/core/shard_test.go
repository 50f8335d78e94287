package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"kgaq/internal/kg"
	"kgaq/internal/kg/kgtest"
	"kgaq/internal/live"
	"kgaq/internal/query"
	"kgaq/internal/shard"
	"kgaq/internal/stats"
)

// Sharded runs must satisfy the same Theorem 2 bound as single-shard runs:
// for every shard count the converged estimate lands within the configured
// error bound of the ground truth, because the stratified merge preserves
// unbiasedness and the stratified CLT margin drives the same termination
// test.
func TestShardedWithinErrorBound(t *testing.T) {
	const eb = 0.05
	for _, shards := range []int{1, 2, 8} {
		e, _ := figure1Engine(t, Options{ErrorBound: eb, Seed: 7, Shards: shards})
		res, err := e.Query(context.Background(), avgPriceQuery())
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !res.Converged {
			t.Fatalf("shards=%d: did not converge: %+v", shards, res)
		}
		if rel := stats.RelativeError(res.Estimate, kgtest.Figure1AvgPrice); rel > eb {
			t.Fatalf("shards=%d: AVG %v vs truth %v (rel %v > eb)", shards, res.Estimate, kgtest.Figure1AvgPrice, rel)
		}
		wantShards := 0
		if shards > 1 {
			// Figure 1 has 6 candidates; strata owning none are dropped, so
			// the effective count is in [1, min(shards, 6)].
			if res.Shards < 1 || res.Shards > 6 {
				t.Fatalf("shards=%d: effective strata = %d", shards, res.Shards)
			}
		} else if res.Shards != wantShards {
			t.Fatalf("shards=1: Result.Shards = %d, want 0", res.Shards)
		}
	}
}

// Unbiasedness of the merged estimator on the seed dataset: the mean of
// many independently seeded sharded COUNT estimates converges to the
// single-shard ground truth (5 semantically correct automobiles).
func TestShardedCountUnbiased(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Shards: 4})
	const truth = 5.0
	const trials = 120
	acc := 0.0
	for i := 0; i < trials; i++ {
		res, err := e.Query(context.Background(), countQuery(), WithSeed(int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		acc += res.Estimate
	}
	mean := acc / trials
	if rel := math.Abs(mean-truth) / truth; rel > 0.03 {
		t.Fatalf("mean sharded COUNT %v vs truth %v (rel %v)", mean, truth, rel)
	}
}

// MoE coverage across shard counts {1, 2, 8}: converged intervals must
// cover the ground truth at roughly the configured 95% confidence. The
// tolerance (85%) leaves room for the CLT margin's small-sample optimism,
// matching the slack the unsharded coverage tests allow.
func TestShardedMoECoverage(t *testing.T) {
	const truth = kgtest.Figure1SumPrice
	q := query.Simple(query.Sum, "price", "Germany", "Country", "product", "Automobile")
	for _, shards := range []int{1, 2, 8} {
		e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Shards: shards})
		const trials = 60
		covered, converged := 0, 0
		for i := 0; i < trials; i++ {
			res, err := e.Query(context.Background(), q, WithSeed(int64(100+i)))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				continue
			}
			converged++
			// The slack term absorbs float summation order: a fully
			// enumerated stratification reports MoE 0 with an estimate equal
			// to the truth up to rounding.
			if math.Abs(res.Estimate-truth) <= res.MoE+1e-9*truth {
				covered++
			}
		}
		if converged < trials/2 {
			t.Fatalf("shards=%d: only %d/%d runs converged", shards, converged, trials)
		}
		if rate := float64(covered) / float64(converged); rate < 0.85 {
			t.Fatalf("shards=%d: interval covered truth in %.0f%% of %d converged runs", shards, rate*100, converged)
		}
	}
}

// Sharded executions are deterministic under a fixed seed: per-stratum RNG
// streams make the drawn sample independent of goroutine scheduling.
func TestShardedDeterministic(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.02, Seed: 7, Shards: 4})
	a, err := e.Query(context.Background(), avgPriceQuery())
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Query(context.Background(), avgPriceQuery())
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimate != b.Estimate || a.SampleSize != b.SampleSize {
		t.Fatalf("sharded runs diverged: (%v, %d) vs (%v, %d)",
			a.Estimate, a.SampleSize, b.Estimate, b.SampleSize)
	}
}

// Filters fold into the sharded correctness indicator exactly as unsharded.
func TestShardedFilter(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 11, Shards: 4})
	q := countQuery().WithFilter("fuel_economy", 25, 30)
	res, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if rel := stats.RelativeError(res.Estimate, 2); rel > 0.15 {
		t.Fatalf("sharded filtered COUNT = %v, want ≈2 (rel %v)", res.Estimate, rel)
	}
}

// Extremes scan every stratum; the true MAX is found just as unsharded.
func TestShardedMax(t *testing.T) {
	e, _ := figure1Engine(t, Options{Seed: 13, Shards: 4})
	q := query.Simple(query.Max, "price", "Germany", "Country", "product", "Automobile")
	res, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 64300 {
		t.Fatalf("sharded MAX = %v, want 64300", res.Estimate)
	}
}

// The topology-only ablation samplers carry empirical probabilities that do
// not stratify; asking for both is an explicit error.
func TestShardedRejectsTopologySamplers(t *testing.T) {
	e, _ := figure1Engine(t, Options{Shards: 2})
	_, err := e.Query(context.Background(), countQuery(), WithSampler(SamplerCNARW))
	if err == nil {
		t.Fatal("sharded CNARW accepted")
	}
}

// GROUP-BY under sharding: per-group stratified estimates converge and the
// group structure matches the unsharded run.
func TestShardedGroupBy(t *testing.T) {
	g, m := twoRegionFixture(t)
	e, err := NewEngine(g, m, Options{ErrorBound: 0.10, Seed: 7, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := regionQuery(query.Count, "", "A")
	q.GroupBy = "price"
	res, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("sharded GROUP-BY returned no groups")
	}
	// Every price value is unique per car, so each group's estimate is ≈1.
	for label, gr := range res.Groups {
		if gr.Estimate < 0.5 || gr.Estimate > 2.0 {
			t.Fatalf("group %q estimate %v, want ≈1", label, gr.Estimate)
		}
	}
}

// Mutate-while-sharded-query: concurrent atomic batches against a live
// engine while sharded queries run. Run with -race; correctness assertion
// is that every query observes one consistent epoch and stays within the
// (generous) bound of either the old or new ground truth.
func TestShardedLiveConcurrentMutate(t *testing.T) {
	e, st := liveEngine(t, Options{ErrorBound: 0.10, Seed: 7, Shards: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("Car_A_new%d", i)
			_, err := st.Apply(live.Batch{
				live.AddEntity(name, "Automobile"),
				live.AddEdge("RootA", "product", name),
				live.SetAttr(name, "price", 20000),
			})
			if err != nil {
				t.Errorf("mutate: %v", err)
				return
			}
			i++
			time.Sleep(time.Millisecond)
		}
	}()
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		res, err := e.Query(context.Background(), regionQuery(query.Count, "", "A"), WithShards(4))
		if err != nil {
			t.Fatalf("sharded query under mutation: %v", err)
		}
		if res.Estimate < 4 { // base region has 8 cars; mutations only add
			t.Fatalf("sharded estimate %v collapsed under mutation", res.Estimate)
		}
	}
	close(stop)
	wg.Wait()
}

// A first round smaller than the stratum count would leave strata
// unobserved and bias the merge low; firstSize floors round one at the
// stratum count, so even a pathological MinSample stays unbiased.
func TestShardedFirstRoundCoversAllStrata(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 7, Shards: 8, MinSample: 1, T: 1, Lambda: 0.01})
	res, err := e.Query(context.Background(), countQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleSize < res.Shards {
		t.Fatalf("first round drew %d over %d strata", res.SampleSize, res.Shards)
	}
	if rel := stats.RelativeError(res.Estimate, 5); rel > 0.10 {
		t.Fatalf("tiny-initial sharded COUNT = %v, want ≈5 (rel %v)", res.Estimate, rel)
	}
}

// The ownership hash must not degenerate for power-of-two shard counts: a
// node population whose ids follow a periodic pattern (bulk loads
// interleaving types) must still spread across all shards.
func TestShardedPeriodicIDsSpread(t *testing.T) {
	const n, shards = 4096, 8
	counts := make(map[int]int)
	for i := 0; i < n; i += 4 { // every 4th id, the skew pattern of bulk loads
		counts[shard.Assign(kg.NodeID(i), shards)]++
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
