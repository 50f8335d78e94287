package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"kgaq/internal/embedding"
	"kgaq/internal/kg"
	"kgaq/internal/kg/kgtest"
	"kgaq/internal/live"
	"kgaq/internal/query"
)

// twoRegionFixture builds a graph with two connected components ("A" and
// "B"), each a Country root with Automobile products, so the two roots'
// 3-hop walk scopes are provably disjoint — the setting the selective
// cache invalidation tests need.
func twoRegionFixture(t *testing.T) (*kg.Graph, *embedding.PredVectors) {
	t.Helper()
	b := kg.NewBuilder()
	for _, region := range []string{"A", "B"} {
		root := b.AddNode("Root"+region, "Country")
		for i := 0; i < 8; i++ {
			car := b.AddNode(fmt.Sprintf("Car_%s%d", region, i), "Automobile")
			if err := b.AddEdge(root, "product", car); err != nil {
				t.Fatal(err)
			}
			if err := b.SetAttr(car, "price", float64(10000+1000*i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.Build()
	m, err := embedding.NewOracle(g, 32, 7, []embedding.Cluster{{
		Name:     "producedIn",
		Affinity: map[string]float64{"product": 1.0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

func regionQuery(fn query.AggFunc, attr, region string) *query.Aggregate {
	return query.Simple(fn, attr, "Root"+region, "Country", "product", "Automobile")
}

func liveEngine(t *testing.T, opts Options) (*Engine, *live.Store) {
	t.Helper()
	g, m := twoRegionFixture(t)
	st := live.NewStore(g, 0)
	e, err := NewLiveEngine(st, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e, st
}

// A mutation in one region must evict only that region's cached stages:
// the disjoint root keeps hitting, the mutated root rebuilds and observes
// the write.
func TestLiveSelectiveInvalidation(t *testing.T) {
	e, st := liveEngine(t, Options{ErrorBound: 0.05, Seed: 3})
	ctx := context.Background()

	if _, err := e.Query(ctx, regionQuery(query.Count, "", "A")); err != nil {
		t.Fatal(err)
	}
	resB, err := e.Query(ctx, regionQuery(query.Count, "", "B"))
	if err != nil {
		t.Fatal(err)
	}
	warm := e.CacheStats()

	// Mutate region B: attach a new automobile to RootB.
	snapB, err := st.Apply(live.Batch{
		live.AddEntity("Car_B_new", "Automobile"),
		live.AddEdge("RootB", "product", "Car_B_new"),
		live.SetAttr("Car_B_new", "price", 99000),
	})
	ep := snapB.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	st1 := e.CacheStats()
	if st1.Invalidated == 0 {
		t.Fatal("mutation inside a cached scope invalidated nothing")
	}
	if st1.Entries >= warm.Entries && warm.Entries > 0 {
		t.Fatalf("expected selective eviction, entries %d → %d", warm.Entries, st1.Entries)
	}

	// Region A is untouched: its stage must still hit.
	if _, err := e.Query(ctx, regionQuery(query.Count, "", "A")); err != nil {
		t.Fatal(err)
	}
	st2 := e.CacheStats()
	if st2.Hits <= st1.Hits {
		t.Fatalf("query on the untouched root missed the cache (hits %d → %d)", st1.Hits, st2.Hits)
	}

	// Region B must rebuild and see the new candidate at min_epoch.
	resB2, err := e.Query(ctx, regionQuery(query.Count, "", "B"), WithMinEpoch(ep))
	if err != nil {
		t.Fatal(err)
	}
	if resB2.Epoch < ep {
		t.Fatalf("result epoch %d below min_epoch %d", resB2.Epoch, ep)
	}
	if resB2.Candidates != resB.Candidates+1 {
		t.Fatalf("candidates %d after write, want %d", resB2.Candidates, resB.Candidates+1)
	}
}

// Attribute-only updates must not invalidate cached stages — the stage holds
// no attribute data — yet queries observe the new values immediately,
// because a candidate's terms are read from the query's snapshot, or from a
// table published at its epoch (TestPublishedTermsFollowAttributeEpoch).
func TestLiveAttrUpdateKeepsCacheButChangesEstimate(t *testing.T) {
	e, st := liveEngine(t, Options{ErrorBound: 0.02, Seed: 5})
	ctx := context.Background()

	res1, err := e.Query(ctx, regionQuery(query.Max, "price", "A"))
	if err != nil {
		t.Fatal(err)
	}
	warm := e.CacheStats()

	snapA, err := st.Apply(live.Batch{live.SetAttr("Car_A0", "price", 1_000_000)})
	ep := snapA.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	st1 := e.CacheStats()
	if st1.Invalidated != warm.Invalidated {
		t.Fatal("attribute-only update invalidated cached stages")
	}

	res2, err := e.Query(ctx, regionQuery(query.Max, "price", "A"), WithMinEpoch(ep))
	if err != nil {
		t.Fatal(err)
	}
	if e.CacheStats().Hits <= warm.Hits {
		t.Fatal("attr update should have left the stage cached")
	}
	if res2.Estimate <= res1.Estimate || res2.Estimate != 1_000_000 {
		t.Fatalf("MAX(price) = %v after raising a price to 1e6 (was %v)", res2.Estimate, res1.Estimate)
	}
}

// WithMinEpoch on a static engine can never be satisfied for epochs > 0.
func TestStaticEngineMinEpoch(t *testing.T) {
	g := kgtest.Figure1()
	e, err := NewEngine(g, figure1Model(t, g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Query(context.Background(), avgPriceQuery(), WithMinEpoch(3))
	if !errors.Is(err, ErrEpochNotReached) {
		t.Fatalf("err = %v, want ErrEpochNotReached", err)
	}
}

// WithMinEpoch on a live engine waits for the store; a cancelled wait
// reports ErrInterrupted.
func TestLiveMinEpochWaits(t *testing.T) {
	e, st := liveEngine(t, Options{Seed: 2})

	go func() {
		time.Sleep(10 * time.Millisecond)
		if _, err := st.Apply(live.Batch{live.SetAttr("Car_A1", "price", 123)}); err != nil {
			panic(err)
		}
	}()
	res, err := e.Query(context.Background(), regionQuery(query.Avg, "price", "A"), WithMinEpoch(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch < 1 {
		t.Fatalf("result epoch %d, want ≥ 1", res.Epoch)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = e.Query(ctx, regionQuery(query.Avg, "price", "A"), WithMinEpoch(999))
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}

// Compaction folds the delta without moving the epoch, and a query after it
// sees the entity the folded batch added. Nothing is rebuilt on the
// compactor's goroutine: the stage the mutation evicted is recompiled by
// the next query that wants it.
func TestLiveCompactionKeepsEpochAndSeesWrites(t *testing.T) {
	e, st := liveEngine(t, Options{ErrorBound: 0.05, Seed: 11})
	ctx := context.Background()

	if _, err := e.Query(ctx, regionQuery(query.Count, "", "B")); err != nil {
		t.Fatal(err)
	}
	snap, err := st.Apply(live.Batch{
		live.AddEntity("Car_B_x", "Automobile"),
		live.AddEdge("RootB", "product", "Car_B_x"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.CacheStats().Invalidated == 0 {
		t.Fatal("setup: mutation did not invalidate the B stage")
	}
	ev, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil || ev.Folded == 0 {
		t.Fatalf("compaction skipped: %+v", ev)
	}
	if ev.Epoch != snap.Epoch() || st.Epoch() != snap.Epoch() {
		t.Fatalf("the fold moved the epoch: batch %d, event %d, store %d", snap.Epoch(), ev.Epoch, st.Epoch())
	}
	res, err := e.Query(ctx, regionQuery(query.Count, "", "B"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != snap.Epoch() {
		t.Fatalf("query after compaction observed epoch %d, want %d", res.Epoch, snap.Epoch())
	}
	if res.Candidates != 9 {
		t.Fatalf("query after compaction reports %d candidates, want 9", res.Candidates)
	}
}

// Writers batching mutations while QueryBatch runs: every query must either
// succeed against a consistent epoch or report a typed error; cancellation
// mid-churn must surface ErrInterrupted; and the cache must keep serving
// verdict-shared hits for the untouched region. Run with -race.
func TestLiveConcurrentMutateWhileQuery(t *testing.T) {
	e, st := liveEngine(t, Options{ErrorBound: 0.05, Seed: 17})
	ctx := context.Background()

	// Warm region A so the reader side has a stable cached stage.
	if _, err := e.Query(ctx, regionQuery(query.Count, "", "A")); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: churn region B only
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("Churn_B%d", i%32)
			_, err := st.Apply(live.Batch{
				live.AddEntity(name, "Automobile"),
				live.AddEdge("RootB", "product", name),
				live.SetAttr(name, "price", float64(i)),
			})
			if err != nil {
				t.Errorf("apply: %v", err)
				return
			}
		}
	}()

	qs := make([]*query.Aggregate, 0, 24)
	for i := 0; i < 12; i++ {
		qs = append(qs, regionQuery(query.Count, "", "A"), regionQuery(query.Avg, "price", "B"))
	}
	results := e.QueryBatch(ctx, qs)
	for i, br := range results {
		if br.Err != nil {
			t.Errorf("batch[%d]: %v", i, br.Err)
			continue
		}
		// Snapshot consistency: candidate count must correspond to exactly
		// one epoch's region-B population (9 base-less-one… is impossible:
		// region B only grows), so it is monotone in the observed epoch.
		if br.Result.Candidates < 8 {
			t.Errorf("batch[%d]: %d candidates, below the region floor", i, br.Result.Candidates)
		}
		if math.IsNaN(br.Result.Estimate) {
			t.Errorf("batch[%d]: NaN estimate", i)
		}
	}

	// Cancellation mid-churn keeps the ErrInterrupted semantics.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.Query(cctx, regionQuery(query.Count, "", "B")); !errors.Is(err, ErrInterrupted) {
		t.Errorf("cancelled query under churn: err = %v, want ErrInterrupted", err)
	}

	close(stop)
	wg.Wait()

	// The untouched region's stage must have survived the whole churn.
	before := e.CacheStats()
	if _, err := e.Query(ctx, regionQuery(query.Count, "", "A")); err != nil {
		t.Fatal(err)
	}
	if after := e.CacheStats(); after.Hits <= before.Hits {
		t.Fatal("region-A stage lost during disjoint churn")
	}
}

func figure1Model(t *testing.T, g *kg.Graph) *embedding.PredVectors {
	t.Helper()
	m, err := embedding.NewOracle(g, 64, 271828, []embedding.Cluster{{
		Name:     "producedIn",
		Affinity: kgtest.Figure1Affinities(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}
