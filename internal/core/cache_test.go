package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"kgaq/internal/datagen"
	"kgaq/internal/kg"
	"kgaq/internal/kg/kgtest"
	"kgaq/internal/obs"
	"kgaq/internal/query"
	"kgaq/internal/walk"
)

func cacheTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	ds, err := datagen.Generate(datagen.TinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds.Graph, ds.Model, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Repeated identical queries must hit the answer-space cache: the second
// run skips walker construction and convergence entirely, which the miss
// counter staying flat proves (a second miss would mean a rebuild).
func TestCacheHitOnRepeatedQuery(t *testing.T) {
	e := cacheTestEngine(t, Options{Tau: 0.85, ErrorBound: 0.05})
	q := query.Simple(query.Count, "", "Country_0", "Country", "product", "Automobile")

	r1, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	after1 := e.CacheStats()
	if after1.Misses == 0 {
		t.Fatal("first query reported no cache miss")
	}
	if after1.Entries == 0 {
		t.Fatal("first query left nothing in the cache")
	}

	r2, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	after2 := e.CacheStats()
	if after2.Misses != after1.Misses {
		t.Fatalf("repeat query re-converged: misses %d → %d", after1.Misses, after2.Misses)
	}
	if after2.Hits <= after1.Hits {
		t.Fatalf("repeat query did not hit the cache: hits %d → %d", after1.Hits, after2.Hits)
	}
	if after2.HitRate() <= 0 {
		t.Fatalf("hit rate = %v, want > 0", after2.HitRate())
	}
	// Identical seed + cached space ⇒ identical result.
	if r1.Estimate != r2.Estimate || r1.SampleSize != r2.SampleSize {
		t.Fatalf("cached run diverged: %v/%d vs %v/%d", r1.Estimate, r1.SampleSize, r2.Estimate, r2.SampleSize)
	}
}

// The stage key covers what shapes the stationary distribution (root,
// predicate, types, walk config): a per-query tau override must HIT the
// cached convergence (verdicts live in a per-τ sub-map), while a
// changed hop bound must MISS (it changes the walk's scope).
func TestCacheKeySeparatesConfigs(t *testing.T) {
	e := cacheTestEngine(t, Options{Tau: 0.85, ErrorBound: 0.05})
	q := query.Simple(query.Count, "", "Country_0", "Country", "product", "Automobile")
	if _, err := e.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	base := e.CacheStats()

	if _, err := e.Query(context.Background(), q, WithTau(0.7)); err != nil {
		t.Fatal(err)
	}
	afterTau := e.CacheStats()
	// τ is a plan knob, so the assembled space is looked up under a new plan
	// key — the one miss — and assembled from the resident stage.
	if afterTau.Misses != base.Misses+1 {
		t.Fatalf("tau override re-converged instead of hitting the cached stage: misses %d → %d", base.Misses, afterTau.Misses)
	}
	if afterTau.Hits <= base.Hits {
		t.Fatal("tau override did not hit the cached stage")
	}
	// The shared stage must keep the two thresholds' verdicts apart: one
	// sub-map per τ.
	e.cache.mu.Lock()
	vconfigs := 0
	for _, el := range e.cache.stages {
		st := el.Value.(*cacheItem).stage
		st.mu.Lock()
		if n := len(st.verdicts); n > vconfigs {
			vconfigs = n
		}
		st.mu.Unlock()
	}
	e.cache.mu.Unlock()
	if vconfigs < 2 {
		t.Fatalf("stage holds %d verdict configurations, want 2 (τ=0.85 and τ=0.7)", vconfigs)
	}

	if _, err := e.Query(context.Background(), q, WithHopBound(2)); err != nil {
		t.Fatal(err)
	}
	afterN := e.CacheStats()
	if afterN.Misses < afterTau.Misses+2 { // the plan and its stage
		t.Fatal("hop-bound override was served a stage with the wrong scope")
	}
}

// The LRU must stay within its byte bound, evicting least-recently-used
// stages, and lookups must keep working after eviction.
func TestCacheLRUEviction(t *testing.T) {
	mkEntry := func() *stageEntry {
		answers := make([]kg.NodeID, 32)
		probs := make([]float64, 32)
		for i := range answers {
			answers[i] = kg.NodeID(i)
		}
		return newStageEntry(answers, probs, 0, answers)
	}
	c := newSpaceCache(5 * mkEntry().cost) // five entries' worth
	keyOf := func(i int) stageKey { return stageKey{root: kg.NodeID(i), types: "[]"} }

	const total = 12
	for i := 0; i < total; i++ {
		c.putStage(keyOf(i), mkEntry())
		if st := c.stats(); st.Bytes > st.MaxBytes {
			t.Fatalf("cache exceeded its bound after insert %d: %d > %d", i, st.Bytes, st.MaxBytes)
		}
	}
	st := c.stats()
	if st.Entries >= total {
		t.Fatalf("no eviction happened: %d entries resident", st.Entries)
	}
	if st.Entries == 0 {
		t.Fatal("eviction removed everything")
	}
	// The oldest keys are gone, the newest still resident.
	if c.getStage(keyOf(0), 0) != nil {
		t.Fatal("least-recently-used entry survived eviction")
	}
	if c.getStage(keyOf(total-1), 0) == nil {
		t.Fatal("most-recently-used entry was evicted")
	}
	// Touching an old-but-resident key must protect it from the next round
	// of evictions.
	var protected stageKey
	for i := 0; i < total; i++ {
		if c.getStage(keyOf(i), 0) != nil {
			protected = keyOf(i)
			break
		}
	}
	if c.getStage(protected, 0) == nil {
		t.Fatal("no resident entry found to protect")
	}
	// Inserting one fewer than the resident count must evict only the
	// untouched entries; the just-promoted one survives.
	for i := 0; i < st.Entries-1; i++ {
		c.putStage(keyOf(total+i), mkEntry())
	}
	if c.getStage(protected, 0) == nil {
		t.Fatal("recently-touched entry was evicted before older ones")
	}
}

// The per-stage verdict sets are bounded: installing more thresholds than
// maxVerdictConfigs drops the sets instead of growing past the memory the
// LRU budget charged for them, and the set installed first at a τ stands
// against a later install.
func TestVerdictConfigsBounded(t *testing.T) {
	st := newStageEntry([]kg.NodeID{1, 2}, []float64{0.5, 0.5}, 0, []kg.NodeID{1, 2})
	for i := 0; i < 5*maxVerdictConfigs; i++ {
		tau := 0.5 + float64(i)/1000
		st.install(tau, []kg.NodeID{1})
		if _, ok := st.verdicts[tau]; !ok || len(st.verdicts) > maxVerdictConfigs {
			t.Fatalf("install %d: τ %v present %v, %d configs (cap %d)", i, tau, ok, len(st.verdicts), maxVerdictConfigs)
		}
	}
	if got := st.install(0.9, []kg.NodeID{2}); !slices.Equal(got, []kg.NodeID{2}) {
		t.Fatalf("first install at τ 0.9 returned %v", got)
	}
	if got := st.install(0.9, []kg.NodeID{1, 2}); !slices.Equal(got, []kg.NodeID{2}) {
		t.Fatalf("a later install at τ 0.9 returned %v, want the installed [2]", got)
	}
	if got := st.verdicts[0.9]; !slices.Equal(got, []kg.NodeID{2}) {
		t.Fatalf("the set at τ 0.9 became %v", got)
	}
}

// A stage whose every answer is correct at maxVerdictConfigs τ values — the
// most its verdicts can hold — stays within the cost newStageEntry charged:
// the entry, its answer data and scope, and per τ a map slot and the correct
// set as legBatch allocated it.
func TestStageVerdictsWithinCharge(t *testing.T) {
	ctx := context.Background()
	e := cacheTestEngine(t, Options{ErrorBound: 0.05})
	q := query.Simple(query.Count, "", "Country_0", "Country", "product", "Automobile")
	x, err := e.Start(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	l := x.sp.oracle.(*levelOracle)
	st := e.cache.fetchStage(l.key, x.v.epoch)
	env := x.oracleEnv()
	out := make([]bool, len(st.answers))
	for i := range maxVerdictConfigs {
		env.o.Tau = 1e-6 * float64(i+1)
		if !l.legBatch(ctx, env, st.answers, out) {
			t.Fatal("leg validation was cut")
		}
		if slices.Contains(out, false) {
			t.Fatalf("τ %v: an answer is incorrect; the check needs every answer correct", env.o.Tau)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	held := int64(unsafe.Sizeof(*st)) + int64(cap(st.answers))*4 + int64(cap(st.probs))*8 + int64(cap(st.scope))*4
	for tau, set := range st.verdicts {
		held += int64(unsafe.Sizeof(tau)+unsafe.Sizeof(set)) + int64(cap(set))*4
	}
	if len(st.verdicts) != maxVerdictConfigs || held > st.cost {
		t.Fatalf("%d answers, %d verdict sets hold %d bytes, charged %d", len(st.answers), len(st.verdicts), held, st.cost)
	}
	t.Logf("%d answers: %d bytes held, %d charged", len(st.answers), held, st.cost)
}

// put must be idempotent under racing builders: the first insert wins and
// later puts return the canonical entry.
func TestCachePutReturnsCanonicalEntry(t *testing.T) {
	c := newSpaceCache(1 << 20)
	key := stageKey{root: 1, types: "[]"}
	a := newStageEntry([]kg.NodeID{1}, []float64{1}, 0, []kg.NodeID{1})
	b := newStageEntry([]kg.NodeID{1}, []float64{1}, 0, []kg.NodeID{1})
	if got := c.putStage(key, a); got != a {
		t.Fatal("first put did not return its own entry")
	}
	if got := c.putStage(key, b); got != a {
		t.Fatal("second put did not return the canonical first entry")
	}
	if st := c.stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// A negative CacheMaxBytes disables the cache without breaking queries.
func TestCacheDisabled(t *testing.T) {
	e := cacheTestEngine(t, Options{Tau: 0.85, ErrorBound: 0.05, CacheMaxBytes: -1})
	q := query.Simple(query.Count, "", "Country_0", "Country", "product", "Automobile")
	if _, err := e.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(context.Background(), q); err != nil { // a repeat: no plan entry to look up either
		t.Fatal(err)
	}
	if st := e.CacheStats(); st != (CacheStats{MaxBytes: -1}) {
		t.Fatalf("disabled cache reported activity: %+v", st)
	}
}

// Hammer one cached answer space from many goroutines with mixed Query and
// QueryBatch traffic; run under -race this checks the shared similarity
// matrix, the LRU bookkeeping and the shared verdict caches.
func TestCacheConcurrentHammer(t *testing.T) {
	e := cacheTestEngine(t, Options{Tau: 0.85, ErrorBound: 0.05, MaxDraws: 400})
	mkQuery := func(i int) *query.Aggregate {
		// Three distinct hot queries cycling through one shared cache.
		root := fmt.Sprintf("Country_%d", i%3)
		return query.Simple(query.Count, "", root, "Country", "product", "Automobile")
	}

	const workers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 6; i++ {
				if (w+i)%2 == 0 {
					if _, err := e.Query(ctx, mkQuery(i), WithSeed(int64(w*100+i+1))); err != nil {
						errCh <- err
						return
					}
				} else {
					qs := []*query.Aggregate{mkQuery(i), mkQuery(i + 1)}
					for _, br := range e.QueryBatch(ctx, qs, WithSeed(int64(w*100+i+1))) {
						if br.Err != nil {
							errCh <- br.Err
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := e.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("concurrent hammer produced no cache hits: %+v", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("cache over budget: %d > %d", st.Bytes, st.MaxBytes)
	}
}

// A stage build says how its walk went: the walk_converge span carries the
// scope size. A scope whose adjacency lists an edge at one end only fails
// the build with walk.ErrAsymmetric, and no stage is published.
func TestStageBuildReportsWalk(t *testing.T) {
	e, g := figure1Engine(t, Options{})
	types := []kg.TypeID{g.TypeByName("Automobile")}
	key := stageKeyOf(e.opts, g.NodeByName("Germany"), g.PredByName("product"), types)
	for _, c := range []struct {
		name  string
		g     kg.ReadGraph
		err   error
		scope int
	}{
		{"one half-edge hidden", kgtest.OneWay(g, g.NodeByName("EA211_TSI"), g.NodeByName("Volkswagen")), walk.ErrAsymmetric, 0},
		{"symmetric", g, nil, g.NumNodes()},
	} {
		tracer := obs.NewTracer(1, 1)
		tr := tracer.Start("query", c.name)
		if _, err := e.buildStage(obs.WithTrace(context.Background(), tr), e.opts, view{g: c.g}, key, typeMaskOf(c.g, types), nil); !errors.Is(err, c.err) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.err)
		}
		if got := e.cache.fetchStage(key, 0) != nil; got != (c.err == nil) {
			t.Errorf("%s: stage cached: %v", c.name, got)
		}
		tracer.Finish(tr)
		spans := tracer.Lookup(tr.ID()).Spans
		if len(spans) != 1 || spans[0].Name != "walk_converge" {
			t.Fatalf("%s: spans = %+v, want one walk_converge", c.name, spans)
		}
		if int(spans[0].ScopeNodes) != c.scope {
			t.Errorf("%s: scope_nodes = %d, want %d", c.name, spans[0].ScopeNodes, c.scope)
		}
	}
}

// scopeIntersects takes two routes — a binary search per node when one list
// is much the shorter, a merge otherwise — and both must agree with the
// definition, whichever argument is the short one.
func TestScopeIntersects(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sorted := func(n, span int) []kg.NodeID {
		seen := map[kg.NodeID]bool{}
		for len(seen) < n {
			seen[kg.NodeID(r.Intn(span))] = true
		}
		out := make([]kg.NodeID, 0, n)
		for u := range seen {
			out = append(out, u)
		}
		slices.Sort(out)
		return out
	}
	for trial := 0; trial < 400; trial++ {
		a := sorted(1+r.Intn(300), 2000)
		b := sorted(r.Intn(1+r.Intn(40)), 2000) // often empty or tiny, sometimes comparable
		want := false
		for _, u := range b {
			if _, ok := slices.BinarySearch(a, u); ok {
				want = true
			}
		}
		if got := scopeIntersects(a, b); got != want {
			t.Fatalf("scopeIntersects(%d nodes, %v) = %v, want %v", len(a), b, got, want)
		}
		if got := scopeIntersects(b, a); got != want {
			t.Fatalf("scopeIntersects(%v, %d nodes) = %v, want %v", b, len(a), got, want)
		}
	}
}
