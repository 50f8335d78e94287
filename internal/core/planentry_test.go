package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"kgaq/internal/datagen"
	"kgaq/internal/embedding"
	"kgaq/internal/kg"
	"kgaq/internal/live"
	"kgaq/internal/query"
)

// These tests follow an assembled answer space through its life as an entry
// of the engine's answer-space cache (DESIGN.md "Answer-space cache"): when
// it is served, what evicts it, what it may not pin, and how the verdicts it
// shares are published. A stale entry or a half-published verdict is a
// silent wrong answer, so CI runs them -race -count=5.

// shapedRegions builds two disconnected regions, A and B, each with what a
// one-hop, a chain and a star query need: a Country root and a Company
// maker, three designers whose nationality is a second country, Home, and
// eight automobiles — each a product of the root, an assembly of the maker
// and the work of one designer, and each with a part that has a supplier.
// Nothing connects the regions, so a plan rooted in A has no node of B in
// the union of its scopes; and a supplier is four hops from Home but three
// from a designer, so at the default hop bound it lies in the union scope of
// the chain from Home through the designers and outside the scope of the
// chain's root stage.
func shapedRegions(t *testing.T) (*kg.Graph, *embedding.PredVectors) {
	t.Helper()
	b := kg.NewBuilder()
	edge := func(from kg.NodeID, pred string, to kg.NodeID) {
		if err := b.AddEdge(from, pred, to); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []string{"A", "B"} {
		root := b.AddNode("Root"+r, "Country")
		home := b.AddNode("Home"+r, "Country")
		maker := b.AddNode("Maker"+r, "Company")
		var designers []kg.NodeID
		for i := 0; i < 3; i++ {
			d := b.AddNode(fmt.Sprintf("Des_%s%d", r, i), "Designer")
			edge(home, "nationality", d)
			designers = append(designers, d)
		}
		for i := 0; i < 8; i++ {
			car := b.AddNode(fmt.Sprintf("Car_%s%d", r, i), "Automobile")
			edge(root, "product", car)
			edge(maker, "assembly", car)
			edge(designers[i%3], "designer", car)
			if err := b.SetAttr(car, "price", float64(10000+1000*i)); err != nil {
				t.Fatal(err)
			}
			part := b.AddNode(fmt.Sprintf("Part_%s%d", r, i), "Part")
			edge(car, "part", part)
			edge(part, "supplier", b.AddNode(fmt.Sprintf("Supp_%s%d", r, i), "Supplier"))
		}
	}
	g := b.Build()
	var clusters []embedding.Cluster
	for _, pred := range []string{"product", "assembly", "nationality", "designer", "part", "supplier"} {
		clusters = append(clusters, embedding.Cluster{Name: pred, Affinity: map[string]float64{pred: 1.0}})
	}
	m, err := embedding.NewOracle(g, 32, 7, clusters)
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

// shapedQueries are a one-hop, a chain and a star query rooted in region r.
func shapedQueries(r string) map[string]*query.Aggregate {
	star := query.NewBuilder()
	root, maker := star.Specific("Root"+r, "Country"), star.Specific("Maker"+r, "Company")
	car := star.Target("Automobile")
	star.Edge(root, car, "product").Edge(maker, car, "assembly")
	return map[string]*query.Aggregate{
		"one-hop": query.Simple(query.Sum, "price", "Root"+r, "Country", "product", "Automobile"),
		"chain": query.Chain(query.Count, "", "Home"+r, "Country", []query.Hop{
			{Predicate: "nationality", Types: []string{"Designer"}},
			{Predicate: "designer", Types: []string{"Automobile"}},
		}),
		"star": star.Aggregate(query.Avg, "price"),
	}
}

func shapedEngine(t *testing.T, g *kg.Graph, m embedding.Model, opts Options) (*Engine, *live.Store) {
	t.Helper()
	st := live.NewStore(g, 0)
	e, err := NewLiveEngine(st, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e, st
}

func apply(t *testing.T, st *live.Store, b live.Batch) {
	t.Helper()
	if _, err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
}

// planOf prepares q and returns how the compilation went.
func planOf(t *testing.T, e *Engine, q *query.Aggregate) (*Prepared, PlanInfo) {
	t.Helper()
	p, err := e.Prepare(context.Background(), q)
	if err != nil {
		t.Fatalf("%v: %v", q, err)
	}
	return p, p.Plan()
}

// Validity is the stage rule applied to the union scope. A write to any node
// a contributing stage's walk could reach evicts the plan entry, and the
// next compile rebuilds and answers as a fresh engine does at that epoch;
// attribute-only writes and writes outside the union leave it serving hits;
// an entry is never served to a view older than the one it was built at; and
// a space whose scope was touched while it was being assembled is not
// cached.
func TestPlanEntryInvalidation(t *testing.T) {
	g, m := shapedRegions(t)
	opts := Options{ErrorBound: 0.05, Seed: 3, Tau: 0.8}
	e, st := shapedEngine(t, g, m, opts)
	ctx := context.Background()
	queries := shapedQueries("A")

	expect := func(when string, hit bool) {
		t.Helper()
		for name, q := range queries {
			before := e.CacheStats()
			_, info := planOf(t, e, q)
			after := e.CacheStats()
			// A plan hit is one lookup; a rebuild misses the plan first (its
			// stages may still be resident: the star's serve the one-hop).
			if hit && (info.CacheBuilt != 0 || info.CacheHits != 1 || after.Hits != before.Hits+1 || after.Misses != before.Misses) {
				t.Errorf("%s: %s plan was recompiled (built %d, hits %d; cache %+v → %+v), want one plan hit",
					when, name, info.CacheBuilt, info.CacheHits, before, after)
			}
			if !hit && after.Misses == before.Misses {
				t.Errorf("%s: %s plan compiled from a cached entry (hits %d), want a rebuild", when, name, info.CacheHits)
			}
		}
	}
	expect("cold engine", false)
	for _, q := range queries {
		if _, err := e.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if cs := e.CacheStats(); cs.Plans != len(queries) || cs.PlanBytes <= 0 || cs.PlanBytes >= cs.Bytes {
		t.Fatalf("after one query each: %+v, want %d plan entries inside the byte total", cs, len(queries))
	}
	expect("second compile", true)

	attrOnly := live.Batch{live.SetAttr("Car_A0", "price", 77777)}
	outside := live.Batch{
		live.AddEntity("Car_B_new", "Automobile"),
		live.AddEdge("RootB", "product", "Car_B_new"),
		live.AddEdge("Des_B0", "designer", "Car_B_new"),
	}
	// Next to the one-hop root, next to both roots of the star and under an
	// intermediate of the chain: inside every plan's union.
	inside := live.Batch{
		live.AddEntity("Car_A_new", "Automobile"),
		live.AddEdge("RootA", "product", "Car_A_new"),
		live.AddEdge("MakerA", "assembly", "Car_A_new"),
		live.AddEdge("Des_A1", "designer", "Car_A_new"),
		live.SetAttr("Car_A_new", "price", 31337),
	}
	apply(t, st, attrOnly)
	expect("after an attribute-only write", true)
	apply(t, st, outside)
	expect("after a write outside the union scope", true)

	// A pinned plan and an older view, taken before the write that follows.
	pinned, _ := planOf(t, e, queries["one-hop"])
	old := e.src.snapshot()
	before := e.CacheStats()
	apply(t, st, inside)
	if cs := e.CacheStats(); cs.Plans != 0 || cs.Invalidated < before.Invalidated+uint64(len(queries)) {
		t.Fatalf("a write inside the union scope left plan entries resident: %+v → %+v", before, cs)
	}
	expect("after a write inside the union scope", false)
	fresh, freshStore := shapedEngine(t, g, m, opts)
	for _, b := range []live.Batch{attrOnly, outside, inside} {
		apply(t, freshStore, b)
	}
	for name, q := range queries {
		got, want := resultDigest(e.Query(ctx, q)), resultDigest(fresh.Query(ctx, q))
		if got != want {
			t.Errorf("%s after the rebuild differs from a fresh engine at the same epoch:\n got %s\nwant %s", name, got, want)
		}
		res, err := e.Query(ctx, q)
		if err != nil || res.Candidates != 9 {
			t.Errorf("%s after the rebuild: %d candidates, err %v; want 9", name, res.Candidates, err)
		}
	}
	expect("after the rebuild", true)

	// The rebuilt entries carry the new epoch. The pinned plan keeps its own
	// compilation, and a reader still holding the older view compiles its
	// own space — eight candidates — which the event ring keeps out of the
	// cache: the write landed inside its scope after its view.
	if res, err := pinned.Query(ctx); err != nil || res.Candidates != 8 || res.Epoch != old.epoch {
		t.Fatalf("pinned plan moved: %+v, %v", res, err)
	}
	resident := e.cache.getPlan(pinned.key, e.src.snapshot().epoch)
	if resident == nil || resident.epoch <= old.epoch {
		t.Fatalf("no rebuilt entry resident under the plan key: %+v", resident)
	}
	if sp := e.cache.getPlan(pinned.key, old.epoch); sp != nil {
		t.Fatalf("an entry built at epoch %d was served to a view at epoch %d", sp.epoch, old.epoch)
	}
	c, err := pinned.compile(ctx, old)
	if err != nil {
		t.Fatal(err)
	}
	if c.sp == resident || c.sp.len() != 8 || c.sp.epoch != old.epoch || c.built == 0 {
		t.Fatalf("the older view was compiled from a later entry: %d candidates at epoch %d, built %d", c.sp.len(), c.sp.epoch, c.built)
	}
	if got := e.cache.getPlan(pinned.key, e.src.snapshot().epoch); got != resident {
		t.Fatal("the older view's space replaced the resident entry")
	}

	// The union is wider than any one scope. A supplier is outside the scope
	// of the chain's root stage, yet a new edge at one changes what the walk
	// from a designer — a stage the assembly read — can reach.
	chain, _ := planOf(t, e, queries["chain"])
	v := e.src.snapshot()
	rootKey, _, err := hopKey(e.opts, v.g, v.g.NodeByName("HomeA"), chain.paths[0].Hops[0])
	if err != nil {
		t.Fatal(err)
	}
	rootStage, supplier := e.cache.getStage(rootKey, v.epoch), v.g.NodeByName("Supp_A0")
	if rootStage == nil || slices.Contains(rootStage.scope, supplier) {
		t.Fatalf("fixture: the chain's root stage %+v should be resident without Supp_A0 in its scope", rootStage)
	}
	if sp := e.cache.getPlan(chain.key, v.epoch); sp == nil || !slices.Contains(sp.scope, supplier) {
		t.Fatalf("the chain entry's scope misses a node only its intermediates' walks reach")
	}
	apply(t, st, live.Batch{live.AddEntity("Part_A_new", "Part"), live.AddEdge("Part_A_new", "supplier", "Supp_A0")})
	if sp := e.cache.getPlan(chain.key, e.src.snapshot().epoch); sp != nil {
		t.Fatal("a write under an intermediate left the chain entry resident")
	}
	if st := e.cache.getStage(rootKey, e.src.snapshot().epoch); st != rootStage {
		t.Fatal("fixture: the write should have missed the chain's root stage")
	}

	// Put versus invalidate: a space assembled at the current view, a write
	// inside its scope, then the put.
	v = e.src.snapshot()
	sp, err := e.buildAssemblySpace(ctx, e.opts, v, chain.paths, &spaceBuild{})
	if err != nil {
		t.Fatal(err)
	}
	apply(t, st, live.Batch{live.AddEdge("Des_A2", "designer", "Car_A_new")})
	if got := e.cache.putPlan(chain.key, sp); got != sp {
		t.Fatal("put returned another entry for a space staled by a racing write")
	}
	if got := e.cache.getPlan(chain.key, e.src.snapshot().epoch); got != nil {
		t.Fatalf("a space built at epoch %d was cached although epoch %d touched its scope", sp.epoch, e.src.snapshot().epoch)
	}
}

// What an entry pins is what its cost charges: data, never the graph view it
// was assembled over. Build an entry on a compacted base, move the store on
// with writes outside its scope and compact again: the snapshot and the
// whole base graph the entry was built on become unreachable while it still
// serves hits.
func TestPlanEntryDoesNotPinSnapshot(t *testing.T) {
	g, m := shapedRegions(t)
	e, st := shapedEngine(t, g, m, Options{ErrorBound: 0.05, Seed: 3, Tau: 0.8})
	ctx := context.Background()
	queries := shapedQueries("A")
	outside := func(i int) live.Batch {
		name := fmt.Sprintf("Car_B_extra%d", i)
		return live.Batch{live.AddEntity(name, "Automobile"), live.AddEdge("RootB", "product", name)}
	}
	compact := func() {
		t.Helper()
		if ev, err := st.Compact(); err != nil || ev == nil {
			t.Fatalf("compact: %v, %v", ev, err)
		}
	}
	// The engine anchors its vocabulary on the construction-time base, so
	// the entries are built on the base of a first compaction.
	apply(t, st, outside(0))
	compact()
	build := func() (weak.Pointer[live.Snapshot], weak.Pointer[kg.Graph]) {
		for _, q := range queries {
			if _, err := e.Query(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		snap := st.Snapshot()
		return weak.Make(snap), weak.Make(snap.Base())
	}
	snap, base := build()
	apply(t, st, outside(1))
	compact()
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if snap.Value() != nil {
		t.Error("the superseded snapshot is still reachable")
	}
	if base.Value() != nil {
		t.Error("the superseded base graph is still reachable")
	}
	for name, q := range queries {
		if _, info := planOf(t, e, q); info.CacheBuilt != 0 || info.CacheHits != 1 {
			t.Errorf("%s: built %d, hits %d after the compaction, want one plan hit", name, info.CacheBuilt, info.CacheHits)
		}
		if res, err := e.Query(ctx, q); err != nil || res.Candidates != 8 {
			t.Errorf("%s: %+v, %v", name, res, err)
		}
	}
}

// The shared verdict follows the caching rule of every other verdict: it is
// published only when the validation that produced it ran to completion.
// Cancel a chain query at every poll depth of its validation; a second
// execution of the same plan — the same cache entry — then returns what an
// engine that never saw a cancellation returns. And eight goroutines cold on
// one plan, racing to validate and publish the same candidates, return what
// sequential runs return. Run with -race.
func TestSharedVerdictsCancelAndRace(t *testing.T) {
	ds, err := datagen.Generate(datagen.TinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	engine := func() *Engine {
		e, err := NewEngine(ds.Graph, ds.Model, Options{Tau: datagen.TinyProfile().OptimalTau, ErrorBound: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	q := ds.QueriesByShape(query.ShapeChain)[0].Agg
	bg := context.Background()
	want := resultDigest(engine().Query(bg, q))

	cancelled := 0
	for polls := int64(0); polls < 400; polls++ {
		e := engine()
		ctx := &pollCtx{Context: bg}
		ctx.left.Store(polls)
		if _, err := e.Query(ctx, q); err == nil {
			break // the query finished before the cancellation landed
		}
		if e.CacheStats().Plans == 0 {
			continue // cut during the compile: no entry to share yet
		}
		cancelled++
		if got := resultDigest(e.Query(bg, q)); got != want {
			t.Fatalf("cancelled after %d polls: the next execution of the plan differs from an uninterrupted one:\n got %s\nwant %s", polls, got, want)
		}
	}
	if cancelled < 5 {
		t.Fatalf("only %d cancellation depths landed inside a validation", cancelled)
	}

	const workers = 8
	ref := engine()
	wants := make([]string, workers)
	for w := range wants {
		wants[w] = resultDigest(ref.Query(bg, q, WithSeed(int64(w+1))))
	}
	e := engine()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				if got := resultDigest(e.Query(bg, q, WithSeed(int64(w+1)))); got != wants[w] {
					t.Errorf("worker %d, run %d: concurrent execution differs from the sequential one:\n got %s\nwant %s", w, rep, got, wants[w])
				}
			}
		}(w)
	}
	wg.Wait()
	if cs := e.CacheStats(); cs.Plans != 1 {
		t.Fatalf("%d plan entries after %d executions of one plan", cs.Plans, 3*workers)
	}
}

// Plan entries live in the stages' LRU under the stages' budget: under a
// small one they are evicted like stages and the byte total never exceeds
// it; an entry larger than the whole budget is returned uncached; and
// answers do not depend on any of it.
func TestPlanEntryLRU(t *testing.T) {
	ds, err := datagen.Generate(datagen.TinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	var qs []*query.Aggregate
	for _, shape := range []query.Shape{query.ShapeSimple, query.ShapeStar, query.ShapeChain} {
		for _, gq := range ds.QueriesByShape(shape) {
			if gq.Agg.Func.HasGuarantee() && gq.Agg.GroupBy == "" {
				qs = append(qs, gq.Agg)
			}
		}
	}
	bg := context.Background()
	engine := func(cacheBytes int64) *Engine {
		e, err := NewEngine(ds.Graph, ds.Model, Options{Tau: datagen.TinyProfile().OptimalTau, ErrorBound: 0.05, CacheMaxBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ref := engine(0)
	keys := map[string]bool{}
	wants := make([]string, len(qs))
	for i, q := range qs {
		p, err := ref.Prepare(bg, q)
		if err != nil {
			t.Fatal(err)
		}
		keys[p.key] = true
		wants[i] = resultDigest(p.Query(bg))
	}
	all := ref.CacheStats()
	if all.Plans != len(keys) {
		t.Fatalf("%d plan entries for %d plan keys under the default budget", all.Plans, len(keys))
	}

	small := engine(all.Bytes / 4)
	for pass := 0; pass < 2; pass++ {
		for i, q := range qs {
			if got := resultDigest(small.Query(bg, q)); got != wants[i] {
				t.Fatalf("query %d under a quarter of the working set:\n got %s\nwant %s", i, got, wants[i])
			}
			if cs := small.CacheStats(); cs.Bytes > cs.MaxBytes || cs.PlanBytes > cs.Bytes {
				t.Fatalf("cache over budget after query %d: %+v", i, cs)
			}
		}
	}
	if cs := small.CacheStats(); cs.Plans == 0 || cs.Plans >= len(keys) {
		t.Fatalf("%d of %d plan entries resident under a quarter of the working set: %+v", cs.Plans, len(keys), cs)
	}

	// Room for the smallest stages, for no assembled space.
	tiny := engine(1500)
	for i, q := range qs[:4] {
		if got := resultDigest(tiny.Query(bg, q)); got != wants[i] {
			t.Fatalf("query %d with every plan entry oversized:\n got %s\nwant %s", i, got, wants[i])
		}
	}
	if cs := tiny.CacheStats(); cs.Plans != 0 || cs.Bytes > cs.MaxBytes {
		t.Fatalf("an oversized plan entry was cached: %+v", cs)
	}
}
