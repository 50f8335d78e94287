package core

import (
	"context"
	"sync"
	"testing"

	"kgaq/internal/datagen"
	"kgaq/internal/live"
	"kgaq/internal/obs"
	"kgaq/internal/query"
)

// traced runs fn under a request trace of its own and returns the trace.
func traced(fn func(ctx context.Context)) *obs.TraceData {
	tracer := obs.NewTracer(1, 1)
	tr := tracer.Start("query", "")
	fn(obs.WithTrace(context.Background(), tr))
	tracer.Finish(tr)
	return tracer.Lookup(tr.ID())
}

// evaluatedNothing reports whether a traced execution looked at no
// candidate: no validation, not even a shared verdict read.
func evaluatedNothing(d *obs.TraceData) bool {
	return d.Counters["validation_calls"] == 0 && d.Counters["verdict_cache_hits"] == 0
}

func multiDigest(res *MultiResult, err error) string {
	var d digester
	d.multi(res, err)
	return d.b.String()
}

func sampleDigest(ms *MemberSample, err error) string {
	var d digester
	d.sample(ms, err)
	return d.b.String()
}

// censusSpecs is COUNT, and SUM and AVG of the query's attribute if it has
// one.
func censusSpecs(a *query.Aggregate) []AggSpec {
	specs := []AggSpec{{Func: query.Count}}
	if a.Attr != "" {
		specs = append(specs, AggSpec{Func: query.Sum, Attr: a.Attr}, AggSpec{Func: query.Avg, Attr: a.Attr})
	}
	return specs
}

// querySpec is the one spec of a's Query.
func querySpec(a *query.Aggregate) []AggSpec {
	return []AggSpec{{Func: a.Func, Attr: a.Attr}}
}

// tableOf is the term table published on p's space for specs under p's
// aggregate binding at p's epoch, or nil.
func tableOf(p *Prepared, specs []AggSpec) *publishedTerms {
	p.mu.Lock()
	c := p.cur
	p.mu.Unlock()
	key := termKey{epoch: c.v.epoch, group: c.group, filters: c.filters}
	for _, s := range specs {
		a, err := resolveAttr(c.v.g, s.Attr)
		if err != nil {
			return nil
		}
		key.specs = append(key.specs, termSpec{fn: s.Func, attr: a})
	}
	return c.sp.publishedTerms(&key)
}

// spaceOf is the answer space a plan's executions start on.
func spaceOf(p *Prepared) *answerSpace {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cur.sp
}

// publishedOf lists the term tables published on sp.
func publishedOf(sp *answerSpace) []*publishedTerms {
	sp.termsMu.Lock()
	defer sp.termsMu.Unlock()
	return append([]*publishedTerms(nil), sp.terms...)
}

// forget unpublishes every term table on e's cached spaces, as an engine
// that never published one: its next execution evaluates every candidate it
// needs (reading the verdicts its earlier executions shared).
func forget(e *Engine) {
	c := e.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.plans {
		sp := el.Value.(*cacheItem).plan
		n := sp.dropTerms()
		sp.cost -= n
		c.bytes -= n
		c.planBytes -= n
	}
}

// A table published by a census serves every later execution of its key
// the answer a fresh engine gives, field for field — through Query,
// QueryMulti, GROUP-BY, an interactive Start → Refine → Refine and
// FederateSample — and that execution looks at no candidate. The fresh
// engine forgets what it published before each of its executions.
func TestPublishedTermsMatchFresh(t *testing.T) {
	ctx := context.Background()
	for _, prof := range []datagen.Profile{datagen.TinyProfile(), datagen.DBpediaSim()} {
		ds, err := datagen.Generate(prof)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{ErrorBound: 0.10, Tau: prof.OptimalTau}
		warm, err := NewEngine(ds.Graph, ds.Model, opts)
		if err != nil {
			t.Fatal(err)
		}
		other, err := NewEngine(ds.Graph, ds.Model, opts)
		if err != nil {
			t.Fatal(err)
		}
		fresh := func() *Engine { forget(other); return other }
		prime := warm.Options()
		prime.MinSample = prime.MaxDraws
		queries := 0
		for _, gq := range ds.Queries {
			if gq.Category == "extreme" {
				continue
			}
			queries++
			a, specs := gq.Agg, censusSpecs(gq.Agg)
			p, err := warm.Prepare(ctx, a)
			if err != nil {
				t.Fatal(err)
			}
			// A first round planned at the draw budget takes the census,
			// which publishes the Query key's table and the QueryMulti key's.
			p.Query(ctx, WithOptions(prime))
			p.QueryMulti(ctx, specs, WithOptions(prime))
			if tableOf(p, querySpec(a)) == nil || tableOf(p, specs) == nil {
				t.Fatalf("%s %v: the census published no table", prof.Name, a)
			}

			check := func(what string, d *obs.TraceData, got, want string) {
				t.Helper()
				if got != want {
					t.Errorf("%s %v %s: adopted answer differs from the fresh one:\n got %s\nwant %s", prof.Name, a, what, got, want)
				}
				if !evaluatedNothing(d) {
					t.Errorf("%s %v %s: an adopting execution evaluated candidates: %v", prof.Name, a, what, d.Counters)
				}
			}
			var got string
			for seed := int64(1); seed <= 3; seed++ {
				var want string
				df := traced(func(ctx context.Context) { want = resultDigest(fresh().Query(ctx, a, WithSeed(seed))) })
				d := traced(func(ctx context.Context) { got = resultDigest(p.Query(ctx, WithSeed(seed))) })
				check("Query", d, got, want)
				if df.Attrs["terms"] != "recorded" || d.Attrs["terms"] != "adopted" {
					t.Errorf("%s %v: trace attr terms = %v fresh, %v on the published plan", prof.Name, a, df.Attrs["terms"], d.Attrs["terms"])
				}
				d = traced(func(ctx context.Context) { got = multiDigest(p.QueryMulti(ctx, specs, WithSeed(seed))) })
				check("QueryMulti", d, got, multiDigest(fresh().QueryMulti(ctx, a, specs, WithSeed(seed))))
			}

			fx, err := fresh().Start(ctx, a, WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			wx, err := p.Start(ctx, WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, eb := range []float64{0.10, 0.05} {
				d := traced(func(ctx context.Context) { got = resultDigest(wx.Refine(ctx, eb)) })
				check("Refine", d, got, resultDigest(fx.Refine(ctx, eb)))
			}
			if !wx.tab.adopted {
				t.Errorf("%s %v: the interactive execution did not adopt the table", prof.Name, a)
			}

			if a.GroupBy == "" {
				d := traced(func(ctx context.Context) { got = sampleDigest(warm.FederateSample(ctx, a, 200, true, WithSeed(1))) })
				check("FederateSample", d, got, sampleDigest(fresh().FederateSample(ctx, a, 200, true, WithSeed(1))))
			}
		}
		if queries == 0 {
			t.Fatalf("%s: no query checked", prof.Name)
		}
	}
}

// Eight concurrent executions of one cold plan, Query and QueryMulti mixed:
// some evaluate and publish, some adopt what another published, and every
// answer of a kind is the same, field for field. Each key keeps one table.
func TestPublishedTermsConcurrent(t *testing.T) {
	e, ds := tinyEngine(t)
	ctx := context.Background()
	for _, gq := range append(ds.QueriesByCategory("simple"), ds.QueriesByCategory("filter")...) {
		a, specs := gq.Agg, censusSpecs(gq.Agg)
		p, err := e.Prepare(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		const workers = 8
		digests := make([]string, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if w%2 == 0 {
					digests[w] = resultDigest(p.Query(ctx, WithSeed(7)))
				} else {
					digests[w] = multiDigest(p.QueryMulti(ctx, specs, WithSeed(7)))
				}
			}()
		}
		wg.Wait()
		for w := 2; w < workers; w++ {
			if digests[w] != digests[w%2] {
				t.Fatalf("%v: concurrent answers differ:\n%s\n%s", a, digests[w], digests[w%2])
			}
		}
		if tableOf(p, querySpec(a)) == nil || tableOf(p, specs) == nil {
			t.Fatalf("%v: no table published", a)
		}
		pub := publishedOf(spaceOf(p))
		for i := range pub {
			for j := i + 1; j < len(pub); j++ {
				if pub[i].binds(&pub[j].termKey) {
					t.Fatalf("%v: two tables for one key", a)
				}
			}
		}
	}
}

// Publishing charges a table's bytes to its space's cost, and with it to
// the cache; a space holds the tables of at most maxPublishedTerms
// bindings; a newer epoch's table replaces an older one in its binding's
// slot; evicting the space frees its tables and their bytes. Adoption
// allocates nothing (TestAllocBudgetWarmOneHopQuery holds the whole warm
// execution to its budget).
func TestPublishedTermsCacheCost(t *testing.T) {
	e, st := liveEngine(t, Options{ErrorBound: 0.05, Seed: 3})
	ctx := context.Background()
	q := regionQuery(query.Count, "", "A")
	p, err := e.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sp := spaceOf(p)
	base, cost := e.CacheStats().PlanBytes, sp.cost
	charged := func() int64 {
		n := int64(0)
		for _, pt := range publishedOf(sp) {
			n += pt.bytes
		}
		return n
	}
	if res, err := p.Query(ctx); err != nil || !res.Exact {
		t.Fatalf("COUNT over 8 candidates took no census: %+v, %v", res, err)
	}
	pub := publishedOf(sp)
	if len(pub) != 1 || pub[0].bytes <= int64(len(sp.answers)) {
		t.Fatalf("published %d tables after one census", len(pub))
	}
	if got := e.CacheStats().PlanBytes - base; got != pub[0].bytes || sp.cost-cost != got {
		t.Fatalf("publishing charged %d bytes to the cache and %d to the space, the table holds %d", got, sp.cost-cost, pub[0].bytes)
	}

	// Eight bindings, then one too many: its repeat evaluates again.
	count, sum, avg := AggSpec{Func: query.Count}, AggSpec{Func: query.Sum, Attr: "price"}, AggSpec{Func: query.Avg, Attr: "price"}
	lists := [][]AggSpec{{sum}, {avg}, {count, sum}, {sum, count}, {count, avg}, {avg, count}, {sum, avg}, {avg, sum}}
	for _, specs := range lists {
		if _, err := p.QueryMulti(ctx, specs); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(publishedOf(sp)); n != maxPublishedTerms {
		t.Fatalf("%d tables after %d bindings, cap %d", n, len(lists)+1, maxPublishedTerms)
	}
	for k, want := range map[int]string{0: "adopted", len(lists) - 1: "recorded"} {
		d := traced(func(ctx context.Context) { p.QueryMulti(ctx, lists[k]) })
		if d.Attrs["terms"] != want {
			t.Fatalf("binding %d of %d: terms %v, want %s", k+2, len(lists)+1, d.Attrs["terms"], want)
		}
	}
	if got := e.CacheStats().PlanBytes - base; got != charged() || sp.cost-cost != got {
		t.Fatalf("cache charged %d, space %d, tables hold %d", got, sp.cost-cost, charged())
	}

	// An attribute-only write keeps the space; the next census replaces the
	// binding's table with the new epoch's, in the same slot.
	prev := publishedOf(sp)
	snap, err := st.Apply(live.Batch{live.SetAttr("Car_A0", "price", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(ctx, q, WithMinEpoch(snap.Epoch())); err != nil {
		t.Fatal(err)
	}
	now := publishedOf(sp)
	if len(now) != maxPublishedTerms || now[0].epoch != snap.Epoch() || now[0] == prev[0] {
		t.Fatalf("after the write: %d tables, slot 0 at epoch %d, want %d", len(now), now[0].epoch, snap.Epoch())
	}
	for j := 1; j < len(now); j++ {
		if now[j] != prev[j] {
			t.Fatalf("slot %d changed without a census of its binding", j)
		}
	}
	if got := e.CacheStats().PlanBytes - base; got != charged() || sp.cost-cost != got {
		t.Fatalf("after the replacement the cache charges %d, the space %d, the tables hold %d", got, sp.cost-cost, charged())
	}

	// A topology write in the space's scope evicts it, tables and all.
	if _, err := st.Apply(live.Batch{live.RemoveEdge("RootA", "product", "Car_A7")}); err != nil {
		t.Fatal(err)
	}
	if sp.resident.Load() || len(publishedOf(sp)) != 0 || sp.cost != cost {
		t.Fatalf("evicted space: resident %v, %d tables, cost %d (built at %d)", sp.resident.Load(), len(publishedOf(sp)), sp.cost, cost)
	}
	if got := e.CacheStats().PlanBytes; got != base-cost {
		t.Fatalf("cache charges %d plan bytes after the eviction, want %d", got, base-cost)
	}
}

// Attribute-only writes leave a cached space valid, so a table published at
// one epoch must not serve another: after a SetAttr batch the next census of
// SUM(price) and of a price-filtered COUNT equals a fresh engine's at the new
// epoch, while a plan pinned before the write still answers as before.
func TestPublishedTermsFollowAttributeEpoch(t *testing.T) {
	g, m := twoRegionFixture(t)
	st := live.NewStore(g, 0)
	opts := Options{ErrorBound: 0.05, Seed: 3}
	e, err := NewLiveEngine(st, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	filtered := regionQuery(query.Count, "", "A")
	filtered.Filters = []query.Filter{{Attr: "price", Low: 12000, High: 15000}}
	queries := []*query.Aggregate{regionQuery(query.Sum, "price", "A"), filtered}

	before := make([]string, len(queries))
	pinned := make([]*Prepared, len(queries))
	for k, q := range queries {
		if pinned[k], err = e.Prepare(ctx, q); err != nil {
			t.Fatal(err)
		}
		res, err := pinned[k].Query(ctx)
		if err != nil || !res.Exact {
			t.Fatalf("%v took no census: %+v, %v", q, res, err)
		}
		before[k] = resultDigest(res, err)
	}
	warm := e.CacheStats()

	// Car_A3 leaves the filter's range and adds 90 000 to the sum.
	snap, err := st.Apply(live.Batch{live.SetAttr("Car_A3", "price", 103000)})
	if err != nil {
		t.Fatal(err)
	}
	ep := snap.Epoch()
	fresh, err := NewLiveEngine(st, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k, q := range queries {
		res, err := e.Query(ctx, q, WithMinEpoch(ep))
		got := resultDigest(res, err)
		if want := resultDigest(fresh.Query(ctx, q)); got != want {
			t.Errorf("%v at epoch %d:\n got %s\nwant %s", q, ep, got, want)
		}
		if got == before[k] {
			t.Errorf("%v: the write did not move the answer", q)
		}
		if again := resultDigest(pinned[k].Query(ctx)); again != before[k] {
			t.Errorf("%v pinned before the write:\n got %s\nwant %s", q, again, before[k])
		}
	}
	if now := e.CacheStats(); now.Invalidated != warm.Invalidated || now.Misses != warm.Misses {
		t.Fatalf("the attribute-only write dropped the space: %+v → %+v", warm, now)
	}
}
