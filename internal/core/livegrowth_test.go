package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"

	"kgaq/internal/datagen"
	"kgaq/internal/embedding"
	"kgaq/internal/kg"
	"kgaq/internal/live"
	"kgaq/internal/query"
)

// compileOn builds q's answer space on the engine's current view, through
// its stage cache when it has one, with the environment its oracle runs in.
func compileOn(t *testing.T, e *Engine, q *query.Aggregate) testSpace {
	t.Helper()
	paths, err := q.Q.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	v := e.src.snapshot()
	sp, err := e.buildAssemblySpace(context.Background(), e.opts, v, paths, nil)
	if err != nil {
		t.Fatalf("%v: %v", q, err)
	}
	return testSpace{sp, oracleEnv{e: e, o: e.opts, v: v}}
}

// A live graph grows past the arrays its first validations sized: the
// search's slot table and the chain level's answer numbering are
// NodeID-addressed and recycled, and each newer view holds ids beyond both. On dbpedia-sim's
// first simple and first chain query, an engine that compiled and validated
// every candidate on the first view sees two batches. The first adds an
// island of 130 entities no stage's scope reaches, so a cached engine
// validates on the newer view with the stages of the older one. The second
// adds 130 entities of each first hop's target type joined to the query's
// root (candidates, intermediates and path tips beyond the old ids) and
// joins each new intermediate to an existing answer. After each, the engine
// must settle exactly the candidates and verdicts of a fresh engine over the
// same graph, cached and uncached.
func TestLiveGrowthMatchesFreshEngine(t *testing.T) {
	p := datagen.DBpediaSim()
	ds, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	qs := []*query.Aggregate{ds.QueriesByShape(query.ShapeSimple)[0].Agg, ds.QueriesByShape(query.ShapeChain)[0].Agg}
	ctx := context.Background()
	island := live.Batch{live.AddEntity("island_0")}
	for i := 1; i < 130; i++ {
		name := fmt.Sprintf("island_%d", i)
		island = append(island, live.AddEntity(name), live.AddEdge(fmt.Sprintf("island_%d", i-1), ds.Graph.PredName(0), name))
	}
	var attached live.Batch
	for qi, gq := range qs {
		paths, err := gq.Q.Decompose()
		if err != nil {
			t.Fatal(err)
		}
		hops := paths[0].Hops
		answers := compileOn(t, mustEngine(t, ds.Graph, ds.Model, Options{Tau: p.OptimalTau}), gq).answers
		for i := 0; i < 130; i++ {
			name := fmt.Sprintf("growth_%d_%d", qi, i)
			attached = append(attached,
				live.AddEntity(name, hops[0].Types...),
				live.AddEdge(paths[0].RootName, hops[0].Predicate, name))
			if len(hops) > 1 {
				attached = append(attached, live.AddEdge(name, hops[1].Predicate, ds.Graph.Name(answers[i%len(answers)])))
			}
		}
	}
	for _, cacheBytes := range []int64{0, -1} {
		store := live.NewStore(ds.Graph, 0)
		opts := Options{Tau: p.OptimalTau, CacheMaxBytes: cacheBytes}
		e, err := NewLiveEngine(store, ds.Model, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			sp := compileOn(t, e, q)
			sp.batch(ctx, sp.answers)
		}
		for bi, batch := range []live.Batch{island, attached} {
			nodes := store.Snapshot().NumNodes()
			snap, err := store.Apply(batch)
			if err != nil {
				t.Fatal(err)
			}
			g, err := kg.Materialize(snap)
			if err != nil {
				t.Fatal(err)
			}
			fresh := mustEngine(t, g, ds.Model, opts)
			hits := e.CacheStats().Hits
			for _, q := range qs {
				grown, want := compileOn(t, e, q), compileOn(t, fresh, q)
				if !slices.Equal(grown.answers, want.answers) {
					t.Fatalf("cache %d, batch %d, %v: %d candidates on the grown view, a fresh engine has %d",
						cacheBytes, bi, q, len(grown.answers), len(want.answers))
				}
				got, wantVerdicts := grown.batch(ctx, grown.answers), want.batch(ctx, want.answers)
				if !maps.Equal(got, wantVerdicts) {
					t.Fatalf("cache %d, batch %d, %v: verdicts on the grown view differ from a fresh engine's", cacheBytes, bi, q)
				}
				if bi == 0 {
					continue
				}
				// The new ids are validated: as candidates of a one-hop query,
				// as the intermediates of a chain.
				validated := slices.Clone(grown.answers)
				for _, sub := range grown.oracle.(*levelOracle).subs {
					validated = append(validated, sub.key.root)
				}
				if !slices.ContainsFunc(validated, func(u kg.NodeID) bool { return int(u) >= nodes }) {
					t.Fatalf("cache %d, %v: nothing validated has an id the older view lacked", cacheBytes, q)
				}
			}
			if bi == 0 && cacheBytes >= 0 && e.CacheStats().Hits == hits {
				t.Fatalf("no stage survived the island batch")
			}
		}
	}
}

// mustEngine is a static engine over g.
func mustEngine(t *testing.T, g *kg.Graph, m embedding.Model, opts Options) *Engine {
	t.Helper()
	e, err := NewEngine(g, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The type bitmap a chain level builds from the view's type index gives the
// candidate test of the node's own type list, on a live view whose delta
// adds typed and untyped entities and retypes a base node.
func TestTypeMaskMatchesSharesType(t *testing.T) {
	ds, err := datagen.Generate(datagen.TinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	auto, country := g.TypeName(0), g.TypeName(1)
	snap, err := live.NewStore(g, 0).Apply(live.Batch{
		live.AddEntity("mask_typed", auto),
		live.AddEntity("mask_untyped"),
		live.SetTypes(g.Name(0), country),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []kg.ReadGraph{g, snap} {
		for _, types := range [][]kg.TypeID{{0}, {1}, {0, 1}, nil} {
			m := typeMaskOf(v, types)
			for u := kg.NodeID(0); int(u) < v.NumNodes(); u++ {
				if want := v.SharesType(u, types); m.has(u) != want {
					t.Fatalf("types %v, node %d: bitmap says %v, type list %v", types, u, m.has(u), want)
				}
			}
		}
	}
}
