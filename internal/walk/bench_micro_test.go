package walk

import (
	"context"
	"fmt"
	"testing"

	"kgaq/internal/datagen"
	"kgaq/internal/embedding/embtest"
	"kgaq/internal/kg"
	"kgaq/internal/kg/kgtest"
	"kgaq/internal/query"
	"kgaq/internal/semsim"
	"kgaq/internal/stats"
)

// Micro-benchmarks of the walk engine: the stage build every cold query
// pays, convergence on a small and a large scope, and the direct draw.

func benchWalker(b *testing.B) (*Walker, *kg.Graph) {
	b.Helper()
	g := kgtest.Figure1()
	calc, err := semsim.NewCalculator(g, embtest.Figure1Model(g), 0)
	if err != nil {
		b.Fatal(err)
	}
	w, err := New(g, calc, g.NodeByName("Germany"), g.PredByName("product"), Config{N: 3})
	if err != nil {
		b.Fatal(err)
	}
	return w, g
}

// benchBigWalker builds a walker whose bound is large enough that its
// per-node arrays spill the fast caches: a random graph with ~40k nodes and
// average half-degree ~20.
func benchBigWalker(b *testing.B) *Walker {
	b.Helper()
	const n = 40000
	r := stats.NewRand(97)
	bld := kg.NewBuilder()
	ids := make([]kg.NodeID, n)
	for i := range ids {
		ids[i] = bld.AddNode(fmt.Sprintf("bench_%d", i), "Thing")
	}
	preds := []string{"assembly", "country", "designer", "product"}
	for i := 0; i < 10*n; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if err := bld.AddEdge(ids[u], preds[r.Intn(len(preds))], ids[v]); err != nil {
			b.Fatal(err)
		}
	}
	g := bld.Build()
	calc, err := semsim.NewCalculator(g, embtest.Figure1Model(g), 0)
	if err != nil {
		b.Fatal(err)
	}
	w, err := New(g, calc, ids[0], g.PredByName("product"), Config{N: 3})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func BenchmarkWalkerBuild(b *testing.B) {
	g := kgtest.Figure1()
	calc, err := semsim.NewCalculator(g, embtest.Figure1Model(g), 0)
	if err != nil {
		b.Fatal(err)
	}
	us := g.NodeByName("Germany")
	pred := g.PredByName("product")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(g, calc, us, pred, Config{N: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWalkerConverge(b *testing.B) {
	g := kgtest.Figure1()
	calc, err := semsim.NewCalculator(g, embtest.Figure1Model(g), 0)
	if err != nil {
		b.Fatal(err)
	}
	us := g.NodeByName("Germany")
	pred := g.PredByName("product")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := New(g, calc, us, pred, Config{N: 3})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.ConvergeCtx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// stageBuildInput is one one-hop query of dbpedia-sim: the graph every
// benchmark workload runs on, a root whose 3-hop scope covers most of it.
func stageBuildInput(tb testing.TB) (*kg.Graph, *semsim.Calculator, kg.NodeID, kg.PredID, []kg.TypeID) {
	tb.Helper()
	p, _ := datagen.ProfileByName("dbpedia-sim")
	ds, err := datagen.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	g := ds.Graph
	calc, err := semsim.NewCalculator(g, ds.Model, 0)
	if err != nil {
		tb.Fatal(err)
	}
	paths, err := ds.QueriesByShape(query.ShapeSimple)[0].Agg.Q.Decompose()
	if err != nil {
		tb.Fatal(err)
	}
	hop := paths[0].Hops[0]
	types := make([]kg.TypeID, len(hop.Types))
	for i, name := range hop.Types {
		types[i] = g.TypeByName(name)
	}
	return g, calc, g.NodeByName(paths[0].RootName), g.PredByName(hop.Predicate), types
}

// stageBuild is what the engine does with a walker on every answer-space
// cache miss.
func stageBuild(tb testing.TB, g *kg.Graph, calc *semsim.Calculator, root kg.NodeID, pred kg.PredID, types []kg.TypeID) *arena {
	w, err := New(g, calc, root, pred, Config{N: 3})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.ConvergeCtx(context.Background()); err != nil {
		tb.Fatal(err)
	}
	if _, err := w.AnswerDistribution(types); err != nil {
		tb.Fatal(err)
	}
	mem := w.mem
	w.Release()
	return mem
}

func BenchmarkStageBuild(b *testing.B) {
	g, calc, root, pred, types := stageBuildInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stageBuild(b, g, calc, root, pred, types)
	}
}

// BenchmarkConvergeLargeScope measures ConvergeCtx alone on a large
// scope: the closed form, checked against the weights New summed.
func BenchmarkConvergeLargeScope(b *testing.B) {
	w := benchBigWalker(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.pi = nil // force a full re-convergence each iteration
		if _, err := w.ConvergeCtx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampleDirect(b *testing.B) {
	w, g := benchWalker(b)
	converge(b, w)
	d, err := w.AnswerDistribution([]kg.TypeID{g.TypeByName("Automobile")})
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sample(r, 1000)
	}
}
