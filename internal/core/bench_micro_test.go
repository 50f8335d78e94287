package core

import (
	"context"
	"testing"

	"kgaq/internal/datagen"
	"kgaq/internal/live"
	"kgaq/internal/query"
)

// Micro-benchmarks of the engine's hot paths on the tiny dataset: end-to-end
// execution, space construction (walker + convergence + distribution), and
// incremental refinement. These complement the table/figure harness in the
// repository root, which measures whole experiments.

func benchDataset(b *testing.B) *datagen.Dataset {
	b.Helper()
	ds, err := datagen.Generate(datagen.TinyProfile())
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func BenchmarkExecuteSimpleCount(b *testing.B) {
	ds := benchDataset(b)
	e, err := NewEngine(ds.Graph, ds.Model, Options{Tau: 0.85, ErrorBound: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	q := query.Simple(query.Count, "", "Country_0", "Country", "product", "Automobile")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteSimpleAvg(b *testing.B) {
	ds := benchDataset(b)
	e, err := NewEngine(ds.Graph, ds.Model, Options{Tau: 0.85, ErrorBound: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	q := query.Simple(query.Avg, "price", "Country_0", "Country", "product", "Automobile")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStartOnly(b *testing.B) {
	// Walker construction + convergence + answer distribution, no sampling.
	ds := benchDataset(b)
	e, err := NewEngine(ds.Graph, ds.Model, Options{Tau: 0.85})
	if err != nil {
		b.Fatal(err)
	}
	q := query.Simple(query.Count, "", "Country_0", "Country", "product", "Automobile")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Start(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteChain(b *testing.B) {
	ds := benchDataset(b)
	e, err := NewEngine(ds.Graph, ds.Model, Options{Tau: 0.85, ErrorBound: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	q := query.Chain(query.Count, "", "Country_0", "Country", []query.Hop{
		{Predicate: "nationality", Types: []string{"Designer"}},
		{Predicate: "designer", Types: []string{"Automobile"}},
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInteractiveTighten(b *testing.B) {
	ds := benchDataset(b)
	e, err := NewEngine(ds.Graph, ds.Model, Options{Tau: 0.85})
	if err != nil {
		b.Fatal(err)
	}
	q := query.Simple(query.Avg, "price", "Country_0", "Country", "product", "Automobile")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := e.Start(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		for _, eb := range []float64{0.10, 0.05, 0.02} {
			if _, err := x.Refine(context.Background(), eb); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// warmPlan prepares the first one-hop dbpedia-sim query (the benchmark of
// record's hot_repeat shape: stages resident, τ and eb as kgaqd serves them)
// and runs it once, so the scratch free list and the stage verdict tables
// are primed.
func warmPlan(b *testing.B) *Prepared {
	b.Helper()
	ds, err := datagen.Generate(datagen.DBpediaSim())
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(ds.Graph, ds.Model, Options{Tau: 0.85, ErrorBound: 0.10})
	if err != nil {
		b.Fatal(err)
	}
	var q *query.Aggregate
	for _, gq := range ds.QueriesByShape(query.ShapeSimple) {
		if gq.Agg.Attr != "" && gq.Category == "simple" {
			q = gq.Agg
			break
		}
	}
	p, err := e.Prepare(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Query(context.Background()); err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkWarmQuery is one execution of a warm plan: draws, the evaluation
// of the candidates they reach, the fold and the read-outs — no compile, no
// cold validation.
func BenchmarkWarmQuery(b *testing.B) {
	p := warmPlan(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Query(ctx, WithSeed(int64(i%16)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// warmChainEngine runs the first dbpedia-sim chain query once on a fresh
// engine: its answer space is a resident plan entry with the verdicts of one
// execution settled, the state in which kgaqd serves a repeat of it.
func warmChainEngine(b *testing.B) (*Engine, *query.Aggregate) {
	b.Helper()
	ds, err := datagen.Generate(datagen.DBpediaSim())
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(ds.Graph, ds.Model, Options{Tau: 0.85, ErrorBound: 0.10})
	if err != nil {
		b.Fatal(err)
	}
	q := ds.QueriesByShape(query.ShapeChain)[0].Agg
	if _, err := e.Query(context.Background(), q); err != nil {
		b.Fatal(err)
	}
	return e, q
}

// BenchmarkWarmChainQuery is a repeat /v1/query of a chain: the compile is
// a plan hit, the execution draws, reads shared verdicts and folds.
func BenchmarkWarmChainQuery(b *testing.B) {
	e, q := warmChainEngine(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(ctx, q, WithSeed(int64(i%16)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFederateSampleWarm is one member round of a federated chain
// query after the first: a plan hit, 500 draws and their evaluation.
func BenchmarkFederateSampleWarm(b *testing.B) {
	e, q := warmChainEngine(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.FederateSample(ctx, q, 500, false, WithSeed(int64(i%16)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmQueryMulti is BenchmarkWarmQuery with three aggregates over
// the one sample: the K-spec fold.
func BenchmarkWarmQueryMulti(b *testing.B) {
	p := warmPlan(b)
	ctx := context.Background()
	attr := p.Aggregate().Attr
	specs := []AggSpec{{Func: query.Count}, {Func: query.Sum, Attr: attr}, {Func: query.Avg, Attr: attr}}
	if _, err := p.QueryMulti(ctx, specs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.QueryMulti(ctx, specs, WithSeed(int64(i%16)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// coldEngine is a live engine over dbpedia-sim with the answer-space cache
// off: every query compiles from scratch — scope search, convergence,
// answer distributions and greedy validation — as kgaqd does under the
// benchmark of record's cold_compile workload (-cache-bytes -1).
func coldEngine(b *testing.B) (*Engine, *datagen.Dataset) {
	b.Helper()
	ds, err := datagen.Generate(datagen.DBpediaSim())
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewLiveEngine(live.NewStore(ds.Graph, 0), ds.Model, Options{Tau: 0.85, ErrorBound: 0.10, CacheMaxBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	return e, ds
}

func benchCold(b *testing.B, e *Engine, q *query.Aggregate) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(ctx, q, WithSeed(int64(i%16)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdSimpleQuery is one uncached one-hop query: a stage build and
// the validation of the candidates its draws reach.
func BenchmarkColdSimpleQuery(b *testing.B) {
	e, ds := coldEngine(b)
	benchCold(b, e, ds.QueriesByShape(query.ShapeSimple)[0].Agg)
}

// BenchmarkColdChainQuery is one uncached two-hop chain: a stage build per
// expanded intermediate, then chain validation.
func BenchmarkColdChainQuery(b *testing.B) {
	e, ds := coldEngine(b)
	benchCold(b, e, ds.QueriesByShape(query.ShapeChain)[0].Agg)
}
