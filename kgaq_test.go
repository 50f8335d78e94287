package kgaq

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPublicAPIEndToEnd drives the whole public surface: dataset
// generation, engine construction, execution with a guarantee, interactive
// refinement, and the textual query language.
func TestPublicAPIEndToEnd(t *testing.T) {
	ds, err := GenerateDataset("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Graph.NumNodes() == 0 || len(ds.Queries) == 0 {
		t.Fatal("empty dataset")
	}
	tau, err := DatasetOptimalTau("tiny")
	if err != nil || tau <= 0 {
		t.Fatalf("optimal tau = %v, %v", tau, err)
	}
	engine, err := NewEngine(ds.Graph, ds.Model, Options{Tau: tau, ErrorBound: 0.05})
	if err != nil {
		t.Fatal(err)
	}

	q := SimpleQuery(Count, "", "Country_0", "Country", "product", "Automobile")
	res, err := engine.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate <= 0 || res.SampleSize == 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	iv := res.Interval()
	if !iv.Contains(res.Estimate) {
		t.Fatal("interval must contain its own estimate")
	}

	// Interactive refinement reuses the sample.
	x, err := engine.Start(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := x.Refine(context.Background(), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := x.Refine(context.Background(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r2.SampleSize < r1.SampleSize {
		t.Fatal("refinement shrank the sample")
	}

	// The textual language parses to an equivalent query.
	parsed, err := ParseQuery("COUNT(*) MATCH (g:Country name=Country_0)-[product]->(c:Automobile) TARGET c")
	if err != nil {
		t.Fatal(err)
	}
	pres, err := engine.Query(context.Background(), parsed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pres.Estimate-res.Estimate) > 0.35*res.Estimate {
		t.Fatalf("parsed query estimate %v far from built query %v", pres.Estimate, res.Estimate)
	}
}

func TestPublicAPIPersistence(t *testing.T) {
	ds, err := GenerateDataset("tiny")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.snap")
	ep := filepath.Join(dir, "m.snap")
	if err := SaveGraphSnapshot(gp, ds.Graph); err != nil {
		t.Fatal(err)
	}
	if err := SaveEmbedding(ep, ds.Model); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraphSnapshot(gp)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := LoadEmbedding(ep)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != ds.Graph.NumNodes() {
		t.Fatal("graph snapshot mismatch")
	}
	if _, err := NewEngine(g2, m2, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPITrainAndQueryNT(t *testing.T) {
	// Load a small N-Triples fixture through the facade, train an
	// embedding, and run a query end to end without a guarantee of
	// accuracy (the fixture is tiny) — the pipeline must still hold
	// together.
	nt := `
<Germany> <rdf:type> <Country> .
<BMW_320> <rdf:type> <Automobile> .
<BMW_320> <assembly> <Germany> .
<BMW_320> <price> "35000" .
<Audi_TT> <rdf:type> <Automobile> .
<Audi_TT> <assembly> <Germany> .
<Audi_TT> <price> "42000" .
<Lamando> <rdf:type> <Automobile> .
<Lamando> <assembly> <Germany> .
<Lamando> <price> "24060" .
`
	dir := t.TempDir()
	path := filepath.Join(dir, "facts.nt")
	if err := os.WriteFile(path, []byte(nt), 0o644); err != nil {
		t.Fatal(err)
	}
	g, errs := LoadNTriplesFile(path)
	if len(errs) != 0 {
		t.Fatalf("load errors: %v", errs)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 30
	model, err := TrainEmbedding("TransE", g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(g, model, Options{Tau: 0.99, SkipValidation: true, ErrorBound: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Query(context.Background(), SimpleQuery(Avg, "price", "Germany", "Country", "assembly", "Automobile"))
	if err != nil {
		t.Fatal(err)
	}
	want := (35000.0 + 42000 + 24060) / 3
	if math.Abs(res.Estimate-want)/want > 0.10 {
		t.Fatalf("AVG = %v, want ≈%v", res.Estimate, want)
	}
}

func TestDatasetProfiles(t *testing.T) {
	names := DatasetProfiles()
	if len(names) != 4 {
		t.Fatalf("profiles = %v", names)
	}
	if _, err := GenerateDataset("no-such"); !errors.Is(err, ErrUnknownProfile) {
		t.Fatalf("err = %v, want ErrUnknownProfile", err)
	}
	if _, err := DatasetOptimalTau("no-such"); !errors.Is(err, ErrUnknownProfile) {
		t.Fatalf("err = %v, want ErrUnknownProfile", err)
	}
	if e := errUnknownProfile("x"); !strings.Contains(e.Error(), "x") || !errors.Is(e, ErrUnknownProfile) {
		t.Fatalf("error = %v", e)
	}
}

// TestFacadeContextAPI drives the redesigned execution surface through the
// facade: per-query options, streaming rounds, cancellation, and the batch
// entry point.
func TestFacadeContextAPI(t *testing.T) {
	ds, err := GenerateDataset("tiny")
	if err != nil {
		t.Fatal(err)
	}
	tau, _ := DatasetOptimalTau("tiny")
	engine, err := NewEngine(ds.Graph, ds.Model, Options{Tau: tau, ErrorBound: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := SimpleQuery(Count, "", "Country_0", "Country", "product", "Automobile")

	var rounds int
	res, err := engine.Query(ctx, q, WithErrorBound(0.10), WithSeed(5),
		OnRound(func(Round) { rounds++ }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate <= 0 || rounds == 0 || rounds != len(res.Rounds) {
		t.Fatalf("estimate %v, %d streamed rounds, %d recorded", res.Estimate, rounds, len(res.Rounds))
	}

	// Cancellation surfaces the facade sentinel.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := engine.Query(cctx, q); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}

	// Batch keeps per-query outcomes aligned.
	out := engine.QueryBatch(ctx, []*AggregateQuery{q, q}, WithParallelism(2), WithErrorBound(0.10))
	if len(out) != 2 || out[0].Err != nil || out[1].Err != nil {
		t.Fatalf("batch = %+v", out)
	}
	if out[0].Result.Estimate != out[1].Result.Estimate {
		t.Fatal("identical batch queries diverged")
	}
}

func TestEmbeddingModelNames(t *testing.T) {
	if len(EmbeddingModelNames()) != 5 {
		t.Fatalf("models = %v", EmbeddingModelNames())
	}
}

// TestFacadePreparedAPI drives the two-phase surface: Prepare once,
// introspect the plan, execute repeatedly, and fan three aggregates over
// one shared sample with QueryMulti.
func TestFacadePreparedAPI(t *testing.T) {
	ds, err := GenerateDataset("tiny")
	if err != nil {
		t.Fatal(err)
	}
	tau, _ := DatasetOptimalTau("tiny")
	engine, err := NewEngine(ds.Graph, ds.Model, Options{Tau: tau, ErrorBound: 0.10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := SimpleQuery(Count, "", "Country_0", "Country", "product", "Automobile")

	plan, err := engine.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	info := plan.Plan()
	if info.Candidates == 0 || info.CacheBuilt == 0 {
		t.Fatalf("plan metadata empty: %+v", info)
	}
	if _, err := ParseQuery(info.Query); err != nil {
		t.Fatalf("PlanInfo.Query %q not re-parseable: %v", info.Query, err)
	}
	r1, err := plan.Query(ctx)
	if err != nil || !r1.Converged {
		t.Fatalf("plan query: %v / %+v", err, r1)
	}
	r2, err := plan.Query(ctx)
	if err != nil || r2.Estimate != r1.Estimate {
		t.Fatalf("plan re-execution diverged: %v / %v vs %v", err, r2.Estimate, r1.Estimate)
	}
	if _, err := plan.Query(ctx, WithHopBound(2)); !errors.Is(err, ErrPlanOption) {
		t.Fatalf("plan-knob override: err = %v, want ErrPlanOption", err)
	}

	multi, err := plan.QueryMulti(ctx, []AggSpec{
		{Func: Count},
		{Func: Sum, Attr: "price"},
		{Func: Avg, Attr: "price"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !multi.Converged || len(multi.Aggs) != 3 {
		t.Fatalf("multi = %+v", multi)
	}
	if math.Abs(multi.Aggs[2].Estimate-multi.Aggs[1].Estimate/multi.Aggs[0].Estimate) >
		0.05*multi.Aggs[2].Estimate {
		t.Fatalf("AVG %v inconsistent with SUM/COUNT %v/%v",
			multi.Aggs[2].Estimate, multi.Aggs[1].Estimate, multi.Aggs[0].Estimate)
	}
	if _, err := engine.QueryMulti(ctx, q, []AggSpec{{Func: Sum}}); !errors.Is(err, ErrBadAggSpec) {
		t.Fatalf("bad spec: err = %v, want ErrBadAggSpec", err)
	}
}
