package core

import (
	"context"
	"strings"
	"testing"

	"kgaq/internal/embedding/embtest"
	"kgaq/internal/estimate"
	"kgaq/internal/kg"
	"kgaq/internal/kg/kgtest"
	"kgaq/internal/query"
	"kgaq/internal/stats"
)

func figure1Engine(t *testing.T, opts Options) (*Engine, *kg.Graph) {
	t.Helper()
	g := kgtest.Figure1()
	e, err := NewEngine(g, embtest.Figure1Model(g), opts)
	if err != nil {
		t.Fatal(err)
	}
	return e, g
}

func avgPriceQuery() *query.Aggregate {
	return query.Simple(query.Avg, "price", "Germany", "Country", "product", "Automobile")
}

func countQuery() *query.Aggregate {
	return query.Simple(query.Count, "", "Germany", "Country", "product", "Automobile")
}

func TestNewEngineErrors(t *testing.T) {
	g := kgtest.Figure1()
	m := embtest.Figure1Model(g)
	if _, err := NewEngine(nil, m, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewEngine(g, nil, Options{}); err == nil {
		t.Fatal("nil model accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	e, _ := figure1Engine(t, Options{})
	o := e.Options()
	if o.Tau != 0.85 || o.ErrorBound != 0.01 || o.Confidence != 0.95 ||
		o.N != 3 || o.Lambda != 0.3 ||
		o.T != 3 || o.M != 0.6 || o.MaxRounds != 10 {
		t.Fatalf("defaults = %+v", o)
	}
}

// The running example: AVG(price) of cars produced in Germany ≈ $44,072.16.
func TestExecuteAvgRunningExample(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.02, Seed: 7})
	res, err := e.Query(context.Background(), avgPriceQuery(), withoutCensus())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	rel := stats.RelativeError(res.Estimate, kgtest.Figure1AvgPrice)
	if rel > 0.02 {
		t.Fatalf("estimate %v, truth %v, rel error %v > eb", res.Estimate, kgtest.Figure1AvgPrice, rel)
	}
	if res.Candidates != 6 {
		t.Fatalf("candidates = %d, want 6", res.Candidates)
	}
	if res.SampleSize == 0 || len(res.Rounds) == 0 {
		t.Fatal("sample bookkeeping missing")
	}
	if res.Times.Total() <= 0 {
		t.Fatal("step timing missing")
	}
	if res.Interval().Confidence != 0.95 {
		t.Fatal("interval confidence wrong")
	}
}

func TestExecuteCount(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 3})
	res, err := e.Query(context.Background(), countQuery())
	if err != nil {
		t.Fatal(err)
	}
	if rel := stats.RelativeError(res.Estimate, 5); rel > 0.10 {
		t.Fatalf("COUNT estimate %v, want ≈5 (rel %v)", res.Estimate, rel)
	}
}

func TestExecuteSum(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 5})
	q := query.Simple(query.Sum, "price", "Germany", "Country", "product", "Automobile")
	res, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if rel := stats.RelativeError(res.Estimate, kgtest.Figure1SumPrice); rel > 0.10 {
		t.Fatalf("SUM estimate %v, want ≈%v (rel %v)", res.Estimate, kgtest.Figure1SumPrice, rel)
	}
}

// Q3-style filter: fuel economy between 25 and 30 keeps BMW_320 and Audi_TT.
func TestExecuteWithFilter(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 11})
	q := countQuery().WithFilter("fuel_economy", 25, 30)
	res, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if rel := stats.RelativeError(res.Estimate, 2); rel > 0.15 {
		t.Fatalf("filtered COUNT = %v, want ≈2 (rel %v)", res.Estimate, rel)
	}
}

func TestExecuteMaxMin(t *testing.T) {
	e, _ := figure1Engine(t, Options{Seed: 13})
	qMax := query.Simple(query.Max, "price", "Germany", "Country", "product", "Automobile")
	res, err := e.Query(context.Background(), qMax)
	if err != nil {
		t.Fatal(err)
	}
	// MAX converges to the true extreme as rounds accumulate; with four 20+
	// draw rounds over 6 answers the exact value is found.
	if res.Estimate != 64300 {
		t.Fatalf("MAX = %v, want 64300", res.Estimate)
	}
	if res.Converged || res.MoE != 0 {
		t.Fatal("extremes must not claim a guarantee")
	}
	qMin := query.Simple(query.Min, "price", "Germany", "Country", "product", "Automobile")
	res, err = e.Query(context.Background(), qMin)
	if err != nil {
		t.Fatal(err)
	}
	// KIA K5 ($24,990) is semantically incorrect; the true MIN is Lamando.
	if res.Estimate != 24060.80 {
		t.Fatalf("MIN = %v, want 24060.80 (Lamando)", res.Estimate)
	}
}

func TestExecuteGroupBy(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 17})
	q := countQuery().WithGroupBy("fuel_economy")
	res, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups == nil {
		t.Fatal("no groups returned")
	}
	// Groups: 28 (BMW_320), 22 (BMW_X6), 26 (Audi_TT), n/a (Porsche_911,
	// Lamando).
	for _, label := range []string{"28", "22", "26", "n/a"} {
		if _, ok := res.Groups[label]; !ok {
			t.Fatalf("group %q missing (have %v)", label, res.Groups)
		}
	}
	if gr := res.Groups["n/a"]; stats.RelativeError(gr.Estimate, 2) > 0.25 {
		t.Fatalf("n/a group estimate %v, want ≈2", gr.Estimate)
	}
}

// Q10-style chain: cars designed by German designers. At τ=0.8 only KIA K5
// qualifies (nationality 0.84, designer 0.80 ≥ τ on both legs).
func TestExecuteChain(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Tau: 0.8, Seed: 19})
	q := query.Chain(query.Count, "", "Germany", "Country", []query.Hop{
		{Predicate: "nationality", Types: []string{"Person"}},
		{Predicate: "designer", Types: []string{"Automobile"}},
	})
	res, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if rel := stats.RelativeError(res.Estimate, 1); rel > 0.15 {
		t.Fatalf("chain COUNT = %v, want ≈1 (rel %v)", res.Estimate, rel)
	}
}

// Star assembly: cars produced in Germany AND design-companied by VW. At
// τ=0.75 the intersection's correct answers are Audi_TT and Lamando.
func TestExecuteStar(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Tau: 0.75, Seed: 23})
	b := query.NewBuilder()
	de := b.Specific("Germany", "Country")
	vw := b.Specific("Volkswagen", "Company")
	tgt := b.Target("Automobile")
	b.Edge(de, tgt, "product")
	b.Edge(vw, tgt, "designCompany")
	q := b.Aggregate(query.Count, "")
	res, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if rel := stats.RelativeError(res.Estimate, 2); rel > 0.15 {
		t.Fatalf("star COUNT = %v, want ≈2 (rel %v)", res.Estimate, rel)
	}
}

// Interactive refinement: tightening eb reuses the collected sample.
func TestInteractiveRefinement(t *testing.T) {
	e, _ := figure1Engine(t, Options{Seed: 29})
	x, err := e.Start(context.Background(), avgPriceQuery())
	if err != nil {
		t.Fatal(err)
	}
	res1, err := x.Refine(context.Background(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	size1 := res1.SampleSize
	res2, err := x.Refine(context.Background(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if res2.SampleSize < size1 {
		t.Fatalf("sample shrank across refinement: %d → %d", size1, res2.SampleSize)
	}
	if !res2.Converged {
		t.Fatal("refined run did not converge")
	}
	// The guarantee is probabilistic (95%); a single run may exceed eb
	// slightly. The statistical coverage check lives in
	// TestGuaranteeCoverage.
	if rel := stats.RelativeError(res2.Estimate, kgtest.Figure1AvgPrice); rel > 0.03 {
		t.Fatalf("refined estimate %v, rel error %v ≫ eb", res2.Estimate, rel)
	}
}

// The end-to-end accuracy guarantee: across many seeds, the converged
// estimate respects the error bound in well over the nominal share of runs
// (CLT intervals are approximate, so the assertion is conservative).
func TestGuaranteeCoverage(t *testing.T) {
	hits, runs := 0, 0
	for seed := int64(1); seed <= 25; seed++ {
		e, _ := figure1Engine(t, Options{ErrorBound: 0.02, Seed: seed})
		res, err := e.Query(context.Background(), avgPriceQuery())
		if err != nil || !res.Converged {
			continue
		}
		runs++
		if stats.RelativeError(res.Estimate, kgtest.Figure1AvgPrice) <= 0.02 {
			hits++
		}
	}
	if runs < 20 {
		t.Fatalf("only %d/25 runs converged", runs)
	}
	if frac := float64(hits) / float64(runs); frac < 0.8 {
		t.Fatalf("guarantee held in %v of runs, want ≥ 0.8", frac)
	}
}

func TestSkipValidationAblation(t *testing.T) {
	// Without validation, KIA K5 pollutes the COUNT: expectation is 6.
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 31, SkipValidation: true})
	res, err := e.Query(context.Background(), countQuery())
	if err != nil {
		t.Fatal(err)
	}
	if rel := stats.RelativeError(res.Estimate, 6); rel > 0.10 {
		t.Fatalf("unvalidated COUNT = %v, want ≈6", res.Estimate)
	}
	// Relative error vs the τ-GT of 5 is therefore ≈20%, far above the
	// validated engine's — the Fig. 5b effect.
	if stats.RelativeError(res.Estimate, 5) < 0.10 {
		t.Fatal("ablation unexpectedly accurate")
	}
}

func TestFixedDeltaAblation(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 37, FixedDelta: 50, MinSample: 10})
	res, err := e.Query(context.Background(), avgPriceQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("fixed-delta run did not converge")
	}
	// Every growth round added exactly 50 draws.
	for i := 1; i < len(res.Rounds); i++ {
		if diff := res.Rounds[i].SampleSize - res.Rounds[i-1].SampleSize; diff != 50 {
			t.Fatalf("round %d grew by %d, want 50", i, diff)
		}
	}
}

func TestTopologySamplerAblation(t *testing.T) {
	for _, s := range []SamplerKind{SamplerCNARW, SamplerNode2Vec} {
		e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 41, Sampler: s})
		res, err := e.Query(context.Background(), countQuery())
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Estimate <= 0 {
			t.Fatalf("%v: estimate = %v", s, res.Estimate)
		}
		// Topology samplers cannot run complex shapes.
		q := query.Chain(query.Count, "", "Germany", "Country", []query.Hop{
			{Predicate: "nationality", Types: []string{"Person"}},
			{Predicate: "designer", Types: []string{"Automobile"}},
		})
		if _, err := e.Query(context.Background(), q); err == nil {
			t.Fatalf("%v: chain accepted", s)
		}
	}
}

func TestDivisorPolicyAblation(t *testing.T) {
	// With τ=0.85 some sampled answers (KIA) are incorrect, so the
	// CorrectOnly policy overestimates COUNT.
	def, _ := figure1Engine(t, Options{ErrorBound: 0.02, Seed: 43})
	resDef, err := def.Query(context.Background(), countQuery(), withoutCensus())
	if err != nil {
		t.Fatal(err)
	}
	alt, _ := figure1Engine(t, Options{ErrorBound: 0.02, Seed: 43, Policy: estimate.CorrectOnly})
	resAlt, err := alt.Query(context.Background(), countQuery(), withoutCensus())
	if err != nil {
		t.Fatal(err)
	}
	if resAlt.Estimate <= resDef.Estimate {
		t.Fatalf("CorrectOnly %v should exceed SampleSize %v", resAlt.Estimate, resDef.Estimate)
	}
}

func TestExecuteResolutionErrors(t *testing.T) {
	e, _ := figure1Engine(t, Options{})
	cases := []*query.Aggregate{
		query.Simple(query.Count, "", "Atlantis", "Country", "product", "Automobile"),
		query.Simple(query.Count, "", "Germany", "Planet", "product", "Automobile"),
		query.Simple(query.Count, "", "Germany", "Country", "owns", "Automobile"),
		query.Simple(query.Count, "", "Germany", "Country", "product", "Spaceship"),
		query.Simple(query.Avg, "warpSpeed", "Germany", "Country", "product", "Automobile"),
		// Germany is a Country, not a Person.
		query.Simple(query.Count, "", "Germany", "Person", "product", "Automobile"),
	}
	for i, q := range cases {
		if _, err := e.Query(context.Background(), q); err == nil {
			t.Errorf("case %d: invalid query accepted", i)
		}
	}
	// GROUP-BY with MAX is rejected.
	q := query.Simple(query.Max, "price", "Germany", "Country", "product", "Automobile").WithGroupBy("fuel_economy")
	if _, err := e.Query(context.Background(), q); err == nil {
		t.Error("GROUP-BY MAX accepted")
	}
}

func TestExecuteNoCorrectAnswers(t *testing.T) {
	// τ=0.99 excludes every answer; AVG must fail loudly.
	e, _ := figure1Engine(t, Options{Tau: 0.99, MaxRounds: 3, Seed: 47})
	_, err := e.Query(context.Background(), avgPriceQuery())
	if err == nil || !strings.Contains(err.Error(), "no") {
		t.Fatalf("err = %v, want no-correct-answers failure", err)
	}
}

func TestExecuteDeterministic(t *testing.T) {
	e1, _ := figure1Engine(t, Options{Seed: 53})
	e2, _ := figure1Engine(t, Options{Seed: 53})
	r1, err := e1.Query(context.Background(), avgPriceQuery())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Query(context.Background(), avgPriceQuery())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Estimate != r2.Estimate || r1.SampleSize != r2.SampleSize {
		t.Fatalf("nondeterministic execution: %v/%d vs %v/%d",
			r1.Estimate, r1.SampleSize, r2.Estimate, r2.SampleSize)
	}
}

// The plan's answer space ranks Figure 1's candidates by π′: a direct
// assembly answer, not the designer-path KIA K5, has the most mass.
func TestCandidateAnswersOrdering(t *testing.T) {
	e, g := figure1Engine(t, Options{})
	p, err := e.Prepare(context.Background(), avgPriceQuery())
	if err != nil {
		t.Fatal(err)
	}
	sp := p.cur.sp
	if sp.len() != 6 {
		t.Fatalf("candidates = %d", sp.len())
	}
	lead := 0
	for i, pr := range sp.probs {
		if pr > sp.probs[lead] {
			lead = i
		}
	}
	if g.Name(sp.answers[lead]) == "KIA_K5" {
		t.Fatal("KIA K5 should not lead the candidate ranking")
	}
}

func TestSamplerKindString(t *testing.T) {
	if SamplerSemantic.String() != "semantic" || SamplerCNARW.String() != "cnarw" || SamplerNode2Vec.String() != "node2vec" {
		t.Fatal("sampler names wrong")
	}
}
