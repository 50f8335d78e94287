package walk

import (
	"fmt"
	"math"
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
// pays, power-iteration convergence (CSR vs the pre-CSR slice-of-slices
// layout), and the two sampling mechanisms.

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

// benchBigWalker builds a walker whose bound is large enough that the
// convergence sweep's working set spills the fast caches — the regime the
// CSR layout targets. A random graph with ~40k nodes and average half-degree
// ~20 puts the transition arrays in the tens of megabytes.
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
	w, err := New(g, calc, ids[0], g.PredByName("product"), Config{N: 3, MaxIter: 60})
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := New(g, calc, us, pred, Config{N: 3})
		if err != nil {
			b.Fatal(err)
		}
		w.Converge()
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
	if iters := w.Converge(); iters != 1 {
		tb.Fatalf("iters = %d, want the closed form to verify", iters)
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

// The path every query takes builds no transition matrix: after a stage
// build on a fresh arena, none of the CSR/CSC arrays has been allocated.
func TestStageBuildTouchesNoMatrix(t *testing.T) {
	g, calc, root, pred, types := stageBuildInput(t)
	drainArenas()
	defer drainArenas()
	mem := stageBuild(t, g, calc, root, pred, types)
	if mem.rowStart != nil || mem.targets != nil || mem.probs != nil ||
		mem.inStart != nil || mem.inSrc != nil || mem.inProb != nil || mem.pos != nil || mem.piNext != nil {
		t.Fatalf("a stage build on the fast path allocated transition-matrix arrays: %d targets, %d transposed", cap(mem.targets), cap(mem.inSrc))
	}
	if got := stageBuild(t, g, calc, root, pred, types); got != mem {
		t.Fatal("the second stage build did not recycle the first one's arena")
	}
}

// legacyNbr/legacyRows reconstruct the pre-CSR transition layout (one slice
// of {to, p} structs per row) from a built walker, so the two convergence
// benchmarks iterate the exact same stochastic matrix.
type legacyNbr struct {
	to int
	p  float64
}

func legacyRows(w *Walker) [][]legacyNbr {
	rows := make([][]legacyNbr, len(w.nodes))
	for i := range w.nodes {
		targets, probs := w.row(i)
		row := make([]legacyNbr, len(targets))
		for k := range targets {
			row[k] = legacyNbr{to: int(targets[k]), p: probs[k]}
		}
		rows[i] = row
	}
	return rows
}

// legacyConverge is the pre-CSR power iteration, kept verbatim as the
// baseline for the CSR speedup measurement.
func legacyConverge(rows [][]legacyNbr, start int, tol float64, maxIter int) ([]float64, int) {
	n := len(rows)
	pi := make([]float64, n)
	pi[start] = 1
	next := make([]float64, n)
	iters := 0
	for it := 1; it <= maxIter; it++ {
		for i := range next {
			next[i] = 0
		}
		for i, row := range rows {
			if pi[i] == 0 {
				continue
			}
			for _, nb := range row {
				next[nb.to] += pi[i] * nb.p
			}
		}
		diff := 0.0
		for i := range next {
			diff += math.Abs(next[i] - pi[i])
		}
		pi, next = next, pi
		iters = it
		if diff < tol {
			break
		}
	}
	return pi, iters
}

// BenchmarkConvergeCSR measures the production Converge path: the
// reversibility closed form, checked against the weights New scattered.
func BenchmarkConvergeCSR(b *testing.B) {
	w := benchBigWalker(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.pi = nil // force a full re-convergence each iteration
		w.Converge()
	}
}

// csrPowerIterate runs classic power iteration (delta start, same stopping
// rule as legacyConverge) over the CSR transpose, bypassing the closed-form
// fast path — so BenchmarkConvergePowerIterCSR vs BenchmarkConvergeLegacy
// isolates the memory-layout effect from the algorithm change that
// BenchmarkConvergeCSR additionally enjoys.
func csrPowerIterate(w *Walker, tol float64, maxIter int) ([]float64, int) {
	n := len(w.nodes)
	pi := make([]float64, n)
	pi[0] = 1 // the start node leads the scope
	next := make([]float64, n)
	iters := 0
	for it := 1; it <= maxIter; it++ {
		diff := w.sweep(pi, next)
		pi, next = next, pi
		iters = it
		if diff < tol {
			break
		}
	}
	return pi, iters
}

func BenchmarkConvergePowerIterCSR(b *testing.B) {
	w := benchBigWalker(b)
	w.materialise()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csrPowerIterate(w, w.cfg.Tol, w.cfg.MaxIter)
	}
}

func BenchmarkConvergeLegacy(b *testing.B) {
	w := benchBigWalker(b)
	rows := legacyRows(w)
	cfg := w.cfg
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		legacyConverge(rows, 0, cfg.Tol, cfg.MaxIter)
	}
}

// The closed-form/CSR convergence and the legacy power iteration must agree
// on the fixed point — the speedup comparison is only meaningful over
// identical results. The legacy iteration stops at an L1 change of Tol, so
// per-entry agreement is only guaranteed to that resolution.
func TestCSRMatchesLegacyConverge(t *testing.T) {
	w, _ := figure1Walker(t, Config{N: 3})
	rows := legacyRows(w)
	w.Converge()
	pi, _ := legacyConverge(rows, 0, w.cfg.Tol, w.cfg.MaxIter)
	for i := range pi {
		if math.Abs(pi[i]-w.pi[i]) > 1e-8 {
			t.Fatalf("π[%d]: CSR %v vs legacy %v", i, w.pi[i], pi[i])
		}
	}
}

// A graph whose adjacency lists an edge in one direction only (kgtest.OneWay)
// fails the closed form's check, so ConvergeCtx must materialise P and land in power iteration, on the π that
// the pre-dense-pass walker (which verified by a CSR sweep) computed for the
// same graph — the expectations below are its output, in scope order. The
// second case leaves BMW_320 with no listed neighbour: its row is the
// probability-1 self-loop, an absorbing state.
func TestConvergeFallbackPowerIteration(t *testing.T) {
	g := kgtest.Figure1()
	calc, err := semsim.NewCalculator(g, embtest.Figure1Model(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	type nodePi struct {
		name string
		pi   float64
	}
	for _, c := range []struct {
		from, to string
		iters    int
		want     []nodePi
	}{
		{"EA211_TSI", "Volkswagen", 499, []nodePi{
			{"Germany", 0.23044660047530116},
			{"BMW_320", 0.04824560318167371},
			{"BMW_X6", 0.04824560318167371},
			{"Porsche", 0.08418365453171026},
			{"Volkswagen", 0.20085924589280418},
			{"Peter_Schreyer", 0.08073754001865444},
			{"Angela_Merkel", 0.006892229025953385},
			{"Berlin", 0.005907624879388616},
			{"Porsche_911", 0.044307186589586996},
			{"Audi_TT", 0.04824560317716844},
			{"Lamando", 0.12533350714952343},
			{"EA211_TSI", 0.037211436039105386},
			{"KIA_K5", 0.03938416585744184},
		}},
		{"BMW_320", "Germany", 506, []nodePi{
			{"Germany", 2.2509129387240918e-10},
			{"BMW_320", 0.9999999988101326},
			{"BMW_X6", 4.9067749985073815e-11},
			{"Porsche", 9.445229647706405e-11},
			{"Volkswagen", 3.202476446999461e-10},
			{"Peter_Schreyer", 8.926998973483081e-11},
			{"Angela_Merkel", 7.009678569296257e-12},
			{"Berlin", 6.008295916539649e-12},
			{"Porsche_911", 5.1761747803718414e-11},
			{"Audi_TT", 8.009434767732684e-11},
			{"Lamando", 1.6354326660484366e-10},
			{"EA211_TSI", 5.7978781164768346e-11},
			{"KIA_K5", 4.534210053123389e-11},
		}},
	} {
		ow := kgtest.OneWay(g, g.NodeByName(c.from), g.NodeByName(c.to))
		w, err := New(ow, calc, g.NodeByName("Germany"), g.PredByName("product"), Config{N: 3})
		if err != nil {
			t.Fatal(err)
		}
		if iters := w.Converge(); iters != c.iters {
			t.Fatalf("%s -/-> %s: iters = %d, want the fallback's %d sweeps", c.from, c.to, iters, c.iters)
		}
		if w.rowStart == nil {
			t.Fatalf("%s -/-> %s: the fallback ran without a transition matrix", c.from, c.to)
		}
		if len(w.nodes) != len(c.want) {
			t.Fatalf("%s -/-> %s: scope of %d nodes, want %d", c.from, c.to, len(w.nodes), len(c.want))
		}
		total := 0.0
		next := make([]float64, len(w.nodes))
		for i, u := range w.nodes {
			if g.Name(u) != c.want[i].name || w.pi[i] != c.want[i].pi {
				t.Errorf("%s -/-> %s: π(%s) = %v at %d, want π(%s) = %v",
					c.from, c.to, g.Name(u), w.pi[i], i, c.want[i].name, c.want[i].pi)
			}
			total += w.pi[i]
			targets, probs := w.row(i)
			for k, to := range targets {
				next[to] += w.pi[i] * probs[k]
			}
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("%s -/-> %s: fallback π sums to %v", c.from, c.to, total)
		}
		// Stationary under the materialised P, to the resolution Tol stops at.
		for i := range next {
			if math.Abs(next[i]-w.pi[i]) > w.cfg.Tol {
				t.Errorf("%s -/-> %s: π not stationary at %s: %v vs %v",
					c.from, c.to, g.Name(w.nodes[i]), next[i], w.pi[i])
			}
		}
	}
}

func BenchmarkSampleDirect(b *testing.B) {
	w, g := benchWalker(b)
	w.Converge()
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

func BenchmarkSampleByWalk(b *testing.B) {
	w, g := benchWalker(b)
	w.Converge()
	types := []kg.TypeID{g.TypeByName("Automobile")}
	r := stats.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.SampleByWalk(r, types, 100, 1000); err != nil {
			b.Fatal(err)
		}
	}
}
