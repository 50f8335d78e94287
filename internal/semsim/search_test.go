package semsim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kgaq/internal/datagen"
	"kgaq/internal/embedding"
	"kgaq/internal/embedding/embtest"
	"kgaq/internal/kg"
	"kgaq/internal/kg/kgtest"
)

// exhaustiveVerdicts is the definition the search is held to: Eq. 3's
// maximum over every simple path of length ≤ n, at or above τ.
func exhaustiveVerdicts(best map[kg.NodeID]float64, answers []kg.NodeID, tau float64) []bool {
	want := make([]bool, len(answers))
	for i, a := range answers {
		want[i] = best[a] >= tau
	}
	return want
}

func TestValidateFindsAllAnswers(t *testing.T) {
	c, g := figure1Calc(t)
	product := g.PredByName("product")
	us := g.NodeByName("Germany")
	var answers []kg.NodeID
	for _, name := range append(kgtest.Figure1Answers(), "KIA_K5") {
		answers = append(answers, g.NodeByName(name))
	}
	got := make([]bool, len(answers))
	stats, err := Validate(context.Background(), g, c, us, product, answers, got, ValidatorConfig{MaxLen: 3, Tau: 0.85})
	if err != nil || stats.Expansions == 0 {
		t.Fatalf("err %v, %d expansions", err, stats.Expansions)
	}
	want := exhaustiveVerdicts(Exhaustive(g, c, us, product, 3), answers, 0.85)
	for i, a := range answers {
		if got[i] != want[i] {
			t.Errorf("%s: correct %v, want %v", g.Name(a), got[i], want[i])
		}
	}
	if got[len(got)-1] {
		t.Error("KIA_K5 must be below τ (Example 2)")
	}
}

func TestValidateUnreachableAnswer(t *testing.T) {
	b := kg.NewBuilder()
	us := b.AddNode("start", "Country")
	a1 := b.AddNode("car1", "Automobile")
	if err := b.AddEdge(a1, "assembly", us); err != nil {
		t.Fatal(err)
	}
	island := b.AddNode("island_car", "Automobile")
	other := b.AddNode("elsewhere", "Country")
	if err := b.AddEdge(island, "assembly", other); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	c, err := NewCalculator(g, embtest.Figure1Model(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := []bool{true, true}
	if _, err := Validate(context.Background(), g, c, us, g.PredByName("assembly"),
		[]kg.NodeID{island, a1}, got, ValidatorConfig{}); err != nil || got[0] || !got[1] {
		t.Fatalf("island %v, neighbour %v (err %v), want false, true", got[0], got[1], err)
	}
}

func TestValidateDefaults(t *testing.T) {
	if cfg := (ValidatorConfig{}).withDefaults(); cfg.MaxLen != 3 || cfg.Tau != 0.85 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestValidateEmptyAnswerSet(t *testing.T) {
	c, g := figure1Calc(t)
	us := g.NodeByName("Germany")
	stats, err := Validate(context.Background(), g, c, us, g.PredByName("product"), nil, nil, ValidatorConfig{})
	if err != nil || stats.Expansions != 0 {
		t.Fatalf("err %v, %d expansions", err, stats.Expansions)
	}
}

// An answer exactly at τ whose path's prefix sits on the pruning bound: the
// first edge carries similarity s, the next two the query predicate itself
// (similarity 1), and τ is the answer's own score exp(ln s / 3). Every
// prefix then has log-sum ln s = 3·ln τ up to rounding, so the bound must
// admit it. A bound at the prefix's depth instead of MaxLen prunes every
// branch, and a bound without slack prunes those where 3·ln τ rounds above
// ln s, which the fixture requires at least one branch to do.
func TestValidateAtTauOnTheBound(t *testing.T) {
	b := kg.NewBuilder()
	root := b.AddNode("root", "Country")
	var answers []kg.NodeID
	for i := range 10 {
		a := b.AddNode(fmt.Sprint("a", i), "Thing")
		m := b.AddNode(fmt.Sprint("m", i), "Thing")
		answers = append(answers, b.AddNode(fmt.Sprint("answer", i), "Automobile"))
		for _, e := range []struct {
			from kg.NodeID
			pred string
			to   kg.NodeID
		}{{root, fmt.Sprint("near", i), a}, {a, "query", m}, {m, "query", answers[i]}} {
			if err := b.AddEdge(e.from, e.pred, e.to); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.Build()
	vecs := make([][]float64, g.NumPredicates())
	vecs[g.PredByName("query")] = []float64{1, 0}
	for i := range 10 {
		x := 0.55 + 0.01*float64(i)
		vecs[g.PredByName(fmt.Sprint("near", i))] = []float64{x, math.Sqrt(1 - x*x)}
	}
	c, err := NewCalculator(g, &embedding.PredVectors{ModelName: "bound", Vecs: vecs}, 0)
	if err != nil {
		t.Fatal(err)
	}
	query := g.PredByName("query")
	logRow := c.LogSimRow(query)
	best := Exhaustive(g, c, root, query, 3)
	unslacked := 0
	for i, u := range answers {
		ls := logRow[g.PredByName(fmt.Sprint("near", i))]
		tau := math.Exp(ls / 3)
		if 3*math.Log(tau) > ls {
			unslacked++
		}
		if best[u] < tau {
			t.Fatalf("answer%d: exhaustive %v below its τ %v", i, best[u], tau)
		}
		got := []bool{false}
		if _, err := Validate(context.Background(), g, c, root, query, []kg.NodeID{u}, got,
			ValidatorConfig{MaxLen: 3, Tau: tau}); err != nil || !got[0] {
			t.Errorf("answer%d at τ = %v: correct %v (err %v), want true", i, tau, got[0], err)
		}
	}
	if unslacked == 0 {
		t.Fatal("no branch's prefix rounds below 3·ln τ: the fixture no longer tests the slack")
	}
}

// The search against the definition, on every leg of every dbpedia-sim
// query (chain onward legs included), at two thresholds: for the leg's every
// candidate, a seeded subset with duplicates, and a short list holding an
// off-scope node, the start itself and a repeated candidate, each verdict
// equals Exhaustive's maximum ≥ τ. Every call runs on the mark table the
// previous one released, so a mark left set shows as a wrong verdict.
// Contexts cancelled at the first, second and seventh poll either let the
// search finish (the same verdicts) or cut it, returning the error with
// verdicts that call no incorrect answer correct.
func TestValidateMatchesExhaustive(t *testing.T) {
	ds, err := datagen.Generate(datagen.DBpediaSim())
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	c, err := NewCalculator(g, ds.Model, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	calls, cut := 0, 0
	check := func(ctx context.Context, l leg, best map[kg.NodeID]float64, answers []kg.NodeID, tau float64) {
		t.Helper()
		got := make([]bool, len(answers))
		_, err := Validate(ctx, g, c, l.root, l.pred, answers, got, ValidatorConfig{MaxLen: 3, Tau: tau})
		want := exhaustiveVerdicts(best, answers, tau)
		for i, a := range answers {
			if got[i] != want[i] && (err == nil || got[i]) {
				t.Fatalf("root %s, τ %v, %d answers (err %v): %s correct %v, Eq. 3 says %v",
					g.Name(l.root), tau, len(answers), err, g.Name(a), got[i], want[i])
			}
		}
		if err != nil {
			if err != context.Canceled {
				t.Fatalf("root %s: error %v", g.Name(l.root), err)
			}
			cut++
		}
		calls++
	}
	for _, l := range workloadLegs(t, ds) {
		cands := candidatesOf(g, l, 0)
		if len(cands) == 0 {
			continue
		}
		best := Exhaustive(g, c, l.root, l.pred, 3)
		// The first node off the leg's scope; the start when the scope is
		// the whole graph.
		far := l.root
		scope := g.BoundedSubgraph(l.root, 3)
		for u := kg.NodeID(0); int(u) < g.NumNodes(); u++ {
			if _, in := scope.Dist[u]; !in {
				far = u
				break
			}
		}
		subset := make([]kg.NodeID, 1+rng.Intn(2*len(cands)))
		for i := range subset {
			subset[i] = cands[rng.Intn(len(cands))]
		}
		few := []kg.NodeID{far, cands[0], l.root, cands[len(cands)-1], cands[0]}
		for _, tau := range []float64{0.85, 0.7} {
			for _, answers := range [][]kg.NodeID{cands, subset, few} {
				check(context.Background(), l, best, answers, tau)
			}
		}
		for _, n := range []int{1, 2, 7} {
			check(&countdownCtx{context.Background(), n}, l, best, cands, 0.85)
		}
	}
	if calls < 500 || cut == 0 {
		t.Fatalf("%d calls, %d cut by their context", calls, cut)
	}
	t.Logf("%d calls, %d cut by their context", calls, cut)
}

// countdownCtx reports cancellation from its n-th Err call on, so a search
// is cut at a chosen poll without a clock.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// leg is one (root, predicate, target types) validation of the benchmark
// graph's workload.
type leg struct {
	root  kg.NodeID
	pred  kg.PredID
	types []kg.TypeID
}

// workloadLegs lists the leg of every decomposed path of every dbpedia-sim
// query from its root, and for a chain path also the onward leg from the
// first intermediates its first leg reaches.
func workloadLegs(t *testing.T, ds *datagen.Dataset) []leg {
	g := ds.Graph
	resolve := func(root kg.NodeID, h int, hops []string, typeNames [][]string) leg {
		l := leg{root: root, pred: g.PredByName(hops[h])}
		for _, name := range typeNames[h] {
			l.types = append(l.types, g.TypeByName(name))
		}
		return l
	}
	var legs []leg
	for _, q := range ds.Queries {
		paths, err := q.Agg.Q.Decompose()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			preds := make([]string, len(p.Hops))
			types := make([][]string, len(p.Hops))
			for h, hop := range p.Hops {
				preds[h], types[h] = hop.Predicate, hop.Types
			}
			first := resolve(g.NodeByName(p.RootName), 0, preds, types)
			legs = append(legs, first)
			if len(p.Hops) < 2 {
				continue
			}
			for _, mid := range candidatesOf(g, first, 2) {
				legs = append(legs, resolve(mid, 1, preds, types))
			}
		}
	}
	return legs
}

// candidatesOf lists up to limit nodes (all when limit ≤ 0) of l's
// 3-bounded scope that share a target type, the root excepted, in BFS order.
func candidatesOf(g kg.ReadGraph, l leg, limit int) []kg.NodeID {
	var out []kg.NodeID
	for _, u := range g.BoundedSubgraph(l.root, 3).Nodes {
		if u != l.root && g.SharesType(u, l.types) {
			out = append(out, u)
			if len(out) == limit {
				break
			}
		}
	}
	return out
}
