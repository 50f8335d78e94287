package walk

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"kgaq/internal/embedding/embtest"
	"kgaq/internal/kg"
	"kgaq/internal/kg/kgtest"
	"kgaq/internal/live"
	"kgaq/internal/semsim"
	"kgaq/internal/stats"
)

// converge runs ConvergeCtx and fails the test on an error.
func converge(tb testing.TB, w *Walker) {
	tb.Helper()
	if _, err := w.ConvergeCtx(context.Background()); err != nil {
		tb.Fatal(err)
	}
}

func figure1Walker(t *testing.T, cfg Config) (*Walker, *kg.Graph) {
	t.Helper()
	g := kgtest.Figure1()
	calc, err := semsim.NewCalculator(g, embtest.Figure1Model(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(g, calc, g.NodeByName("Germany"), g.PredByName("product"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, g
}

func TestNewErrors(t *testing.T) {
	g := kgtest.Figure1()
	calc, err := semsim.NewCalculator(g, embtest.Figure1Model(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(g, nil, 0, 0, Config{}); err == nil {
		t.Fatal("nil calculator accepted")
	}
	if _, err := New(g, calc, -1, 0, Config{}); err == nil {
		t.Fatal("bad start accepted")
	}
	if _, err := New(g, calc, 0, kg.PredID(999), Config{}); err == nil {
		t.Fatal("bad predicate accepted")
	}
}

// The reference matrix π is held to is stochastic, and its rows name only
// nodes of the scope.
func TestTransitionRowsSumToOne(t *testing.T) {
	w, _ := figure1Walker(t, Config{N: 3})
	for i, row := range refMatrix(w) {
		sum := 0.0
		for _, e := range row {
			if e.p < 0 {
				t.Fatalf("negative transition probability on row %d", i)
			}
			if e.to < 0 || e.to >= len(w.nodes) {
				t.Fatalf("row %d targets out-of-range node %d", i, e.to)
			}
			sum += e.p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestSelfLoopOnlyOnStart(t *testing.T) {
	w, _ := figure1Walker(t, Config{N: 3})
	si := int(w.index[w.start]) - 1
	found := false
	for i, row := range refMatrix(w) {
		for _, e := range row {
			if e.to == i {
				if i != si {
					t.Fatalf("self-loop on non-start row %d", i)
				}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("aperiodicity self-loop missing on start node")
	}
}

func TestConvergeStationary(t *testing.T) {
	w, g := figure1Walker(t, Config{N: 3})
	iters, err := w.ConvergeCtx(context.Background())
	if err != nil || iters != 1 {
		t.Fatalf("ConvergeCtx = %d, %v; want the closed form's single pass", iters, err)
	}
	// π sums to 1 over the scope.
	total := 0.0
	for _, p := range w.PiMap() {
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("π sums to %v", total)
	}
	// π is stationary under Eq. 5's matrix: π = πP within tolerance.
	next, _ := refStep(refMatrix(w), w.pi)
	for i := range next {
		if math.Abs(next[i]-w.pi[i]) > 1e-8 {
			t.Fatalf("π not stationary at node %s: %v vs %v", g.Name(w.nodes[i]), next[i], w.pi[i])
		}
	}
	// ConvergeCtx is idempotent.
	pi := w.pi
	if again, err := w.ConvergeCtx(context.Background()); again != iters || err != nil || &w.pi[0] != &pi[0] {
		t.Fatal("second ConvergeCtx re-ran")
	}
}

// Eq. 6 itself — power iteration from all mass on the start node, over
// Eq. 5's matrix — lands on the closed form ConvergeCtx computes. The
// iteration stops at an L1 change of tol or after 1000 sweeps, so the
// entries agree to 1e-8 only.
func TestCSRMatchesLegacyConverge(t *testing.T) {
	w, _ := figure1Walker(t, Config{N: 3})
	converge(t, w)
	pi := refPowerIterate(refMatrix(w), tol, 1000)
	for i := range pi {
		if math.Abs(pi[i]-w.pi[i]) > 1e-8 {
			t.Fatalf("π[%d]: closed form %v vs power iteration %v", i, w.pi[i], pi[i])
		}
	}
}

// A graph whose adjacency lists an edge at one end only (kgtest.OneWay) is
// not a reversible chain, so the closed form is not its stationary
// distribution — Eq. 5's matrix moves it — and ConvergeCtx must say so with
// ErrAsymmetric instead of storing π. In the second case BMW_320 lists no
// neighbour, so its row is an absorbing probability-1 self-loop. The
// rejected walker's Release must leave its arena clean: the next walker,
// on the symmetric graph, takes that arena and finds kg.BFS's scope.
func TestConvergeRejectsOneWayAdjacency(t *testing.T) {
	g := kgtest.Figure1()
	calc, err := semsim.NewCalculator(g, embtest.Figure1Model(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	germany, pred := g.NodeByName("Germany"), g.PredByName("product")
	auto := []kg.TypeID{g.TypeByName("Automobile")}
	drainArenas()
	defer drainArenas()
	for _, c := range [][2]string{{"EA211_TSI", "Volkswagen"}, {"BMW_320", "Germany"}} {
		ow := kgtest.OneWay(g, g.NodeByName(c[0]), g.NodeByName(c[1]))
		w, err := New(ow, calc, germany, pred, Config{N: 3})
		if err != nil {
			t.Fatal(err)
		}
		closed := make([]float64, len(w.rowWeight))
		total := 0.0
		for _, wt := range w.rowWeight {
			total += wt
		}
		for i, wt := range w.rowWeight {
			closed[i] = wt / total
		}
		if _, diff := refStep(refMatrix(w), closed); !(diff >= tol) {
			t.Fatalf("%s -/-> %s: the closed form is stationary (residual %v); the case shows nothing", c[0], c[1], diff)
		}
		iters, err := w.ConvergeCtx(context.Background())
		if !errors.Is(err, ErrAsymmetric) || iters != 0 {
			t.Fatalf("%s -/-> %s: ConvergeCtx = %d, %v; want ErrAsymmetric", c[0], c[1], iters, err)
		}
		if w.pi != nil {
			t.Fatalf("%s -/-> %s: a rejected convergence stored π", c[0], c[1])
		}
		if _, err := w.AnswerDistribution(auto); !errors.Is(err, ErrNotConverged) {
			t.Fatalf("%s -/-> %s: AnswerDistribution after the rejection: err = %v, want ErrNotConverged", c[0], c[1], err)
		}
		mem := w.mem
		w.Release()
		for i, slot := range mem.index {
			if slot != 0 {
				t.Fatalf("%s -/-> %s: slot %d of the released index holds %d", c[0], c[1], i, slot)
			}
		}

		next, err := New(g, calc, germany, pred, Config{N: 3})
		if err != nil {
			t.Fatal(err)
		}
		if next.mem != mem {
			t.Fatal("New did not take the released arena")
		}
		checkScope(t, next, g, germany, 3)
		converge(t, next)
		next.Release()
	}
}

func TestSemanticBiasInPi(t *testing.T) {
	w, g := figure1Walker(t, Config{N: 3})
	converge(t, w)
	// Direct assembly answers are more visited than the designer-path KIA.
	pi := w.PiMap()
	bmw := pi[g.NodeByName("BMW_320")]
	kia := pi[g.NodeByName("KIA_K5")]
	if bmw <= kia {
		t.Fatalf("π(BMW_320)=%v should exceed π(KIA_K5)=%v", bmw, kia)
	}
	// Irrelevant city should be visited less than semantically relevant
	// company hub.
	if pi[g.NodeByName("Berlin")] >= pi[g.NodeByName("Volkswagen")] {
		t.Fatal("topological neighbour outranks semantic hub")
	}
}

func TestPiOutsideScope(t *testing.T) {
	w, g := figure1Walker(t, Config{N: 1})
	converge(t, w)
	if got := w.PiMap()[g.NodeByName("Audi_TT")]; got != 0 {
		t.Fatalf("π outside scope = %v, want 0", got)
	}
}

func TestAnswerDistribution(t *testing.T) {
	w, g := figure1Walker(t, Config{N: 3})
	converge(t, w)
	auto := []kg.TypeID{g.TypeByName("Automobile")}
	d, err := w.AnswerDistribution(auto)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 6 { // five correct + KIA K5
		t.Fatalf("answers = %d, want 6", d.Len())
	}
	total := 0.0
	for i, u := range d.Answers {
		if !g.HasType(u, auto[0]) {
			t.Fatalf("non-automobile answer %s", g.Name(u))
		}
		if u == g.NodeByName("Germany") {
			t.Fatal("start node in answers")
		}
		total += d.Probs[i]
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("π′ sums to %v", total)
	}
}

func TestAnswerDistributionNoAnswers(t *testing.T) {
	w, g := figure1Walker(t, Config{N: 3})
	converge(t, w)
	if _, err := w.AnswerDistribution([]kg.TypeID{g.TypeByName("Thing")}); err == nil {
		t.Fatal("empty answer set accepted")
	}
}

func TestSampleMatchesPi(t *testing.T) {
	w, g := figure1Walker(t, Config{N: 3})
	converge(t, w)
	d, err := w.AnswerDistribution([]kg.TypeID{g.TypeByName("Automobile")})
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(5)
	const k = 100000
	counts := make([]int, d.Len())
	for _, i := range d.Sample(r, k) {
		counts[i]++
	}
	for i := range counts {
		got := float64(counts[i]) / k
		if math.Abs(got-d.Probs[i]) > 0.01 {
			t.Errorf("%s: empirical %v vs π′ %v", g.Name(d.Answers[i]), got, d.Probs[i])
		}
	}
}

// The literal walking-with-rejection collection over Eq. 5's matrix must
// agree with the direct stationary draw: visits to answers occur with
// frequency proportional to π′ (the sampling-equivalence claim behind
// Theorem 1).
func TestSampleByWalkMatchesPi(t *testing.T) {
	w, g := figure1Walker(t, Config{N: 3})
	converge(t, w)
	auto := []kg.TypeID{g.TypeByName("Automobile")}
	d, err := w.AnswerDistribution(auto)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(11)
	const k = 60000
	visits := refSampleByWalk(w, refMatrix(w), r, auto, 500, k)
	if len(visits) != k {
		t.Fatalf("visits = %d, want %d", len(visits), k)
	}
	counts := map[kg.NodeID]int{}
	for _, u := range visits {
		counts[u]++
	}
	for i, u := range d.Answers {
		got := float64(counts[u]) / k
		if math.Abs(got-d.Probs[i]) > 0.02 {
			t.Errorf("%s: walk frequency %v vs π′ %v", g.Name(u), got, d.Probs[i])
		}
	}
}

// The answer distribution must refuse to run before convergence instead of
// converging outside the caller's context.
func TestSamplersRequireConvergence(t *testing.T) {
	w, g := figure1Walker(t, Config{N: 3})
	auto := []kg.TypeID{g.TypeByName("Automobile")}
	if _, err := w.AnswerDistribution(auto); !errors.Is(err, ErrNotConverged) {
		t.Fatalf("AnswerDistribution before ConvergeCtx: err = %v, want ErrNotConverged", err)
	}
	converge(t, w)
	if _, err := w.AnswerDistribution(auto); err != nil {
		t.Fatalf("AnswerDistribution after ConvergeCtx: %v", err)
	}
}

func TestIsolatedStart(t *testing.T) {
	b := kg.NewBuilder()
	b.AddNode("alone", "Country")
	b.AddNode("faraway", "Automobile")
	other := b.AddNode("o1", "Thing")
	other2 := b.AddNode("o2", "Thing")
	if err := b.AddEdge(other, "p", other2); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	calc, err := semsim.NewCalculator(g, embtest.Figure1Model(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(g, calc, g.NodeByName("alone"), g.PredByName("p"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	converge(t, w)
	if got := w.PiMap()[g.NodeByName("alone")]; math.Abs(got-1) > 1e-9 {
		t.Fatalf("isolated start π = %v, want 1", got)
	}
	if _, err := w.AnswerDistribution([]kg.TypeID{g.TypeByName("Automobile")}); err == nil {
		t.Fatal("isolated start should yield no answers")
	}
}

// Property: on random graphs Eq. 5's matrix is a proper stochastic matrix,
// and the closed-form π is a distribution summing to 1 and stationary under
// it.
func TestWalkerInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := stats.NewRand(seed)
		n := 4 + r.Intn(20)
		b := kg.NewBuilder()
		ids := make([]kg.NodeID, n)
		for i := range ids {
			ids[i] = b.AddNode(nodeName(i), "T")
		}
		preds := []string{"assembly", "country", "designer"}
		for i := 0; i < 3*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			if err := b.AddEdge(ids[u], preds[r.Intn(len(preds))], ids[v]); err != nil {
				return false
			}
		}
		g := b.Build()
		if g.NumEdges() == 0 {
			return true
		}
		calc, err := semsim.NewCalculator(g, embtest.Figure1Model(g), 0)
		if err != nil {
			return false
		}
		// The random graph may not contain every predicate; pick one that
		// actually occurs (edges exist, so predicate 0 does).
		w, err := New(g, calc, ids[r.Intn(n)], kg.PredID(0), Config{N: 1 + r.Intn(3)})
		if err != nil {
			return false
		}
		rows := refMatrix(w)
		for _, row := range rows {
			sum := 0.0
			for _, e := range row {
				sum += e.p
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		if _, err := w.ConvergeCtx(context.Background()); err != nil {
			return false
		}
		total := 0.0
		for _, p := range w.PiMap() {
			total += p
		}
		_, diff := refStep(rows, w.pi)
		return math.Abs(total-1) < 1e-6 && diff < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func nodeName(i int) string {
	return "n" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// drainArenas empties the free list, so the next New starts from a fresh
// arena and a test sees only its own releases.
func drainArenas() {
	for {
		select {
		case <-arenas:
		default:
			return
		}
	}
}

// Release recycles a walker's arrays into the next New: the recycled walker
// must compute exactly what a fresh one does, whatever the arena held
// before — here a larger scope's arrays, then a smaller one's.
func TestReleaseRecyclesArena(t *testing.T) {
	g := kgtest.Figure1()
	calc, err := semsim.NewCalculator(g, embtest.Figure1Model(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	// piOf also checks π against Eq. 5's matrix.
	piOf := func(start string, n int) (map[kg.NodeID]float64, *arena) {
		w, err := New(g, calc, g.NodeByName(start), g.PredByName("product"), Config{N: n})
		if err != nil {
			t.Fatal(err)
		}
		converge(t, w)
		if _, diff := refStep(refMatrix(w), w.pi); diff >= tol {
			t.Fatalf("%s/%d: π is %v off stationary under Eq. 5's matrix", start, n, diff)
		}
		pi, mem := w.PiMap(), w.mem
		w.Release()
		return pi, mem
	}
	drainArenas()
	defer drainArenas()
	fresh := map[string]map[kg.NodeID]float64{}
	for _, c := range []struct {
		start string
		n     int
	}{{"Germany", 3}, {"Germany", 1}, {"BMW_320", 2}} {
		drainArenas()
		fresh[c.start+string(rune('0'+c.n))], _ = piOf(c.start, c.n)
	}
	drainArenas()
	_, first := piOf("Germany", 3)
	for _, c := range []struct {
		start string
		n     int
	}{{"Germany", 1}, {"BMW_320", 2}, {"Germany", 3}} {
		pi, mem := piOf(c.start, c.n)
		if mem != first {
			t.Fatalf("%s/%d: New did not take the released arena", c.start, c.n)
		}
		want := fresh[c.start+string(rune('0'+c.n))]
		if len(pi) != len(want) {
			t.Fatalf("%s/%d: %d nodes from a recycled arena, %d from a fresh one", c.start, c.n, len(pi), len(want))
		}
		for u, p := range want {
			if pi[u] != p {
				t.Fatalf("%s/%d: π(%d) = %v from a recycled arena, %v from a fresh one", c.start, c.n, u, pi[u], p)
			}
		}
	}
}

// checkScope fails unless the walker's scope is exactly kg.BFS's — the
// symptom of a dense index that was not clean is a node missing from the
// scope or admitted into it, not a crash.
func checkScope(t *testing.T, w *Walker, g kg.ReadGraph, start kg.NodeID, n int) {
	t.Helper()
	want := kg.BFS(g, start, n).Nodes
	if !slices.Equal(w.Scope(), want) {
		t.Errorf("scope of %s/%d = %v, kg.BFS finds %v", g.Name(start), n, w.Scope(), want)
	}
}

// After a scope covering the whole graph is released, every smaller scope
// built on the recycled arena — inside the old one, so any slot Release
// left set borders it — is the scope a breadth-first search finds.
func TestDenseIndexCleanAfterRelease(t *testing.T) {
	g := kgtest.Figure1()
	calc, err := semsim.NewCalculator(g, embtest.Figure1Model(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	pred := g.PredByName("product")
	drainArenas()
	defer drainArenas()
	for u := kg.NodeID(0); int(u) < g.NumNodes(); u++ {
		for n := 1; n <= 2; n++ {
			big, err := New(g, calc, g.NodeByName("Germany"), pred, Config{N: 3})
			if err != nil {
				t.Fatal(err)
			}
			if big.Size() != g.NumNodes() {
				t.Fatalf("Germany/3 spans %d of %d nodes", big.Size(), g.NumNodes())
			}
			mem := big.mem
			big.Release()
			w, err := New(g, calc, u, pred, Config{N: n})
			if err != nil {
				t.Fatal(err)
			}
			if w.mem != mem {
				t.Fatal("New did not take the released arena")
			}
			checkScope(t, w, g, u, n)
			w.Release()
			for i, slot := range mem.index {
				if slot != 0 {
					t.Fatalf("slot %d of a released index holds %d", i, slot)
				}
			}
		}
	}
}

// A walker that is never released keeps its arena to itself: the next
// walker starts from another one, and both stay correct.
func TestDenseIndexUnreleasedWalker(t *testing.T) {
	g := kgtest.Figure1()
	calc, err := semsim.NewCalculator(g, embtest.Figure1Model(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	pred := g.PredByName("product")
	drainArenas()
	defer drainArenas()
	kept, err := New(g, calc, g.NodeByName("Germany"), pred, Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(g, calc, g.NodeByName("KIA_K5"), pred, Config{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if w.mem == kept.mem {
		t.Fatal("two live walkers share one arena")
	}
	checkScope(t, w, g, g.NodeByName("KIA_K5"), 1)
	w.Release()
	checkScope(t, kept, g, g.NodeByName("Germany"), 3)
	converge(t, kept)
	if got := kept.PiMap()[g.NodeByName("KIA_K5")]; got <= 0 {
		t.Fatalf("π(KIA_K5) = %v on the unreleased walker after another was built and released", got)
	}
}

// An arena outlives the graph it was sized for: a live snapshot that added
// an entity has a NodeID the recycled index has no slot for.
func TestDenseIndexGraphGrew(t *testing.T) {
	g := kgtest.Figure1()
	calc, err := semsim.NewCalculator(g, embtest.Figure1Model(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := live.NewStore(g, 0).Apply(live.Batch{
		live.AddEntity("Golf", "Automobile"),
		live.AddEdge("Golf", "assembly", "Germany"),
	})
	if err != nil {
		t.Fatal(err)
	}
	golf := snap.NodeByName("Golf")
	if int(golf) != g.NumNodes() {
		t.Fatalf("the added entity got id %d, want the first id past the base (%d)", golf, g.NumNodes())
	}
	pred := g.PredByName("product")
	drainArenas()
	defer drainArenas()
	small, err := New(g, calc, g.NodeByName("Germany"), pred, Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	mem := small.mem
	small.Release()
	w, err := New(snap, calc, golf, pred, Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if w.mem != mem {
		t.Fatal("New did not take the released arena")
	}
	checkScope(t, w, snap, golf, 3)
	w.Release()
	// And back on the smaller graph, with an index longer than it.
	w, err = New(g, calc, g.NodeByName("Berlin"), pred, Config{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkScope(t, w, g, g.NodeByName("Berlin"), 2)
	w.Release()
}

// Arenas travel between goroutines through the free list; each walker must
// still see a clean index. Run under -race -count=10 in CI.
func TestArenaConcurrentBuildRelease(t *testing.T) {
	g := kgtest.Figure1()
	calc, err := semsim.NewCalculator(g, embtest.Figure1Model(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	pred := g.PredByName("product")
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				u := kg.NodeID((k + round) % g.NumNodes())
				n := 1 + (k+round)%3
				w, err := New(g, calc, u, pred, Config{N: n})
				if err != nil {
					t.Error(err)
					return
				}
				checkScope(t, w, g, u, n)
				if _, err := w.ConvergeCtx(context.Background()); err != nil {
					t.Error(err)
					return
				}
				total := 0.0
				for _, p := range w.PiMap() {
					total += p
				}
				if math.Abs(total-1) > 1e-9 {
					t.Errorf("π of %s/%d sums to %v", g.Name(u), n, total)
				}
				w.Release()
			}
		}()
	}
	wg.Wait()
}

// The free list keeps an arena by what its arrays hold: one grown past
// arenaKeepBytes — here by the index of a huge graph — goes to the
// collector instead of pinning that memory for good.
func TestArenaRetentionBound(t *testing.T) {
	drainArenas()
	defer drainArenas()
	w, _ := figure1Walker(t, Config{N: 3})
	w.Release()
	if len(arenas) != 1 {
		t.Fatalf("%d arenas on the free list after one release, want 1", len(arenas))
	}
	drainArenas()
	w, _ = figure1Walker(t, Config{N: 3})
	w.mem.index = make([]int32, arenaKeepBytes/4+1)
	w.Release()
	if len(arenas) != 0 {
		t.Fatal("an arena over arenaKeepBytes was retained")
	}
}
