package semsim

import (
	"container/heap"
	"context"
	"maps"
	"math"
	"math/rand"
	"testing"

	"kgaq/internal/datagen"
	"kgaq/internal/kg"
)

// The greedy search as it was before the typed heap and the path arena:
// container/heap over *refItem, each frontier path carrying a copy of its
// node sequence, want/settled/result maps, and a map for the fallback's
// simple-path test. TestValidateMatchesReference holds ValidateFunc to it.

type refItem struct {
	tip      kg.NodeID
	priority float64
	logSum   float64
	nodes    []kg.NodeID
}

type refHeap []*refItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].priority > h[j].priority }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func referenceValidate(ctx context.Context, g kg.ReadGraph, c *Calculator, us kg.NodeID, queryPred kg.PredID,
	pi map[kg.NodeID]float64, answers []kg.NodeID, cfg ValidatorConfig) (map[kg.NodeID]ValidateResult, ValidateStats) {

	cfg = cfg.withDefaults()
	logRow := c.LogSimRow(queryPred)
	want := make(map[kg.NodeID]bool, len(answers))
	for _, a := range answers {
		want[a] = true
	}
	res := make(map[kg.NodeID]ValidateResult, len(answers))
	settled := make(map[kg.NodeID]bool, len(answers))
	var stats ValidateStats

	remaining := len(want)
	floor := cfg.PlausibleFraction * cfg.Tau

	h := &refHeap{{tip: us, priority: pi[us], nodes: []kg.NodeID{us}}}
	heap.Init(h)
	for h.Len() > 0 && remaining > 0 && stats.Expansions < cfg.Budget {
		if stats.Expansions%ctxCheckEvery == 0 && ctx.Err() != nil {
			return res, stats
		}
		it := heap.Pop(h).(*refItem)
		depth := len(it.nodes) - 1
		if depth >= cfg.MaxLen {
			continue
		}
		stats.Expansions++
		for _, he := range g.Neighbors(it.tip) {
			onPath := false
			for _, u := range it.nodes {
				if u == he.To {
					onPath = true
					break
				}
			}
			if onPath {
				continue
			}
			logSum := it.logSum + logRow[he.Pred]
			if want[he.To] && !settled[he.To] {
				s := math.Exp(logSum / float64(depth+1))
				r := res[he.To]
				if s > r.Similarity {
					r.Similarity = s
				}
				stats.PathsFound++
				switch {
				case s >= cfg.Tau:
					r.Paths++
					settled[he.To] = true
					remaining--
				case s >= floor:
					r.Paths++
					if r.Paths >= cfg.Repeat {
						settled[he.To] = true
						remaining--
					}
				}
				res[he.To] = r
			}
			if depth+1 < cfg.MaxLen {
				nodes := append(append(make([]kg.NodeID, 0, len(it.nodes)+1), it.nodes...), he.To)
				heap.Push(h, &refItem{tip: he.To, priority: pi[he.To], logSum: logSum, nodes: nodes})
			}
		}
	}
	for _, a := range answers {
		if ctx.Err() != nil {
			return res, stats
		}
		if res[a].Similarity == 0 {
			stats.Fallbacks++
			if s, ok := referenceFallback(g, c, us, queryPred, a, cfg.MaxLen); ok {
				res[a] = ValidateResult{Similarity: s, Paths: 1}
			} else {
				res[a] = ValidateResult{}
			}
		}
	}
	return res, stats
}

func referenceFallback(g kg.ReadGraph, c *Calculator, us kg.NodeID, queryPred kg.PredID, a kg.NodeID, maxLen int) (float64, bool) {
	logRow := c.LogSimRow(queryPred)
	best := -1.0
	onPath := map[kg.NodeID]bool{us: true}
	var dfs func(u kg.NodeID, depth int, logSum float64)
	dfs = func(u kg.NodeID, depth int, logSum float64) {
		for _, he := range g.Neighbors(u) {
			if onPath[he.To] {
				continue
			}
			ls := logSum + logRow[he.Pred]
			if he.To == a {
				if s := math.Exp(ls / float64(depth+1)); s > best {
					best = s
				}
			}
			if depth+1 < maxLen {
				onPath[he.To] = true
				dfs(he.To, depth+1, ls)
				onPath[he.To] = false
			}
		}
	}
	dfs(us, 0, 0)
	if best < 0 {
		return 0, false
	}
	return best, true
}

// countdownCtx reports cancellation from its n-th Err call on, so a search
// is cut at the same poll in both implementations — mid-search, mid-fallback
// or at once — without a clock.
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

// drainSearches empties the free list, so the next call starts from a fresh
// search.
func drainSearches() {
	for {
		select {
		case <-searches:
		default:
			return
		}
	}
}

// stationaryPi is the closed-form stationary distribution of the semantic
// walk over the n-bounded scope of us (π ∝ weighted degree, the start's
// self-loop included): the priorities the engine hands the validator.
func stationaryPi(g kg.ReadGraph, c *Calculator, us kg.NodeID, pred kg.PredID, n int) map[kg.NodeID]float64 {
	b := g.BoundedSubgraph(us, n)
	row := c.SimRow(pred)
	pi := make(map[kg.NodeID]float64, len(b.Nodes))
	total := 0.0
	for _, u := range b.Nodes {
		w := 0.0
		for _, he := range g.Neighbors(u) {
			if _, in := b.Dist[he.To]; in {
				w += row[he.Pred]
			}
		}
		if u == us {
			w += 0.001
		}
		if w == 0 {
			w = 1
		}
		pi[u] = w
		total += w
	}
	for u := range pi {
		pi[u] /= total
	}
	return pi
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

// The typed search against the container/heap search it replaced, on the
// leg of every dbpedia-sim query: identical result maps (bit for bit) and
// identical ValidateStats, under the walk's stationary π and under a
// distance-only π that ties whole BFS layers (so a change of pop order among
// equal priorities shows), for the full candidate set, random subsets with
// duplicates, an off-scope answer only the fallback settles and the start
// itself, with Repeat 1 and 3, a budget that runs out, and contexts
// cancelled at the first, second and seventh poll. Every call but the first
// runs on the search the previous one released, so a slot left set shows
// as a mismatch too; the test ends with a call on the reused search that
// must equal one on a fresh search.
func TestValidateMatchesReference(t *testing.T) {
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
	configs := []ValidatorConfig{
		{Repeat: 3, MaxLen: 3, Tau: 0.85},
		{Repeat: 1, MaxLen: 3, Tau: 0.85},
		{Repeat: 3, MaxLen: 3, Tau: 0.85, Budget: 5}, // runs out
	}
	compare := func(what string, ctxOf func() context.Context, l leg, pi map[kg.NodeID]float64, answers []kg.NodeID, cfg ValidatorConfig) {
		t.Helper()
		wantRes, wantStats := referenceValidate(ctxOf(), g, c, l.root, l.pred, pi, answers, cfg)
		gotRes, gotStats := ValidateCtx(ctxOf(), g, c, l.root, l.pred, pi, answers, cfg)
		if gotStats != wantStats {
			t.Fatalf("%s (root %s, %d answers, %+v): stats %+v, reference %+v",
				what, g.Name(l.root), len(answers), cfg, gotStats, wantStats)
		}
		if !maps.Equal(gotRes, wantRes) {
			t.Fatalf("%s (root %s, %d answers, %+v): %d results differ from the reference's %d",
				what, g.Name(l.root), len(answers), cfg, len(gotRes), len(wantRes))
		}
	}
	background := func() context.Context { return context.Background() }
	legs := workloadLegs(t, ds)
	calls := 0
	for _, l := range legs {
		cands := candidatesOf(g, l, 0)
		if len(cands) == 0 {
			continue
		}
		// The first node off the leg's scope, which only the fallback can
		// settle; the start when the scope is the whole graph.
		far := l.root
		scope := g.BoundedSubgraph(l.root, 3)
		for u := kg.NodeID(0); int(u) < g.NumNodes(); u++ {
			if _, in := scope.Dist[u]; !in {
				far = u
				break
			}
		}
		for _, p := range []struct {
			name string
			pi   map[kg.NodeID]float64
		}{
			{"stationary π", stationaryPi(g, c, l.root, l.pred, 3)},
			{"distance π", fakePi(g, l.root)},
		} {
			pname, pi := p.name, p.pi
			subset := make([]kg.NodeID, 1+rng.Intn(2*len(cands)))
			for i := range subset {
				subset[i] = cands[rng.Intn(len(cands))]
			}
			// Few answers, so the budget that runs out leaves few to the
			// per-answer exhaustive fallback: one off-scope node, the start
			// (never the tip of a simple path), a repeated candidate.
			few := []kg.NodeID{far, cands[0], l.root, cands[len(cands)-1], cands[0]}
			for _, cfg := range configs[:2] {
				compare(pname+", all candidates", background, l, pi, cands, cfg)
				compare(pname+", random subset", background, l, pi, subset, cfg)
			}
			compare(pname+", budget run out", background, l, pi, few, configs[2])
			for _, n := range []int{1, 2, 7} {
				compare(pname+", cancelled", func() context.Context { return &countdownCtx{context.Background(), n} },
					l, pi, few, configs[0])
			}
			calls += 8
		}
	}
	if calls < 500 {
		t.Fatalf("only %d comparisons ran", calls)
	}

	// A call on the search the last one released equals one on a fresh search.
	l := legs[0]
	pi := stationaryPi(g, c, l.root, l.pred, 3)
	answers := candidatesOf(g, l, 0)
	answers = answers[:len(answers)/2]
	reused, reusedStats := ValidateCtx(context.Background(), g, c, l.root, l.pred, pi, answers, configs[0])
	drainSearches()
	fresh, freshStats := ValidateCtx(context.Background(), g, c, l.root, l.pred, pi, answers, configs[0])
	if reusedStats != freshStats || !maps.Equal(reused, fresh) {
		t.Fatalf("a reused search gave %+v over %d results, a fresh one %+v over %d", reusedStats, len(reused), freshStats, len(fresh))
	}
}
