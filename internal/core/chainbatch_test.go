package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"kgaq/internal/datagen"
	"kgaq/internal/embedding"
	"kgaq/internal/kg"
	"kgaq/internal/kg/kgtest"
	"kgaq/internal/query"
	"kgaq/internal/semsim"
	"kgaq/internal/walk"
)

// multiHopQueries returns the chain, cycle and flower queries of a dataset:
// every one when perShape is 0, else the first perShape of each shape.
func multiHopQueries(ds *datagen.Dataset, perShape int) []datagen.GenQuery {
	var out []datagen.GenQuery
	for _, shape := range []query.Shape{query.ShapeChain, query.ShapeCycle, query.ShapeFlower} {
		qs := ds.QueriesByShape(shape)
		if perShape > 0 && len(qs) > perShape {
			qs = qs[:perShape]
		}
		out = append(out, qs...)
	}
	return out
}

// testSpace is a compiled answer space with the environment its oracle is
// run in.
type testSpace struct {
	*answerSpace
	env oracleEnv
}

func (s testSpace) batch(ctx context.Context, us []kg.NodeID) map[kg.NodeID]bool {
	verdicts := make([]bool, len(us))
	s.oracle.batch(ctx, s.env, us, verdicts)
	out := make(map[kg.NodeID]bool, len(us))
	for j, u := range us {
		out[u] = verdicts[j]
	}
	return out
}

// compileSpace builds a query's answer space on a fresh engine, so that no
// verdict settled by an earlier build is shared through a stage cache.
func compileSpace(t *testing.T, ds *datagen.Dataset, tau float64, q *query.Aggregate) testSpace {
	t.Helper()
	e, err := NewEngine(ds.Graph, ds.Model, Options{Tau: tau})
	if err != nil {
		t.Fatal(err)
	}
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

// freshOracle works out the verdict a compiled space's oracle must give an
// answer with a fresh search over that answer alone on every leg:
// the chain rule of levelOracle.batch (some intermediate chain validates
// every leg) under the AND of allPaths. It keeps no stage verdict, only its
// own per-leg memo, so the oracle's stage-wide validations are held to
// searches that were never asked for anything else.
type freshOracle struct {
	env  oracleEnv
	memo map[freshLegKey]bool
}

type freshLegKey struct {
	leg stageKey
	u   kg.NodeID
}

func newFreshOracle(env oracleEnv) *freshOracle {
	return &freshOracle{env: env, memo: map[freshLegKey]bool{}}
}

func (f *freshOracle) verdict(t *testing.T, o oracle, u kg.NodeID) bool {
	switch o := o.(type) {
	case allPaths:
		for _, l := range o {
			if !f.level(t, l, u) {
				return false
			}
		}
		return true
	case *levelOracle:
		return f.level(t, o, u)
	}
	t.Fatalf("no fresh verdict for oracle %T", o)
	return false
}

func (f *freshOracle) level(t *testing.T, l *levelOracle, u kg.NodeID) bool {
	if l.subs == nil {
		return f.leg(t, l, u)
	}
	for _, k := range l.reach(u) {
		sub := &l.subs[k]
		if f.leg(t, l, sub.key.root) && f.level(t, sub, u) {
			return true
		}
	}
	return false
}

// leg validates u alone against the level's own stage.
func (f *freshOracle) leg(t *testing.T, l *levelOracle, u kg.NodeID) bool {
	k := freshLegKey{l.key, u}
	if v, ok := f.memo[k]; ok {
		return v
	}
	env := f.env
	v := []bool{false}
	if _, err := semsim.Validate(context.Background(), env.v.g, env.e.calc, l.key.root, l.key.pred, []kg.NodeID{u}, v,
		semsim.ValidatorConfig{MaxLen: env.o.N, Tau: env.o.Tau}); err != nil {
		t.Fatal(err)
	}
	f.memo[k] = v[0]
	return v[0]
}

// The chain-level oracle settles for a whole batch exactly the verdicts it
// settles for each answer asked alone, and both are the verdicts of a fresh
// search over each answer alone on every leg (freshOracle) — on every
// candidate of every chain, cycle and flower query of the tiny profile and
// of one dbpedia-sim root. The oracle validates a leg's whole stage at its
// first open answer, so the single arm reads what that validation stored.
func TestChainBatchMatchesSingle(t *testing.T) {
	for _, c := range []struct {
		profile  datagen.Profile
		perShape int
	}{{datagen.TinyProfile(), 0}, {datagen.DBpediaSim(), 1}} {
		ds, err := datagen.Generate(c.profile)
		if err != nil {
			t.Fatal(err)
		}
		qs := multiHopQueries(ds, c.perShape)
		if len(qs) < 3 {
			t.Fatalf("%s: only %d multi-hop queries", c.profile.Name, len(qs))
		}
		ctx := context.Background()
		for _, gq := range qs {
			viaSingle := compileSpace(t, ds, c.profile.OptimalTau, gq.Agg)
			viaBatch := compileSpace(t, ds, c.profile.OptimalTau, gq.Agg)
			viaFresh := compileSpace(t, ds, c.profile.OptimalTau, gq.Agg)
			fresh := newFreshOracle(viaFresh.env)
			got := viaBatch.batch(ctx, viaBatch.answers)
			correct := 0
			for _, u := range viaSingle.answers {
				want := fresh.verdict(t, viaFresh.oracle, u)
				if want {
					correct++
				}
				if got[u] != want {
					t.Errorf("%s: answer %d: batch says %v, a fresh search per answer %v", gq.ID, u, got[u], want)
				}
				if single := viaSingle.batch(ctx, []kg.NodeID{u})[u]; single != want {
					t.Errorf("%s: answer %d: asked alone the oracle says %v, a fresh search per answer %v", gq.ID, u, single, want)
				}
			}
			t.Logf("%s %s: %d candidates, %d correct", c.profile.Name, gq.ID, len(viaSingle.answers), correct)
		}
	}
}

// pollCtx reports cancellation from its n-th Err poll on — a cancellation
// that lands at a chosen depth inside the batch, deterministically.
type pollCtx struct {
	context.Context
	left atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// A batch cancelled at any depth caches no verdict: not in the execution's
// term table (evaluate records nothing of a cut batch) and not among the
// space's shared verdicts, so the same space validated afterwards under a
// live context still matches a space that never saw a cancellation. Each
// depth runs on a fresh engine, so that no stage keeps the verdicts of an
// earlier depth's completed leg searches and every depth polls as often as
// the first. The depths run until the batch completes, the one just after
// the batch's last poll included: a batch that completed is not cut.
func TestChainBatchCancelledCachesNoVerdict(t *testing.T) {
	p := datagen.TinyProfile()
	ds, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, gq := range multiHopQueries(ds, 1) {
		clean := compileSpace(t, ds, p.OptimalTau, gq.Agg)
		want := clean.batch(context.Background(), clean.answers)
		anyCorrect := false
		for _, v := range want {
			anyCorrect = anyCorrect || v
		}
		if !anyCorrect {
			t.Fatalf("%s: fixture has no correct answer to poison", gq.ID)
		}

		depths := 0
		for polls := int64(0); ; polls++ {
			e, err := NewEngine(ds.Graph, ds.Model, Options{Tau: p.OptimalTau})
			if err != nil {
				t.Fatal(err)
			}
			x, err := e.Start(context.Background(), gq.Agg)
			if err != nil {
				t.Fatal(err)
			}
			release := x.holdScratch()
			x.bindTerms(termSpec{fn: gq.Agg.Func, attr: x.attr})
			sp := testSpace{x.sp, x.oracleEnv()}
			all := make([]int, len(sp.answers))
			for i := range all {
				all[i] = i
			}
			ctx := &pollCtx{Context: context.Background()}
			ctx.left.Store(polls)
			done := x.evaluate(ctx, all)
			for i, state := range x.tab.state {
				if !done && (state != 0 || sp.verdicts[i].Load() != verdictUnknown) {
					t.Fatalf("%s: cancelled after %d polls, yet answer %d carries state %b, shared verdict %d",
						gq.ID, polls, sp.answers[i], state, sp.verdicts[i].Load())
				}
				if done && (state&termKnown == 0 || (state&termCorrect != 0) != want[sp.answers[i]]) {
					t.Fatalf("%s: completed after %d polls, yet answer %d carries state %b, clean verdict %v",
						gq.ID, polls, sp.answers[i], state, want[sp.answers[i]])
				}
			}
			got := sp.batch(context.Background(), sp.answers)
			for _, u := range sp.answers {
				if got[u] != want[u] {
					t.Errorf("%s: answer %d reads %v after %d polls, %v on a clean space", gq.ID, u, got[u], polls, want[u])
				}
			}
			release()
			if done {
				break
			}
			depths++
		}
		if depths < 5 {
			t.Fatalf("%s: only %d cancellation depths exercised", gq.ID, depths)
		}
	}
}

// One compiled chain space serves every execution of its plan at once:
// concurrent batches over overlapping answer sets must agree with a quiet
// run. Run with -race.
func TestChainBatchConcurrent(t *testing.T) {
	p := datagen.TinyProfile()
	ds, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	gq := multiHopQueries(ds, 1)[0]
	quiet := compileSpace(t, ds, p.OptimalTau, gq.Agg)
	want := quiet.batch(context.Background(), quiet.answers)

	sp := compileSpace(t, ds, p.OptimalTau, gq.Agg)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Overlapping windows, so workers race on the same stage verdicts.
			lo := w * len(sp.answers) / 16
			us := sp.answers[lo : lo+len(sp.answers)/2]
			got := sp.batch(context.Background(), us)
			for _, u := range us {
				if got[u] != want[u] {
					t.Errorf("worker %d: answer %d reads %v, quiet run %v", w, u, got[u], want[u])
				}
			}
		}(w)
	}
	wg.Wait()
}

// A chain level names its intermediates by uint16 rank, so a stage with
// more than 65 536 of them fails the query with errWideLevel — at the
// top level, and from a nested level, where an onward build's other
// failures only leave the intermediate leading nowhere.
func TestChainLevelTooWide(t *testing.T) {
	const wide = math.MaxUint16 + 2
	b := kg.NewBuilder()
	r, s := b.AddNode("r", "Root"), b.AddNode("s", "Root")
	n0, a := b.AddNode("n0", "Mid2"), b.AddNode("a", "Ans")
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(b.AddEdge(s, "p", n0))
	for i := 0; i < wide; i++ {
		m := b.AddNode(fmt.Sprintf("m%d", i), "Mid")
		must(b.AddEdge(r, "p", m))
		must(b.AddEdge(n0, "q", m))
		must(b.AddEdge(m, "q", a))
	}
	g := b.Build()
	model, err := embedding.NewOracle(g, 8, 1, []embedding.Cluster{{Name: "c", Affinity: map[string]float64{"p": 1, "q": 1}}})
	must(err)
	e, err := NewEngine(g, model, Options{})
	must(err)
	hop := func(pred, typ string) query.Hop { return query.Hop{Predicate: pred, Types: []string{typ}} }
	for _, q := range []*query.Aggregate{
		query.Chain(query.Count, "", "r", "Root", []query.Hop{hop("p", "Mid"), hop("q", "Ans")}),
		query.Chain(query.Count, "", "s", "Root", []query.Hop{hop("p", "Mid2"), hop("q", "Mid"), hop("q", "Ans")}),
	} {
		if _, err := e.Query(context.Background(), q, WithSeed(1)); !errors.Is(err, errWideLevel) {
			t.Errorf("%v: err %v, want errWideLevel", q, err)
		}
	}
}

// oneViewSource serves one graph view forever, at epoch 0: here a view no
// builder or loader writes, whose adjacency lists an edge at one end only.
type oneViewSource struct{ g kg.ReadGraph }

func (s oneViewSource) snapshot() view { return view{g: s.g} }

func (s oneViewSource) waitEpoch(context.Context, uint64) (view, error) { return s.snapshot(), nil }

// A stage whose scope lists an edge at one end only has no closed-form π,
// and the query that needs it fails with walk.ErrAsymmetric on every path:
// a one-hop assembly (one path and two), a chain whose leaf stage is the
// faulty one, and a chain whose nested level starts at it. Each chain has a
// second, sound intermediate, so dropping the faulty one would still answer
// — wrongly. Nothing is cached for the faulty stage or the failed plans.
func TestAsymmetricStageFailsQuery(t *testing.T) {
	b := kg.NewBuilder()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	node := map[string]kg.NodeID{}
	for _, n := range [][2]string{
		{"r", "Root"}, {"s", "Root"}, {"m", "Mid"}, {"m2", "Mid"}, {"c", "Mid2"}, {"c2", "Mid2"},
		{"d", "Ans"}, {"d2", "Ans"}, {"x", "Other"}, {"y", "Other"},
	} {
		node[n[0]] = b.AddNode(n[0], n[1])
	}
	for _, e := range [][3]string{
		{"r", "p", "m"}, {"r", "p", "m2"}, {"s", "p", "m"}, {"s", "p", "m2"},
		{"m", "q", "c"}, {"m2", "q", "c2"}, {"c", "t", "d"}, {"c2", "t", "d2"},
		{"m", "o", "x"}, {"m", "o", "y"}, {"x", "o", "y"},
	} {
		must(b.AddEdge(node[e[0]], e[1], node[e[2]]))
	}
	g := b.Build()
	model, err := embedding.NewOracle(g, 8, 1, []embedding.Cluster{{Name: "c",
		Affinity: map[string]float64{"p": 1, "q": 1, "t": 1, "o": 0.9}}})
	must(err)
	// With N = 1 only m's scope holds both x and y, so only stages rooted
	// at m see the hidden half-edge x→y.
	e, err := newEngine(oneViewSource{kgtest.OneWay(g, node["x"], node["y"])}, g, model, Options{N: 1})
	must(err)
	faulty := stageKeyOf(e.opts, node["m"], g.PredByName("q"), []kg.TypeID{g.TypeByName("Mid2")})

	hop := func(pred, typ string) query.Hop { return query.Hop{Predicate: pred, Types: []string{typ}} }
	qb := query.NewBuilder()
	from, tgt, to := qb.Specific("m", "Mid"), qb.Target("Mid2"), qb.Specific("d", "Ans")
	qb.Edge(from, tgt, "q").Edge(tgt, to, "t")
	for _, c := range []struct {
		name string
		q    *query.Aggregate
	}{
		{"one hop", query.Simple(query.Count, "", "m", "Mid", "q", "Mid2")},
		{"two one-hop paths", qb.Aggregate(query.Count, "")},
		{"leaf stage", query.Chain(query.Count, "", "r", "Root", []query.Hop{hop("p", "Mid"), hop("q", "Mid2")})},
		{"nested level", query.Chain(query.Count, "", "s", "Root", []query.Hop{hop("p", "Mid"), hop("q", "Mid2"), hop("t", "Ans")})},
	} {
		res, err := e.Query(context.Background(), c.q, WithSeed(1))
		if !errors.Is(err, walk.ErrAsymmetric) {
			t.Errorf("%s: err %v (result %+v), want walk.ErrAsymmetric", c.name, err, res)
		}
		if st := e.cache.fetchStage(faulty, 0); st != nil {
			t.Errorf("%s: the faulty stage was cached", c.name)
		}
		if plans := e.CacheStats().Plans; plans != 0 {
			t.Errorf("%s: %d plans cached after a failed query", c.name, plans)
		}
	}
}
