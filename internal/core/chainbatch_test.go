package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"kgaq/internal/datagen"
	"kgaq/internal/kg"
	"kgaq/internal/query"
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
	out, _ := s.oracle.batch(ctx, s.env, us)
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

// The chain-level oracle settles for a whole batch exactly the verdicts it
// settles for each answer alone, on every candidate of every chain, cycle
// and flower query of the tiny profile and of one dbpedia-sim root.
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
			got := viaBatch.batch(ctx, viaBatch.answers)
			correct := 0
			for _, u := range viaSingle.answers {
				want := viaSingle.batch(ctx, []kg.NodeID{u})[u]
				if want {
					correct++
				}
				if got[u] != want {
					t.Errorf("%s: answer %d: batch says %v, single says %v", gq.ID, u, got[u], want)
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
// term table (evaluate records nothing of a cut batch), not among the
// space's shared verdicts and not on the stages, so the same space validated
// afterwards under a live context still matches a space that never saw a
// cancellation.
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

		e, err := NewEngine(ds.Graph, ds.Model, Options{Tau: p.OptimalTau})
		if err != nil {
			t.Fatal(err)
		}
		x, err := e.Start(context.Background(), gq.Agg)
		if err != nil {
			t.Fatal(err)
		}
		defer x.holdScratch()()
		x.bindTerms(termSpec{fn: gq.Agg.Func, attr: x.attr})
		sp := testSpace{x.sp, x.oracleEnv()}
		all := make([]int, len(sp.answers))
		for i := range all {
			all[i] = i
		}
		depths := 0
		for polls := int64(0); polls < 64; polls++ {
			ctx := &pollCtx{Context: context.Background()}
			ctx.left.Store(polls)
			if x.evaluate(ctx, all) {
				break // the batch finished before the cancellation landed
			}
			depths++
			for i, state := range x.tab.state {
				if state != 0 || sp.verdicts[i].Load() != verdictUnknown {
					t.Fatalf("%s: cancelled after %d polls, yet answer %d carries state %b, shared verdict %d",
						gq.ID, polls, sp.answers[i], state, sp.verdicts[i].Load())
				}
			}
		}
		if depths < 5 {
			t.Fatalf("%s: only %d cancellation depths exercised", gq.ID, depths)
		}
		got := sp.batch(context.Background(), sp.answers)
		for _, u := range sp.answers {
			if got[u] != want[u] {
				t.Errorf("%s: answer %d reads %v after the cancelled batches, %v on a clean space", gq.ID, u, got[u], want[u])
			}
		}
	}
}

// One compiled chain space serves every execution of its plan and, under
// sharding, several validation buckets of one round at once: concurrent
// batches over overlapping answer sets must agree with a quiet run. Run
// with -race.
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
