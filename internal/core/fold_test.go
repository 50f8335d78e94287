package core

import (
	"context"
	"errors"
	"testing"

	"kgaq/internal/datagen"
	"kgaq/internal/estimate"
	"kgaq/internal/kg"
	"kgaq/internal/query"
)

// oracleFunc lets a test stand in front of a compiled space's oracle.
type oracleFunc func(ctx context.Context, env oracleEnv, us []kg.NodeID, out []bool) bool

func (f oracleFunc) batch(ctx context.Context, env oracleEnv, us []kg.NodeID, out []bool) bool {
	return f(ctx, env, us, out)
}

// tinyEngine builds a fresh engine over the tiny profile: nothing cached, so
// every first validation of a candidate really runs.
func tinyEngine(t *testing.T) (*Engine, *datagen.Dataset) {
	t.Helper()
	p := datagen.TinyProfile()
	ds, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds.Graph, ds.Model, Options{ErrorBound: 0.10, Tau: p.OptimalTau, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return e, ds
}

// withOracle is a copy of sp's sampling space and shared verdicts that
// validates through o, outside the cache: it publishes no term table.
func withOracle(sp *answerSpace, o oracle) *answerSpace {
	return &answerSpace{cacheMeta: sp.cacheMeta, answers: sp.answers, probs: sp.probs, alias: sp.alias,
		oracle: o, verdicts: sp.verdicts}
}

// resultDigest is every field of a Result but its wall-clock Times.
func resultDigest(res *Result, err error) string {
	var d digester
	d.result(res, err)
	return d.b.String()
}

// A round folds all of its draws or none. Cancel one chain query's Refine at
// every poll depth of its validation (and of the loop around it), then Refine
// again under a live context: the outcome equals the uninterrupted run's in
// every field, so no draw was folded twice and none was lost. The cancelled
// call's own partial Result counts a draw as correct only when its candidate
// is known and correct — an unknown candidate counts as incorrect — and
// leaves the fold exactly where the last completed round put it.
func TestFoldResumesAfterCancelledValidation(t *testing.T) {
	ref, ds := tinyEngine(t)
	q := ds.QueriesByShape(query.ShapeChain)[1].Agg // AVG over a two-hop chain
	want := resultDigest(ref.Query(context.Background(), q))

	cancelled, withUnknown := 0, 0
	for polls := int64(0); polls < 400; polls++ {
		e, _ := tinyEngine(t)
		x, err := e.Start(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &pollCtx{Context: context.Background()}
		ctx.left.Store(polls)
		part, err := x.Refine(ctx, 0)
		if err == nil {
			if got := resultDigest(part, nil); got != want {
				t.Fatalf("%d polls: an undisturbed Refine differs from the reference run", polls)
			}
			break // the cancellation no longer lands inside the refinement
		}
		if !errors.Is(err, ErrInterrupted) || part == nil || part.Converged {
			t.Fatalf("%d polls: cancelled Refine returned (%+v, %v)", polls, part, err)
		}
		cancelled++
		tab := x.tab
		known, unknown := 0, 0
		for _, i := range x.drawIdx {
			switch {
			case tab.state[i]&termKnown == 0:
				unknown++
			case tab.specCorrect(i, 0):
				known++
			}
		}
		if tab.folded > len(x.drawIdx) {
			t.Fatalf("%d polls: fold position %d of %d draws", polls, tab.folded, len(x.drawIdx))
		}
		if n := len(part.Rounds); n > 0 && part.Rounds[n-1].SampleSize > tab.folded {
			t.Fatalf("%d polls: last round covered %d draws, fold position %d", polls, part.Rounds[n-1].SampleSize, tab.folded)
		}
		if part.Correct != known || part.SampleSize != len(x.drawIdx) {
			t.Fatalf("%d polls: partial result counts %d correct of %d draws; %d draws are of known correct candidates (%d of unknown ones)",
				polls, part.Correct, part.SampleSize, known, unknown)
		}
		if unknown > 0 {
			withUnknown++
		}
		if got := resultDigest(x.Refine(context.Background(), 0)); got != want {
			t.Fatalf("%d polls: Refine after the cancellation differs from the uninterrupted run:\n got %s\nwant %s", polls, got, want)
		}
	}
	if cancelled < 10 || withUnknown < 3 {
		t.Fatalf("only %d cancellation depths exercised, %d of them with unknown candidates in the sample", cancelled, withUnknown)
	}
}

// The multi-aggregate and GROUP-BY loops obey the same rule through the
// same advance: resumed after a cancellation inside validation, they report
// what an uninterrupted run reports.
func TestFoldResumesAfterCancelledValidationGrouped(t *testing.T) {
	ref, ds := tinyEngine(t)
	q := ds.Queries[0].Agg
	for _, gq := range ds.Queries {
		if gq.Category == "groupby" {
			q = gq.Agg
			break
		}
	}
	want := resultDigest(ref.Query(context.Background(), q))
	cancelled := 0
	for polls := int64(0); polls < 200; polls += 3 {
		e, _ := tinyEngine(t)
		x, err := e.Start(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &pollCtx{Context: context.Background()}
		ctx.left.Store(polls)
		if _, err := x.Refine(ctx, 0); err == nil {
			break
		}
		cancelled++
		if got := resultDigest(x.Refine(context.Background(), 0)); got != want {
			t.Fatalf("%d polls: grouped Refine after the cancellation differs from the uninterrupted run:\n got %s\nwant %s", polls, got, want)
		}
	}
	if cancelled < 5 {
		t.Fatalf("only %d cancellation depths exercised", cancelled)
	}
}

// One evaluation per distinct candidate: over a whole refinement the batch
// validator is handed every drawn candidate exactly once, whatever the
// number of rounds and of draws of it.
func TestTermTableEvaluatesEachCandidateOnce(t *testing.T) {
	e, ds := tinyEngine(t)
	for _, q := range []*query.Aggregate{ds.QueriesByShape(query.ShapeSimple)[1].Agg, ds.QueriesByShape(query.ShapeChain)[0].Agg} {
		x, err := e.Start(context.Background(), q, WithErrorBound(0.03), withoutCensus())
		if err != nil {
			t.Fatal(err)
		}
		asked := map[kg.NodeID]int{}
		inner := x.sp.oracle
		x.sp = withOracle(x.sp, oracleFunc(func(ctx context.Context, env oracleEnv, us []kg.NodeID, out []bool) bool {
			for _, u := range us {
				asked[u]++
			}
			return inner.batch(ctx, env, us, out)
		}))
		res, err := x.Refine(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rounds) < 2 {
			t.Fatalf("%v: %d rounds — the fixture does not revisit candidates", q, len(res.Rounds))
		}
		if len(asked) != res.Distinct {
			t.Fatalf("%v: %d candidates validated, %d distinct answers drawn", q, len(asked), res.Distinct)
		}
		for u, n := range asked {
			if n != 1 {
				t.Fatalf("%v: candidate %d validated %d times", q, u, n)
			}
		}
	}
}

// The fold is the list form, bit for bit: after a refinement, rebuild the
// observation list the loops used to build — one Observation per draw, in
// draw order, read off the table — and the reference estimators over it
// (Estimate, MoEStratified over one stratum, and MomentsOf) return exactly
// what the running moments return, for every spec, for the whole sample and
// for every group.
func TestFoldMatchesListForm(t *testing.T) {
	e, ds := tinyEngine(t)
	var grouped *query.Aggregate
	for _, gq := range ds.Queries {
		if gq.Category == "groupby" {
			grouped = gq.Agg
			break
		}
	}
	valued := ds.QueriesByShape(query.ShapeSimple)[1].Agg
	ctx := context.Background()
	for _, c := range []struct {
		q     *query.Aggregate
		specs []AggSpec // nil: the query's own aggregate through Refine
	}{
		{valued, nil},
		{grouped, nil},
		{valued, valueSpecs(valued.Attr)},
		{grouped, playerSpecs()},
	} {
		for _, pol := range []estimate.DivisorPolicy{estimate.SampleSize, estimate.CorrectOnly} {
			x, err := e.Start(ctx, c.q, WithPolicy(pol))
			if err != nil {
				t.Fatal(err)
			}
			if c.specs == nil {
				_, err = x.Refine(ctx, 0)
			} else {
				// Not through QueryMulti: an execution that is not one-shot
				// keeps its table past the call.
				_, err = x.queryMulti(ctx, c.specs)
			}
			if err != nil {
				t.Fatal(err)
			}
			checkListForm(t, x)
		}
	}
}

func checkListForm(t *testing.T, x *Execution) {
	t.Helper()
	tab := x.tab
	if tab.folded != len(x.drawIdx) {
		t.Fatalf("%v: %d of %d draws folded", x.q, tab.folded, len(x.drawIdx))
	}
	k := len(tab.specs)
	for g := 0; g < len(tab.labels); g++ {
		for j, spec := range tab.specs {
			obs := make([]estimate.Observation, len(x.drawIdx))
			for n, i := range x.drawIdx {
				obs[n] = estimate.Observation{
					Value:   tab.val[i*k+j],
					Prob:    x.sp.probs[i],
					Correct: tab.specCorrect(i, j) && (g == 0 || int(tab.group[i]) == g),
				}
			}
			strata := []estimate.Stratum{{Weight: 1, Obs: obs}}
			wantV, wantErr := estimate.Estimate(spec.fn, obs, x.opts.Policy)
			wantEps, wantEpsErr := estimate.MoEStratified(spec.fn, strata, x.opts.Policy, x.opts.guarantee())

			mom := tab.moments(g, j)
			gotV, gotErr := x.estimateOf(j, mom)
			if !spec.fn.HasGuarantee() && g != 0 {
				continue // an extreme is kept for the whole sample only
			}
			gotEps, gotEpsErr := x.marginOf(j, mom)
			if gotV != wantV || gotErr != wantErr || gotEps != wantEps || gotEpsErr != wantEpsErr {
				t.Fatalf("%v, group %q, spec %v: moments give (%v, %v) ± (%v, %v), the list form (%v, %v) ± (%v, %v)",
					x.q, tab.labels[g], spec.fn, gotV, gotErr, gotEps, gotEpsErr, wantV, wantErr, wantEps, wantEpsErr)
			}
			if spec.fn.HasGuarantee() && mom.N > 0 {
				if want := estimate.MomentsOf(spec.fn, obs); mom != want {
					t.Fatalf("%v, group %q, spec %v: running moments %+v, MomentsOf %+v", x.q, tab.labels[g], spec.fn, mom, want)
				}
			}
		}
	}
}

// A panic inside the batch validator is contained at the entry point and
// the execution outlives it: the candidates it had queued are queued again
// by the next Refine (no mark is left behind), nothing of the round was
// folded, and the outcome is the undisturbed one.
func TestFoldResumesAfterPanickedValidation(t *testing.T) {
	ref, ds := tinyEngine(t)
	q := ds.QueriesByShape(query.ShapeSimple)[1].Agg
	want := resultDigest(ref.Query(context.Background(), q))

	e, _ := tinyEngine(t)
	x, err := e.Start(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	inner, calls := x.sp.oracle, 0
	x.sp = withOracle(x.sp, oracleFunc(func(ctx context.Context, env oracleEnv, us []kg.NodeID, out []bool) bool {
		if calls++; calls == 2 {
			panic("validator fault")
		}
		return inner.batch(ctx, env, us, out)
	}))
	if _, err := x.Refine(context.Background(), 0); !errors.Is(err, ErrInternal) {
		t.Fatalf("Refine over a panicking validator returned %v, want ErrInternal", err)
	}
	if x.tab.folded == len(x.drawIdx) {
		t.Fatal("the fixture's panic did not land inside a round")
	}
	if got := resultDigest(x.Refine(context.Background(), 0)); got != want {
		t.Fatalf("Refine after the contained panic differs from the undisturbed run:\n got %s\nwant %s", got, want)
	}
}
