package core

import (
	"context"
	"math"
	"testing"
	"time"

	"kgaq/internal/embedding/embtest"
	"kgaq/internal/estimate"
	"kgaq/internal/kg/kgtest"
	"kgaq/internal/query"
)

// TestAchievedEBInvertsSatisfied checks the algebra: achievedEB returns the
// boundary bound — Satisfied holds at it and fails just below it.
func TestAchievedEBInvertsSatisfied(t *testing.T) {
	cases := []struct{ v, moe float64 }{
		{100, 1}, {100, 10}, {-50, 3}, {0.2, 0.01}, {1e6, 1e3},
	}
	for _, c := range cases {
		eb := achievedEB(c.v, c.moe)
		if math.IsInf(eb, 1) {
			t.Fatalf("achievedEB(%g, %g) = +Inf", c.v, c.moe)
		}
		// At the achieved bound the Theorem 2 condition holds (allow float
		// slack by nudging up one ulp-scale factor)…
		if !estimate.Satisfied(c.v, c.moe, eb*(1+1e-12)) {
			t.Errorf("Satisfied(%g, %g, achieved=%g) = false", c.v, c.moe, eb)
		}
		// …and any materially tighter bound fails.
		if estimate.Satisfied(c.v, c.moe, eb*0.99) {
			t.Errorf("Satisfied(%g, %g, %g) = true below the achieved bound", c.v, c.moe, eb*0.99)
		}
	}
}

func TestAchievedEBEdgeCases(t *testing.T) {
	if eb := achievedEB(100, 0); eb != 0 {
		t.Errorf("exact answer: achievedEB = %g, want 0", eb)
	}
	for _, c := range []struct{ v, moe float64 }{
		{0, 0}, {10, 10}, {10, 20}, {math.NaN(), 1}, {10, math.NaN()}, {10, -1},
	} {
		if eb := achievedEB(c.v, c.moe); !math.IsInf(eb, 1) {
			t.Errorf("achievedEB(%g, %g) = %g, want +Inf", c.v, c.moe, eb)
		}
	}
}

// TestDeadlineDegrade runs a query whose error bound is unreachably tight
// under a context deadline with an enormous degradation headroom: the loop
// must stop after its first estimable round with Degraded set and an honest
// (finite) achieved bound, instead of burning the deadline and returning
// ErrInterrupted.
func TestDeadlineDegrade(t *testing.T) {
	g := kgtest.Figure1()
	eng, err := NewEngine(g, embtest.Figure1Model(g), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q := query.Simple(query.Avg, "price", "Germany", "Country", "product", "Automobile")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := eng.Query(ctx, q,
		WithErrorBound(1e-9), // unattainable: forces the degrade arm
		WithDegradation(Degradation{MaxErrorBound: 0.5, DeadlineHeadroom: 2 * time.Minute}), withoutCensus())
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !res.Degraded {
		t.Fatal("Degraded = false, want true")
	}
	if res.Converged {
		t.Fatal("Converged = true for an unattainable bound")
	}
	if res.TargetEB != 1e-9 {
		t.Errorf("TargetEB = %g", res.TargetEB)
	}
	if len(res.Rounds) != 1 {
		t.Errorf("rounds = %d, want 1 (degrade after the first estimable round)", len(res.Rounds))
	}
	if eb := res.AchievedEB(); math.IsInf(eb, 1) || math.IsNaN(eb) {
		t.Errorf("AchievedEB = %g, want finite", eb)
	}
	if math.IsNaN(res.Estimate) || math.IsNaN(res.MoE) {
		t.Errorf("degraded result lost its interval: %+v", res)
	}
}

// TestNoDeadlineNoDegrade: without a context deadline the degradation
// directive is inert — the loop refines to convergence as usual.
func TestNoDeadlineNoDegrade(t *testing.T) {
	g := kgtest.Figure1()
	eng, err := NewEngine(g, embtest.Figure1Model(g), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q := query.Simple(query.Avg, "price", "Germany", "Country", "product", "Automobile")
	res, err := eng.Query(context.Background(), q,
		WithErrorBound(0.05),
		WithDegradation(Degradation{MaxErrorBound: 0.5, DeadlineHeadroom: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("Degraded without a deadline")
	}
	if !res.Converged {
		t.Fatal("expected convergence at eb=0.05")
	}
}

// TestDeadlineDegradeMulti mirrors TestDeadlineDegrade on the shared-sample
// multi-aggregate loop.
func TestDeadlineDegradeMulti(t *testing.T) {
	g := kgtest.Figure1()
	eng, err := NewEngine(g, embtest.Figure1Model(g), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q := query.Simple(query.Avg, "price", "Germany", "Country", "product", "Automobile")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := eng.QueryMulti(ctx, q,
		[]AggSpec{{Func: query.Count}, {Func: query.Avg, Attr: "price"}},
		WithErrorBound(1e-9),
		WithDegradation(Degradation{MaxErrorBound: 0.5, DeadlineHeadroom: 2 * time.Minute}), withoutCensus())
	if err != nil {
		t.Fatalf("QueryMulti: %v", err)
	}
	if !res.Degraded {
		t.Fatal("Degraded = false, want true")
	}
	for _, ar := range res.Aggs {
		if math.IsNaN(ar.Estimate) {
			t.Errorf("%v: degraded multi result lost its estimate", ar.Spec)
		}
		if eb := ar.AchievedEB(); math.IsInf(eb, 1) {
			t.Errorf("%v: AchievedEB = +Inf, want finite", ar.Spec)
		}
	}
}

// TestNextRoundCostScalesWithStep: the degradation check prices the next
// round by the sample it will cover and counts the draws that fed the last
// one. With the closed-form margin a round is linear in |S| and a step may
// multiply |S| by six; taking the last round's cost as the next one's let a
// 250 ms deadline start a 300 ms round (TestDeadlineDegradedResponse in
// internal/httpapi failed two runs in three on a loaded host).
func TestNextRoundCostScalesWithStep(t *testing.T) {
	// A round of 30ms after 10ms of draws: the loop's Progress.Cost.
	p := Progress{Draws: 1000, Cost: 30*time.Millisecond + 10*time.Millisecond}
	if same := p.nextCost(0); same != 40*time.Millisecond {
		t.Fatalf("no step: predicted %v, want the last round's 40ms (30ms + 10ms of draws)", same)
	}
	if sixfold := p.nextCost(5000); sixfold != 240*time.Millisecond {
		t.Fatalf("5x step: predicted %v, want 6 × 40ms", sixfold)
	}
	// The prediction, not the last round's cost, decides: 200ms of slack
	// outlasts the 40ms round but not the 240ms one its step buys.
	p.Unestimable, p.Estimated, p.Correct, p.Deadline, p.Slack = false, true, 100, true, 200*time.Millisecond
	p.Check(100, 50, 0.05) // ε/target = 10.5: Eq. 12 would grow 100×, the cap grows 5×
	if st := Decide(Options{MinCorrect: 30, MaxDraws: 1 << 20}, p); st.Stop != StopDegraded {
		t.Fatalf("Decide = %+v, want a degraded stop", st)
	}
}
