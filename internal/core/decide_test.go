package core

import (
	"testing"
	"time"

	"kgaq/internal/estimate"
)

// interval is one Theorem 2 check of a Decide case: a whole-sample
// interval when draws < 0, else a GROUP-BY group with that many draws.
type interval struct {
	v, eps, eb float64
	draws      int
}

// One row per rule of the stopping rule, and one per disagreement between
// the loops it replaced, pinning the rule chosen (DESIGN.md "Refinement
// loop"). A change to a rule shows up here as a changed row.
func TestDecide(t *testing.T) {
	rule := Options{MinCorrect: 30, MaxDraws: 10000}
	fixed := rule
	fixed.FixedDelta = 60
	met := interval{100, 1, 0.05, -1}      // ε far inside its target
	unmet := interval{100, 10, 0.1, -1}    // ε/target = 1.1
	brink := interval{100, 9.2, 0.1, -1}   // ε/target ≈ 1.01: Eq. 12 asks for 24 draws
	wild := interval{100, 100, 0.05, -1}   // ε/target = 21
	zero := interval{0, 5, 0.05, -1}       // V̂ = 0: no target
	group := interval{100, 9.2, 0.1, 10}   // a counted group, ε/target ≈ 1.01
	thinGroup := interval{100, 50, 0.1, 7} // under minGroupDraws
	eq12 := estimate.NextSampleSize(1000, 10, 100, 0.1)
	for _, c := range []struct {
		name string
		o    Options
		p    Progress
		ivs  []interval
		want Step
	}{
		// The rules.
		{"below MinCorrect doubles", rule, Progress{Correct: 29}, []interval{met}, Step{Grow: 1000, Gated: true}},
		{"satisfied stops", rule, Progress{Correct: 100}, []interval{met}, Step{Stop: StopConverged}},
		{"Eq. 12 step", rule, Progress{Correct: 100}, []interval{met, unmet}, Step{Grow: eq12}},
		{"Eq. 12 floor at |S|/20", rule, Progress{Correct: 100}, []interval{brink}, Step{Grow: 50}},
		{"5x cap", rule, Progress{Correct: 100}, []interval{wild}, Step{Grow: 5000}},
		{"5x cap on a saturated Eq. 12", rule, Progress{Correct: 100, Draws: 100}, []interval{{1e-12, 1, 0.01, -1}}, Step{Grow: 500}},
		{"FixedDelta", fixed, Progress{Correct: 100}, []interval{wild}, Step{Grow: 60}},
		{"grouped floor at half the sample", rule, Progress{Grouped: true}, []interval{group}, Step{Grow: 500}},
		{"unestimable doubles", rule, Progress{Correct: 100, Unestimable: true}, nil, Step{Grow: 1000}},
		{"V̂ = 0 stops", rule, Progress{Correct: 100}, []interval{zero}, Step{Stop: StopUnsized}},
		{"draw budget spent", rule, Progress{Correct: 100, Draws: 10000}, []interval{unmet}, Step{Grow: estimate.NextSampleSize(10000, 10, 100, 0.1), Stop: StopDraws}},
		{"round budget spent", rule, Progress{Correct: 100, Last: true}, []interval{unmet}, Step{Grow: eq12, Stop: StopRounds}},
		{"gated round at the budget", rule, Progress{Correct: 0, Draws: 10000}, nil, Step{Grow: 10000, Stop: StopDraws, Gated: true}},
		{"degradation stop", rule, Progress{Correct: 100, Estimated: true, Deadline: true, Cost: 10 * time.Millisecond, Slack: 20 * time.Millisecond}, []interval{wild}, Step{Stop: StopDegraded}},
		{"deadline far enough", rule, Progress{Correct: 100, Estimated: true, Deadline: true, Cost: 10 * time.Millisecond, Slack: 70 * time.Millisecond}, []interval{wild}, Step{Grow: 5000}},
		{"extremes grow by their round", rule, Progress{Extreme: 50, Correct: 0}, nil, Step{Grow: 50}},
		{"extremes stop after their last round", rule, Progress{Extreme: 50, Last: true}, nil, Step{Grow: 50, Stop: StopRounds}},

		// The disagreements, and the rule each one resolved to. Which count
		// the gate reads is the caller's: the engine passes the driving
		// spec's correct draws (Refine's rule), the coordinator the sum
		// over its members.
		{"gate: the gate outranks a sizable miss", rule, Progress{Correct: 29}, []interval{unmet}, Step{Grow: 1000, Gated: true}},
		{"V̂ = 0: stop, not double", rule, Progress{Correct: 100}, []interval{met, zero}, Step{Stop: StopUnsized}},
		{"V̂ = 0 beside an unestimable spec doubles", rule, Progress{Correct: 100, Unestimable: true}, []interval{zero}, Step{Grow: 1000}},
		{"unestimable beside a sizable miss sizes by Eq. 12", rule, Progress{Correct: 100, Unestimable: true}, []interval{unmet}, Step{Grow: eq12}},
		{"grouped: no MinCorrect gate", rule, Progress{Grouped: true, Correct: 0}, []interval{{100, 1, 0.1, 10}}, Step{Stop: StopConverged}},
		{"grouped: FixedDelta ignored", fixed, Progress{Grouped: true}, []interval{group}, Step{Grow: 500}},
		{"grouped: no group grows by the floor", rule, Progress{Grouped: true, Unestimable: true}, nil, Step{Grow: 500}},
		// ROADMAP item 1: an under-sampled group counts as met.
		{"grouped: a group under minGroupDraws counts as met", rule, Progress{Grouped: true}, []interval{thinGroup}, Step{Stop: StopConverged}},

		// The census: where the sample the step reaches covers |A|.
		{"first round", rule, Progress{Draws: -1, Initial: 53, Census: 400}, nil, Step{Grow: 53}},
		{"census before any draw", rule, Progress{Draws: -1, Initial: 30, Census: 30}, nil, Step{Stop: StopCensus}},
		{"census: the Eq. 12 step reaches |A|", rule, Progress{Correct: 100, Census: 1000 + eq12}, []interval{unmet}, Step{Stop: StopCensus}},
		{"census: the step falls short of |A|", rule, Progress{Correct: 100, Census: 1001 + eq12}, []interval{unmet}, Step{Grow: eq12}},
		{"census: a gated doubling reaches |A|", rule, Progress{Correct: 29, Census: 2000}, nil, Step{Stop: StopCensus}},
		{"census: a grouped step reaches |A|", rule, Progress{Grouped: true, Census: 1500}, []interval{group}, Step{Stop: StopCensus}},
		{"census outranks the round budget", rule, Progress{Correct: 100, Last: true, Census: 1000 + eq12}, []interval{unmet}, Step{Stop: StopCensus}},
		{"census outranks the draw budget", rule, Progress{Correct: 100, Draws: 10000, Census: 10000}, []interval{unmet}, Step{Stop: StopCensus}},
		{"census: |A| past the draw budget", rule, Progress{Correct: 100, Draws: 10000, Census: 10001}, []interval{unmet}, Step{Grow: estimate.NextSampleSize(10000, 10, 100, 0.1), Stop: StopDraws}},
		{"census: convergence outranks it", rule, Progress{Correct: 100, Census: 1000}, []interval{met}, Step{Stop: StopConverged}},
		{"census: degradation outranks it", rule, Progress{Correct: 100, Estimated: true, Deadline: true, Cost: 10 * time.Millisecond, Slack: 20 * time.Millisecond, Census: 1000}, []interval{wild}, Step{Stop: StopDegraded}},
		{"census: V̂ = 0 outranks it", rule, Progress{Correct: 100, Census: 1000}, []interval{zero}, Step{Stop: StopUnsized}},
	} {
		p := c.p
		switch p.Draws {
		case 0:
			p.Draws = 1000
		case -1: // before any draw
			p.Draws = 0
		}
		for _, iv := range c.ivs {
			if iv.draws < 0 {
				p.Check(iv.v, iv.eps, iv.eb)
			} else {
				p.CheckGroup(iv.v, iv.eps, iv.eb, iv.draws)
			}
		}
		if got := Decide(c.o, p); got != c.want {
			t.Errorf("%s: Decide = %+v, want %+v", c.name, got, c.want)
		}
	}
}
