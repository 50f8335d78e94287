package core

import (
	"time"

	"kgaq/internal/estimate"
)

// This file is the stopping rule of Algorithm 2 (DESIGN.md "Refinement
// loop"): after each evaluated round, Decide says whether to stop and why,
// or how many draws to add. The engine's one refinement loop (refine) and
// the federated coordinator both call it; neither re-types a rule.

// minGroupDraws is how many in-group correct draws a GROUP-BY group needs
// before its own Theorem 2 condition counts toward termination.
const minGroupDraws = 8

// Stop names why a refinement loop ends after a round.
type Stop int

const (
	// Continue: the round did not end the loop; grow by Step.Grow.
	Continue Stop = iota
	// StopConverged: every guaranteed estimate meets Theorem 2.
	StopConverged
	// StopDegraded: the next round would not fit before the deadline.
	StopDegraded
	// StopUnsized: Eq. 12 has no target to size with (V̂ = 0).
	StopUnsized
	// StopRounds: no later round would evaluate a growth.
	StopRounds
	// StopDraws: the draw budget (MaxDraws) is spent.
	StopDraws
	// StopCensus: the sample the step would reach covers the candidate set,
	// so the loop draws no more and reads every spec exactly from its
	// candidates instead (DESIGN.md "Census crossover").
	StopCensus
)

// Progress is what one evaluated round tells the stopping rule. The caller
// fills the counts, then puts each interval of the round to Theorem 2
// through Check or CheckGroup.
type Progress struct {
	// Draws is the sample size |S| so far.
	Draws int
	// Initial, when positive, marks the call before any draw: its step is
	// the first round's planned size, Initial.
	Initial int
	// Census is |A| when a census may replace the next round — an unsharded
	// semantic execution — and 0 otherwise.
	Census int
	// Correct counts the correct draws the MinCorrect gate reads.
	Correct int
	// Grouped marks a GROUP-BY round: its intervals are per group.
	Grouped bool
	// Extreme, when positive, marks a round without a guaranteed aggregate
	// (MAX/MIN, §VII): it grows by this fixed size until Last.
	Extreme int
	// Last marks a round after which no round would evaluate a growth.
	Last bool
	// Estimated marks a round that holds a complete interval to report,
	// which is what a degraded stop returns.
	Estimated bool
	// Unestimable marks a round in which some guaranteed aggregate has no
	// interval (no estimate, no margin, or — grouped — no group).
	Unestimable bool
	// Cost is what this round took, its draws included; Slack the time left
	// before the deadline minus the degradation headroom, when Deadline.
	Cost     time.Duration
	Slack    time.Duration
	Deadline bool

	unmet int       // intervals that count and miss their bound
	gap   sizingGap // the one furthest from its bound
}

// Check puts one whole-sample interval to Theorem 2 and reports whether it
// meets its bound; a miss is remembered for Eq. 12 sizing.
func (p *Progress) Check(v, eps, eb float64) bool {
	if estimate.Satisfied(v, eps, eb) {
		return true
	}
	p.unmet++
	p.gap.note(v, eps, eb)
	return false
}

// CheckGroup is Check for a GROUP-BY group with draws in-group correct
// draws. A group under minGroupDraws does not count.
func (p *Progress) CheckGroup(v, eps, eb float64, draws int) bool {
	// ROADMAP item 1: an under-sampled group counts as met, so a spec whose
	// groups are all under minGroupDraws converges after one round.
	if draws < minGroupDraws {
		return true
	}
	return p.Check(v, eps, eb)
}

// gated reports whether the MinCorrect gate holds the round: with too few
// correct draws the sample has not seen the heavy tail of the HT weights
// and the CLT margin under-covers, so no interval may end the loop yet.
// GROUP-BY rounds are not gated.
func (p *Progress) gated(minCorrect int) bool {
	// ROADMAP item 1: the federated coordinator passes the correct draws
	// summed over its members, so one member may hold none.
	return !p.Grouped && p.Correct < minCorrect
}

// Step is Decide's verdict: stop for a reason, or grow by Grow draws.
// Gated marks a verdict the MinCorrect gate reached.
type Step struct {
	Grow  int
	Stop  Stop
	Gated bool
}

// Decide is the stopping rule of every refinement loop, in order:
//
//   - before any draw, grow by the first round's planned size;
//   - a round without a guaranteed aggregate grows by its fixed size;
//   - ungrouped, below MinCorrect or with an unestimable aggregate and no
//     miss to size by: double the sample;
//   - every interval met: stop, converged;
//   - size the step: GROUP-BY by Eq. 12, floored at half the sample;
//     otherwise FixedDelta when set, else Eq. 12 floored at |S|/20 when it
//     asks for any draw at all; capped at 5× the sample;
//   - stop degraded when the round the step buys would not fit the deadline;
//   - stop when there is nothing to size with (V̂ = 0);
//   - take the census when the sample the step reaches covers the Census
//     candidates and they fit the draw budget: it draws nothing, so it
//     outranks the two budget stops below;
//   - stop on the last round, or when the draw budget is spent.
//
// The grown step is not clipped to the budget: the draw itself clips.
func Decide(o Options, p Progress) Step {
	st := Step{Grow: p.Draws}
	switch {
	case p.Initial > 0:
		st.Grow = p.Initial
	case p.Extreme > 0:
		st.Grow = p.Extreme
	case p.gated(o.MinCorrect):
		st.Gated = true
	case !p.Grouped && p.Unestimable && p.gap.ratio == 0:
		// No estimate gives a ratio to size with: enlarge and retry.
	case !p.Unestimable && p.unmet == 0:
		return Step{Stop: StopConverged}
	default:
		switch {
		case p.Grouped:
			st.Grow = max(p.gap.nextSampleSize(p.Draws), p.Draws/2)
		case o.FixedDelta > 0:
			st.Grow = o.FixedDelta
		default:
			// Eq. 12 lands exactly on the target, so an ε̂ hovering at the
			// bound would crawl by a handful of draws a round until the
			// round budget ran out.
			if st.Grow = p.gap.nextSampleSize(p.Draws); st.Grow > 0 {
				st.Grow = max(st.Grow, p.Draws/20)
			}
		}
		// Keep one round from ballooning on a noisy early ε.
		st.Grow = min(st.Grow, 5*p.Draws)
		if p.Estimated && p.Deadline && p.Slack < p.nextCost(st.Grow) {
			return Step{Stop: StopDegraded}
		}
		if st.Grow <= 0 {
			return Step{Stop: StopUnsized}
		}
	}
	switch {
	case p.Census > 0 && p.Census <= o.MaxDraws && p.Draws+st.Grow >= p.Census:
		return Step{Stop: StopCensus}
	case p.Last:
		st.Stop = StopRounds
	case p.Draws >= o.MaxDraws:
		st.Stop = StopDraws
	}
	return st
}

// nextCost predicts what the round after a step of grow draws will cost
// from what this one did, scaled by the growth of the sample: one undamped
// Eq. 12 step may multiply it by six. A round costs its fresh draws, which
// after a large step are most of the sample, so the prediction errs on the
// early-stopping side.
func (p *Progress) nextCost(grow int) time.Duration {
	if p.Draws == 0 || grow <= 0 {
		return p.Cost
	}
	return time.Duration(float64(p.Cost) * float64(p.Draws+grow) / float64(p.Draws))
}

// sizingGap remembers, within one round, the estimate furthest from its
// Theorem 2 target — the largest ε/target ratio among the round's
// unsatisfied intervals — which drives the round's Eq. 12 sizing.
type sizingGap struct {
	ratio, v, eps, eb float64
}

// note offers one unsatisfied estimate; a zero estimate has no target and
// gives no ratio to size with.
func (g *sizingGap) note(v, eps, eb float64) {
	if t := estimate.Target(v, eb); t > 0 {
		if r := eps / t; r > g.ratio {
			*g = sizingGap{ratio: r, v: v, eps: eps, eb: eb}
		}
	}
}

// nextSampleSize is Eq. 12 for the noted estimate (0 when none was noted).
func (g sizingGap) nextSampleSize(cur int) int {
	return estimate.NextSampleSize(cur, g.eps, g.v, g.eb)
}
