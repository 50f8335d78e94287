package core

import (
	"context"
	"math"
	"time"
)

// DefaultDeadlineHeadroom is the safety margin a degradation-enabled
// refinement keeps between its last observed round cost and the context
// deadline (Degradation.DeadlineHeadroom zero value).
const DefaultDeadlineHeadroom = 25 * time.Millisecond

// Degradation configures graceful degradation of the guarantee loop. The
// paper's accuracy machinery makes every refinement round a complete,
// honest answer: after any round the execution holds a point estimate with
// a valid 1-α confidence interval — just a looser one than the requested
// error bound may demand. Under deadline pressure it is therefore
// principled to stop refining early and report the (achieved eb, α) bound
// actually reached, instead of being cancelled mid-round and salvaging a
// partial result. A serving tier under load uses exactly this contract:
// relax the effective bound instead of queueing (see internal/admission).
//
// Degradation never loosens what is reported — Result.MoE is always the
// honest interval of the returned sample, Result.Converged still refers to
// the requested bound, and Result.Degraded marks the early stop.
type Degradation struct {
	// MaxErrorBound is the honesty floor: the loosest relative error bound
	// a degraded execution is allowed to aim for. Zero disables degradation
	// entirely; the loop then refines to the requested bound or its budget.
	MaxErrorBound float64
	// DeadlineHeadroom is the stop margin: the loop degrades once the time
	// remaining to the context deadline drops below the previous round's
	// cost plus this headroom (another round would likely be cut short).
	// Zero means DefaultDeadlineHeadroom.
	DeadlineHeadroom time.Duration
}

// Enabled reports whether this configuration permits degradation at all (a
// zero MaxErrorBound disables it). The federated coordinator uses it to
// decide between a typed partial-federation failure and an honestly
// degraded answer when a member dies mid-query.
func (d Degradation) Enabled() bool { return d.MaxErrorBound > 0 }

func (d Degradation) headroom() time.Duration {
	if d.DeadlineHeadroom > 0 {
		return d.DeadlineHeadroom
	}
	return DefaultDeadlineHeadroom
}

// Slack is the time left before ctx's deadline minus the headroom, and
// whether the deadline applies at all (degradation enabled, a deadline set):
// a refinement loop — the engine's, and the federated round driver in
// internal/federate — stops degraded when the next round's predicted cost
// exceeds it (Decide).
func (d Degradation) Slack(ctx context.Context) (time.Duration, bool) {
	if !d.Enabled() {
		return 0, false
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		return 0, false
	}
	return time.Until(deadline) - d.headroom(), true
}

// AchievedEB returns the relative error bound the result's interval
// actually attains — the smallest eb for which the Theorem 2 condition
// ε ≤ |V̂|·eb/(1+eb) holds. It is +Inf when the interval is wider than the
// estimate (no finite relative bound is honest) and 0 for an exact answer.
// A degraded response stays statistically sound precisely because this
// value, not the requested bound, is what the interval guarantees.
func (r *Result) AchievedEB() float64 { return achievedEB(r.Estimate, r.MoE) }

// AchievedEB returns the relative error bound this aggregate's interval
// actually attains (see Result.AchievedEB).
func (a *AggResult) AchievedEB() float64 { return achievedEB(a.Estimate, a.MoE) }

// achievedEB inverts the Theorem 2 target ε = |V̂|·eb/(1+eb) for eb:
// eb = ε/(|V̂|−ε), clamped to +Inf when ε ≥ |V̂| or the inputs are NaN.
func achievedEB(v, moe float64) float64 {
	av := math.Abs(v)
	switch {
	case math.IsNaN(v), math.IsNaN(moe), moe < 0:
		return math.Inf(1)
	case moe == 0:
		if av == 0 {
			return math.Inf(1)
		}
		return 0
	case moe >= av:
		return math.Inf(1)
	default:
		return moe / (av - moe)
	}
}
