package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"kgaq/internal/estimate"
	"kgaq/internal/kg"
	"kgaq/internal/query"
)

// AggSpec names one aggregate to evaluate over a shared sample: the
// function, its attribute (empty only for COUNT), and an optional
// per-aggregate error bound. The paper's Eq. 7–9 estimators all consume
// the same semantic-aware sample, so a multi-aggregate execution draws
// once and feeds every spec's Horvitz–Thompson accumulator from the same
// stream.
type AggSpec struct {
	Func query.AggFunc
	// Attr is the aggregated attribute; empty means COUNT(*).
	Attr string
	// ErrorBound overrides the execution's error bound for this aggregate
	// (guaranteed functions only); zero keeps the shared bound.
	ErrorBound float64
}

// String renders the spec as "FUNC(attr)".
func (s AggSpec) String() string {
	if s.Attr == "" {
		return s.Func.String() + "(*)"
	}
	return fmt.Sprintf("%s(%s)", s.Func, s.Attr)
}

// AggResult is one spec's outcome within a multi-aggregate execution.
// COUNT/SUM/AVG specs carry the Theorem 2 guarantee individually; MAX/MIN
// specs report the sample extreme without one (MoE 0, Converged false).
type AggResult struct {
	Spec AggSpec
	// Estimate and MoE are the spec's final point estimate and margin of
	// error (NaN estimate when no round could estimate this spec).
	Estimate float64
	MoE      float64
	// ErrorBound is the bound this spec refined toward.
	ErrorBound float64
	// Converged reports the spec's own Theorem 2 termination (per group,
	// when grouped).
	Converged bool
	// Rounds is this spec's per-round trace; SampleSize is shared across
	// specs within a round — the visible face of the single draw stream.
	Rounds []Round
	// Groups carries per-group outcomes when the underlying query has
	// GROUP-BY.
	Groups map[string]GroupResult
}

// MultiResult is the outcome of a multi-aggregate execution: one shared
// sample, one refinement loop, N aggregate results.
type MultiResult struct {
	Query      *query.Aggregate
	Aggs       []AggResult
	Confidence float64
	// Converged reports whether every guaranteed spec met its bound.
	Converged bool
	// Degraded reports the shared guarantee loop stopped early under a
	// WithDegradation directive; per-spec AchievedEB() tells what each
	// aggregate's interval still honestly attains.
	Degraded bool
	// Rounds counts the shared refinement iterations.
	Rounds int
	// SampleSize is the total draws |S| — shared by all specs, which is
	// the whole point: three aggregates cost one sample.
	SampleSize int
	Distinct   int
	Correct    int
	Candidates int
	Shards     int
	Epoch      uint64
	Times      StepTimes
}

// validateSpecs checks a multi-aggregate spec list against the underlying
// query.
func validateSpecs(specs []AggSpec, grouped bool) error {
	if len(specs) == 0 {
		return fmt.Errorf("core: %w: empty spec list", ErrBadAggSpec)
	}
	for _, s := range specs {
		switch s.Func {
		case query.Count, query.Sum, query.Avg, query.Max, query.Min:
		default:
			return fmt.Errorf("core: %w: unknown aggregate %v", ErrBadAggSpec, s.Func)
		}
		if s.Func != query.Count && s.Attr == "" {
			return fmt.Errorf("core: %w: %s requires an attribute", ErrBadAggSpec, s.Func)
		}
		if grouped && !s.Func.HasGuarantee() {
			return fmt.Errorf("core: %w: GROUP-BY with %v is unsupported", ErrBadAggSpec, s.Func)
		}
	}
	return nil
}

// QueryMulti executes every spec over one shared sample of the plan: a
// single answer-space reuse, a single draw stream, a single evaluation per
// candidate, with per-spec Horvitz–Thompson accumulators. The
// guarantee loop refines until every guaranteed spec (COUNT/SUM/AVG) meets
// its error bound at the configured confidence — per group when the plan's
// query has GROUP-BY, per stratum-merged estimate when the plan is
// sharded. MAX/MIN specs ride along without a guarantee. Cancellation
// returns the partial MultiResult with ErrInterrupted, like Query.
func (p *Prepared) QueryMulti(ctx context.Context, specs []AggSpec, opts ...QueryOption) (*MultiResult, error) {
	x, err := p.Start(ctx, opts...)
	if err != nil {
		return nil, err
	}
	x.oneShot = true
	return x.refineMulti(ctx, specs)
}

// QueryMulti is the one-shot form of Prepared.QueryMulti: prepare the
// query once, execute every spec over one shared sample.
func (e *Engine) QueryMulti(ctx context.Context, q *query.Aggregate, specs []AggSpec, opts ...QueryOption) (*MultiResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := e.queryConfig(opts)
	if cfg.opts.Sampler != SamplerSemantic {
		return nil, fmt.Errorf("core: %w (got %v)", ErrPlanSampler, cfg.opts.Sampler)
	}
	p, err := e.prepare(ctx, q, cfg)
	if err != nil {
		return nil, err
	}
	x, err := p.Start(ctx)
	if err != nil {
		return nil, err
	}
	x.times.Sampling += p.buildTime
	x.oneShot = true
	return x.refineMulti(ctx, specs)
}

// refineMulti is the multi-aggregate guarantee loop: one shared draw
// stream, one evaluation per candidate against every spec at once, one
// running-moments accumulator per spec fed from the same fold, refinement
// until every guaranteed spec satisfies Theorem 2 (per group when grouped).
// Sample sizing follows the worst-converged spec — the aggregate whose
// ε/target ratio is largest drives the Eq. 12 growth, so the loop never
// terminates early on an easy aggregate while a hard one still misses its
// bound.
func (x *Execution) refineMulti(ctx context.Context, specs []AggSpec) (res *MultiResult, err error) {
	defer x.catchPanics(&err)
	if ctx == nil {
		ctx = context.Background()
	}
	release := x.holdScratch()
	defer release()
	grouped := x.group != kg.InvalidAttr
	if err := validateSpecs(specs, grouped); err != nil {
		return nil, err
	}
	o := x.opts
	terms := make([]termSpec, len(specs))
	ebs := make([]float64, len(specs))
	var guaranteed, extremes []int
	for k, s := range specs {
		a, err := resolveAttr(x.v.g, s.Attr)
		if err != nil {
			return nil, err
		}
		terms[k] = termSpec{fn: s.Func, attr: a}
		ebs[k] = s.ErrorBound
		if ebs[k] <= 0 {
			ebs[k] = o.ErrorBound
		}
		if s.Func.HasGuarantee() {
			guaranteed = append(guaranteed, k)
		} else {
			extremes = append(extremes, k)
		}
	}
	x.bindTerms(terms...)
	state := make([]AggResult, len(specs))
	for k, s := range specs {
		state[k] = AggResult{Spec: s, Estimate: math.NaN(), MoE: math.NaN(), ErrorBound: ebs[k]}
	}

	if len(x.drawIdx) == 0 {
		x.firstSample()
	}
	maxRounds := o.MaxRounds
	if grouped {
		maxRounds *= 3
	}

	rounds := 0
	converged := false

	if len(guaranteed) == 0 {
		// Extremes only: fixed-size rounds over the shared stream, as the
		// single-aggregate MAX/MIN path (§VII, no guarantee).
		per := x.extremeRoundSize()
		for round := 1; round < o.ExtremeRounds; round++ {
			if err := ctx.Err(); err != nil {
				return x.multiInterrupted(ctx, state, rounds, err)
			}
			if !x.sampleMore(per) {
				break
			}
		}
	}

	for round := 0; len(guaranteed) > 0 && round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return x.multiInterrupted(ctx, state, rounds, err)
		}
		roundBegin := time.Now()
		if !x.advance(ctx) {
			return x.multiInterrupted(ctx, state, rounds, ctx.Err())
		}
		rounds++
		// With too few correct draws the variance machinery under-sees the
		// heavy HT tail for every spec at once; grow first (as single-agg).
		if x.tab.correct < o.MinCorrect {
			if !x.sampleMore(len(x.drawIdx)) {
				break
			}
			continue
		}
		allOK := true
		haveEst := false
		var worst sizingGap
		for gi, k := range guaranteed {
			begin := time.Now()
			// The first guaranteed spec refreshes the Neyman allocator's
			// variance signals; allocation stays a function of one spec so
			// the draw streams remain deterministic under the seed.
			var mom []estimate.Moments
			if gi == 0 {
				mom = x.sampleMoments(k)
			} else {
				mom = x.tab.moments(0, k)
			}
			v, err := x.estimateOf(k, mom)
			x.times.Estimation += time.Since(begin)
			if err != nil {
				allOK = false // unestimable spec: the default growth arm doubles
				continue
			}
			begin = time.Now()
			eps, merr := x.marginOf(k, mom)
			x.times.Guarantee += time.Since(begin)
			if merr != nil {
				allOK = false
				continue
			}
			state[k].Estimate, state[k].MoE = v, eps
			state[k].Rounds = append(state[k].Rounds, Round{Estimate: v, MoE: eps, SampleSize: len(x.drawIdx)})
			if gi == 0 {
				x.emitRound(Round{Estimate: v, MoE: eps, SampleSize: len(x.drawIdx)})
				x.traceRound(ctx, roundBegin, v, eps)
			}
			haveEst = true
			if grouped {
				groups, ok := x.groupRound(k, ebs[k], &worst)
				state[k].Groups = groups
				state[k].Converged = ok && len(groups) > 0
				if !state[k].Converged {
					allOK = false
				}
				continue
			}
			state[k].Converged = estimate.Satisfied(v, eps, ebs[k])
			if !state[k].Converged {
				allOK = false
				worst.note(v, eps, ebs[k])
			}
		}
		if allOK && haveEst {
			converged = true
			break
		}
		var delta int
		switch {
		case o.FixedDelta > 0:
			delta = o.FixedDelta
		case worst.ratio > 1:
			delta = worst.nextSampleSize(len(x.drawIdx))
			if grouped && delta < len(x.drawIdx)/2 {
				delta = len(x.drawIdx) / 2
			}
		default:
			// An unestimable or zero-estimate spec gives no ratio to size
			// with: enlarge geometrically and retry, as the single path does.
			delta = len(x.drawIdx)
		}
		if max := 5 * len(x.drawIdx); delta > max {
			delta = max
		}
		// Deadline-aware degradation, as the single-aggregate loop: every
		// spec's current interval is complete and honest, so stopping here
		// beats being cancelled mid-round (see Degradation).
		if haveEst && x.degrade.shouldStop(ctx, x.nextRoundCost(roundBegin, delta)) {
			x.degraded = true
			break
		}
		if !x.sampleMore(delta) {
			break // draw budget exhausted: report the best estimates so far
		}
	}

	if len(guaranteed) > 0 {
		any := false
		for _, k := range guaranteed {
			if !math.IsNaN(state[k].Estimate) {
				any = true
			}
		}
		if !any {
			return nil, fmt.Errorf("core: %w: no estimable sample within %d rounds: %w",
				ErrNotConverged, maxRounds, estimate.ErrNoCorrect)
		}
	}
	// Settle the extremes (and the shared counters) over the final sample.
	if x.tab.folded != len(x.drawIdx) && !x.advance(ctx) {
		return x.multiInterrupted(ctx, state, rounds, ctx.Err())
	}
	for _, k := range extremes {
		begin := time.Now()
		if v, err := x.estimateOf(k, nil); err == nil {
			state[k].Estimate = v
			state[k].MoE = 0
			state[k].Rounds = append(state[k].Rounds, Round{Estimate: v, SampleSize: len(x.drawIdx)})
		}
		x.times.Estimation += time.Since(begin)
	}
	return x.multiResult(ctx, state, rounds, converged), nil
}

// multiInterrupted packages the partial state of a cancelled
// multi-aggregate refinement, mirroring the single-aggregate interrupted
// contract: best estimates so far, Converged false, an error wrapping both
// ErrInterrupted and the ctx cause.
func (x *Execution) multiInterrupted(ctx context.Context, state []AggResult, rounds int, cause error) (*MultiResult, error) {
	return x.multiResult(ctx, state, rounds, false),
		fmt.Errorf("core: %w after %d draws: %w", ErrInterrupted, len(x.drawIdx), cause)
}

// multiResult assembles the shared-counters result.
func (x *Execution) multiResult(ctx context.Context, state []AggResult, rounds int, converged bool) *MultiResult {
	x.finishTelemetry(ctx, converged, math.NaN(), math.NaN())
	correct, distinct := x.sampleCounts(-1)
	shards := 0
	if x.sh != nil {
		shards = len(x.sh.spaces)
	}
	return &MultiResult{
		Query:      x.q,
		Aggs:       state,
		Confidence: x.opts.Confidence,
		Converged:  converged,
		Degraded:   x.degraded,
		Rounds:     rounds,
		SampleSize: len(x.drawIdx),
		Distinct:   distinct,
		Correct:    correct,
		Candidates: x.sp.len(),
		Shards:     shards,
		Epoch:      x.v.epoch,
		Times:      x.times,
	}
}
