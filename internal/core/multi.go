package core

import (
	"context"
	"errors"
	"fmt"
	"math"

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
	// Exact marks a census answer: the spec read off every candidate, with
	// MoE 0 (DESIGN.md "Census crossover").
	Exact bool
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
// query has GROUP-BY. MAX/MIN specs ride along without a guarantee.
// Cancellation returns the partial MultiResult with ErrInterrupted, like
// Query.
func (p *Prepared) QueryMulti(ctx context.Context, specs []AggSpec, opts ...QueryOption) (*MultiResult, error) {
	x, err := p.Start(ctx, opts...)
	if err != nil {
		return nil, err
	}
	x.oneShot = true
	return x.queryMulti(ctx, specs)
}

// QueryMulti is the one-shot form of Prepared.QueryMulti: prepare the
// query once, execute every spec over one shared sample.
func (e *Engine) QueryMulti(ctx context.Context, q *query.Aggregate, specs []AggSpec, opts ...QueryOption) (*MultiResult, error) {
	if s := e.queryConfig(opts).opts.Sampler; s != SamplerSemantic {
		return nil, fmt.Errorf("core: %w (got %v)", ErrPlanSampler, s)
	}
	x, err := e.Start(ctx, q, opts...)
	if err != nil {
		return nil, err
	}
	x.oneShot = true
	return x.queryMulti(ctx, specs)
}

// queryMulti runs the spec list through the one refinement loop (refine):
// one shared draw stream, one evaluation per candidate against every spec
// at once, refinement until every guaranteed spec satisfies Theorem 2 (per
// group when grouped). Sizing follows the worst-converged spec, so the loop
// never terminates early on an easy aggregate while a hard one still misses
// its bound.
func (x *Execution) queryMulti(ctx context.Context, specs []AggSpec) (res *MultiResult, err error) {
	defer x.catchPanics(&err)
	if ctx == nil {
		ctx = context.Background()
	}
	release := x.holdScratch()
	defer release()
	if err := validateSpecs(specs, x.group != kg.InvalidAttr); err != nil {
		return nil, err
	}
	runs := make([]AggResult, len(specs))
	terms := make([]termSpec, len(specs))
	for k, s := range specs {
		a, err := resolveAttr(x.v.g, s.Attr)
		if err != nil {
			return nil, err
		}
		eb := s.ErrorBound
		if eb <= 0 {
			eb = x.opts.ErrorBound
		}
		runs[k] = AggResult{Spec: s, ErrorBound: eb}
		terms[k] = termSpec{fn: s.Func, attr: a}
	}
	rounds, converged, err := x.refine(ctx, runs, terms, true)
	if err != nil && !errors.Is(err, ErrInterrupted) {
		return nil, err
	}
	return x.multiResult(ctx, runs, rounds, converged), err
}

// multiResult assembles the shared-counters result.
func (x *Execution) multiResult(ctx context.Context, runs []AggResult, rounds int, converged bool) *MultiResult {
	x.finishTelemetry(ctx, converged, math.NaN(), math.NaN())
	correct, distinct := x.sampleCounts(-1)
	return &MultiResult{
		Query:      x.q,
		Aggs:       runs,
		Confidence: x.opts.Confidence,
		Converged:  converged,
		Degraded:   x.degraded,
		Rounds:     rounds,
		SampleSize: len(x.drawIdx),
		Distinct:   distinct,
		Correct:    correct,
		Candidates: x.sp.len(),
		Epoch:      x.v.epoch,
		Times:      x.clk.times,
	}
}
