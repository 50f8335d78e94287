package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
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
// single answer-space reuse, a single draw stream, a single validation
// pass per round, with per-spec Horvitz–Thompson accumulators. The
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

// multiObservation materialises draw i against every spec target at once:
// probability, stratum identity and the semantic + filter verdict are
// computed once and shared; each target contributes its own attribute
// value. values and has are the draw's K-wide slots in the round's flat
// arena — the caller carves them out of one reused backing array, so
// multi-target accumulation allocates nothing per draw.
func (x *Execution) multiObservation(ctx context.Context, i int, attrs []kg.AttrID,
	values []float64, has []bool) estimate.MultiObservation {

	g := x.v.g
	u := x.sp.answers[i]
	m := estimate.MultiObservation{Prob: x.sp.probs[i],
		Correct: x.opts.SkipValidation || x.sp.correctness(ctx, i)}
	if x.sh != nil {
		spc := x.sh.spaces[x.sh.posOf[i]]
		m.Prob = x.sh.condProb(x.sp, i)
		m.Stratum = spc.Shard
		m.StratumWeight = spc.Weight
	}
	if m.Correct {
		for _, f := range x.filters {
			v, ok := g.Attr(u, f.attr)
			if !ok || v < f.low || v > f.high {
				m.Correct = false
				break
			}
		}
	}
	m.Values, m.Has = values, has
	for k, a := range attrs {
		values[k], has[k] = 0, false
		if a == kg.InvalidAttr {
			continue // COUNT(*) target: no value column
		}
		if v, ok := g.Attr(u, a); ok {
			values[k] = v
			has[k] = true
		}
	}
	return m
}

// multiObservationList builds the round's multi-target observation list
// (batch-validating fresh draws first) plus, for grouped queries, the
// per-draw group labels. The list, its Values/Has backing and the labels
// all live in the execution's scratch: rebuilt in place each round, valid
// until the next refresh.
func (x *Execution) multiObservationList(ctx context.Context, attrs []kg.AttrID) ([]estimate.MultiObservation, []string) {
	x.prevalidateDraws(ctx)
	scr := x.scr
	n, targets := len(x.drawIdx), len(attrs)
	if cap(scr.vals) < n*targets {
		scr.vals = make([]float64, n*targets)
		scr.has = make([]bool, n*targets)
	}
	vals, has := scr.vals[:n*targets], scr.has[:n*targets]
	out := scr.mobs[:0]
	if cap(out) < n {
		out = make([]estimate.MultiObservation, 0, n)
	}
	var labels []string
	grouped := x.group != kg.InvalidAttr
	if grouped {
		labels = scr.labels[:0]
	}
	for k, i := range x.drawIdx {
		lo, hi := k*targets, (k+1)*targets
		out = append(out, x.multiObservation(ctx, i, attrs, vals[lo:hi:hi], has[lo:hi:hi]))
		if grouped {
			label := "n/a"
			if v, ok := x.v.g.Attr(x.sp.answers[i], x.group); ok {
				label = strconv.FormatFloat(v, 'g', -1, 64)
			}
			labels = append(labels, label)
		}
	}
	scr.mobs = out
	if grouped {
		scr.labels = labels
	}
	return out, labels
}

// refineMulti is the multi-aggregate guarantee loop: one shared draw
// stream, per-spec estimators over projections of the same multi-target
// sample, refinement until every guaranteed spec satisfies Theorem 2 (per
// group when grouped). Sample sizing follows the worst-converged spec —
// the aggregate whose ε/target ratio is largest drives the Eq. 12 growth,
// so the loop never terminates early on an easy aggregate while a hard one
// still misses its bound.
func (x *Execution) refineMulti(ctx context.Context, specs []AggSpec) (res *MultiResult, err error) {
	defer catchPanics(x.queryString(), &err)
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
	attrs := make([]kg.AttrID, len(specs))
	ebs := make([]float64, len(specs))
	var guaranteed, extremes []int
	for k, s := range specs {
		a, err := resolveAttr(x.v.g, s.Attr)
		if err != nil {
			return nil, err
		}
		attrs[k] = a
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
	const minGroupDraws = 8

	rounds := 0
	converged := false
	var mobs []estimate.MultiObservation
	var labels []string
	obsAt := -1 // the drawIdx length mobs reflects

	refresh := func() error {
		begin := time.Now()
		mobs, labels = x.multiObservationList(ctx, attrs)
		obsAt = len(x.drawIdx)
		x.times.Estimation += time.Since(begin)
		return ctx.Err()
	}

	if len(guaranteed) == 0 {
		// Extremes only: fixed-size rounds over the shared stream, as the
		// single-aggregate MAX/MIN path (§VII, no guarantee).
		per := x.sp.len() / 20
		if per < 20 {
			per = 20
		}
		if x.sh != nil && per < len(x.sh.spaces) {
			per = len(x.sh.spaces)
		}
		for round := 1; round < o.ExtremeRounds; round++ {
			if err := ctx.Err(); err != nil {
				return x.multiInterrupted(ctx, specs, state, rounds, mobs, err)
			}
			if !x.sampleMore(per) {
				break
			}
		}
	}

	for round := 0; len(guaranteed) > 0 && round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return x.multiInterrupted(ctx, specs, state, rounds, mobs, err)
		}
		roundBegin := time.Now()
		if err := refresh(); err != nil {
			// Validation was cut short; this round's verdicts are
			// incomplete, so do not fold them into the estimates.
			return x.multiInterrupted(ctx, specs, state, rounds, nil, err)
		}
		correct := 0
		for _, m := range mobs {
			if m.Correct {
				correct++
			}
		}
		rounds++
		// With too few correct draws the variance machinery under-sees the
		// heavy HT tail for every spec at once; grow first (as single-agg).
		if correct < o.MinCorrect {
			if !x.sampleMore(len(x.drawIdx)) {
				break
			}
			continue
		}
		allOK := true
		haveEst := false
		var worst sizingGap
		for gi, k := range guaranteed {
			fn := specs[k].Func
			begin := time.Now()
			base := estimate.ProjectInto(x.scr.proj[:0], mobs, k, fn)
			x.scr.proj = base
			// The first guaranteed spec refreshes the Neyman allocator's
			// variance signals; allocation stays a function of one spec so
			// the draw streams remain deterministic under the seed.
			re := x.evalFn(fn, base, gi == 0)
			v, err := re.estimate()
			x.times.Estimation += time.Since(begin)
			if err != nil {
				allOK = false // unestimable spec: the default growth arm doubles
				continue
			}
			begin = time.Now()
			eps, merr := re.moe()
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
				if !x.multiGroupRound(k, fn, base, labels, ebs[k], minGroupDraws, &state[k], &worst) {
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
	if obsAt != len(x.drawIdx) {
		if err := refresh(); err != nil {
			return x.multiInterrupted(ctx, specs, state, rounds, mobs, err)
		}
	}
	for _, k := range extremes {
		fn := specs[k].Func
		begin := time.Now()
		obs := estimate.ProjectInto(x.scr.proj[:0], mobs, k, fn)
		x.scr.proj = obs
		if v, err := x.evalFn(fn, obs, false).estimate(); err == nil {
			state[k].Estimate = v
			state[k].MoE = 0
			state[k].Rounds = append(state[k].Rounds, Round{Estimate: v, SampleSize: len(x.drawIdx)})
		}
		x.times.Estimation += time.Since(begin)
	}
	return x.multiResult(ctx, state, rounds, converged, mobs), nil
}

// multiGroupRound evaluates one guaranteed spec's per-group estimators for
// the current round, filling st.Groups and reporting whether every
// sufficiently observed group satisfies the spec's bound. Unsatisfied groups
// are offered to worst, the shared growth signal.
func (x *Execution) multiGroupRound(k int, fn query.AggFunc, base []estimate.Observation,
	labels []string, eb float64, minGroupDraws int, st *AggResult, worst *sizingGap) bool {

	seen := map[string]bool{}
	inGroup := map[string]int{}
	for idx, ob := range base {
		if ob.Correct {
			seen[labels[idx]] = true
			inGroup[labels[idx]]++
		}
	}
	groups := map[string]GroupResult{}
	allOK := len(seen) > 0
	for label := range seen {
		obsL := make([]estimate.Observation, len(base))
		copy(obsL, base)
		for idx := range obsL {
			if labels[idx] != label {
				obsL[idx].Correct = false
			}
		}
		ge := x.evalFn(fn, obsL, false)
		gv, err := ge.estimate()
		if err != nil {
			continue
		}
		begin := time.Now()
		geps, err := ge.moe()
		x.times.Guarantee += time.Since(begin)
		if err != nil {
			continue
		}
		groups[label] = GroupResult{Estimate: gv, MoE: geps, Draws: inGroup[label]}
		if inGroup[label] >= minGroupDraws && !estimate.Satisfied(gv, geps, eb) {
			allOK = false
			worst.note(gv, geps, eb)
		}
	}
	st.Groups = groups
	st.Converged = allOK && len(groups) > 0
	return st.Converged
}

// multiInterrupted packages the partial state of a cancelled
// multi-aggregate refinement, mirroring the single-aggregate interrupted
// contract: best estimates so far, Converged false, an error wrapping both
// ErrInterrupted and the ctx cause.
func (x *Execution) multiInterrupted(ctx context.Context, _ []AggSpec, state []AggResult, rounds int,
	mobs []estimate.MultiObservation, cause error) (*MultiResult, error) {

	return x.multiResult(ctx, state, rounds, false, mobs),
		fmt.Errorf("core: %w after %d draws: %w", ErrInterrupted, len(x.drawIdx), cause)
}

// multiResult assembles the shared-counters result.
func (x *Execution) multiResult(ctx context.Context, state []AggResult, rounds int, converged bool,
	mobs []estimate.MultiObservation) *MultiResult {

	x.finishTelemetry(ctx, converged, math.NaN(), math.NaN())
	x.scr.beginMarks(x.sp.len())
	distinct := 0
	for _, i := range x.drawIdx {
		if x.scr.mark(i) {
			distinct++
		}
	}
	correct := 0
	for _, m := range mobs {
		if m.Correct {
			correct++
		}
	}
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
