package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"kgaq/internal/estimate"
	"kgaq/internal/kg"
	"kgaq/internal/obs"
	"kgaq/internal/query"
	"kgaq/internal/stats"
)

// Execution is a started query whose sample can be refined incrementally —
// the interactive scenario of §IV-C where the user tightens eb at runtime
// and the engine reuses everything collected so far.
//
// An Execution carries its own draw stream, draw list and term table and
// must not be shared across goroutines; concurrency happens by running many
// Executions of one Engine in parallel.
type Execution struct {
	e       *Engine
	q       *query.Aggregate
	v       view    // the epoch-consistent graph view this query observes
	opts    Options // engine options with per-query overrides applied
	onRound func(Round)
	degrade Degradation // deadline-aware degradation (disabled by default)
	bindings

	degraded bool    // the guarantee loop stopped early under degrade
	exact    bool    // the last refinement ended in a census with every guaranteed spec read
	targetEB float64 // the bound the last Refine targeted
	noCensus bool    // the census is off (a test hook: queryConfig.noCensus)

	sp      *answerSpace
	sh      *shardedSpace  // non-nil when Options.Shards > 1
	stream  stats.Splitmix // the draw stream: one word per draw, consumed by sampling alone
	scr     *execScratch   // pooled hot-loop buffers, held per Refine call
	drawIdx []int
	// tab is the sample in reduced form: what is known of each candidate and
	// the running moments of the draws folded so far (terms.go).
	tab *termTable
	// oneShot marks an execution that dies with its first refinement call
	// (Query, QueryMulti, FederateSample): nothing reads its draw list or
	// term table afterwards, so both live in the scratch (holdScratch).
	oneShot bool
	rounds  []Round
	clk     stepClock

	// Telemetry bookkeeping. reportedTimes is what earlier result() calls on
	// this execution already exported to the step-seconds metrics, so
	// interactive re-Refine exports deltas, never double-counts. The trace*
	// fields are the previous traced round's cumulative readings, turning the
	// trace counters into per-round figures.
	reportedTimes  StepTimes
	traceSampleAt  int
	traceValidated float64
	traceHits      float64
}

// Start validates and prepares a query: decomposition, walker construction,
// convergence, and the answer distribution — everything up to (but not
// including) drawing the sample. The preparation time is charged to the
// sampling step. ctx cancels the preparation (walker convergence and space
// assembly are the heavy parts); a cancelled Start returns ErrInterrupted.
//
// The execution is pinned to the engine's graph view current at this call
// (or the first view satisfying WithMinEpoch): every later Refine reads
// that one epoch, however many mutations land meanwhile.
//
// Start is a thin wrapper over the two-phase API: it Prepares a
// single-use plan and starts its one execution. Workloads that re-execute
// a query graph (or fan several aggregates over one sample) should call
// Engine.Prepare once and reuse the plan.
func (e *Engine) Start(ctx context.Context, q *query.Aggregate, opts ...QueryOption) (x *Execution, err error) {
	defer catchPanics(q, &err)
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := e.queryConfig(opts)
	if cfg.opts.Sampler != SamplerSemantic {
		return e.startTopology(ctx, q, cfg)
	}
	// The one-shot API's contract: preparation time is part of the query's
	// sampling step.
	var clk stepClock
	clk.edge(nil)
	p, err := e.prepare(ctx, q, cfg)
	if err != nil {
		return nil, err
	}
	x, err = p.Start(ctx)
	if err != nil {
		return nil, err
	}
	x.clk = clk
	x.clk.edge(&x.clk.times.Sampling)
	return x, nil
}

// startTopology prepares an execution under a topology-only ablation
// sampler (Fig. 5a), which draws its sample during the build itself and so
// cannot be compiled into a reusable plan.
func (e *Engine) startTopology(ctx context.Context, q *query.Aggregate, cfg queryConfig) (*Execution, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	o := cfg.opts
	if o.Shards > 1 {
		return nil, fmt.Errorf("core: %w (got %v)", ErrShardedSampler, o.Sampler)
	}
	v := e.src.snapshot()
	if cfg.minEpoch > v.epoch {
		var err error
		if v, err = e.src.waitEpoch(ctx, cfg.minEpoch); err != nil {
			return nil, err
		}
	}
	x := &Execution{e: e, q: q, v: v, opts: o, onRound: cfg.onRound, degrade: cfg.degrade, stream: stats.NewSplitmix(o.Seed)}

	var err error
	if x.bindings, err = bind(v.g, q); err != nil {
		return nil, err
	}

	paths, err := q.Q.Decompose()
	if err != nil {
		return nil, err
	}
	if len(paths) != 1 {
		return nil, fmt.Errorf("core: %v sampler supports simple queries only", o.Sampler)
	}
	x.clk.edge(nil)
	// The topology walkers take a *rand.Rand; the draws after the build come
	// from the execution's own stream.
	sp, draws, err := e.buildTopologySpace(ctx, o, v, paths[0], stats.NewRand(o.Seed), x.initialSize(200))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("core: %w during preparation: %w", ErrInterrupted, cerr)
		}
		return nil, err
	}
	x.sp = sp
	x.drawIdx = draws
	metDraws.Add(float64(len(draws))) // the sampler's first round, drawn by the build
	x.clk.edge(&x.clk.times.Sampling)
	return x, nil
}

// Query runs the full pipeline: Start plus refinement to the configured
// error bound, honouring ctx between rounds and inside the walk and
// validation hot loops. On cancellation it returns the partial Result
// collected so far (Converged=false) together with an error wrapping both
// ErrInterrupted and ctx.Err().
func (e *Engine) Query(ctx context.Context, q *query.Aggregate, opts ...QueryOption) (*Result, error) {
	x, err := e.Start(ctx, q, opts...)
	if err != nil {
		return nil, err
	}
	x.oneShot = true
	return x.Refine(ctx, 0)
}

// finishTelemetry ends one completed refinement call at the step clock's
// stop edge, which charges the read-out after the last round to Guarantee.
// It exports the call to the engine metrics — step times as deltas against
// what this execution already reported — and stamps the request trace with
// the result-level attributes (outcome, convergence, the final ε̂, the step
// times, per-shard draw attribution).
func (x *Execution) finishTelemetry(ctx context.Context, converged bool, vhat, moe float64) {
	x.clk.edge(&x.clk.times.Guarantee)
	outcome := "unconverged"
	switch {
	case ctx.Err() != nil:
		outcome = "interrupted"
	case x.degraded:
		outcome = "degraded"
	case x.exact:
		outcome = "exact"
	case converged:
		outcome = "converged"
	}
	metQueries.With(outcome).Inc()
	metRounds.Observe(float64(len(x.rounds)))
	times := x.clk.times
	metStepSeconds.With("sampling").Add((times.Sampling - x.reportedTimes.Sampling).Seconds())
	metStepSeconds.With("estimation").Add((times.Estimation - x.reportedTimes.Estimation).Seconds())
	metStepSeconds.With("guarantee").Add((times.Guarantee - x.reportedTimes.Guarantee).Seconds())
	x.reportedTimes = times

	t := obs.TraceFrom(ctx)
	if t == nil {
		return
	}
	t.SetAttr("outcome", outcome)
	t.SetAttr("converged", converged)
	t.SetAttr("degraded", x.degraded)
	t.SetAttr("exact", x.exact)
	if x.tab != nil {
		// Where the candidates' terms came from: recorded by this execution,
		// or adopted from a table a census published (a warm query that
		// validated nothing).
		terms := "recorded"
		if x.tab.adopted {
			terms = "adopted"
		}
		t.SetAttr("terms", terms)
	}
	t.SetAttr("rounds", len(x.rounds))
	t.SetAttr("sample_size", len(x.drawIdx))
	t.SetAttr("candidates", x.sp.len())
	t.SetAttr("epoch", x.v.epoch)
	t.SetAttr("target_eb", x.targetEB)
	t.SetAttr("estimate", vhat)
	t.SetAttr("moe", moe)
	t.SetAttr("achieved_eb", achievedEB(vhat, moe))
	t.SetAttr("sampling_ms", millis(times.Sampling))
	t.SetAttr("estimation_ms", millis(times.Estimation))
	t.SetAttr("guarantee_ms", millis(times.Guarantee))
	if x.sh != nil {
		draws := make(map[string]int, len(x.sh.spaces))
		for pos, spc := range x.sh.spaces {
			draws[strconv.Itoa(spc.Shard)] = x.sh.drawn[pos]
		}
		t.SetAttr("shard_draws", draws)
	}
}

// initialSize is the paper's |S| = t·(λ·|A|)^m with a practical floor.
func (x *Execution) initialSize(candidates int) int {
	o := x.opts
	n := float64(o.T) * math.Pow(o.Lambda*float64(candidates), o.M)
	size := int(math.Ceil(n))
	if size < o.MinSample {
		size = o.MinSample
	}
	return size
}

// firstSize is the size of the initial round. Under sharded execution it is
// additionally floored at the stratum count: an unobserved stratum
// contributes zero to the merged estimate AND zero to its variance, so a
// first round smaller than the stratum count could converge on a biased
// underestimate; covering every stratum from round one (the allocator's
// per-stratum floors then hold for all later rounds) removes that mode.
func (x *Execution) firstSize() int {
	size := x.initialSize(x.sp.len())
	if x.sh != nil && size < len(x.sh.spaces) {
		size = len(x.sh.spaces)
	}
	return size
}

// censusSize is what Progress.Census carries: |A| when a census may end this
// execution's refinement — unsharded, over a semantic answer space — and 0
// otherwise.
func (x *Execution) censusSize() int {
	if x.sh != nil || x.opts.Sampler != SamplerSemantic || x.noCensus {
		return 0
	}
	return x.sp.len()
}

// sampleMore extends the draw list by k, honouring the MaxDraws budget.
// Sharded executions allocate the k draws across strata (Neyman once
// variance signals exist) and draw each stratum from its own deterministic
// stream.
func (x *Execution) sampleMore(k int) {
	if k = min(k, x.opts.MaxDraws-len(x.drawIdx)); k <= 0 {
		return
	}
	if x.sh != nil {
		x.scr.draws = x.sh.drawInto(x.scr.draws[:0], k)
	} else {
		x.scr.draws = x.sp.drawInto(x.scr.draws[:0], &x.stream, k)
	}
	x.drawIdx = append(x.drawIdx, x.scr.draws...)
	metDraws.Add(float64(len(x.scr.draws)))
	x.clk.edge(&x.clk.times.Sampling)
}

// cut is the error of a cancelled refinement: it matches both
// ErrInterrupted and the ctx cause.
func (x *Execution) cut(cause error) error {
	return fmt.Errorf("core: %w after %d draws: %w", ErrInterrupted, len(x.drawIdx), cause)
}

// Refine grows the sample until the Theorem 2 condition holds for the given
// error bound (eb ≤ 0 means the execution's configured bound), reusing all
// previously collected draws — interactive tightening of eb keeps the
// sample. ctx is checked between refinement rounds and inside the
// validation hot loop; a cancelled Refine returns the partial Result with
// Converged=false and an error wrapping ErrInterrupted. Its estimate is the
// last round's — of an earlier Refine on the same Execution when this call
// completed none — or NaN when no round ever ran.
func (x *Execution) Refine(ctx context.Context, eb float64) (res *Result, err error) {
	defer x.catchPanics(&err)
	if ctx == nil {
		ctx = context.Background()
	}
	release := x.holdScratch()
	defer release()
	if eb <= 0 {
		eb = x.opts.ErrorBound
	}
	x.targetEB = eb
	runs := [1]AggResult{{Spec: AggSpec{Func: x.q.Func, Attr: x.q.Attr}, ErrorBound: eb}}
	terms := [1]termSpec{{fn: x.q.Func, attr: x.attr}}
	_, converged, err := x.refine(ctx, runs[:], terms[:], false)
	if err != nil && !errors.Is(err, ErrInterrupted) {
		return nil, err
	}
	return x.result(ctx, runs[0].Estimate, runs[0].MoE, converged, runs[0].Groups), err
}

// extremeRounds is the number of fixed-size sampling rounds for MAX and
// MIN, which carry no guarantee (§VII-B reports 4).
const extremeRounds = 4

// extremeRoundSize is the fixed round of the MAX/MIN paths: 5% of the
// candidates, at least 20 draws, and at least one per stratum so that every
// stratum is observed each round.
func (x *Execution) extremeRoundSize() int {
	per := max(x.sp.len()/20, 20)
	if x.sh != nil {
		per = max(per, len(x.sh.spaces))
	}
	return per
}

// refine is Algorithm 2 over a spec list, the one refinement loop behind
// Refine and QueryMulti (DESIGN.md "Refinement loop"). A round validates and
// folds the fresh draws (advance), reads every spec's interval out of the
// term table, and asks Decide whether to stop or how much to draw. The first
// guaranteed spec drives: its correct draws feed the MinCorrect gate, its
// moments the sharded allocator, and its intervals are the execution's
// rounds (OnRound, Rounds()). Under GROUP-BY each spec's groups are what
// Theorem 2 checks. MAX/MIN specs ride along and are read once over the
// final sample; a list of extremes alone runs fixed-size rounds (§VII).
// When the sample Decide would reach covers the candidate set — asked once
// before the first draw too — the loop ends in a census instead. It returns
// the rounds it evaluated; a cancelled refine returns an error from cut and
// leaves each run at its last evaluated round.
func (x *Execution) refine(ctx context.Context, runs []AggResult, terms []termSpec, keepRounds bool) (rounds int, converged bool, err error) {
	o := x.opts
	grouped := x.group != kg.InvalidAttr
	drive := -1
	for k := range runs {
		runs[k].Estimate, runs[k].MoE = math.NaN(), math.NaN()
		if drive < 0 && runs[k].Spec.Func.HasGuarantee() {
			drive = k
		}
	}
	x.clk.round = x.clk.edge(nil) // the call, and its first round, open
	x.bindTerms(terms...)
	x.exact = false

	extreme, maxRounds, census := 0, o.MaxRounds, x.censusSize()
	if drive < 0 {
		// Extremes alone: every round draws its fixed size, then evaluates.
		drive, extreme, maxRounds, census = 0, x.extremeRoundSize(), extremeRounds, 0
	}
	if grouped {
		maxRounds *= 3
	}
	// A call cut short before its first round reports the execution's last.
	if n := len(x.rounds); n > 0 {
		runs[drive].Estimate, runs[drive].MoE = x.rounds[n-1].Estimate, x.rounds[n-1].MoE
	}
	switch {
	case extreme > 0:
		x.sampleMore(extreme)
	case len(x.drawIdx) == 0:
		st := Decide(o, Progress{Initial: x.firstSize(), Census: census})
		if st.Stop == StopCensus {
			return x.census(ctx, runs, drive, 0, keepRounds)
		}
		x.sampleMore(st.Grow)
	}
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return rounds, false, x.cut(err)
		}
		if !x.advance(ctx) {
			// Validation was cut short: the round's draws stay unfolded, and
			// a later call picks them up where this one stopped.
			return rounds, false, x.cut(ctx.Err())
		}
		rounds++
		p := Progress{Draws: len(x.drawIdx), Grouped: grouped, Extreme: extreme, Last: round+1 >= maxRounds, Census: census}
		n := len(x.rounds)
		v, verr := x.evaluateRound(runs, drive, &p, keepRounds)
		p.Cost = x.endRound(ctx, n, runs[drive].Spec.Func.HasGuarantee())
		p.Slack, p.Deadline = x.degrade.Slack(ctx)
		st := Decide(o, p)
		if st.Stop == StopCensus {
			return x.census(ctx, runs, drive, rounds, keepRounds)
		}
		if st.Gated && st.Stop != Continue && verr == nil {
			// The budget ran out under the gate: report the estimate
			// without claiming a margin.
			runs[drive].Estimate, runs[drive].MoE = v, math.NaN()
		}
		if st.Stop != Continue {
			converged = st.Stop == StopConverged
			if st.Stop == StopDegraded {
				x.degraded = true
			}
			break
		}
		x.sampleMore(st.Grow)
	}

	estimated := false
	for k := range runs {
		estimated = estimated || !math.IsNaN(runs[k].Estimate)
	}
	switch {
	case !estimated:
		return rounds, false, fmt.Errorf("core: %w: no estimable sample within %d rounds: %w",
			ErrNotConverged, maxRounds, estimate.ErrNoCorrect)
	case extreme > 0:
		return rounds, false, nil
	}
	// Extremes riding along are read once, over the final sample.
	for k := range runs {
		if runs[k].Spec.Func.HasGuarantee() {
			continue
		}
		if v, err := x.estimateOf(k, nil); err == nil {
			x.report(&runs[k], false, v, 0, keepRounds)
		}
	}
	return rounds, converged, nil
}

// census ends a refinement whose next sample would reach |A| (StopCensus,
// DESIGN.md "Census crossover"). It settles every candidate not yet known in
// one evaluate — on a warm plan from the shared verdicts, without an oracle
// call — reads every spec exactly off the term table (tally), per group
// when grouped, with MoE 0, and publishes the settled table on the space. An
// execution that adopted a published table does neither: its candidates are
// known and its cells tallied. A spec with no valued candidate has no AVG,
// MAX or MIN; the census converges when every guaranteed spec was read, and
// counts as one more round, reported like a sampled one.
func (x *Execution) census(ctx context.Context, runs []AggResult, drive, rounds int, keepRounds bool) (int, bool, error) {
	if err := ctx.Err(); err != nil {
		return rounds, false, x.cut(err)
	}
	t := x.tab
	done := t.adopted || x.evaluate(ctx, x.scr.candidates(x.sp.len()))
	if done && !t.adopted {
		t.tally()
		x.publishTerms()
	}
	x.clk.edge(&x.clk.times.Estimation)
	if !done {
		return rounds, false, x.cut(ctx.Err())
	}
	n := len(x.rounds)
	converged, estimated := true, false
	for k := range runs {
		r := &runs[k]
		v, _, err := t.exact(0, k)
		if err != nil {
			r.Estimate, r.MoE = math.NaN(), math.NaN()
			converged = converged && !r.Spec.Func.HasGuarantee()
			continue
		}
		estimated = true
		r.Exact, r.Converged = true, r.Spec.Func.HasGuarantee()
		if x.group != kg.InvalidAttr {
			r.Groups = x.exactGroups(k)
		}
		x.report(r, k == drive, v, 0, keepRounds)
	}
	x.endRound(ctx, n, true)
	if !estimated {
		return rounds, false, fmt.Errorf("core: %w: no candidate of %d is correct for the aggregate: %w",
			ErrNotConverged, x.sp.len(), estimate.ErrNoCorrect)
	}
	x.exact = converged
	return rounds + 1, converged, nil
}

// exactGroups reads spec k's census per GROUP-BY group: every group with a
// candidate correct for the spec, its Draws the number of such candidates.
func (x *Execution) exactGroups(k int) map[string]GroupResult {
	t := x.tab
	groups := map[string]GroupResult{}
	for g := 1; g < len(t.labels); g++ {
		if v, n, err := t.exact(g, k); err == nil && n > 0 {
			groups[t.labels[g]] = GroupResult{Estimate: v, Draws: n}
		}
	}
	return groups
}

// evaluateRound reads one round's intervals out of the term table into the
// runs and puts them to Theorem 2 through p. A round the MinCorrect gate
// holds reads no margin: it returns the driving spec's estimate, which the
// loop reports alone should the budget end it. An ungrouped spec without an
// estimate or a margin is unestimable; a grouped spec reports its
// whole-sample estimate even without a margin, and is checked by its groups.
func (x *Execution) evaluateRound(runs []AggResult, drive int, p *Progress, keepRounds bool) (float64, error) {
	// The driving spec refreshes the sharded allocator every round, gated
	// or not.
	mom := x.sampleMoments(drive)
	if p.Extreme > 0 {
		for k := range runs {
			if v, err := x.estimateOf(k, nil); err == nil {
				x.report(&runs[k], k == drive, v, 0, keepRounds)
			}
		}
		return 0, nil
	}
	if p.Correct = x.tab.hits(0, drive); p.gated(x.opts.MinCorrect) {
		return x.estimateOf(drive, mom)
	}
	for k := drive; k < len(runs); k++ {
		r := &runs[k]
		if !r.Spec.Func.HasGuarantee() {
			continue
		}
		if k != drive {
			mom = x.tab.moments(0, k)
		}
		v, err := x.estimateOf(k, mom)
		eps := math.NaN()
		if err == nil {
			switch e, merr := x.marginOf(k, mom); {
			case merr == nil:
				eps = e
			case !p.Grouped:
				err = merr // a grouped spec is checked by its groups' margins
			}
		}
		switch {
		case err == nil:
			x.report(r, k == drive, v, eps, keepRounds)
			p.Estimated = true
			if !p.Grouped {
				r.Converged = p.Check(v, eps, r.ErrorBound)
			}
		case !p.Grouped:
			p.Unestimable = true
		}
		if p.Grouped {
			r.Groups, r.Converged = x.groupsOf(k, r.ErrorBound, p)
		}
	}
	return 0, nil
}

// report records one interval of spec run r. The driving spec's interval is
// also the execution's refinement round, which endRound streams and traces.
func (x *Execution) report(r *AggResult, drive bool, v, eps float64, keepRounds bool) {
	round := Round{Estimate: v, MoE: eps, SampleSize: len(x.drawIdx)}
	r.Estimate, r.MoE = v, eps
	if keepRounds {
		r.Rounds = append(r.Rounds, round)
	}
	if drive {
		x.rounds = append(x.rounds, round)
	}
}

// endRound is a round's guarantee edge: it charges the read-out to Guarantee
// and returns what the round took since it opened, its draws included. A
// round that reported the driving spec's interval — a round past the first
// n — is streamed to the OnRound callback, which the clock pauses over, and
// recorded in the request trace: its fresh draws and validation work, the
// estimate and its ε (NaN without a guarantee), the achieved bound
// ε̂ = ε/(|V̂|−ε) whose shrink toward eb is the Theorem 2 convergence
// signal, and what it took. The next round opens after the callback.
func (x *Execution) endRound(ctx context.Context, n int, guaranteed bool) time.Duration {
	took := x.clk.edge(&x.clk.times.Guarantee).Sub(x.clk.round)
	if len(x.rounds) > n {
		r := x.rounds[n]
		if t := obs.TraceFrom(ctx); t != nil {
			eps := r.MoE
			if !guaranteed {
				eps = math.NaN()
			}
			validated, hits := t.Counter("validation_calls"), t.Counter("verdict_cache_hits")
			t.Round(obs.RoundTelemetry{
				Round:      n + 1,
				SampleSize: r.SampleSize,
				Draws:      r.SampleSize - x.traceSampleAt,
				Validated:  int(validated - x.traceValidated),
				CacheHits:  int(hits - x.traceHits),
				Estimate:   obs.Float(r.Estimate),
				MoE:        obs.Float(eps),
				AchievedEB: obs.Float(achievedEB(r.Estimate, eps)),
				ElapsedMS:  millis(took),
			})
			x.traceSampleAt, x.traceValidated, x.traceHits = r.SampleSize, validated, hits
		}
		if x.onRound != nil {
			x.onRound(r)
			x.clk.edge(nil)
		}
	}
	x.clk.round = x.clk.last
	return took
}

// millis is d in milliseconds, the trace's unit.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// groupsOf reads out spec k's per-group estimators for the current round:
// every group with a draw correct for the spec gets its estimate and margin
// over the full sample, in which the draws outside the group are zeros, and
// is put to Theorem 2 through p. It reports whether the spec's groups meet
// eb; a spec without a group is unestimable.
func (x *Execution) groupsOf(k int, eb float64, p *Progress) (map[string]GroupResult, bool) {
	t := x.tab
	groups := map[string]GroupResult{}
	ok := true
	for g := 1; g < len(t.labels); g++ {
		inGroup := t.hits(g, k)
		if inGroup == 0 {
			continue
		}
		mom := t.moments(g, k)
		v, err := x.estimateOf(k, mom)
		if err != nil {
			continue
		}
		eps, err := x.marginOf(k, mom)
		if err != nil {
			continue
		}
		groups[t.labels[g]] = GroupResult{Estimate: v, MoE: eps, Draws: inGroup}
		ok = p.CheckGroup(v, eps, eb, inGroup) && ok
	}
	if len(groups) == 0 {
		p.Unestimable = true
		return groups, false
	}
	return groups, ok
}

// result assembles the Result.
func (x *Execution) result(ctx context.Context, vhat, moe float64, converged bool, groups map[string]GroupResult) *Result {
	x.finishTelemetry(ctx, converged, vhat, moe)
	correct, distinct := x.sampleCounts(0)
	shards := 0
	if x.sh != nil {
		shards = len(x.sh.spaces)
	}
	return &Result{
		Query:      x.q,
		Estimate:   vhat,
		MoE:        moe,
		Confidence: x.opts.Confidence,
		Converged:  converged,
		Degraded:   x.degraded,
		Exact:      x.exact,
		TargetEB:   x.targetEB,
		Rounds:     append([]Round(nil), x.rounds...),
		SampleSize: len(x.drawIdx),
		Distinct:   distinct,
		Correct:    correct,
		Candidates: x.sp.len(),
		Shards:     shards,
		Epoch:      x.v.epoch,
		Times:      x.clk.times,
		Groups:     groups,
	}
}
