package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"

	"kgaq/internal/obs"
	"kgaq/internal/query"
	"kgaq/internal/stats"
)

// EpochPolicy governs how a prepared plan tracks a live engine's graph
// epochs across executions. Static engines serve a single epoch, so both
// policies behave identically there.
type EpochPolicy int

const (
	// EpochPin (the default) freezes the plan on the snapshot current at
	// Prepare: every later execution observes exactly that epoch, however
	// many mutation batches land meanwhile — deterministic repeat reads at
	// the price of staleness. A WithMinEpoch above the pinned epoch fails
	// with ErrEpochNotReached, because the plan will never move.
	EpochPin EpochPolicy = iota
	// EpochRepin re-pins the plan to the engine's current snapshot at each
	// Start: when the epoch moved, the compiled answer space is rebuilt
	// against the new view (a cache hit when the mutations missed the plan's
	// scope) and the plan's epoch advances. WithMinEpoch
	// waits for the store to reach the epoch, then rebuilds.
	EpochRepin
)

// String names the policy.
func (p EpochPolicy) String() string {
	if p == EpochRepin {
		return "repin"
	}
	return "pin"
}

// planKnobs are the option fields compiled into a prepared plan's answer
// space and validation oracle. They cannot be overridden per execution —
// changing any of them requires a new Prepare — which is what keeps a
// Prepared's concurrent executions coherent.
type planKnobs struct {
	sampler SamplerKind
	n       int
	tau     float64
}

func knobsOf(o Options) planKnobs {
	return planKnobs{
		sampler: o.Sampler,
		n:       o.N,
		tau:     o.Tau,
	}
}

// PlanInfo is the introspectable metadata of a prepared plan — what the
// compilation produced and what it cost, the payload of kgaqd's
// /v1/prepare response and /debug/plans listing.
type PlanInfo struct {
	// Query is the compiled query in the textual language (re-parseable).
	Query string
	// Shape is the query graph's Figure 4 classification.
	Shape query.Shape
	// Paths is the number of decomposed root-to-target paths (§V-B).
	Paths int
	// HopBound is the walk-scope bound n the plan was compiled with.
	HopBound int
	// Candidates is |A|: candidate answers with positive visiting
	// probability under the compiled distribution.
	Candidates int
	// Epoch is the graph epoch the compiled space observes.
	Epoch uint64
	// EpochPolicy is the plan's behaviour when the live graph moves on.
	EpochPolicy EpochPolicy
	// CacheHits / CacheBuilt count what the compilation took from the
	// engine's answer-space cache versus built fresh: 1 / 0 when the
	// assembled answer space itself was resident, else the converged chain
	// stages served and converged — CacheBuilt 0 means the plan compiled
	// entirely from cache.
	CacheHits  int
	CacheBuilt int
	// Rebuilds counts how many times an EpochRepin plan re-compiled after
	// the graph epoch moved.
	Rebuilds int
}

// compiled is one epoch's compilation of a prepared query: the resolved
// bindings and the immutable sampling space. A new compiled replaces the
// old wholesale when an EpochRepin plan follows the graph, so executions
// started earlier keep their epoch's state untouched.
type compiled struct {
	v view
	bindings
	sp *answerSpace
	// hits and built count the compilation's cache traffic: one hit and
	// nothing built when the assembled space itself was resident, else the
	// converged stages served from the cache and built fresh.
	hits  int
	built int
}

// Prepared is a compiled aggregate query: name→id resolution, shape
// classification, filter/attribute binding and the full answer-space build
// (walk convergence, alias tables) all done once at Prepare.
// It is safe for concurrent use — any number of goroutines may Start
// executions or Query/QueryMulti from one Prepared; each execution has
// its own draw stream, draw list and term table and only reads the
// immutable compiled space.
type Prepared struct {
	e      *Engine
	q      *query.Aggregate
	cfg    queryConfig // Prepare-time configuration: the plan's defaults
	paths  []query.Path
	key    string // planKey(paths, cfg.opts): the compiled space's cache key
	shape  query.Shape
	policy EpochPolicy

	mu       sync.Mutex
	cur      *compiled
	rebuilds int
}

// Prepare compiles a query into a reusable execution plan: Validate,
// decomposition, name→id resolution, filter/attribute binding, walker
// convergence and answer-space assembly happen here, once; every later
// Query/Start/QueryMulti on the returned Prepared skips straight to drawing
// the sample. QueryOptions given here become the plan's defaults;
// executions may override the sampling/guarantee knobs per call, but not
// the compiled ones (ErrPlanOption names the offender).
//
// Prepared plans require the semantic sampler — the topology-only ablation
// samplers draw during the build itself and have nothing to reuse
// (ErrPlanSampler).
//
// On a live engine the plan observes the snapshot current at Prepare (or
// the one WithMinEpoch waits for); WithEpochPolicy chooses whether later
// executions stay pinned there or re-pin to fresh snapshots as the graph
// moves.
func (e *Engine) Prepare(ctx context.Context, q *query.Aggregate, opts ...QueryOption) (p *Prepared, err error) {
	defer catchPanics(q, &err)
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := e.queryConfig(opts)
	if cfg.opts.Sampler != SamplerSemantic {
		return nil, fmt.Errorf("core: %w (got %v)", ErrPlanSampler, cfg.opts.Sampler)
	}
	return e.prepare(ctx, q, cfg)
}

// prepare is the option-resolved core of Prepare, shared with the rebased
// Engine.Start/Query and QueryBatch paths.
func (e *Engine) prepare(ctx context.Context, q *query.Aggregate, cfg queryConfig) (*Prepared, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	paths, err := q.Q.Decompose()
	if err != nil {
		return nil, err
	}
	v := e.src.snapshot()
	if cfg.minEpoch > v.epoch {
		if v, err = e.src.waitEpoch(ctx, cfg.minEpoch); err != nil {
			return nil, err
		}
	}
	p := &Prepared{
		e:      e,
		q:      q,
		cfg:    cfg,
		paths:  paths,
		key:    planKey(paths, cfg.opts),
		shape:  q.Q.ShapeOf(),
		policy: cfg.epochPolicy,
	}
	c, err := p.compile(ctx, v)
	if err != nil {
		return nil, err
	}
	p.cur = c
	return p, nil
}

// compile builds one epoch's compiled state: the aggregate's bindings plus
// the answer space, which is a function of (query graph, graph state, plan
// knobs) alone and so is taken from the engine's answer-space cache under
// the plan key when a space valid for v is resident — every path that
// compiles (Query, Start, QueryBatch, QueryMulti, FederateSample, Prepare,
// an EpochRepin rebuild) then goes straight to drawing, with the verdicts
// earlier executions settled. A miss assembles the space and publishes it;
// errors are never cached. Pure with respect to p's mutable fields —
// callers install the result.
func (p *Prepared) compile(ctx context.Context, v view) (*compiled, error) {
	defer obs.TraceFrom(ctx).Span("compile").End()
	e, q, o := p.e, p.q, p.cfg.opts
	c := &compiled{v: v}
	var err error
	endResolve := obs.TraceFrom(ctx).Span("resolve")
	c.bindings, err = bind(v.g, q)
	endResolve.End()
	if err != nil {
		return nil, err
	}
	if c.sp = e.cache.getPlan(p.key, v.epoch); c.sp != nil {
		c.hits = 1
	} else {
		sb := &spaceBuild{}
		endBuild := obs.TraceFrom(ctx).Span("build_space")
		sp, err := e.buildAssemblySpace(ctx, o, v, p.paths, sb)
		endBuild.End()
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, fmt.Errorf("core: %w during preparation: %w", ErrInterrupted, cerr)
			}
			return nil, err
		}
		c.sp = e.cache.putPlan(p.key, sp)
		c.hits, c.built = int(sb.hits.Load()), int(sb.built.Load())
	}
	return c, nil
}

// Plan returns the plan's introspection metadata. On an EpochRepin plan the
// epoch, candidate count and cache counters describe the current
// compilation.
func (p *Prepared) Plan() PlanInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.cur
	return PlanInfo{
		Query:       p.q.String(),
		Shape:       p.shape,
		Paths:       len(p.paths),
		HopBound:    p.cfg.opts.N,
		Candidates:  c.sp.len(),
		Epoch:       c.v.epoch,
		EpochPolicy: p.policy,
		CacheHits:   c.hits,
		CacheBuilt:  c.built,
		Rebuilds:    p.rebuilds,
	}
}

// Aggregate returns the compiled aggregate query.
func (p *Prepared) Aggregate() *query.Aggregate { return p.q }

// ensure returns the compiled state an execution starting now must use,
// honouring the plan's epoch policy and the execution's minEpoch.
func (p *Prepared) ensure(ctx context.Context, minEpoch uint64) (*compiled, error) {
	if p.policy == EpochPin {
		p.mu.Lock()
		c := p.cur
		p.mu.Unlock()
		if minEpoch > c.v.epoch {
			return nil, fmt.Errorf("core: %w: plan is pinned at epoch %d, %d requested (prepare anew or use EpochRepin)",
				ErrEpochNotReached, c.v.epoch, minEpoch)
		}
		return c, nil
	}
	// EpochRepin: follow the engine's current snapshot, waiting for
	// minEpoch outside the lock so a long wait never blocks concurrent
	// executions of the already-compiled state.
	v := p.e.src.snapshot()
	if minEpoch > v.epoch {
		var err error
		if v, err = p.e.src.waitEpoch(ctx, minEpoch); err != nil {
			return nil, err
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur.v.epoch >= v.epoch {
		return p.cur, nil
	}
	c, err := p.compile(ctx, v)
	if err != nil {
		return nil, err
	}
	p.cur = c
	p.rebuilds++
	metPlanRebuilds.Inc()
	return c, nil
}

// Start starts one execution of the plan: per-call options may override
// the sampling and guarantee knobs (seed, error bound, policy, draw
// budgets, OnRound, …) but not the compiled plan knobs — overriding the
// sampler, hop bound or τ fails with ErrPlanOption, because those are
// baked into the compiled space and its validation oracle. The
// execution reuses the compiled answer space directly; only drawing,
// candidate evaluation and estimation remain per call. Refine the returned
// Execution exactly as one from Engine.Start.
func (p *Prepared) Start(ctx context.Context, opts ...QueryOption) (x *Execution, err error) {
	defer catchPanics(p.q, &err)
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := mergeConfig(p.cfg, opts)
	if got, want := knobsOf(cfg.opts), knobsOf(p.cfg.opts); got != want {
		return nil, fmt.Errorf("core: %w: plan compiled with %+v, execution requested %+v",
			ErrPlanOption, want, got)
	}
	if cfg.epochPolicy != p.policy {
		return nil, fmt.Errorf("core: %w: epoch policy is fixed at Prepare (plan uses %v)",
			ErrPlanOption, p.policy)
	}
	c, err := p.ensure(ctx, cfg.minEpoch)
	if err != nil {
		return nil, err
	}
	x = &Execution{
		e:        p.e,
		q:        p.q,
		v:        c.v,
		opts:     cfg.opts,
		onRound:  cfg.onRound,
		degrade:  cfg.degrade,
		noCensus: cfg.noCensus,
		bindings: c.bindings,
		sp:       c.sp,
		stream:   stats.NewSplitmix(cfg.opts.Seed),
	}
	return x, nil
}

// Query runs one full execution of the plan — Start plus refinement to the
// (possibly overridden) error bound, with the same cancellation and
// partial-result semantics as Engine.Query.
func (p *Prepared) Query(ctx context.Context, opts ...QueryOption) (*Result, error) {
	x, err := p.Start(ctx, opts...)
	if err != nil {
		return nil, err
	}
	x.oneShot = true
	return x.Refine(ctx, 0)
}

// planKey canonically identifies the compiled half of a query under given
// options: the decomposed paths (which capture roots, predicates and type
// sets, the inputs of the walk) plus the compiled plan knobs. Queries with
// equal keys share one answer space — the key of its entry in the engine's
// cache, and QueryBatch's dedupe unit. It is on every request's path, so it
// is spelled out by hand: names are length-prefixed (two different path
// lists never spell the same key) and floats are written by their bits.
func planKey(paths []query.Path, o Options) string {
	b := make([]byte, 0, 128)
	name := func(s string) {
		b = strconv.AppendInt(b, int64(len(s)), 10)
		b = append(b, ':')
		b = append(b, s...)
	}
	names := func(ss []string) {
		b = strconv.AppendInt(b, int64(len(ss)), 10)
		b = append(b, '[')
		for _, s := range ss {
			name(s)
		}
	}
	for _, p := range paths {
		name(p.RootName)
		names(p.RootTypes)
		b = strconv.AppendInt(b, int64(len(p.Hops)), 10)
		b = append(b, '{')
		for _, h := range p.Hops {
			name(h.Predicate)
			names(h.Types)
		}
	}
	k := knobsOf(o)
	b = append(b, '|')
	for _, n := range []uint64{uint64(k.sampler), uint64(k.n), math.Float64bits(k.tau)} {
		b = strconv.AppendUint(b, n, 16)
		b = append(b, ',')
	}
	return string(b)
}

// prepareShared derives a plan for q that reuses base's compiled answer
// space — the QueryBatch dedupe path: q decomposes to the same paths under
// the same plan knobs (equal planKey), so only its aggregate bindings
// (attribute, filters, GROUP-BY) need resolving. The two plans share the
// immutable space; what an execution learns of a candidate stays in its own
// term table, so the sharing is invisible except in build cost.
func (e *Engine) prepareShared(q *query.Aggregate, paths []query.Path, cfg queryConfig, base *Prepared) (*Prepared, error) {
	base.mu.Lock()
	c0 := base.cur
	base.mu.Unlock()
	c := &compiled{v: c0.v, sp: c0.sp, hits: c0.hits, built: c0.built}
	var err error
	if c.bindings, err = bind(c.v.g, q); err != nil {
		return nil, err
	}
	return &Prepared{
		e:      e,
		q:      q,
		cfg:    cfg,
		paths:  paths,
		key:    base.key,
		shape:  q.Q.ShapeOf(),
		policy: cfg.epochPolicy,
		cur:    c,
	}, nil
}
