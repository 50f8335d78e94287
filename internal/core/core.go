package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"kgaq/internal/embedding"
	"kgaq/internal/estimate"
	"kgaq/internal/kg"
	"kgaq/internal/live"
	"kgaq/internal/query"
	"kgaq/internal/semsim"
)

// SamplerKind selects the sampling algorithm (the S1 ablation of Fig. 5a).
type SamplerKind int

const (
	// SamplerSemantic is the semantic-aware random walk of §IV-A (default).
	SamplerSemantic SamplerKind = iota
	// SamplerCNARW is the topology-only common-neighbor-aware walk.
	SamplerCNARW
	// SamplerNode2Vec is the topology-only biased second-order walk.
	SamplerNode2Vec
)

// String names the sampler.
func (s SamplerKind) String() string {
	switch s {
	case SamplerCNARW:
		return "cnarw"
	case SamplerNode2Vec:
		return "node2vec"
	default:
		return "semantic"
	}
}

// Options carries every knob of the pipeline; zero values mean the paper's
// defaults (§VII-A "Parameters").
type Options struct {
	// Tau is the semantic-similarity threshold τ (default 0.85).
	Tau float64
	// ErrorBound is the user error bound eb (default 0.01).
	ErrorBound float64
	// Confidence is 1-α (default 0.95).
	Confidence float64
	// N bounds the walk scope in hops (default 3).
	N int
	// Lambda is the desired sample ratio λ (default 0.3).
	Lambda float64
	// T and M size the initial sample |S| = T·(λ·|A|)^M (defaults 3, 0.6:
	// the paper's BLB small-sample count and scale factor, which it reuses
	// for this sizing).
	T int
	M float64
	// MaxRounds caps refinement rounds (default 10; the paper observes
	// Ne ≤ 10 in practice).
	MaxRounds int
	// MinSample floors the initial sample size (default 30 draws).
	MinSample int
	// MaxDraws caps the total sample size (default 20000 draws). The
	// Horvitz–Thompson estimator has heavy tails when some answers carry
	// tiny visiting probabilities; without a budget, a query whose variance
	// resists the error bound would grow its sample geometrically. When the
	// budget is exhausted the engine returns its best estimate with
	// Converged=false.
	MaxDraws int
	// MinCorrect is the minimum number of correct draws required before a
	// confidence interval is trusted for termination (default 30). With
	// fewer, the sample has not seen the heavy tail of the Horvitz–Thompson
	// weights and the CLT margin under-covers.
	MinCorrect int
	// Seed makes execution deterministic (default 1).
	Seed int64
	// Policy selects the estimator divisor (default SampleSize; see
	// DESIGN.md).
	Policy estimate.DivisorPolicy
	// Sampler selects the sampling algorithm (default semantic-aware).
	Sampler SamplerKind
	// FixedDelta, when positive, replaces the Eq. 12 sample-size
	// configuration with a fixed |ΔS| (the S3 ablation of Fig. 5c).
	FixedDelta int
	// SkipValidation treats every sampled answer as correct (the S2
	// ablation of Fig. 5b).
	SkipValidation bool
	// CacheMaxBytes bounds the engine's answer-space cache: converged
	// stationary distributions with their leg verdicts, and the answer
	// spaces assembled from them, one per compiled query graph, with one
	// verdict per candidate — all shared across queries. Zero means
	// DefaultCacheBytes; a negative value disables the cache entirely.
	CacheMaxBytes int64
	// Shards is ignored: every execution draws one sample from one
	// stratum. It is kept only so that existing callers still compile.
	//
	// Deprecated: sharded execution was removed (DESIGN.md "Sharded
	// execution"). The field goes with ROADMAP item 2.
	Shards int
}

func (o Options) withDefaults() Options {
	if o.Tau <= 0 {
		o.Tau = 0.85
	}
	if o.ErrorBound <= 0 {
		o.ErrorBound = 0.01
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		o.Confidence = 0.95
	}
	if o.N <= 0 {
		o.N = 3
	}
	if o.Lambda <= 0 || o.Lambda > 1 {
		o.Lambda = 0.3
	}
	if o.T <= 0 {
		o.T = 3
	}
	if o.M <= 0 || o.M > 1 {
		o.M = 0.6
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 10
	}
	if o.MinSample <= 0 {
		o.MinSample = 30
	}
	if o.MaxDraws <= 0 {
		o.MaxDraws = 20000
	}
	if o.MinCorrect <= 0 {
		o.MinCorrect = 30
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.CacheMaxBytes == 0 {
		o.CacheMaxBytes = DefaultCacheBytes
	}
	return o
}

func (o Options) guarantee() estimate.GuaranteeConfig {
	return estimate.GuaranteeConfig{Confidence: o.Confidence}
}

// StepTimes breaks the response time into the paper's three steps
// (Table XII), read off one clock per execution whose edges split every
// refinement round, so the steps add up to the wall time of the refinement
// calls less their OnRound callbacks:
//
//   - S1 Sampling ends with a round's draws; it holds the one-shot compile
//     (Engine.Start, QueryBatch) and the sizing decision (Decide) that asked
//     for the draws.
//   - S2 Estimation ends once the fresh draws are validated and folded into
//     the running moments, or a census has evaluated and tallied every
//     candidate.
//   - S3 Guarantee ends with the round's read-out: every point estimate,
//     margin and group; and, after the last round, the result's.
type StepTimes struct {
	Sampling   time.Duration
	Estimation time.Duration
	Guarantee  time.Duration
}

// Total returns the summed step time.
func (s StepTimes) Total() time.Duration {
	return s.Sampling + s.Estimation + s.Guarantee
}

// Round records one refinement iteration, the raw material of Table IX.
type Round struct {
	Estimate   float64
	MoE        float64
	SampleSize int
}

// GroupResult is the per-group outcome of a GROUP-BY query.
type GroupResult struct {
	Estimate float64
	MoE      float64
	Draws    int // observations that fell into the group (a census: its candidates)
}

// Result is the outcome of executing one aggregate query.
type Result struct {
	Query      *query.Aggregate
	Estimate   float64
	MoE        float64
	Confidence float64
	Converged  bool // Theorem 2 termination condition met for TargetEB
	// Degraded reports the guarantee loop stopped refining early under a
	// WithDegradation directive (deadline pressure): the interval is honest
	// for the returned sample but may be looser than TargetEB requested.
	// AchievedEB() reports the bound it actually attains.
	Degraded bool
	// Exact reports the refinement ended in a census: the next sample would
	// have reached |A|, so every candidate was settled and the aggregate
	// read off all of them, with MoE 0. It is exact for the validator's
	// verdicts (DESIGN.md "Census crossover").
	Exact bool
	// TargetEB is the relative error bound this execution refined toward
	// (0 for MAX/MIN, which carry no guarantee).
	TargetEB   float64
	Rounds     []Round
	SampleSize int    // total draws |S|
	Distinct   int    // distinct answers in the sample
	Correct    int    // draws that validated as correct
	Candidates int    // |A|: candidate answers with positive π′
	Strata     int    // member strata a federation coordinator merged (0 for a local execution)
	Epoch      uint64 // graph epoch the whole query observed (0 on static engines)
	Times      StepTimes
	Groups     map[string]GroupResult // non-nil only for GROUP-BY queries
}

// Interval returns the confidence interval of the final estimate.
func (r *Result) Interval() estimate.Interval {
	return estimate.Interval{Estimate: r.Estimate, MoE: r.MoE, Confidence: r.Confidence}
}

// view is the graph state one query executes against: an epoch-consistent
// read view. For static engines the view is the graph itself at epoch 0;
// for live engines it is one immutable live.Snapshot.
type view struct {
	g     kg.ReadGraph
	epoch uint64
}

// graphSource yields consistent views. Implementations must be safe for
// concurrent use.
type graphSource interface {
	// snapshot returns the current view, never blocking.
	snapshot() view
	// waitEpoch blocks until a view at or above epoch exists, honouring ctx.
	waitEpoch(ctx context.Context, epoch uint64) (view, error)
}

// staticSource serves one immutable graph forever, at epoch 0.
type staticSource struct{ g *kg.Graph }

func (s staticSource) snapshot() view { return view{g: s.g, epoch: 0} }

func (s staticSource) waitEpoch(_ context.Context, epoch uint64) (view, error) {
	if epoch > 0 {
		return view{}, fmt.Errorf("core: %w: static graph is pinned at epoch 0, %d requested",
			ErrEpochNotReached, epoch)
	}
	return s.snapshot(), nil
}

// liveSource serves epoch-consistent snapshots of a mutation store.
type liveSource struct{ st *live.Store }

func (s liveSource) snapshot() view {
	snap := s.st.Snapshot()
	return view{g: snap, epoch: snap.Epoch()}
}

func (s liveSource) waitEpoch(ctx context.Context, epoch uint64) (view, error) {
	snap, err := s.st.WaitEpoch(ctx, epoch)
	if err != nil {
		return view{}, fmt.Errorf("core: %w during preparation: %w", ErrInterrupted, err)
	}
	return view{g: snap, epoch: snap.Epoch()}, nil
}

// Engine executes aggregate queries over one graph + embedding pair.
//
// An Engine is safe for concurrent use by multiple goroutines: the graph
// source, the embedding model, the defaulted Options and the precomputed
// predicate-similarity matrix are immutable after NewEngine, the shared
// answer-space cache is internally synchronised, and every Query/Start
// call builds its own Execution with a private draw stream and draw list.
// Concurrent queries with the same seed draw identical samples; validation
// verdicts may be served from the shared cache, where they were settled by
// whichever query batch-validated them first (always a legitimate §IV-B2
// outcome — see DESIGN.md "Performance architecture").
//
// A live engine (NewLiveEngine) additionally pins every query to the
// mutation store's snapshot current at Start, so a query's whole refinement
// observes exactly one epoch while writers proceed; the answer-space cache
// is invalidated selectively as batches land (see DESIGN.md "Epochs and
// consistency").
type Engine struct {
	src   graphSource
	base  *kg.Graph // construction-time graph (vocabulary anchor)
	model embedding.Model
	opts  Options
	calc  *semsim.Calculator // shared read-only similarity matrix
	cache *spaceCache        // nil when CacheMaxBytes < 0
	sem   chan struct{}      // bounds the chain-build worker pool
}

// NewEngine validates the pair and returns an execution engine over a
// static (immutable) graph. The full P×P predicate-similarity matrix is
// precomputed here, once, and shared read-only by every query the engine
// serves.
func NewEngine(g *kg.Graph, model embedding.Model, opts Options) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	return newEngine(staticSource{g: g}, g, model, opts)
}

// NewLiveEngine returns an engine over a live mutation store. Queries
// execute against the epoch-consistent snapshot current at Start (or the
// one WithMinEpoch waits for); applied batches invalidate the answer-space
// cache selectively — only stages whose walk scope a mutation touched — and
// a stage a mutation evicted is rebuilt by the next query that wants it.
//
// The similarity matrix is built once over the store's base vocabulary;
// this is sound because live graphs freeze the predicate vocabulary (see
// live.ErrFrozenPredicate).
func NewLiveEngine(store *live.Store, model embedding.Model, opts Options) (*Engine, error) {
	if store == nil {
		return nil, fmt.Errorf("core: nil live store")
	}
	base := store.Snapshot().Base()
	e, err := newEngine(liveSource{st: store}, base, model, opts)
	if err != nil {
		return nil, err
	}
	store.OnApply(func(ev live.Event) {
		if e.cache != nil {
			e.cache.invalidate(ev.Touched, ev.Epoch)
		}
	})
	return e, nil
}

func newEngine(src graphSource, base *kg.Graph, model embedding.Model, opts Options) (*Engine, error) {
	if model == nil {
		return nil, fmt.Errorf("core: nil embedding model")
	}
	if model.Dim() == 0 {
		return nil, fmt.Errorf("core: embedding model has no vectors")
	}
	opts = opts.withDefaults()
	calc, err := semsim.NewCalculator(base, model, 0)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		src:   src,
		base:  base,
		model: model,
		opts:  opts,
		calc:  calc,
		sem:   make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
	if opts.CacheMaxBytes > 0 {
		e.cache = newSpaceCache(opts.CacheMaxBytes)
	}
	return e, nil
}

// Graph returns the engine's construction-time knowledge graph (for a live
// engine: the base the store was opened with). Use Snapshot for the
// current, epoch-consistent view.
func (e *Engine) Graph() *kg.Graph { return e.base }

// Snapshot returns the engine's current graph view and its epoch. Static
// engines always report epoch 0.
func (e *Engine) Snapshot() (kg.ReadGraph, uint64) {
	v := e.src.snapshot()
	return v.g, v.epoch
}

// Options returns the effective (defaulted) options.
func (e *Engine) Options() Options { return e.opts }

// CacheStats snapshots the answer-space cache counters (MaxBytes is -1 when
// the cache is disabled).
func (e *Engine) CacheStats() CacheStats { return e.cache.stats() }

// resolveRoot maps a decomposed path's root onto the query's graph view,
// enforcing the name + type conditions of Definition 5.
func resolveRoot(g kg.ReadGraph, p query.Path) (kg.NodeID, error) {
	us := g.NodeByName(p.RootName)
	if us == kg.InvalidNode {
		return kg.InvalidNode, fmt.Errorf("core: %w: specific entity %q not in graph", ErrUnknownEntity, p.RootName)
	}
	types, err := resolveTypes(g, p.RootTypes)
	if err != nil {
		return kg.InvalidNode, err
	}
	if !g.SharesType(us, types) {
		return kg.InvalidNode, fmt.Errorf("core: %w: entity %q has none of the required types %v", ErrUnknownEntity, p.RootName, p.RootTypes)
	}
	return us, nil
}

// resolveTypes interns query type names, failing on unknown ones.
func resolveTypes(g kg.ReadGraph, names []string) ([]kg.TypeID, error) {
	out := make([]kg.TypeID, 0, len(names))
	for _, n := range names {
		t := g.TypeByName(n)
		if t == kg.InvalidType {
			return nil, fmt.Errorf("core: %w %q", ErrUnknownType, n)
		}
		out = append(out, t)
	}
	return out, nil
}

// resolvePred interns a query predicate, failing on unknown ones (the
// embedding has no vector for a predicate absent from the graph).
func resolvePred(g kg.ReadGraph, name string) (kg.PredID, error) {
	p := g.PredByName(name)
	if p == kg.InvalidPred {
		return kg.InvalidPred, fmt.Errorf("core: %w %q", ErrUnknownPredicate, name)
	}
	return p, nil
}

// resolveAttr interns the aggregated attribute (empty for COUNT(*)).
func resolveAttr(g kg.ReadGraph, name string) (kg.AttrID, error) {
	if name == "" {
		return kg.InvalidAttr, nil
	}
	a := g.AttrByName(name)
	if a == kg.InvalidAttr {
		return kg.InvalidAttr, fmt.Errorf("core: %w %q", ErrUnknownAttribute, name)
	}
	return a, nil
}

// resolvedFilter is a query filter with its attribute interned.
type resolvedFilter struct {
	attr kg.AttrID
	low  float64
	high float64
}

// bindings are an aggregate's attribute references interned against one
// graph view: the aggregated attribute, the GROUP-BY attribute and the
// filters.
type bindings struct {
	attr    kg.AttrID
	group   kg.AttrID
	filters []resolvedFilter
}

// bind resolves q's attribute references against g. GROUP-BY needs a
// guaranteed aggregate.
func bind(g kg.ReadGraph, q *query.Aggregate) (b bindings, err error) {
	if !q.Func.HasGuarantee() && q.GroupBy != "" {
		return b, fmt.Errorf("core: GROUP-BY with %v is unsupported", q.Func)
	}
	if b.attr, err = resolveAttr(g, q.Attr); err != nil {
		return b, err
	}
	if b.group, err = resolveAttr(g, q.GroupBy); err != nil {
		return b, err
	}
	for _, f := range q.Filters {
		a, err := resolveAttr(g, f.Attr)
		if err != nil {
			return b, err
		}
		b.filters = append(b.filters, resolvedFilter{attr: a, low: f.Low, high: f.High})
	}
	return b, nil
}
