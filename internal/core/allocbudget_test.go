package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"

	"kgaq/internal/datagen"
	"kgaq/internal/estimate"
	"kgaq/internal/kg"
	"kgaq/internal/kg/kgtest"
	"kgaq/internal/query"
)

// Per-stage allocation budgets for the draw→evaluate→fold→read-out hot
// loop, measured on the warm path: scratch attached, pools primed, every
// candidate of the space already in the term table. These are the numbers
// the PR 9 reclamation bought — a budget increase is a performance
// regression and needs the same scrutiny as a latency one.
const (
	// drawAllocBudget covers one alias-table draw batch into reused scratch
	// (answerSpace.drawInto): one Splitmix word
	// per draw, from the stream the Execution holds by value.
	drawAllocBudget = 0
	// validateAllocBudget covers a warm round's evaluation sweep over its
	// fresh draws when every candidate they reach is already known — the
	// steady-state round, where evaluation is a scan of state bits
	// (Execution.evaluate).
	validateAllocBudget = 0
	// estimateAllocBudget covers one whole warm round: draw a batch, sweep
	// it, fold it into the running moments, and read the point estimate and
	// the margin out of them (sampleMore + advance + estimateOf/marginOf).
	// The margin reads its one-stratum list from the table.
	estimateAllocBudget = 0
	// mergeAllocBudget covers the stratified Horvitz–Thompson merge in its
	// reference list form (Regroup excluded):
	// MoEStratified/EstimateStratified reduce each stratum to moments held in
	// registers.
	mergeAllocBudget = 0
	// multiAccumBudget covers one warm multi-aggregate round: the same draw,
	// sweep and fold with three specs fed from each draw, and every spec's
	// read-out.
	multiAccumBudget = 0
)

// warmExecution prepares a figure-1 execution of the given specs (COUNT(*)
// when none) with scratch held, an initial sample drawn and folded, every
// candidate evaluated, and a draw list with room for the rounds the
// budgets below run, so they measure exactly the steady-state round.
func warmExecution(t *testing.T, specs ...termSpec) (*Execution, context.Context, func()) {
	t.Helper()
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 21})
	p, err := e.Prepare(context.Background(), countQuery())
	if err != nil {
		t.Fatal(err)
	}
	x, err := p.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release := x.holdScratch()
	if len(specs) == 0 {
		specs = []termSpec{{fn: query.Count, attr: kg.InvalidAttr}}
	}
	x.bindTerms(specs...)
	ctx := context.Background()
	all := make([]int, x.sp.len())
	for i := range all {
		all[i] = i
	}
	if !x.evaluate(ctx, all) {
		t.Fatal("evaluation of a live context reported a cancellation")
	}
	x.sampleMore(x.initialSize(x.sp.len()))
	x.advance(ctx)
	x.drawIdx = slices.Grow(x.drawIdx, x.opts.MaxDraws)
	return x, ctx, release
}

// warmRound is one steady-state refinement round of every spec: fresh
// draws, their sweep and fold, then estimate and margin per spec.
func warmRound(x *Execution, ctx context.Context) error {
	n := len(x.drawIdx)
	if x.sampleMore(64); len(x.drawIdx) == n || !x.advance(ctx) {
		return errors.New("the warm round did not run")
	}
	for k := range x.tab.specs {
		mom := x.tab.moments(0, k)
		if _, err := x.estimateOf(k, mom); err != nil {
			return err
		}
		if _, err := x.marginOf(k, mom); err != nil {
			return err
		}
	}
	return nil
}

func TestAllocBudgetDraw(t *testing.T) {
	x, _, release := warmExecution(t)
	defer release()
	const k = 128
	x.scr.draws = x.sp.drawInto(x.scr.draws[:0], &x.stream, k) // size the batch buffer
	allocs := testing.AllocsPerRun(200, func() {
		x.scr.draws = x.sp.drawInto(x.scr.draws[:0], &x.stream, k)
	})
	if allocs > drawAllocBudget {
		t.Fatalf("draw stage allocates %.1f/op, budget %d", allocs, drawAllocBudget)
	}
}

func TestAllocBudgetValidateCached(t *testing.T) {
	x, ctx, release := warmExecution(t)
	defer release()
	const k = 128
	x.scr.draws = x.sp.drawInto(x.scr.draws[:0], &x.stream, k)
	allocs := testing.AllocsPerRun(200, func() {
		x.scr.draws = x.sp.drawInto(x.scr.draws[:0], &x.stream, k)
		if !x.evaluate(ctx, x.scr.draws) {
			panic("cancelled")
		}
	})
	if allocs > validateAllocBudget {
		t.Fatalf("validate stage (cached) allocates %.1f/op, budget %d", allocs, validateAllocBudget)
	}
}

func TestAllocBudgetEstimate(t *testing.T) {
	x, ctx, release := warmExecution(t)
	defer release()
	if err := warmRound(x, ctx); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := warmRound(x, ctx); err != nil {
			panic(err)
		}
	})
	if allocs > estimateAllocBudget {
		t.Fatalf("estimate stage allocates %.1f/op, budget %d", allocs, estimateAllocBudget)
	}
}

func TestAllocBudgetStratifiedMerge(t *testing.T) {
	// Synthetic 4-stratum sample exercising the pooled merge.
	obs := make([]estimate.Observation, 400)
	for i := range obs {
		obs[i] = estimate.Observation{
			Value:         float64(10 + i%17),
			Prob:          0.002 + 0.001*float64(i%5),
			Correct:       i%3 != 0,
			Stratum:       i % 4,
			StratumWeight: 0.25,
		}
	}
	strata := estimate.Regroup(obs)
	cfg := estimate.DefaultGuarantee()
	if _, err := estimate.MoEStratified(query.Sum, strata, estimate.SampleSize, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := estimate.EstimateStratified(query.Sum, strata, estimate.SampleSize); err != nil {
			panic(err)
		}
		if _, err := estimate.MoEStratified(query.Sum, strata, estimate.SampleSize, cfg); err != nil {
			panic(err)
		}
	})
	if allocs > mergeAllocBudget {
		t.Fatalf("stratified merge allocates %.1f/op, budget %d", allocs, mergeAllocBudget)
	}
}

func TestAllocBudgetMultiAccumulation(t *testing.T) {
	g := kgtest.Figure1()
	price := g.AttrByName("price")
	x, ctx, release := warmExecution(t,
		termSpec{fn: query.Count, attr: kg.InvalidAttr},
		termSpec{fn: query.Sum, attr: price},
		termSpec{fn: query.Avg, attr: price})
	defer release()
	if err := warmRound(x, ctx); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := warmRound(x, ctx); err != nil {
			panic(err)
		}
	})
	if allocs > multiAccumBudget {
		t.Fatalf("multi-target accumulation allocates %.1f/op, budget %d", allocs, multiAccumBudget)
	}
}

// chainPrepareAllocBudget covers compiling a chain query whose assembled
// answer space is resident: validation and decomposition of the query
// graph, the plan key, one cache lookup, the plan and its bindings — nothing
// that grows with the chain. Assembling it from resident stages allocated
// 175 times here; measured 42.
const chainPrepareAllocBudget = 50

func TestAllocBudgetWarmChainPrepare(t *testing.T) {
	ds, err := datagen.Generate(datagen.TinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds.Graph, ds.Model, Options{Tau: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := ds.QueriesByShape(query.ShapeChain)[0].Agg
	if _, err := e.Prepare(ctx, q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := e.Prepare(ctx, q); err != nil {
			panic(err)
		}
	})
	if allocs > chainPrepareAllocBudget {
		t.Fatalf("warm chain Prepare allocates %.0f/op, budget %d", allocs, chainPrepareAllocBudget)
	}
}

// coldPrepareAllocBudget covers compiling a one-hop query with nothing
// cached: one stage build (scope, weighted degrees and π in the walker's
// recycled arena; exact-size answer arrays and the π map copied out) plus
// the execution's own answer space and its alias table. The map-indexed CSR
// build allocated 168 times here; measured 81, then 72, and 65 once the
// stage stopped building an alias table it threw away.
const coldPrepareAllocBudget = 110

func TestAllocBudgetColdOneHopPrepare(t *testing.T) {
	p, _ := datagen.ProfileByName("dbpedia-sim")
	ds, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds.Graph, ds.Model, Options{Tau: 0.85, CacheMaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := ds.QueriesByShape(query.ShapeSimple)[0].Agg
	if _, err := e.Prepare(ctx, q); err != nil { // primes the walker arena
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.Prepare(ctx, q); err != nil {
			panic(err)
		}
	})
	if allocs > coldPrepareAllocBudget {
		t.Fatalf("cold one-hop Prepare allocates %.0f/op, budget %d", allocs, coldPrepareAllocBudget)
	}
}

// warmQueryAllocBudget covers one whole execution of a warm one-hop plan
// (Prepared.Query on dbpedia-sim, three rounds, ≈ 8 200 draws over 780
// candidates, every verdict already shared on the plan's space): the
// Execution, the rounds and the Result. With the verdicts in the stage's
// table only, every round went through the batch oracle and its verdict
// map: 40 allocations. A math/rand generator per execution (its 4.9 KB
// source included) made it 10 allocations and 6 530 B; on the Splitmix
// draw stream, held in the Execution, it is 7 and 1 080 B.
const warmQueryAllocBudget = 7

func TestAllocBudgetWarmOneHopQuery(t *testing.T) {
	ds, err := datagen.Generate(datagen.DBpediaSim())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds.Graph, ds.Model, Options{Tau: 0.85, ErrorBound: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p, err := e.Prepare(ctx, ds.QueriesByShape(query.ShapeSimple)[0].Agg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Query(ctx); err != nil { // primes the scratch and the stage's verdicts
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := p.Query(ctx); err != nil {
			panic(err)
		}
	})
	if allocs > warmQueryAllocBudget {
		t.Fatalf("warm one-hop Query allocates %.0f/op, budget %d", allocs, warmQueryAllocBudget)
	}
}

// warmChainQueryAllocBudget covers a whole one-shot chain query on a warm
// engine (Engine.Query on dbpedia-sim: the compile of the budget above, as a
// plan hit, then an execution that validates nothing), the path of a repeat
// /v1/query. Measured 51; 1 363 when the space was reassembled from ≈ 190
// resident stages per request and every round's verdicts went through maps.
const warmChainQueryAllocBudget = 60

func TestAllocBudgetWarmChainQuery(t *testing.T) {
	ds, err := datagen.Generate(datagen.DBpediaSim())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds.Graph, ds.Model, Options{Tau: 0.85, ErrorBound: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := ds.QueriesByShape(query.ShapeChain)[0].Agg
	if _, err := e.Query(ctx, q); err != nil { // compiles, and settles the verdicts
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.Query(ctx, q); err != nil {
			panic(err)
		}
	})
	if allocs > warmChainQueryAllocBudget {
		t.Fatalf("warm chain Query allocates %.0f/op, budget %d", allocs, warmChainQueryAllocBudget)
	}
}

// drainScratch empties the free list so that a test sees only its own puts.
func drainScratch() {
	for {
		select {
		case <-scratchFree:
		default:
			return
		}
	}
}

// The free list keeps a scratch across collections (a sync.Pool, emptied by
// every second one, handed a cold-compile workload an empty scratch on most
// calls) and refuses one whose draw list grew past scratchKeepDraws or whose
// draw list and term table hold more than scratchKeepBytes.
func TestScratchFreeListSurvivesGC(t *testing.T) {
	drainScratch()
	defer drainScratch()
	s := &execScratch{drawIdx: make([]int, 0, 1024), tab: termTable{own: termCols{val: make([]float64, 0, 4096)}}}
	putScratch(s)
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if got := getScratch(); got != s {
		t.Fatal("the scratch did not survive three collections")
	}
	putScratch(&execScratch{drawIdx: make([]int, 0, scratchKeepDraws+1)})
	if got := getScratch(); cap(got.drawIdx) != 0 {
		t.Fatalf("a scratch with an oversized draw list (cap %d) was retained", cap(got.drawIdx))
	}
	// Candidates × specs: a table no draw-list bound would have caught.
	putScratch(&execScratch{tab: termTable{own: termCols{val: make([]float64, scratchKeepBytes/8+1)}}})
	if got := getScratch(); got.tab.heldBytes() != 0 {
		t.Fatalf("a scratch holding a %d-byte term table was retained", got.tab.heldBytes())
	}
}

// A one-shot query borrows its draw list and term table from the scratch
// and leaves them there; an interactive execution owns both. One-shot
// queries and a QueryMulti run between two Refine calls of an interactive
// execution must leave its sample intact.
func TestOneShotDrawListDoesNotAliasInteractive(t *testing.T) {
	drainScratch()
	defer drainScratch()
	e, _ := figure1Engine(t, Options{Seed: 21})
	ctx := context.Background()
	refineTwice := func(between func()) *Result {
		x, err := e.Start(ctx, avgPriceQuery())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.Refine(ctx, 0.10); err != nil {
			t.Fatal(err)
		}
		between()
		res, err := x.Refine(ctx, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := refineTwice(func() {})
	got := refineTwice(func() {
		res, err := e.Query(ctx, countQuery(), WithSeed(99), WithErrorBound(0.01))
		if err != nil {
			t.Fatal(err)
		}
		select {
		case s := <-scratchFree:
			if cap(s.drawIdx) < res.SampleSize {
				t.Errorf("the one-shot draw list (%d draws) did not return to the scratch (cap %d)", res.SampleSize, cap(s.drawIdx))
			}
			if cap(s.tab.state) < res.Candidates {
				t.Errorf("the one-shot term table (%d candidates) did not return to the scratch (cap %d)", res.Candidates, cap(s.tab.state))
			}
			putScratch(s)
		default:
			t.Error("no scratch on the free list after a query")
		}
		// The same scratch, now with other specs, another seed and a wider
		// table: whatever it writes must land in its own arrays.
		if _, err := e.QueryMulti(ctx, avgPriceQuery(), threeSpecs(), WithSeed(5), WithErrorBound(0.01)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Query(ctx, avgPriceQuery(), WithSeed(7), WithErrorBound(0.01)); err != nil {
			t.Fatal(err)
		}
	})
	if got.Estimate != want.Estimate || got.MoE != want.MoE || got.SampleSize != want.SampleSize ||
		got.Correct != want.Correct || got.Distinct != want.Distinct || !slices.Equal(got.Rounds, want.Rounds) {
		t.Fatalf("interactive refinement disturbed by one-shot queries:\n got %+v\nwant %+v", got, want)
	}
}
