package core

import (
	"context"
	"runtime"
	"testing"

	"kgaq/internal/datagen"
	"kgaq/internal/estimate"
	"kgaq/internal/kg"
	"kgaq/internal/query"
)

// Per-stage allocation budgets for the draw→validate→estimate→merge hot
// loop, measured on the warm path: scratch attached, pools primed, every
// current draw's verdict cached. These are the numbers the PR 9 reclamation
// bought — a budget increase is a performance regression and needs the same
// scrutiny as a latency one.
const (
	// drawAllocBudget covers one alias-table draw batch into reused scratch
	// (answerSpace.drawInto and shardedSpace.drawInto).
	drawAllocBudget = 0
	// validateAllocBudget covers the batch-validation entry when every draw
	// already has a verdict — the steady-state round where validation is a
	// cache sweep (answerSpace.prevalidate, shardedSpace.prevalidate).
	validateAllocBudget = 0
	// estimateAllocBudget covers one warm round's observation rebuild plus
	// its point estimate and margin (observations + roundEval.estimate/moe):
	// the observations live in pooled scratch and the margin's one-stratum
	// view of them on the stack.
	estimateAllocBudget = 0
	// mergeAllocBudget covers the stratified Horvitz–Thompson merge of a
	// sharded round (Regroup excluded — the engine merges via
	// MoEStratified/EstimateStratified over per-round strata, which reduce
	// each stratum to moments held in registers).
	mergeAllocBudget = 0
	// multiAccumBudget covers one warm multi-target accumulation round: the
	// shared-draw observation list with its flat Values/Has arena plus one
	// projection (multiObservationList + ProjectInto).
	multiAccumBudget = 0
)

// warmExecution prepares a figure-1 COUNT execution with scratch held, an
// initial sample drawn and every draw's verdict cached, so the per-stage
// benchmarks below measure exactly the steady-state round.
func warmExecution(t *testing.T) (*Execution, context.Context, func()) {
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
	x.firstSample()
	ctx := context.Background()
	x.prevalidateDraws(ctx)
	x.observations(ctx) // prime obs scratch and every lazy verdict
	return x, ctx, release
}

func TestAllocBudgetDraw(t *testing.T) {
	x, _, release := warmExecution(t)
	defer release()
	const k = 128
	x.scr.draws = x.sp.drawInto(x.scr.draws[:0], x.rng, k) // size the batch buffer
	allocs := testing.AllocsPerRun(200, func() {
		x.scr.draws = x.sp.drawInto(x.scr.draws[:0], x.rng, k)
	})
	if allocs > drawAllocBudget {
		t.Fatalf("draw stage allocates %.1f/op, budget %d", allocs, drawAllocBudget)
	}
}

func TestAllocBudgetValidateCached(t *testing.T) {
	x, ctx, release := warmExecution(t)
	defer release()
	allocs := testing.AllocsPerRun(200, func() {
		x.sp.prevalidate(ctx, x.drawIdx, x.scr)
	})
	if allocs > validateAllocBudget {
		t.Fatalf("validate stage (cached) allocates %.1f/op, budget %d", allocs, validateAllocBudget)
	}
}

func TestAllocBudgetEstimate(t *testing.T) {
	x, ctx, release := warmExecution(t)
	defer release()
	round := func() error {
		re := roundEval{x: x, fn: query.Count, obs: x.observations(ctx)}
		if _, err := re.estimate(); err != nil {
			return err
		}
		_, err := re.moe()
		return err
	}
	if err := round(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := round(); err != nil {
			panic(err)
		}
	})
	if allocs > estimateAllocBudget {
		t.Fatalf("estimate stage allocates %.1f/op, budget %d", allocs, estimateAllocBudget)
	}
}

func TestAllocBudgetStratifiedMerge(t *testing.T) {
	// Synthetic 4-stratum sample exercising the pooled merge exactly as a
	// sharded guarantee round does.
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
	x, ctx, release := warmExecution(t)
	defer release()
	attrs := []kg.AttrID{kg.InvalidAttr, kg.InvalidAttr, kg.InvalidAttr}
	mobs, _ := x.multiObservationList(ctx, attrs)
	x.scr.proj = estimate.ProjectInto(x.scr.proj[:0], mobs, 0, query.Count)
	allocs := testing.AllocsPerRun(100, func() {
		mobs, _ := x.multiObservationList(ctx, attrs)
		x.scr.proj = estimate.ProjectInto(x.scr.proj[:0], mobs, 0, query.Count)
	})
	if allocs > multiAccumBudget {
		t.Fatalf("multi-target accumulation allocates %.1f/op, budget %d", allocs, multiAccumBudget)
	}
}

// chainPrepareAllocBudget covers compiling a chain query whose stages are
// all resident: one CSR answer → intermediates index and one π map, no
// per-intermediate distribution copy, no goroutine. The parent allocated 359
// times here and a per-answer slice index 687; measured 175.
const chainPrepareAllocBudget = 200

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
// recycled arena; exact-size answer arrays, their alias table and the π map
// copied out) plus the execution's own answer space. The map-indexed CSR
// build allocated 168 times here; measured 81.
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
// calls) and refuses one grown past scratchKeepDraws.
func TestScratchFreeListSurvivesGC(t *testing.T) {
	drainScratch()
	defer drainScratch()
	s := &execScratch{obs: make([]estimate.Observation, 0, 1024)}
	putScratch(s)
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if got := getScratch(); got != s {
		t.Fatal("the scratch did not survive three collections")
	}
	putScratch(&execScratch{obs: make([]estimate.Observation, 0, scratchKeepDraws+1)})
	if got := getScratch(); cap(got.obs) != 0 {
		t.Fatalf("an oversized scratch (cap %d) was retained", cap(got.obs))
	}
}

// A one-shot query borrows its draw list from the scratch and leaves it
// there; an interactive execution owns its list. A one-shot query run
// between two Refine calls of an interactive execution must not disturb it.
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
			putScratch(s)
		default:
			t.Error("no scratch on the free list after a query")
		}
	})
	if got.Estimate != want.Estimate || got.MoE != want.MoE || got.SampleSize != want.SampleSize || got.Correct != want.Correct {
		t.Fatalf("interactive refinement disturbed by a one-shot query:\n got %+v\nwant %+v", got, want)
	}
}
