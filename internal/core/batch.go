package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"kgaq/internal/query"
)

// BatchResult pairs one batch query with its outcome; the slice returned by
// QueryBatch is index-aligned with the input queries.
type BatchResult struct {
	Query  *query.Aggregate
	Result *Result
	Err    error
}

// sharedPlan is one plan key's build slot: the first worker to reach it
// compiles the plan, every later worker with the same key reuses the
// compiled space.
type sharedPlan struct {
	once sync.Once
	p    *Prepared
	err  error
}

// QueryBatch executes the queries concurrently over a bounded worker pool
// (WithParallelism, default GOMAXPROCS) and returns per-query outcomes in
// input order. Options apply to every query in the batch; an OnRound
// callback is serialized across the pool, so it observes one round at a
// time even while queries run in parallel. Cancelling ctx stops
// dispatching new queries — never-started ones report ErrInterrupted with
// a nil Result — and interrupts the in-flight ones, which report
// ErrInterrupted alongside their partial Results. QueryBatch itself never
// returns an aggregate error: inspect each BatchResult.
//
// Queries whose graphs compile to the same plan key (identical decomposed
// paths under identical plan knobs — e.g. COUNT, SUM and AVG over one
// query graph) share a single answer-space build: the first worker to
// reach the key compiles it, the rest rebind their aggregates onto the
// compiled space. The build time lands on the building query's
// Result.Times; the sharing queries report only their own sampling work.
func (e *Engine) QueryBatch(ctx context.Context, qs []*query.Aggregate, opts ...QueryOption) []BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]BatchResult, len(qs))
	if len(qs) == 0 {
		return out
	}
	cfg := e.queryConfig(opts)
	if cfg.onRound != nil {
		// The workers would otherwise invoke the user's callback from many
		// goroutines at once — an invisible data-race trap.
		var mu sync.Mutex
		orig := cfg.onRound
		cfg.onRound = func(r Round) {
			mu.Lock()
			defer mu.Unlock()
			orig(r)
		}
	}
	workers := cfg.parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(qs) {
		workers = len(qs)
	}

	var plansMu sync.Mutex
	plans := map[string]*sharedPlan{}
	run := func(i int) (*Result, error) {
		q := qs[i]
		if cfg.opts.Sampler != SamplerSemantic {
			x, err := e.startTopology(ctx, q, cfg)
			if err != nil {
				return nil, err
			}
			x.oneShot = true
			return x.Refine(ctx, 0)
		}
		if err := q.Validate(); err != nil {
			return nil, err
		}
		paths, err := q.Q.Decompose()
		if err != nil {
			return nil, err
		}
		key := planKey(paths, cfg.opts)
		plansMu.Lock()
		slot, ok := plans[key]
		if !ok {
			slot = &sharedPlan{}
			plans[key] = slot
		}
		plansMu.Unlock()
		var clk stepClock
		building := false
		slot.once.Do(func() {
			building = true
			clk.edge(nil)
			slot.p, slot.err = e.prepare(ctx, q, cfg)
		})
		if slot.err != nil {
			// The key's build failed (resolution, convergence); the failure
			// applies to every query with this plan key equally.
			return nil, slot.err
		}
		p := slot.p
		if !building {
			if p, err = e.prepareShared(q, paths, cfg, slot.p); err != nil {
				return nil, err
			}
		}
		x, err := p.Start(ctx)
		if err != nil {
			return nil, err
		}
		if building {
			x.clk = clk
			x.clk.edge(&x.clk.times.Sampling)
		}
		x.oneShot = true
		return x.Refine(ctx, 0)
	}

	// A panic in one query must not take the worker (and with it the whole
	// process) down: each query is guarded individually, so a poisoned
	// query yields its own ErrInternal and the batch completes.
	runSafe := func(i int) (res *Result, err error) {
		defer catchPanics(qs[i], &err)
		return run(i)
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				res, err := runSafe(i)
				out[i] = BatchResult{Query: qs[i], Result: res, Err: err}
			}
		}()
	}
dispatch:
	for i := range qs {
		select {
		case work <- i:
		case <-ctx.Done():
			for j := i; j < len(qs); j++ {
				out[j] = BatchResult{Query: qs[j],
					Err: fmt.Errorf("core: %w before dispatch: %w", ErrInterrupted, ctx.Err())}
			}
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	return out
}
