package federate_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"kgaq/internal/core"
	"kgaq/internal/estimate"
	"kgaq/internal/federate"
	"kgaq/internal/obs"
	"kgaq/internal/query"
)

// memberTap fronts one member: it counts the sample RPCs that asked for a
// pilot, and while down fails every sample RPC as a dead member does.
type memberTap struct {
	inner  http.Handler
	down   atomic.Bool
	pilots atomic.Int64
}

func (m *memberTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == federate.SamplePath {
		if m.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var req federate.SampleRequest
		if json.Unmarshal(body, &req) == nil && req.Pilot {
			m.pilots.Add(1)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	m.inner.ServeHTTP(w, r)
}

// tappedFederation is the buildSplit federation of TestFederatedMatchesUnsplitTwin
// with a tap in front of every member.
func tappedFederation(t *testing.T, eb float64) (*federate.Coordinator, []*memberTap, float64) {
	t.Helper()
	graphs, _, sum := buildSplit(3, 240)
	taps := make([]*memberTap, len(graphs))
	members := startFederation(t, graphs, func(j int, h http.Handler) http.Handler {
		taps[j] = &memberTap{inner: h}
		return taps[j]
	})
	coord, err := federate.New(fastConfig(members), core.Options{ErrorBound: eb, Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return coord, taps, sum
}

// tracedQuery runs q under seed inside a request trace and returns the
// result with the attributes the coordinator stamped on the trace.
func tracedQuery(t *testing.T, coord *federate.Coordinator, q *query.Aggregate, seed int64) (*core.Result, map[string]any) {
	t.Helper()
	tr := obs.NewTracer(1, 1)
	trace := tr.Start("query", q.String())
	res, err := coord.Query(obs.WithTrace(context.Background(), trace), q, core.WithSeed(seed))
	if err != nil {
		t.Fatalf("%v seed %d: %v", q.Func, seed, err)
	}
	tr.Finish(trace)
	return res, tr.Lookup(trace.ID()).Attrs
}

func pilots(taps []*memberTap) int64 {
	n := int64(0)
	for _, m := range taps {
		n += m.pilots.Load()
	}
	return n
}

// TestPriorSizesRepeatQuery: the second execution of a query, under a new
// seed, skips the pilot. Its first scatter is Eq. 12's total on the first
// execution's final moments (± one draw per member: each member rounds its
// share and floors it at two), it takes at most a top-up after that, and its
// interval still contains the truth. Each execution's request trace says how
// it was sized, how many rounds it took and how many draws it made.
func TestPriorSizesRepeatQuery(t *testing.T) {
	const eb = 0.05
	coord, taps, sum := tappedFederation(t, eb)
	for _, tc := range []struct {
		fn    query.AggFunc
		attr  string
		truth float64
	}{
		{query.Count, "", 240},
		{query.Sum, "price", sum},
		{query.Avg, "price", sum / 240},
	} {
		q := query.Simple(tc.fn, tc.attr, "Root_0", "Country", "product", "Automobile")
		first, firstTrace := tracedQuery(t, coord, q, 11)
		before := pilots(taps)
		second, secondTrace := tracedQuery(t, coord, q, 12)
		if got := pilots(taps) - before; got != 0 {
			t.Errorf("%v: the repeat sent %d pilot RPCs, want none", tc.fn, got)
		}
		for _, c := range []struct {
			res    *core.Result
			attrs  map[string]any
			sizing string
		}{{first, firstTrace, "pilot"}, {second, secondTrace, "prior"}} {
			if c.attrs["sizing"] != c.sizing || c.attrs["rounds"] != len(c.res.Rounds) || c.attrs["sample_size"] != c.res.SampleSize {
				t.Errorf("%v: trace attrs %v, want sizing %s, rounds %d, sample_size %d",
					tc.fn, c.attrs, c.sizing, len(c.res.Rounds), c.res.SampleSize)
			}
		}
		want := estimate.TotalSampleSize(first.SampleSize, first.MoE, first.Estimate, eb)
		want = min(max(want, 3*30), 20000)
		if got := second.Rounds[0].SampleSize; got < want || got > want+3 {
			t.Errorf("%v: first scatter of the repeat drew %d, want Eq. 12's %d (+ ≤ 3) from %d draws at ε %.4g",
				tc.fn, got, want, first.SampleSize, first.MoE)
		}
		if len(second.Rounds) > 2 {
			t.Errorf("%v: the repeat took %d rounds (first execution: %d), want ≤ 2", tc.fn, len(second.Rounds), len(first.Rounds))
		}
		if !second.Converged || math.Abs(second.Estimate-tc.truth) > second.MoE+1e-9*tc.truth {
			t.Errorf("%v: repeat %.3f ± %.3f (converged %v) misses the truth %.3f",
				tc.fn, second.Estimate, second.MoE, second.Converged, tc.truth)
		}
		t.Logf("%v: first %d rounds / %d draws, repeat %d rounds / %d draws (first scatter %d)",
			tc.fn, len(first.Rounds), first.SampleSize, len(second.Rounds), second.SampleSize, second.Rounds[0].SampleSize)
	}
}

// TestNoPriorAfterAPartialExecution: an execution that froze or dropped a
// member, or was interrupted, leaves no prior behind, so the next execution
// of the query runs a pilot again.
func TestNoPriorAfterAPartialExecution(t *testing.T) {
	degrade := core.WithDegradation(core.Degradation{MaxErrorBound: 0.5})
	for _, tc := range []struct {
		name string
		// run executes the query so that it ends partial.
		run func(t *testing.T, coord *federate.Coordinator, taps []*memberTap, q *query.Aggregate)
	}{
		{"frozen", func(t *testing.T, coord *federate.Coordinator, taps []*memberTap, q *query.Aggregate) {
			// The member dies once it has answered the first round.
			res, err := coord.Query(context.Background(), q, degrade, core.OnRound(func(core.Round) { taps[2].down.Store(true) }))
			if err != nil || !res.Degraded || res.Strata != 3 {
				t.Fatalf("want a degraded answer with a frozen stratum, got %+v, %v", res, err)
			}
		}},
		{"dropped", func(t *testing.T, coord *federate.Coordinator, taps []*memberTap, q *query.Aggregate) {
			taps[1].down.Store(true)
			res, err := coord.Query(context.Background(), q, degrade)
			if err != nil || !res.Degraded || res.Strata != 2 {
				t.Fatalf("want a degraded answer with a dropped stratum, got %+v, %v", res, err)
			}
		}},
		{"interrupted", func(t *testing.T, coord *federate.Coordinator, _ []*memberTap, q *query.Aggregate) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if _, err := coord.Query(ctx, q, core.OnRound(func(core.Round) { cancel() })); !errors.Is(err, core.ErrInterrupted) {
				t.Fatalf("want ErrInterrupted, got %v", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, taps, _ := tappedFederation(t, 0.02)
			q := query.Simple(query.Sum, "price", "Root_0", "Country", "product", "Automobile")
			tc.run(t, coord, taps, q)
			for _, m := range taps {
				m.down.Store(false)
			}
			before := pilots(taps)
			if _, err := coord.Query(context.Background(), q, core.WithSeed(99)); err != nil {
				t.Fatalf("next execution: %v", err)
			}
			if got := pilots(taps) - before; got != 3 {
				t.Errorf("the next execution sent %d pilot RPCs, want one per member", got)
			}
		})
	}
}

// TestPriorKeyedByBoundAndTau: a prior sizes only the query it was measured
// for — another error bound or τ runs its own pilot — and the seed is not
// part of the key.
func TestPriorKeyedByBoundAndTau(t *testing.T) {
	coord, taps, _ := tappedFederation(t, 0.05)
	q := query.Simple(query.Count, "", "Root_0", "Country", "product", "Automobile")
	for _, step := range []struct {
		name  string
		opts  []core.QueryOption
		pilot bool
	}{
		{"first execution", nil, true},
		{"new seed", []core.QueryOption{core.WithSeed(5)}, false},
		{"another eb", []core.QueryOption{core.WithErrorBound(0.1)}, true},
		{"another tau", []core.QueryOption{core.WithTau(0.9)}, true},
		{"the first key again", []core.QueryOption{core.WithSeed(6)}, false},
	} {
		before := pilots(taps)
		if _, err := coord.Query(context.Background(), q, step.opts...); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if got := pilots(taps) - before; (got > 0) != step.pilot {
			t.Errorf("%s: %d pilot RPCs, want a pilot: %v", step.name, got, step.pilot)
		}
	}
}

// TestPriorConcurrentQueries: queries racing on one coordinator read and
// replace the same priors; every answer still contains its truth.
func TestPriorConcurrentQueries(t *testing.T) {
	coord, _, sum := tappedFederation(t, 0.1)
	qs := []*query.Aggregate{
		query.Simple(query.Count, "", "Root_0", "Country", "product", "Automobile"),
		query.Simple(query.Sum, "price", "Root_0", "Country", "product", "Automobile"),
		query.Simple(query.Avg, "price", "Root_0", "Country", "product", "Automobile"),
	}
	truths := []float64{240, sum, sum / 240}
	var wg sync.WaitGroup
	var misses atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				i := (g + k) % len(qs)
				res, err := coord.Query(context.Background(), qs[i], core.WithSeed(int64(1+g*100+k)))
				if err != nil {
					t.Errorf("goroutine %d query %d: %v", g, k, err)
					return
				}
				if math.Abs(res.Estimate-truths[i]) > res.MoE+1e-9*truths[i] {
					misses.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	// 48 intervals at 95 %: more than 8 misses is a broken estimator, not
	// chance.
	if n := misses.Load(); n > 8 {
		t.Errorf("%d of 48 concurrent intervals miss their truth", n)
	}
}
