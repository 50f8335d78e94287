package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"kgaq/internal/datagen"
	"kgaq/internal/query"
)

// TestStepClockChargesEveryInterval times executions on a fake clock that
// advances one microsecond per reading, so every interval between two
// readings is 1 µs and each step's time counts the intervals charged to it.
// Each path is run with and without an OnRound callback. A sampled round
// reads the clock three times, plus once after its callback, whatever its
// spec and group count: at its sampling, estimation and guarantee edges.
// The steps add up to the call's wall time less its callbacks, the one-shot
// compile included, and the trace carries the same times.
func TestStepClockChargesEveryInterval(t *testing.T) {
	p := datagen.TinyProfile()
	ds, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// MinCorrect 1: no round is gated, so every round reports an interval;
	// MinSample 120: the grouped query needs several rounds.
	e, err := NewEngine(ds.Graph, ds.Model, Options{ErrorBound: 0.02, Tau: p.OptimalTau, Seed: 3, MinCorrect: 1, MinSample: 120})
	if err != nil {
		t.Fatal(err)
	}
	var simple *query.Aggregate
	for _, gq := range ds.QueriesByCategory("simple") {
		if simple == nil && gq.Agg.Attr != "" {
			simple = gq.Agg
		}
	}
	grouped := ds.QueriesByCategory("groupby")[0].Agg
	specs := []AggSpec{{Func: query.Count}, {Func: query.Sum, Attr: simple.Attr}, {Func: query.Avg, Attr: simple.Attr}}

	var reads atomic.Int64
	epoch := time.Unix(0, 0)
	now = func() time.Time { return epoch.Add(time.Duration(reads.Add(1)) * time.Microsecond) }
	defer func() { now = time.Now }()

	// run executes one path and returns its times and evaluated rounds.
	type run func(ctx context.Context, opts ...QueryOption) (StepTimes, int)
	prepared := func(q *query.Aggregate) *Prepared {
		pl, err := e.Prepare(context.Background(), q, withoutCensus())
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	result := func(res *Result, err error) (StepTimes, int) {
		if err != nil {
			t.Fatal(err)
		}
		return res.Times, len(res.Rounds)
	}
	cases := []struct {
		name string
		run  run
		// Every round draws its sample but two: the topology sampler's
		// first, which its build drew, and a census. oneShot: the call
		// compiles its plan, which the step clock charges to Sampling.
		built, census, oneShot bool
	}{
		{"Prepared.Query", func(ctx context.Context, opts ...QueryOption) (StepTimes, int) {
			return result(prepared(simple).Query(ctx, opts...))
		}, false, false, false},
		{"Prepared.QueryMulti", func(ctx context.Context, opts ...QueryOption) (StepTimes, int) {
			res, err := prepared(simple).QueryMulti(ctx, specs, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return res.Times, res.Rounds
		}, false, false, false},
		{"grouped Refine", func(ctx context.Context, opts ...QueryOption) (StepTimes, int) {
			x, err := prepared(grouped).Start(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return result(x.Refine(ctx, 0))
		}, false, false, false},
		{"census", func(ctx context.Context, opts ...QueryOption) (StepTimes, int) {
			pl, err := e.Prepare(ctx, simple)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pl.Query(ctx, opts...)
			if err == nil && !res.Exact {
				t.Fatalf("%v: no census", simple)
			}
			return result(res, err)
		}, false, true, false},
		{"Engine.Query", func(ctx context.Context, opts ...QueryOption) (StepTimes, int) {
			return result(e.Query(ctx, simple, append(opts, withoutCensus())...))
		}, false, false, true},
		{"QueryBatch", func(ctx context.Context, opts ...QueryOption) (StepTimes, int) {
			out := e.QueryBatch(ctx, []*query.Aggregate{simple}, append(opts, withoutCensus())...)
			return result(out[0].Result, out[0].Err)
		}, false, false, true},
		{"topology Engine.Query", func(ctx context.Context, opts ...QueryOption) (StepTimes, int) {
			return result(e.Query(ctx, simple, append(opts, WithSampler(SamplerCNARW))...))
		}, true, false, true},
	}
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	for _, c := range cases {
		for _, streamed := range []bool{false, true} {
			var opts []QueryOption
			calls := 0
			if streamed {
				opts = append(opts, OnRound(func(Round) { calls++ }))
			}
			var times StepTimes
			var rounds int
			var first, last int64
			tr := traced(func(ctx context.Context) {
				first = reads.Load() + 1
				times, rounds = c.run(ctx, opts...)
				last = reads.Load()
			})
			name := c.name
			if streamed {
				name += " with OnRound"
			}
			if rounds == 0 || len(tr.Rounds) != rounds {
				t.Fatalf("%s: %d rounds, %d traced", name, rounds, len(tr.Rounds))
			}
			if streamed && calls != rounds {
				t.Fatalf("%s: %d callbacks over %d rounds", name, calls, rounds)
			}
			oneShot, drawn := b2i(c.oneShot), rounds-b2i(c.built)-b2i(c.census)
			// A call reads at its start and stop, a one-shot call around its
			// compile too; a round reads at its draws' sampling edge, if it
			// drew, and at its estimation and guarantee edges.
			if got, want := int(last-first+1), 2+2*oneShot+drawn+2*rounds+calls; got != want {
				t.Errorf("%s: %d readings over %d rounds, want %d", name, got, rounds, want)
			}
			want := StepTimes{
				Sampling:   us(drawn + oneShot),
				Estimation: us(rounds),
				Guarantee:  us(rounds + 1), // every round's read-out, then the stop
			}
			if times != want {
				t.Errorf("%s: times %+v over %d rounds, want %+v", name, times, rounds, want)
			}
			// The one-shot compile's edge and the refinement's start are two
			// readings: the microsecond between them is no step's.
			if span := us(int(last-first) - calls - oneShot); times.Total() != span {
				t.Errorf("%s: steps add up to %v, want the %v between the first and last reading less callbacks", name, times.Total(), span)
			}
			for key, d := range map[string]time.Duration{"sampling_ms": times.Sampling, "estimation_ms": times.Estimation, "guarantee_ms": times.Guarantee} {
				if got := tr.Attrs[key]; got != millis(d) {
					t.Errorf("%s: trace %s = %v, want %v", name, key, got, millis(d))
				}
			}
			// A round's cost runs from the reading it opened at — after the
			// previous round's callback — to its guarantee edge: its draws,
			// estimation and read-out.
			for i, r := range tr.Rounds {
				want := us(3)
				if c.built && i == 0 || c.census && i == rounds-1 {
					want = us(2)
				}
				if r.ElapsedMS != millis(want) {
					t.Errorf("%s: round %d took %vms, want %v", name, i, r.ElapsedMS, want)
				}
			}
		}
	}

	// A federated member round reports no step times, so a warm
	// FederateSample reads the clock at most once: its compile is a plan
	// lookup, not a clocked step. The first call warms the plan.
	var first int64
	for range 2 {
		first = reads.Load()
		if _, err := e.FederateSample(context.Background(), simple, 50, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := reads.Load() - first; got > 1 {
		t.Errorf("warm FederateSample: %d readings, want at most 1", got)
	}
}
