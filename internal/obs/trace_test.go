package obs

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Span("x").End()
	tr.Add("c", 1)
	tr.SetAttr("k", "v")
	tr.Round(RoundTelemetry{})
	if tr.ID() != "" || tr.Counter("c") != 0 {
		t.Error("nil trace should be inert")
	}
	var tracer *Tracer
	if tracer.Start("query", "") != nil {
		t.Error("nil tracer should return nil traces")
	}
	tracer.Finish(nil)
}

func TestTraceLifecycle(t *testing.T) {
	tracer := NewTracer(4, 1)
	tr := tracer.Start("query", "COUNT(x)")
	if tr == nil {
		t.Fatal("sample-every-1 tracer returned nil trace")
	}
	tr.Span("walk_converge").EndWalk(2798)
	tr.Add("draws", 10)
	tr.Add("draws", 5)
	tr.SetAttr("converged", true)
	tr.SetAttr("bad_float", math.Inf(1))
	tr.Round(RoundTelemetry{Round: 1, Draws: 10, AchievedEB: Float(0.5)})
	tr.Round(RoundTelemetry{Round: 2, Draws: 5, AchievedEB: Float(0.01)})
	tracer.Finish(tr)
	tracer.Finish(tr) // idempotent

	d := tracer.Lookup(tr.ID())
	if d == nil {
		t.Fatal("finished trace not retained")
	}
	if !d.Finished || d.Kind != "query" || d.Target != "COUNT(x)" {
		t.Errorf("bad export: %+v", d)
	}
	if len(d.Spans) != 1 || d.Spans[0].ScopeNodes != 2798 {
		t.Errorf("spans = %+v, want one walk_converge with its scope", d.Spans)
	}
	if d.Counters["draws"] != 15 {
		t.Errorf("counters = %v", d.Counters)
	}
	if len(d.Rounds) != 2 || *d.Rounds[1].AchievedEB != 0.01 {
		t.Errorf("rounds = %+v", d.Rounds)
	}
	if d.Attrs["bad_float"] != nil {
		t.Errorf("non-finite attr should export as nil, got %v", d.Attrs["bad_float"])
	}
	if _, err := json.Marshal(d); err != nil {
		t.Fatalf("trace export must marshal: %v", err)
	}
	sums := tracer.Summaries()
	if len(sums) != 1 || sums[0].ID != tr.ID() || sums[0].Rounds != 2 {
		t.Errorf("summaries = %+v", sums)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tracer := NewTracer(2, 1)
	var ids []string
	for i := 0; i < 3; i++ {
		tr := tracer.Start("query", "")
		ids = append(ids, tr.ID())
		tracer.Finish(tr)
	}
	if tracer.Lookup(ids[0]) != nil {
		t.Error("oldest trace should be evicted")
	}
	if tracer.Lookup(ids[1]) == nil || tracer.Lookup(ids[2]) == nil {
		t.Error("recent traces should be retained")
	}
	if sums := tracer.Summaries(); len(sums) != 2 || sums[0].ID != ids[2] {
		t.Errorf("summaries should be newest-first within capacity: %+v", sums)
	}
}

func TestTracerSampling(t *testing.T) {
	tracer := NewTracer(16, 3)
	kept := 0
	for i := 0; i < 9; i++ {
		if tr := tracer.Start("query", ""); tr != nil {
			kept++
			tracer.Finish(tr)
		}
	}
	if kept != 3 {
		t.Errorf("1-in-3 sampling kept %d of 9", kept)
	}
	disabled := NewTracer(16, 0)
	if disabled.Start("query", "") != nil {
		t.Error("sample=0 should disable tracing")
	}
}

func TestContextPropagation(t *testing.T) {
	tracer := NewTracer(4, 1)
	tr := tracer.Start("query", "")
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Error("TraceFrom should return the attached trace")
	}
	if TraceFrom(context.Background()) != nil {
		t.Error("TraceFrom on a bare context should be nil")
	}
	if got := WithTrace(context.Background(), nil); TraceFrom(got) != nil {
		t.Error("WithTrace(nil) should keep the context bare")
	}
}

func TestTraceConcurrency(t *testing.T) {
	tracer := NewTracer(8, 1)
	tr := tracer.Start("query", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Add("draws", 1)
				tr.Span("s").End()
				tr.Round(RoundTelemetry{Round: i})
				tr.SetAttr("k", i)
			}
		}()
	}
	wg.Wait()
	tracer.Finish(tr)
	d := tracer.Lookup(tr.ID())
	if d.Counters["draws"] != 4000 {
		t.Errorf("draws = %v", d.Counters["draws"])
	}
	if len(d.Rounds)+d.DroppedRounds != 4000 {
		t.Errorf("rounds %d + dropped %d != 4000", len(d.Rounds), d.DroppedRounds)
	}
	if len(d.Spans)+d.DroppedSpans != 4000 {
		t.Errorf("spans %d + dropped %d != 4000", len(d.Spans), d.DroppedSpans)
	}
}

func TestFloatBoxing(t *testing.T) {
	if Float(math.NaN()) != nil || Float(math.Inf(-1)) != nil {
		t.Error("non-finite floats should box to nil")
	}
	if v := Float(0.25); v == nil || *v != 0.25 {
		t.Error("finite floats should round-trip")
	}
}
