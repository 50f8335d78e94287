package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Limits keeping one runaway request from bloating its trace: beyond these,
// spans/rounds are counted but dropped.
const (
	maxSpansPerTrace  = 256
	maxRoundsPerTrace = 512
)

// A Tracer mints traces and retains finished ones in a bounded ring.
// Sampling is 1-in-N on Start: unsampled requests get a nil *Trace, whose
// methods are all no-ops, so call sites never branch.
type Tracer struct {
	capacity int
	sample   int
	seq      atomic.Uint64
	started  atomic.Uint64
	prefix   string

	mu   sync.Mutex
	ring []*Trace // newest last
	byID map[string]*Trace
}

// NewTracer returns a tracer retaining the last capacity finished traces
// and sampling one in every sampleEvery Starts (1 = keep all, 0 = disabled).
func NewTracer(capacity, sampleEvery int) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	var pfx [4]byte
	_, _ = rand.Read(pfx[:])
	return &Tracer{
		capacity: capacity,
		sample:   sampleEvery,
		prefix:   hex.EncodeToString(pfx[:]),
		byID:     make(map[string]*Trace),
	}
}

// Start begins a trace of the given kind (query, prepare, plan_query,
// mutate) describing the given target (e.g. the query text). Returns nil —
// a valid no-op trace — when this request is not sampled.
func (tr *Tracer) Start(kind, target string) *Trace {
	if tr == nil || tr.sample <= 0 {
		return nil
	}
	n := tr.started.Add(1)
	if tr.sample > 1 && n%uint64(tr.sample) != 1 {
		return nil
	}
	return &Trace{
		id:     fmt.Sprintf("t-%s-%06d", tr.prefix, tr.seq.Add(1)),
		kind:   kind,
		target: target,
		start:  time.Now(),
		attrs:  make(map[string]any),
	}
}

// Finish seals the trace and retains it in the ring. Idempotent; safe on a
// nil tracer or nil trace.
func (tr *Tracer) Finish(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	t.end = time.Now()
	t.mu.Unlock()

	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.ring = append(tr.ring, t)
	tr.byID[t.id] = t
	for len(tr.ring) > tr.capacity {
		evict := tr.ring[0]
		tr.ring = tr.ring[1:]
		delete(tr.byID, evict.id)
	}
}

// Lookup returns the finished trace with the given id, or nil.
func (tr *Tracer) Lookup(id string) *TraceData {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	t := tr.byID[id]
	tr.mu.Unlock()
	if t == nil {
		return nil
	}
	d := t.export()
	return &d
}

// Summaries lists retained traces, newest first.
func (tr *Tracer) Summaries() []TraceSummary {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	ring := append([]*Trace(nil), tr.ring...)
	tr.mu.Unlock()
	out := make([]TraceSummary, 0, len(ring))
	for i := len(ring) - 1; i >= 0; i-- {
		out = append(out, ring[i].summary())
	}
	return out
}

// A Trace accumulates the lifecycle of one request: spans, counters,
// attributes and per-round convergence telemetry. All methods are safe for
// concurrent use and on a nil receiver.
type Trace struct {
	id     string
	kind   string
	target string
	start  time.Time

	mu            sync.Mutex
	end           time.Time
	finished      bool
	spans         []SpanData
	droppedSpans  int
	rounds        []RoundTelemetry
	droppedRounds int
	counters      map[string]float64
	attrs         map[string]any
}

// ID returns the trace id ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Span opens a named span; its End closes it:
//
//	defer t.Span("compile").End()
func (t *Trace) Span(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, begin: time.Now()}
}

// Span is one open span of a trace. The zero Span (what a nil trace opens)
// is valid and records nothing.
type Span struct {
	t     *Trace
	name  string
	begin time.Time
}

// End closes the span.
func (s Span) End() { s.end(0) }

// EndWalk closes a walk_converge span with the size of the walk's scope.
func (s Span) EndWalk(scopeNodes int) { s.end(scopeNodes) }

func (s Span) end(scopeNodes int) {
	t := s.t
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpansPerTrace {
		t.droppedSpans++
		return
	}
	t.spans = append(t.spans, SpanData{
		Name:       s.name,
		StartMS:    float64(s.begin.Sub(t.start)) / float64(time.Millisecond),
		DurMS:      float64(time.Since(s.begin)) / float64(time.Millisecond),
		ScopeNodes: int32(scopeNodes),
	})
}

// Add accumulates a named counter (draws, validation_calls,
// validation_expansions, verdict_cache_hits, ...).
func (t *Trace) Add(name string, delta float64) {
	if t == nil || delta == 0 {
		return
	}
	t.mu.Lock()
	if t.counters == nil {
		t.counters = make(map[string]float64)
	}
	t.counters[name] += delta
	t.mu.Unlock()
}

// Counter returns the current value of a named counter.
func (t *Trace) Counter(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// SetAttr records a key/value attribute (last write wins). Values must be
// JSON-marshalable; non-finite floats are nulled at export.
func (t *Trace) SetAttr(key string, value any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attrs[key] = value
	t.mu.Unlock()
}

// Round appends one refinement round's telemetry.
func (t *Trace) Round(r RoundTelemetry) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.rounds) >= maxRoundsPerTrace {
		t.droppedRounds++
		return
	}
	t.rounds = append(t.rounds, r)
}

// RoundTelemetry is the convergence record of one guarantee-loop round.
type RoundTelemetry struct {
	Round      int      `json:"round"`
	SampleSize int      `json:"sample_size"`
	Draws      int      `json:"draws"`
	Validated  int      `json:"validated"`
	CacheHits  int      `json:"verdict_cache_hits"`
	Estimate   *float64 `json:"estimate"`
	MoE        *float64 `json:"moe"`
	AchievedEB *float64 `json:"achieved_eb"` // ε̂ after this round; nil when undefined
	ElapsedMS  float64  `json:"elapsed_ms"`
}

// SpanData is one exported span.
type SpanData struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
	// Set on walk_converge spans only. It sits on the span, not in a map
	// beside it: a chain query records some 190 of these spans, and the
	// tracer's ring keeps the last 256 traces.
	ScopeNodes int32 `json:"scope_nodes,omitempty"`
}

// TraceData is the full JSON export of a finished (or in-flight) trace.
type TraceData struct {
	ID            string             `json:"id"`
	Kind          string             `json:"kind"`
	Target        string             `json:"target,omitempty"`
	Start         time.Time          `json:"start"`
	DurMS         float64            `json:"dur_ms"`
	Finished      bool               `json:"finished"`
	Spans         []SpanData         `json:"spans,omitempty"`
	DroppedSpans  int                `json:"dropped_spans,omitempty"`
	Rounds        []RoundTelemetry   `json:"rounds,omitempty"`
	DroppedRounds int                `json:"dropped_rounds,omitempty"`
	Counters      map[string]float64 `json:"counters,omitempty"`
	Attrs         map[string]any     `json:"attrs,omitempty"`
}

// TraceSummary is the /debug/trace listing entry.
type TraceSummary struct {
	ID     string    `json:"id"`
	Kind   string    `json:"kind"`
	Target string    `json:"target,omitempty"`
	Start  time.Time `json:"start"`
	DurMS  float64   `json:"dur_ms"`
	Rounds int       `json:"rounds"`
}

func (t *Trace) export() TraceData {
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.end
	if !t.finished {
		end = time.Now()
	}
	d := TraceData{
		ID:            t.id,
		Kind:          t.kind,
		Target:        t.target,
		Start:         t.start,
		DurMS:         float64(end.Sub(t.start)) / float64(time.Millisecond),
		Finished:      t.finished,
		Spans:         append([]SpanData(nil), t.spans...),
		DroppedSpans:  t.droppedSpans,
		Rounds:        append([]RoundTelemetry(nil), t.rounds...),
		DroppedRounds: t.droppedRounds,
	}
	if len(t.counters) > 0 {
		d.Counters = make(map[string]float64, len(t.counters))
		for k, v := range t.counters {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			d.Counters[k] = v
		}
	}
	if len(t.attrs) > 0 {
		d.Attrs = make(map[string]any, len(t.attrs))
		for k, v := range t.attrs {
			d.Attrs[k] = sanitizeAttr(v)
		}
	}
	return d
}

func (t *Trace) summary() TraceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceSummary{
		ID:     t.id,
		Kind:   t.kind,
		Target: t.target,
		Start:  t.start,
		DurMS:  float64(t.end.Sub(t.start)) / float64(time.Millisecond),
		Rounds: len(t.rounds),
	}
}

// sanitizeAttr makes attribute values JSON-safe: non-finite floats become
// nil (encoding/json rejects them outright).
func sanitizeAttr(v any) any {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil
		}
	case float32:
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return nil
		}
	case []float64:
		out := make([]any, len(x))
		for i, f := range x {
			out[i] = sanitizeAttr(f)
		}
		return out
	}
	return v
}

// Float boxes a float for the pointer-valued telemetry fields, mapping
// non-finite values to nil so the export marshals cleanly.
func Float(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

type traceKey struct{}

// WithTrace attaches a trace to the context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil (whose methods no-op).
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
