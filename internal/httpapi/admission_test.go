package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kgaq/internal/admission"
	"kgaq/internal/core"
	"kgaq/internal/embedding/embtest"
	"kgaq/internal/kg/kgtest"
	"kgaq/internal/live"
)

// admissionServer builds a static-graph server behind an admission
// controller, returning both so tests can reach the controller directly.
func admissionServer(t *testing.T, cfg admission.Config) (*httptest.Server, *Server) {
	t.Helper()
	g := kgtest.Figure1()
	eng, err := core.NewEngine(g, embtest.Figure1Model(g), core.Options{ErrorBound: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	api := NewServer(eng)
	api.ConfigureAdmission(admission.New(cfg), "")
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	return ts, api
}

// TestRequestIDHeader: every response carries X-Request-ID; an inbound id is
// honoured so callers can correlate.
func TestRequestIDHeader(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get(RequestIDHeader); id == "" {
		t.Fatal("response has no X-Request-ID")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	req.Header.Set(RequestIDHeader, "caller-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get(RequestIDHeader); id != "caller-42" {
		t.Fatalf("inbound request id not honoured: got %q", id)
	}
}

// TestAccessLog: the structured log carries method, route pattern, status,
// latency and the client identity.
func TestAccessLog(t *testing.T) {
	g := kgtest.Figure1()
	eng, err := core.NewEngine(g, embtest.Figure1Model(g), core.Options{ErrorBound: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	api := NewServer(eng)
	var buf bytes.Buffer
	var mu sync.Mutex
	api.ConfigureLogging(slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil)))
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query",
		strings.NewReader(fmt.Sprintf(`{"query": %q, "seed": 3}`, avgPriceText)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ClientIDHeader, "tester")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mu.Lock()
	line := buf.String()
	mu.Unlock()
	var entry struct {
		Msg       string  `json:"msg"`
		ID        string  `json:"id"`
		Client    string  `json:"client"`
		Method    string  `json:"method"`
		Route     string  `json:"route"`
		Status    int     `json:"status"`
		LatencyMS float64 `json:"latency_ms"`
	}
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("%v in %q", err, line)
	}
	if entry.Msg != "request" || entry.ID == "" || entry.Client != "tester" {
		t.Fatalf("log entry = %+v", entry)
	}
	if entry.Method != "POST" || entry.Route != "POST /v1/query" || entry.Status != 200 {
		t.Fatalf("log entry = %+v", entry)
	}
	if entry.LatencyMS <= 0 {
		t.Fatalf("latency_ms = %g", entry.LatencyMS)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestQueueFullResponse: with the slot held and the queue full, a request
// answers a typed 429 with a Retry-After header — the backpressure contract.
func TestQueueFullResponse(t *testing.T) {
	ts, api := admissionServer(t, admission.Config{MaxInFlight: 1, MaxQueue: 1})

	// Hold the only slot and fill the one queue position via the controller.
	grant, err := api.Admission().Admit(context.Background(), "holder")
	if err != nil {
		t.Fatal(err)
	}
	defer grant.Release(0, admission.OutcomeOK)
	queued := make(chan struct{})
	go func() {
		g, err := api.Admission().Admit(context.Background(), "holder")
		if err == nil {
			defer g.Release(0, admission.OutcomeOK)
		}
		close(queued)
	}()
	waitUntil(t, func() bool { return api.Admission().Stats().Queued == 1 })

	resp, body := postQuery(t, ts, fmt.Sprintf(`{"query": %q}`, avgPriceText))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var shed shedBody
	if err := json.Unmarshal(body, &shed); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if shed.Code != "queue_full" || shed.Error == "" || shed.RetryAfterS <= 0 {
		t.Fatalf("shed body = %+v", shed)
	}
	grant.Release(0, admission.OutcomeOK)
	<-queued
}

// TestRateLimitResponse: a client over its token budget answers a typed 429
// whose code distinguishes it from queue pressure.
func TestRateLimitResponse(t *testing.T) {
	ts, _ := admissionServer(t, admission.Config{MaxInFlight: 4, PerClientRate: 0.001, PerClientBurst: 1})

	body := fmt.Sprintf(`{"query": %q, "seed": 3}`, avgPriceText)
	do := func() (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(ClientIDHeader, "greedy")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}
	if resp, b := do(); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request status = %d: %s", resp.StatusCode, b)
	}
	resp, b := do()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429", resp.StatusCode)
	}
	var shed shedBody
	if err := json.Unmarshal(b, &shed); err != nil {
		t.Fatalf("%v in %s", err, b)
	}
	if shed.Code != "rate_limited" {
		t.Fatalf("shed code = %q, want rate_limited", shed.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("rate-limit 429 without Retry-After")
	}
}

// TestDeadlineDegradedResponse: an unattainably tight bound under a request
// timeout degrades honestly — 200, degraded=true, finite achieved_eb —
// because the admission tier arms core.Degradation on every execution.
func TestDeadlineDegradedResponse(t *testing.T) {
	ts, _ := admissionServer(t, admission.Config{MaxInFlight: 4, MaxErrorBound: 0.5})

	// max_draws is lifted far past the default cap so the deadline — not
	// the draw budget — is what ends refinement. The CNARW sampler keeps the
	// census out: Figure 1's six candidates are far fewer than the draws
	// the deadline allows, and a semantic execution would settle all six
	// before any deadline pressure.
	resp, body := postQuery(t, ts, fmt.Sprintf(
		`{"query": %q, "error_bound": 1e-9, "timeout_ms": 250, "max_draws": 1000000000, "seed": 3, "sampler": "cnarw"}`, avgPriceText))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if !qr.Degraded {
		t.Fatalf("degraded = false: %s", body)
	}
	if qr.Interrupted {
		t.Fatalf("degradation should beat the deadline, not trip it: %s", body)
	}
	if qr.AchievedEB == nil || *qr.AchievedEB <= 0 {
		t.Fatalf("achieved_eb = %v, want finite positive", qr.AchievedEB)
	}
	if qr.TargetEB != 1e-9 {
		t.Fatalf("target_eb = %g", qr.TargetEB)
	}
}

// TestPressureRelaxedResponse: a request admitted from a pressured queue
// runs against a relaxed effective bound and says so.
func TestPressureRelaxedResponse(t *testing.T) {
	ts, api := admissionServer(t, admission.Config{
		MaxInFlight: 1, MaxQueue: 2, DegradePressure: 0.4, MaxErrorBound: 0.5,
	})

	grant, err := api.Admission().Admit(context.Background(), "holder")
	if err != nil {
		t.Fatal(err)
	}

	body := fmt.Sprintf(`{"query": %q, "error_bound": 0.02, "seed": 3}`, avgPriceText)
	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			results <- result{}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		results <- result{resp.StatusCode, buf.Bytes()}
	}
	// First waiter arrives at pressure 0 (keeps its bound), the second at
	// pressure 1/2 ≥ 0.4 (relaxed).
	go post()
	waitUntil(t, func() bool { return api.Admission().Stats().Queued == 1 })
	go post()
	waitUntil(t, func() bool { return api.Admission().Stats().Queued == 2 })
	grant.Release(0, admission.OutcomeOK)

	relaxed := 0
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("status = %d: %s", r.status, r.body)
		}
		var qr queryResponse
		if err := json.Unmarshal(r.body, &qr); err != nil {
			t.Fatalf("%v in %s", err, r.body)
		}
		if qr.EffectiveEB > 0 {
			relaxed++
			if !qr.Degraded {
				t.Fatalf("effective_eb %g without degraded flag: %s", qr.EffectiveEB, r.body)
			}
			if qr.EffectiveEB <= 0.02 || qr.EffectiveEB > 0.5 {
				t.Fatalf("effective_eb = %g, want in (0.02, 0.5]", qr.EffectiveEB)
			}
		}
	}
	if relaxed != 1 {
		t.Fatalf("relaxed responses = %d, want exactly the pressured waiter", relaxed)
	}

	if st := api.Admission().Stats(); st.Degraded != 1 {
		t.Errorf("controller degraded counter = %d, want 1", st.Degraded)
	}
}

// TestHealthzAdmissionBlock: healthz exposes the admission snapshot and the
// debug mux serves /debug/admission.
func TestHealthzAdmissionBlock(t *testing.T) {
	g := kgtest.Figure1()
	eng, err := core.NewEngine(g, embtest.Figure1Model(g), core.Options{ErrorBound: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	api := NewServer(eng)
	api.ConfigureAdmission(admission.New(admission.Config{MaxInFlight: 3}), "")
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	dbg := httptest.NewServer(api.DebugHandler())
	t.Cleanup(dbg.Close)

	postQuery(t, ts, fmt.Sprintf(`{"query": %q, "seed": 3}`, avgPriceText))
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Admission == nil {
		t.Fatal("healthz has no admission block")
	}
	if h.Admission.MaxInFlight != 3 || h.Admission.Completed == 0 {
		t.Fatalf("admission block = %+v", h.Admission)
	}

	dresp, err := http.Get(dbg.URL + "/debug/admission")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var st admission.Stats
	if err := json.NewDecoder(dresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.MaxInFlight != 3 {
		t.Fatalf("/debug/admission = %+v", st)
	}
}

// TestGracefulDrain exercises the shutdown contract on a live server with a
// concurrent mutation stream: the in-flight request (blocked on a future
// epoch) completes, the queued request sheds with a typed 503, the drain
// returns only after the slot frees, and post-drain arrivals shed.
func TestGracefulDrain(t *testing.T) {
	g := kgtest.Figure1()
	store := live.NewStore(g, 0)
	eng, err := core.NewLiveEngine(store, embtest.Figure1Model(g), core.Options{ErrorBound: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	api := NewLiveServer(eng, store)
	api.ConfigureAdmission(admission.New(admission.Config{MaxInFlight: 1, MaxQueue: 2}), "")
	ts := httptest.NewServer(api.Handler())

	// The live mutation stream: applied at the store layer so it keeps
	// advancing epochs through the drain (HTTP mutates would shed).
	streamCtx, stopStream := context.WithCancel(context.Background())
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		for i := 0; ; i++ {
			select {
			case <-streamCtx.Done():
				return
			default:
			}
			ent := fmt.Sprintf("Drain_%d", i)
			_, err := store.Apply(live.Batch{
				{Op: live.OpAddEntity, Entity: ent, Types: []string{"Automobile"}},
				{Op: live.OpAddEdge, Src: "Germany", Pred: "product", Dst: ent},
				{Op: live.OpSetAttr, Entity: ent, Attr: "price", Value: 30000},
			})
			if err != nil {
				t.Errorf("stream apply: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	defer func() { stopStream(); <-streamDone }()

	countText := "COUNT(*) MATCH (g:Country name=Germany)-[product]->(c:Automobile) TARGET c"

	// In-flight: holds the only slot while waiting for a future epoch the
	// stream will eventually reach.
	_, epoch := eng.Snapshot()
	inflight := make(chan result2, 1)
	go func() {
		inflight <- post2(ts, fmt.Sprintf(`{"query": %q, "min_epoch": %d, "seed": 3}`, countText, epoch+40))
	}()
	waitUntil(t, func() bool { return api.Admission().Stats().InFlight == 1 })

	// Queued: waits for the slot until the drain sheds it.
	queued := make(chan result2, 1)
	go func() {
		queued <- post2(ts, fmt.Sprintf(`{"query": %q, "seed": 3}`, countText))
	}()
	waitUntil(t, func() bool { return api.Admission().Stats().Queued == 1 })

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainDone <- api.Drain(ctx)
	}()

	// The queued request sheds with the typed draining 503.
	qr := <-queued
	if qr.err != nil {
		t.Fatalf("queued request: %v", qr.err)
	}
	if qr.status != http.StatusServiceUnavailable {
		t.Fatalf("queued request status = %d, want 503: %s", qr.status, qr.body)
	}
	var shed shedBody
	if err := json.Unmarshal(qr.body, &shed); err != nil {
		t.Fatalf("%v in %s", err, qr.body)
	}
	if shed.Code != "draining" || qr.retryAfter == "" {
		t.Fatalf("queued shed = %+v, Retry-After %q", shed, qr.retryAfter)
	}

	// The in-flight request completes normally once the stream reaches its
	// epoch, and only then does the drain return.
	fr := <-inflight
	if fr.err != nil {
		t.Fatalf("in-flight request: %v", fr.err)
	}
	if fr.status != http.StatusOK {
		t.Fatalf("in-flight status = %d: %s", fr.status, fr.body)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Post-drain arrivals shed; then the listener closes.
	pr := post2(ts, fmt.Sprintf(`{"query": %q}`, countText))
	if pr.err != nil {
		t.Fatal(pr.err)
	}
	if pr.status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status = %d, want 503", pr.status)
	}
	ts.Close()
}

type result2 struct {
	status     int
	body       []byte
	retryAfter string
	err        error
}

func post2(ts *httptest.Server, body string) result2 {
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		return result2{err: err}
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return result2{err: err}
	}
	return result2{status: resp.StatusCode, body: buf.Bytes(), retryAfter: resp.Header.Get("Retry-After")}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}
