package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kgaq/internal/core"
	"kgaq/internal/embedding/embtest"
	"kgaq/internal/faultinject"
	"kgaq/internal/kg"
	"kgaq/internal/kg/kgtest"
	"kgaq/internal/live"
	"kgaq/internal/wal"
)

// testDurableServer builds a read-write server whose mutations go through a
// WAL-backed durable store rooted at a fresh directory. Its engine takes a
// first round of 5 draws, as testServer's does, so a query samples before
// the census settles it.
func testDurableServer(t *testing.T, dir string) (*httptest.Server, *Server, *live.Durable) {
	t.Helper()
	g := kgtest.Figure1()
	dur, err := live.Recover(live.DurabilityConfig{Dir: dir, Sync: wal.SyncAlways}, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewLiveEngine(dur.Store(), embtest.Figure1Model(g), core.Options{ErrorBound: 0.02, Seed: 7, MinSample: 5})
	if err != nil {
		t.Fatal(err)
	}
	api := NewLiveServer(eng, dur.Store())
	api.ConfigureDurability(dur)
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	return ts, api, dur
}

// TestMutateDurableAckSurvivesCrash: an acked mutation under sync=always is
// on disk before the 200 — a crash and re-recovery lands on the same epoch,
// and healthz/debug report the durability picture throughout.
func TestMutateDurableAckSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	ts, api, dur := testDurableServer(t, dir)

	batch := `{"op":"add_entity","entity":"Tesla_3","types":["Automobile"]}
{"op":"add_edge","src":"Germany","pred":"product","dst":"Tesla_3"}`
	resp, err := http.Post(ts.URL+"/v1/mutate", "application/x-ndjson", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	var mr mutateResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || mr.Epoch != 1 {
		t.Fatalf("durable mutate: status %d, %+v", resp.StatusCode, mr)
	}

	// healthz carries the durability block with the acked epoch synced.
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if h.Durability == nil {
		t.Fatal("healthz missing durability block on a durable server")
	}
	if h.Durability.SyncedEpoch != 1 || h.Durability.Sync != "always" {
		t.Fatalf("healthz durability = %+v, want synced_epoch 1 under always", h.Durability)
	}

	// /debug/durability serves the same stats.
	dbg := httptest.NewServer(api.DebugHandler())
	t.Cleanup(dbg.Close)
	dresp, err := http.Get(dbg.URL + "/debug/durability")
	if err != nil {
		t.Fatal(err)
	}
	var ds live.DurabilityStats
	if err := json.NewDecoder(dresp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || ds.Epoch != 1 {
		t.Fatalf("/debug/durability: status %d, %+v", dresp.StatusCode, ds)
	}

	// Crash (no sync, no checkpoint) and recover from the same directory:
	// the acked epoch is exactly restored.
	dur.Crash()
	re, err := live.Recover(live.DurabilityConfig{Dir: dir, Sync: wal.SyncAlways}, kgtest.Figure1(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Store().Epoch(); got != 1 {
		t.Fatalf("epoch after crash+recover = %d, want 1", got)
	}
	if re.Store().Snapshot().NodeByName("Tesla_3") == kg.InvalidNode {
		t.Fatal("acked entity lost across crash+recover")
	}
}

// TestMutateDurabilityFailureIs503: when the WAL cannot make the batch
// durable, the client gets a 503 — not a 400 — and nothing is applied.
func TestMutateDurabilityFailureIs503(t *testing.T) {
	ts, _, dur := testDurableServer(t, t.TempDir())
	defer faultinject.Activate(1, faultinject.Fault{
		Point: "wal.sync", Count: 1, Err: faultinject.ErrInjected,
	})()

	resp, err := http.Post(ts.URL+"/v1/mutate", "application/x-ndjson",
		strings.NewReader(`{"op":"add_entity","entity":"Ghost","types":["Automobile"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutate under failed fsync: status %d, want 503", resp.StatusCode)
	}
	if got := dur.Store().Epoch(); got != 0 {
		t.Fatalf("failed durable batch advanced the store to epoch %d", got)
	}

	// A plain validation error on the same durable server is still a 400.
	resp, err = http.Post(ts.URL+"/v1/mutate", "application/x-ndjson",
		strings.NewReader(`{"op":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch on durable server: status %d, want 400", resp.StatusCode)
	}
}

// TestInjectedPanicAnswers500: a panic injected into query validation is
// contained by the engine into ErrInternal, surfaces as a 500 with the
// request id echoed, and the server keeps answering.
func TestInjectedPanicAnswers500(t *testing.T) {
	ts := testServer(t)
	deactivate := faultinject.Activate(1, faultinject.Fault{
		Point: "core.validate", Count: 1, Panic: "injected http panic",
	})
	resp, body := postQuery(t, ts, fmt.Sprintf(`{"query": %q}`, avgPriceText))
	deactivate()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("query under injected panic: status %d (%s), want 500", resp.StatusCode, body)
	}
	if resp.Header.Get(RequestIDHeader) == "" {
		t.Fatal("500 response missing X-Request-ID")
	}

	// The process survives: the next request on the same server is a 200.
	resp, body = postQuery(t, ts, fmt.Sprintf(`{"query": %q}`, avgPriceText))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after contained panic: status %d (%s)", resp.StatusCode, body)
	}
}

// TestRecoverPanicsMiddleware exercises the outermost guard directly: a
// handler panic (past the engine's own containment) becomes a 500 with the
// request id, and http.ErrAbortHandler passes through untouched.
func TestRecoverPanicsMiddleware(t *testing.T) {
	g := kgtest.Figure1()
	eng, err := core.NewEngine(g, embtest.Figure1Model(g), core.Options{ErrorBound: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(eng)
	h := s.recoverPanics(s.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	})))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	id := rec.Header().Get(RequestIDHeader)
	if id == "" || !strings.Contains(rec.Body.String(), id) {
		t.Fatalf("500 body %q does not echo request id %q", rec.Body.String(), id)
	}

	// net/http's own abort sentinel must not be swallowed.
	abort := s.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if r := recover(); r != http.ErrAbortHandler { //nolint:errorlint // sentinel by identity
			t.Fatalf("recovered %v, want http.ErrAbortHandler to re-panic", r)
		}
	}()
	abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/abort", nil))
	t.Fatal("ErrAbortHandler did not re-panic")
}

// TestDebugDurabilityUnconfigured: a memory-only server 404s the endpoint.
func TestDebugDurabilityUnconfigured(t *testing.T) {
	g := kgtest.Figure1()
	eng, err := core.NewEngine(g, embtest.Figure1Model(g), core.Options{ErrorBound: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dbg := httptest.NewServer(NewServer(eng).DebugHandler())
	t.Cleanup(dbg.Close)
	resp, err := http.Get(dbg.URL + "/debug/durability")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/durability without durability: status %d, want 404", resp.StatusCode)
	}
}
