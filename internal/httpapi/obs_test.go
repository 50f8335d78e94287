package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kgaq/internal/admission"
	"kgaq/internal/core"
	"kgaq/internal/embedding/embtest"
	"kgaq/internal/kg/kgtest"
	"kgaq/internal/obs"
)

// TestMetricsScrape is the golden scrape: a durable live server with
// admission control handles a mutation and a query, then /metrics on the
// debug mux must yield a strictly-parseable Prometheus exposition covering
// every instrumented tier — httpapi, admission, core and the WAL.
func TestMetricsScrape(t *testing.T) {
	ts, api, _ := testDurableServer(t, t.TempDir())
	api.ConfigureAdmission(admission.New(admission.Config{MaxInFlight: 4}), "")
	dbg := httptest.NewServer(api.DebugHandler())
	t.Cleanup(dbg.Close)

	batch := `{"op":"add_entity","entity":"Tesla_3","types":["Automobile"]}
{"op":"add_edge","src":"Germany","pred":"product","dst":"Tesla_3"}
{"op":"set_attr","entity":"Tesla_3","attr":"price","value":39000}`
	resp, err := http.Post(ts.URL+"/v1/mutate", "application/x-ndjson", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate status = %d", resp.StatusCode)
	}
	postQuery(t, ts, fmt.Sprintf(`{"query": %q, "seed": 3}`, avgPriceText))

	scrape, err := http.Get(dbg.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer scrape.Body.Close()
	if ct := scrape.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.TextContentType)
	}
	fams, err := obs.ParseText(scrape.Body)
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	for _, name := range []string{
		"kgaq_http_requests_total",
		"kgaq_http_request_seconds",
		"kgaq_http_inflight",
		"kgaq_admission_admitted_total",
		"kgaq_admission_inflight",
		"kgaq_core_queries_total",
		"kgaq_core_rounds_per_query",
		"kgaq_core_draws_total",
		"kgaq_core_validation_calls_total",
		"kgaq_wal_appends_total",
		"kgaq_wal_append_seconds",
		"kgaq_live_mutations_total",
	} {
		if _, ok := fams[name]; !ok {
			t.Errorf("scrape is missing family %s", name)
		}
	}
	// The exercised counters must have moved, not merely exist.
	if f := fams["kgaq_core_draws_total"]; f != nil && (len(f.Samples) == 0 || f.Samples[0].Value <= 0) {
		t.Errorf("kgaq_core_draws_total did not advance: %+v", f.Samples)
	}
	if f := fams["kgaq_wal_appends_total"]; f != nil && (len(f.Samples) == 0 || f.Samples[0].Value <= 0) {
		t.Errorf("kgaq_wal_appends_total did not advance: %+v", f.Samples)
	}
}

// TestTraceEndToEnd follows the echoed trace id of a completed query to
// /debug/trace/{id} and checks the convergence telemetry: every round drew
// samples, and the final achieved error bound meets the requested one.
func TestTraceEndToEnd(t *testing.T) {
	g := kgtest.Figure1()
	// A first round of 5 draws stays below Figure 1's six candidates, so the
	// query samples (and traces its rounds) before any census.
	eng, err := core.NewEngine(g, embtest.Figure1Model(g), core.Options{ErrorBound: 0.02, Seed: 7, MinSample: 5})
	if err != nil {
		t.Fatal(err)
	}
	api := NewServer(eng)
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	dbg := httptest.NewServer(api.DebugHandler())
	t.Cleanup(dbg.Close)

	const eb = 0.05
	resp, body := postQuery(t, ts, fmt.Sprintf(`{"query": %q, "seed": 3, "error_bound": %g}`, avgPriceText, eb))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Converged {
		t.Fatalf("query did not converge: %s", body)
	}
	if qr.TraceID == "" {
		t.Fatalf("response carries no trace_id: %s", body)
	}
	if hdr := resp.Header.Get(TraceIDHeader); hdr != qr.TraceID {
		t.Fatalf("%s header = %q, body trace_id = %q", TraceIDHeader, hdr, qr.TraceID)
	}

	// The trace is sealed before the response body is written, so it is
	// fetchable the moment the client has the id.
	tresp, err := http.Get(dbg.URL + "/debug/trace/" + qr.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch status = %d", tresp.StatusCode)
	}
	if ct := tresp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("trace Content-Type = %q", ct)
	}
	var td obs.TraceData
	if err := json.NewDecoder(tresp.Body).Decode(&td); err != nil {
		t.Fatal(err)
	}
	if td.ID != qr.TraceID || td.Kind != "query" || !td.Finished {
		t.Fatalf("trace = %+v", td)
	}
	if len(td.Rounds) == 0 {
		t.Fatal("trace has no per-round telemetry")
	}
	for i, r := range td.Rounds {
		if r.Draws <= 0 {
			t.Errorf("round %d drew nothing: %+v", i, r)
		}
	}
	final := td.Rounds[len(td.Rounds)-1]
	if final.AchievedEB == nil || *final.AchievedEB > eb {
		t.Errorf("final achieved_eb = %v, want <= %g", final.AchievedEB, eb)
	}
	if len(td.Spans) == 0 {
		t.Error("trace has no spans")
	}

	// The ring listing knows the trace, and unknown ids 404.
	lresp, err := http.Get(dbg.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var sums []obs.TraceSummary
	if err := json.NewDecoder(lresp.Body).Decode(&sums); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range sums {
		found = found || s.ID == qr.TraceID
	}
	if !found {
		t.Fatalf("/debug/trace listing does not contain %s", qr.TraceID)
	}
	missResp, err := http.Get(dbg.URL + "/debug/trace/t-nope-000000")
	if err != nil {
		t.Fatal(err)
	}
	missResp.Body.Close()
	if missResp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d, want 404", missResp.StatusCode)
	}
}

// TestDebugIndexAndContentType: GET /debug/ lists the debug surface and
// every JSON debug endpoint declares the same charset-qualified type.
func TestDebugIndexAndContentType(t *testing.T) {
	g := kgtest.Figure1()
	eng, err := core.NewEngine(g, embtest.Figure1Model(g), core.Options{ErrorBound: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dbg := httptest.NewServer(NewServer(eng).DebugHandler())
	t.Cleanup(dbg.Close)

	resp, err := http.Get(dbg.URL + "/debug/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/ status = %d", resp.StatusCode)
	}
	var idx []debugRoute
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	if len(idx) != len(debugIndex) {
		t.Fatalf("index has %d routes, want %d", len(idx), len(debugIndex))
	}
	for _, path := range []string{"/debug/", "/debug/cache", "/debug/shards", "/debug/plans", "/debug/trace"} {
		r, err := http.Get(dbg.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if ct := r.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Errorf("%s Content-Type = %q, want application/json; charset=utf-8", path, ct)
		}
	}
}

// TestTracingDisabled: sample=0 turns tracing off — no header, no body
// field, queries unaffected.
func TestTracingDisabled(t *testing.T) {
	g := kgtest.Figure1()
	eng, err := core.NewEngine(g, embtest.Figure1Model(g), core.Options{ErrorBound: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	api := NewServer(eng)
	api.ConfigureTracing(0, 0)
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)

	resp, body := postQuery(t, ts, fmt.Sprintf(`{"query": %q, "seed": 3}`, avgPriceText))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if hdr := resp.Header.Get(TraceIDHeader); hdr != "" {
		t.Fatalf("unexpected %s header %q with tracing off", TraceIDHeader, hdr)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.TraceID != "" {
		t.Fatalf("unexpected trace_id %q with tracing off", qr.TraceID)
	}
}
