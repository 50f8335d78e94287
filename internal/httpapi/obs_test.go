package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"kgaq/internal/admission"
	"kgaq/internal/core"
	"kgaq/internal/embedding/embtest"
	"kgaq/internal/kg/kgtest"
	"kgaq/internal/obs"
)

// TestMetricsScrape is the golden scrape and the metrics lint: a durable
// live server with admission control handles a mutation and a query, then
// /metrics on the debug mux must yield a strictly-parseable Prometheus
// exposition that exports every metric README.md documents, and the
// counters of the tiers the requests crossed must have advanced.
func TestMetricsScrape(t *testing.T) {
	ts, api, _ := testDurableServer(t, t.TempDir())
	api.ConfigureAdmission(admission.New(admission.Config{MaxInFlight: 4}), "")
	dbg := httptest.NewServer(api.DebugHandler())
	t.Cleanup(dbg.Close)

	scrape := func() map[string]*obs.Family {
		t.Helper()
		resp, err := http.Get(dbg.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != obs.TextContentType {
			t.Fatalf("Content-Type = %q, want %q", ct, obs.TextContentType)
		}
		fams, err := obs.ParseText(resp.Body)
		if err != nil {
			t.Fatalf("scrape does not parse: %v", err)
		}
		return fams
	}
	// The registry is process-global, so the counters are read as deltas
	// over this test's own requests.
	counter := func(fams map[string]*obs.Family, name string) float64 {
		t.Helper()
		f := fams[name]
		if f == nil || len(f.Samples) != 1 {
			t.Fatalf("%s is not a single-sample family: %+v", name, f)
		}
		return f.Samples[0].Value
	}
	before := scrape()

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

	after := scrape()
	for _, name := range []string{"kgaq_core_draws_total", "kgaq_wal_appends_total"} {
		if d := counter(after, name) - counter(before, name); d <= 0 {
			t.Errorf("%s advanced by %g over a mutation and a query", name, d)
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := regexp.MustCompile("`(kgaq_[a-z0-9_]+)`").FindAllStringSubmatch(string(readme), -1)
	if len(documented) == 0 {
		t.Fatal("README.md documents no kgaq_* metric")
	}
	for _, m := range documented {
		if _, ok := after[m[1]]; !ok {
			t.Errorf("README.md documents %s, the scrape does not export it", m[1])
		}
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

// TestDebugIndexAndContentType: GET /debug/ lists the debug surface, every
// listed route reaches a handler (a handler's JSON 404 for a subsystem this
// server does not run counts; the mux's own 404 does not), every JSON debug
// endpoint declares the same charset-qualified type, and every debug route
// README.md documents is listed.
func TestDebugIndexAndContentType(t *testing.T) {
	g := kgtest.Figure1()
	eng, err := core.NewEngine(g, embtest.Figure1Model(g), core.Options{ErrorBound: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dbg := httptest.NewServer(NewServer(eng).DebugHandler())
	t.Cleanup(dbg.Close)

	const jsonCT = "application/json; charset=utf-8"
	resp, err := http.Get(dbg.URL + "/debug/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/ status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != jsonCT {
		t.Errorf("/debug/ Content-Type = %q, want %s", ct, jsonCT)
	}
	var idx []debugRoute
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	if len(idx) != len(debugIndex) {
		t.Fatalf("index has %d routes, want %d", len(idx), len(debugIndex))
	}
	listed := map[string]bool{}
	for _, rt := range debugIndex {
		listed[rt.Path] = true
		path := strings.ReplaceAll(rt.Path, "{id}", "no-such-trace")
		r, err := http.Get(dbg.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		ct := r.Header.Get("Content-Type")
		if r.StatusCode == http.StatusNotFound && ct != jsonCT {
			t.Errorf("%s reaches no handler: %d %q", rt.Path, r.StatusCode, body)
			continue
		}
		if strings.HasPrefix(path, "/debug/") && !strings.HasPrefix(path, "/debug/pprof/") && ct != jsonCT {
			t.Errorf("%s Content-Type = %q, want %s", rt.Path, ct, jsonCT)
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile("`(/debug/[^`]*)`").FindAllStringSubmatch(string(readme), -1) {
		if !listed[m[1]] {
			t.Errorf("README.md documents %s, the debug index does not list it", m[1])
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
