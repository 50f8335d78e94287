package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kgaq/internal/core"
	"kgaq/internal/embedding/embtest"
	"kgaq/internal/kg/kgtest"
	"kgaq/internal/query"
	"kgaq/internal/stats"
)

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// Prepare → execute → execute again: the prepared-plan flow end to end,
// including idempotent re-prepare and plan metadata.
func TestPrepareAndPlanQuery(t *testing.T) {
	ts := testServer(t)

	resp, body := postJSON(t, ts.URL+"/v1/prepare", fmt.Sprintf(`{"query": %q}`, avgPriceText))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare status = %d: %s", resp.StatusCode, body)
	}
	var plan planJSON
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatal(err)
	}
	if plan.ID == "" || plan.Shape != "simple" || plan.Candidates == 0 || plan.CacheBuilt == 0 {
		t.Fatalf("plan = %+v", plan)
	}

	// Idempotent re-prepare: same content id, no second build.
	resp, body = postJSON(t, ts.URL+"/v1/prepare", fmt.Sprintf(`{"query": %q}`, avgPriceText))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-prepare status = %d: %s", resp.StatusCode, body)
	}
	var again planJSON
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.ID != plan.ID {
		t.Fatalf("re-prepare changed id: %s vs %s", again.ID, plan.ID)
	}

	// Execute the plan twice; results are deterministic under one seed.
	var ests [2]float64
	for i := range ests {
		resp, body = postJSON(t, ts.URL+"/v1/plans/"+plan.ID+"/query", `{"seed": 11, "error_bound": 0.05}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan query status = %d: %s", resp.StatusCode, body)
		}
		var qr queryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Estimate == nil || !qr.Converged {
			t.Fatalf("plan query = %s", body)
		}
		ests[i] = *qr.Estimate
	}
	if ests[0] != ests[1] {
		t.Fatalf("plan executions diverged under one seed: %v vs %v", ests[0], ests[1])
	}
	if rel := stats.RelativeError(ests[0], kgtest.Figure1AvgPrice); rel > 0.05 {
		t.Fatalf("estimate %v vs truth %v", ests[0], kgtest.Figure1AvgPrice)
	}

	// Unknown plan ids are 404.
	resp, _ = postJSON(t, ts.URL+"/v1/plans/p0000000000000000/query", `{}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown plan status = %d", resp.StatusCode)
	}
	// "query" in a plan execution body is a client error.
	resp, _ = postJSON(t, ts.URL+"/v1/plans/"+plan.ID+"/query", fmt.Sprintf(`{"query": %q}`, avgPriceText))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("query-in-plan-body status = %d", resp.StatusCode)
	}
}

// The multi-aggregate form: both inline on /v1/query and through a plan,
// answering COUNT+SUM+AVG from one shared sample.
func TestMultiAggregateQuery(t *testing.T) {
	ts := testServer(t)
	const aggs = `"aggregates": [
		{"func": "COUNT"},
		{"func": "SUM", "attr": "price"},
		{"func": "AVG", "attr": "price"}
	]`

	resp, body := postJSON(t, ts.URL+"/v1/query",
		fmt.Sprintf(`{"query": %q, "error_bound": 0.05, "seed": 3, %s}`, avgPriceText, aggs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("multi status = %d: %s", resp.StatusCode, body)
	}
	var mr multiResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if !mr.Converged || len(mr.Aggs) != 3 || mr.SampleSize == 0 {
		t.Fatalf("multi = %s", body)
	}
	for _, ar := range mr.Aggs {
		if ar.Estimate == nil || !ar.Converged {
			t.Fatalf("agg %s: %s", ar.Func, body)
		}
	}
	if rel := stats.RelativeError(*mr.Aggs[2].Estimate, kgtest.Figure1AvgPrice); rel > 0.05 {
		t.Fatalf("AVG %v vs truth", *mr.Aggs[2].Estimate)
	}

	// Through a plan.
	resp, body = postJSON(t, ts.URL+"/v1/prepare", fmt.Sprintf(`{"query": %q}`, avgPriceText))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare: %d %s", resp.StatusCode, body)
	}
	var plan planJSON
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/plans/"+plan.ID+"/query",
		fmt.Sprintf(`{"error_bound": 0.05, "seed": 3, %s}`, aggs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan multi status = %d: %s", resp.StatusCode, body)
	}
	var pm multiResponse
	if err := json.Unmarshal(body, &pm); err != nil {
		t.Fatal(err)
	}
	if !pm.Converged || len(pm.Aggs) != 3 {
		t.Fatalf("plan multi = %s", body)
	}

	// Streaming is incompatible with aggregates; bad func names are 400.
	resp, _ = postJSON(t, ts.URL+"/v1/query",
		fmt.Sprintf(`{"query": %q, "stream": true, %s}`, avgPriceText, aggs))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stream+aggregates status = %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/query",
		fmt.Sprintf(`{"query": %q, "aggregates": [{"func": "MEDIAN"}]}`, avgPriceText))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad func status = %d", resp.StatusCode)
	}
}

// The /debug/plans listing reflects the resident plans.
func TestDebugPlans(t *testing.T) {
	g := kgtest.Figure1()
	eng, err := core.NewEngine(g, embtest.Figure1Model(g), core.Options{ErrorBound: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	api := NewServer(eng)
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	dbg := httptest.NewServer(api.DebugHandler())
	t.Cleanup(dbg.Close)

	if resp, body := postJSON(t, ts.URL+"/v1/prepare", fmt.Sprintf(`{"query": %q}`, avgPriceText)); resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare: %d %s", resp.StatusCode, body)
	}
	resp, err := http.Get(dbg.URL + "/debug/plans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var plans []planJSON
	if err := json.NewDecoder(resp.Body).Decode(&plans); err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || plans[0].Shape != "simple" || plans[0].EpochPolicy != "pin" {
		t.Fatalf("debug plans = %+v", plans)
	}

	// Healthz counts the resident plans too.
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Plans != 1 {
		t.Fatalf("healthz plans = %d, want 1", h.Plans)
	}
}

// TTL expiry and the capacity bound evict plans; expired ids answer 404.
func TestPlanCacheTTLAndLRU(t *testing.T) {
	pc := newPlanCache(2, 50*time.Millisecond)
	g := kgtest.Figure1()
	eng, err := core.NewEngine(g, embtest.Figure1Model(g), core.Options{ErrorBound: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	prep := func(name string) *core.Prepared {
		q, err := query.Parse(fmt.Sprintf(
			"AVG(price) MATCH (g:Country name=%s)-[product]->(c:Automobile) TARGET c", name))
		if err != nil {
			t.Fatal(err)
		}
		p, err := eng.Prepare(t.Context(), q)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pc.put("a", prep("Germany"), nil)
	pc.put("b", prep("Germany"), nil)
	pc.put("c", prep("Germany"), nil) // capacity 2: evicts the LRU ("a")
	if pc.get("a") != nil {
		t.Fatal("LRU entry survived over-capacity insert")
	}
	if pc.get("b") == nil || pc.get("c") == nil {
		t.Fatal("resident plans missing")
	}
	time.Sleep(80 * time.Millisecond)
	if pc.get("b") != nil || pc.len() != 0 {
		t.Fatal("TTL-expired plans survived")
	}
}

// Request-body hardening: oversized bodies answer 413, non-JSON
// Content-Types answer 415 and data after the one JSON value answers 400 —
// on every JSON endpoint.
func TestRequestBodyHardening(t *testing.T) {
	ts := testServer(t)

	// 413: a body over the 1 MiB bound.
	big := `{"query": "` + strings.Repeat("x", maxRequestBody+1024) + `"}`
	for _, path := range []string{"/v1/query", "/v1/prepare", "/v1/plans/pdeadbeef/query"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized: status = %d, want 413", path, resp.StatusCode)
		}
	}

	// 415: explicit non-JSON Content-Type.
	for _, path := range []string{"/v1/query", "/v1/prepare", "/v1/plans/pdeadbeef/query"} {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(`{"query": "x"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("%s text/plain: status = %d, want 415", path, resp.StatusCode)
		}
	}

	// 400: data after the one JSON value — the second query never runs.
	for _, path := range []string{"/v1/query", "/v1/prepare", "/v1/plans/pdeadbeef/query", "/v1/federate/sample"} {
		resp, body := postJSON(t, ts.URL+path, fmt.Sprintf(`{"query": %q}{"query": %q}`, avgPriceText, avgPriceText))
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("trailing data")) {
			t.Fatalf("%s trailing data: status = %d (%s), want 400", path, resp.StatusCode, body)
		}
	}

	// Unset Content-Type (bare curl -d) still works; charset params are fine.
	req, err := http.NewRequest("POST", ts.URL+"/v1/query",
		strings.NewReader(fmt.Sprintf(`{"query": %q, "error_bound": 0.1}`, avgPriceText)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Del("Content-Type")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unset Content-Type: status = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/query", "application/json; charset=utf-8",
		strings.NewReader(fmt.Sprintf(`{"query": %q, "error_bound": 0.1}`, avgPriceText)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("charset param: status = %d, want 200", resp.StatusCode)
	}
}
