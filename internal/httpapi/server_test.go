package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"kgaq/internal/core"
	"kgaq/internal/embedding/embtest"
	"kgaq/internal/kg/kgtest"
	"kgaq/internal/live"
	"kgaq/internal/stats"
)

const avgPriceText = "AVG(price) MATCH (g:Country name=Germany)-[product]->(c:Automobile) TARGET c"

// testServer serves Figure 1 with a first round of 5 draws: below its six
// candidates, so a query samples before the census settles it.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	g := kgtest.Figure1()
	eng, err := core.NewEngine(g, embtest.Figure1Model(g), core.Options{ErrorBound: 0.02, Seed: 7, MinSample: 5})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(eng).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postQuery(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
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

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Nodes == 0 || h.Edges == 0 {
		t.Fatalf("health = %+v", h)
	}
}

// The debug mux serves the pprof index and live cache counters; running a
// query against the API first makes the counters non-trivial, and the
// healthz cache block must agree with /debug/cache.
func TestDebugMux(t *testing.T) {
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

	if resp, body := postQuery(t, ts, fmt.Sprintf(`{"query": %q}`, avgPriceText)); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d, body %s", resp.StatusCode, body)
	}

	resp, err := http.Get(dbg.URL + "/debug/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/cache status = %d", resp.StatusCode)
	}
	var c cacheJSON
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		t.Fatal(err)
	}
	if c.Misses == 0 || c.Entries == 0 {
		t.Fatalf("cache counters flat after a query: %+v", c)
	}

	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Cache.Misses != c.Misses || h.Cache.Entries != c.Entries || h.Cache.Plans != c.Plans || c.Plans != 1 {
		t.Fatalf("healthz cache %+v disagrees with /debug/cache %+v", h.Cache, c)
	}

	presp, err := http.Get(dbg.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", presp.StatusCode)
	}
}

// TestQueryRoundTrip drives the paper's running example end to end over
// HTTP: the textual query goes in, the guaranteed estimate comes out.
func TestQueryRoundTrip(t *testing.T) {
	ts := testServer(t)
	resp, body := postQuery(t, ts, fmt.Sprintf(`{"query": %q}`, avgPriceText))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if !qr.Converged || qr.Estimate == nil || qr.Interrupted {
		t.Fatalf("response = %+v", qr)
	}
	if rel := stats.RelativeError(*qr.Estimate, kgtest.Figure1AvgPrice); rel > 0.05 {
		t.Fatalf("estimate %v, rel error %v", *qr.Estimate, rel)
	}
	if qr.SampleSize == 0 || len(qr.Rounds) == 0 {
		t.Fatalf("bookkeeping missing: %+v", qr)
	}
}

// TestQueryOverrides confirms per-request options land: a distinct seed and
// loose bound change the execution, and max_draws caps the sample.
func TestQueryOverrides(t *testing.T) {
	ts := testServer(t)
	_, body := postQuery(t, ts, fmt.Sprintf(
		`{"query": %q, "error_bound": 0.10, "seed": 99, "max_draws": 40}`, avgPriceText))
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if qr.SampleSize > 40 {
		t.Fatalf("max_draws override ignored: |S| = %d", qr.SampleSize)
	}
}

func TestQueryErrors(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		body   string
		status int
	}{
		{`{not json`, http.StatusBadRequest},
		{`{"query": ""}`, http.StatusBadRequest},
		{`{"query": "AVG(price) MATCH nonsense"}`, http.StatusBadRequest},
		{`{"query": "COUNT(*) MATCH (g:Country name=Atlantis)-[product]->(c:Automobile) TARGET c"}`, http.StatusBadRequest},
		{fmt.Sprintf(`{"query": %q, "sampler": "quantum"}`, avgPriceText), http.StatusBadRequest},
		{fmt.Sprintf(`{"query": %q, "unknown_field": 1}`, avgPriceText), http.StatusBadRequest},
	}
	for i, c := range cases {
		resp, body := postQuery(t, ts, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("case %d: status = %d, want %d (%s)", i, resp.StatusCode, c.status, body)
		}
	}
	// Unknown-entity failures carry the sentinel's message.
	_, body := postQuery(t, ts, `{"query": "COUNT(*) MATCH (g:Country name=Atlantis)-[product]->(c:Automobile) TARGET c"}`)
	if !bytes.Contains(body, []byte("unknown entity")) {
		t.Fatalf("error body %s lacks sentinel message", body)
	}
}

// TestQueryStream reads the NDJSON streaming response: at least one round
// line followed by a final result line.
func TestQueryStream(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"query": %q, "stream": true}`, avgPriceText)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	rounds, results := 0, 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Round  *roundJSON     `json:"round"`
			Result *queryResponse `json:"result"`
			Error  string         `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("%v in %s", err, sc.Text())
		}
		switch {
		case line.Round != nil:
			if results > 0 {
				t.Fatal("round after result")
			}
			rounds++
		case line.Result != nil:
			results++
			if !line.Result.Converged {
				t.Fatalf("streamed result did not converge: %+v", line.Result)
			}
		case line.Error != "":
			t.Fatalf("streamed error: %s", line.Error)
		}
	}
	if rounds == 0 || results != 1 {
		t.Fatalf("stream shape: %d rounds, %d results", rounds, results)
	}
}

// TestConcurrentRequests hammers one server (one shared Engine) from many
// goroutines — the serving-layer face of the engine's concurrency
// guarantee. Run under -race in CI.
func TestConcurrentRequests(t *testing.T) {
	ts := testServer(t)
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/query", "application/json",
				strings.NewReader(fmt.Sprintf(`{"query": %q, "seed": %d}`, avgPriceText, seed+1)))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var qr queryResponse
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK || qr.Estimate == nil {
				errs <- fmt.Errorf("seed %d: status %d, %+v", seed, resp.StatusCode, qr)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// testLiveServer builds a read-write server over a live store wrapping the
// Figure 1 graph.
func testLiveServer(t *testing.T) (*httptest.Server, *live.Store) {
	t.Helper()
	g := kgtest.Figure1()
	store := live.NewStore(g, 0)
	eng, err := core.NewLiveEngine(store, embtest.Figure1Model(g), core.Options{ErrorBound: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewLiveServer(eng, store).Handler())
	t.Cleanup(ts.Close)
	return ts, store
}

// TestMutateRoundTrip drives the live path end to end over HTTP: an NDJSON
// batch lands atomically, healthz reports the new epoch, and a min_epoch
// query reads its own write.
func TestMutateRoundTrip(t *testing.T) {
	ts, _ := testLiveServer(t)

	batch := `{"op":"add_entity","entity":"Tesla_3","types":["Automobile"]}
{"op":"add_edge","src":"Germany","pred":"product","dst":"Tesla_3"}
{"op":"set_attr","entity":"Tesla_3","attr":"price","value":39000}`
	resp, err := http.Post(ts.URL+"/v1/mutate", "application/x-ndjson", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate status = %d", resp.StatusCode)
	}
	var mr mutateResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.Epoch != 1 || mr.Applied != 3 {
		t.Fatalf("mutate response = %+v", mr)
	}

	// healthz reports the epoch and live mode.
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.Live || h.Epoch != mr.Epoch {
		t.Fatalf("healthz = %+v, want live at epoch %d", h, mr.Epoch)
	}

	// Read-your-writes: the count at min_epoch includes the new automobile.
	countText := "COUNT(*) MATCH (g:Country name=Germany)-[product]->(c:Automobile) TARGET c"
	_, body := postQuery(t, ts, fmt.Sprintf(`{"query": %q, "min_epoch": %d, "seed": 3}`, countText, mr.Epoch))
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if qr.Epoch < mr.Epoch {
		t.Fatalf("query epoch %d below min_epoch %d", qr.Epoch, mr.Epoch)
	}
	if qr.Candidates != 7 {
		t.Fatalf("candidates = %d after adding Tesla_3, want 7 (6 base automobiles + 1)", qr.Candidates)
	}
}

// TestMutateErrors: malformed lines and unsatisfiable batches are 400s and
// leave the store untouched.
func TestMutateErrors(t *testing.T) {
	ts, store := testLiveServer(t)
	cases := []string{
		"",              // empty batch
		"{not json",     // malformed line
		`{"op":"nope"}`, // unknown op
		`{"op":"add_edge","src":"Germany","pred":"made-up","dst":"BMW_320"}`,   // frozen vocab
		`{"op":"remove_edge","src":"Berlin","pred":"product","dst":"Germany"}`, // missing edge
	}
	for i, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/mutate", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400", i, resp.StatusCode)
		}
	}
	if store.Epoch() != 0 {
		t.Fatalf("failed batches advanced the store to epoch %d", store.Epoch())
	}

	// A read-only server has no mutate route at all.
	ro := testServer(t)
	resp, err := http.Post(ro.URL+"/v1/mutate", "application/x-ndjson", strings.NewReader(`{"op":"set_attr"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("read-only server accepted a mutation")
	}
}

// TestMinEpochUnreachable: a static server rejects positive min_epoch.
func TestMinEpochUnreachable(t *testing.T) {
	ts := testServer(t)
	resp, body := postQuery(t, ts, fmt.Sprintf(`{"query": %q, "min_epoch": 5}`, avgPriceText))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d (%s), want 400", resp.StatusCode, body)
	}
}

// A federated round after the first compiles nothing on the member: the
// second /v1/federate/sample of a query finds its assembled answer space
// under the plan key — exactly one cache hit, no miss — and, at the same
// seed, every verdict it needs already shared on it, so it returns the same
// moments. healthz and /debug/cache report the entry.
func TestFederateSampleRepeatIsOnePlanHit(t *testing.T) {
	g := kgtest.Figure1()
	eng, err := core.NewEngine(g, embtest.Figure1Model(g), core.Options{ErrorBound: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(eng).Handler())
	t.Cleanup(ts.Close)
	sample := func(seed int) string {
		t.Helper()
		body := fmt.Sprintf(`{"query": %q, "draws": 200, "pilot": true, "seed": %d}`, avgPriceText, seed)
		resp, err := http.Post(ts.URL+"/v1/federate/sample", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Moments    json.RawMessage `json:"moments"`
			Candidates int             `json:"candidates"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK || out.Candidates == 0 {
			t.Fatalf("sample: status %d, %+v, %v", resp.StatusCode, out, err)
		}
		return string(out.Moments)
	}
	first := sample(7)
	cold := eng.CacheStats()
	if cold.Plans != 1 || cold.Misses == 0 {
		t.Fatalf("after the first round: %+v, want one plan entry built on misses", cold)
	}
	second := sample(7)
	warm := eng.CacheStats()
	if warm.Hits != cold.Hits+1 || warm.Misses != cold.Misses {
		t.Fatalf("the second round: cache %+v → %+v, want exactly one more hit and no miss", cold, warm)
	}
	if first != second {
		t.Fatalf("the second round at the same seed differs:\n%s\n%s", first, second)
	}
	// Another seed may reach candidates nobody has validated; fetching their
	// stage by key is not a compile and is not counted as a lookup.
	sample(8)
	if cs := eng.CacheStats(); cs.Hits != warm.Hits+1 || cs.Misses != warm.Misses || cs.Plans != 1 {
		t.Fatalf("a round at another seed: cache %+v → %+v, want exactly one more hit and no miss", warm, cs)
	}
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Cache.Plans != 1 || h.Cache.PlanBytes <= 0 || h.Cache.PlanBytes >= h.Cache.Bytes {
		t.Fatalf("healthz cache block %+v, want one plan entry inside the byte total", h.Cache)
	}
}

// BenchmarkWarmQuery is one warm non-stream /v1/query through Handler():
// decode, request head, dispatch, engine (an answer-space cache hit) and
// the encoded response. Read allocs/op against the parent commit's.
func BenchmarkWarmQuery(b *testing.B) {
	g := kgtest.Figure1()
	eng, err := core.NewEngine(g, embtest.Figure1Model(g), core.Options{ErrorBound: 0.05, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	h := NewServer(eng).Handler()
	body := fmt.Sprintf(`{"query": %q, "seed": 3}`, avgPriceText)
	serve := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve()
	b.ReportAllocs()
	for b.Loop() {
		serve()
	}
}
