package httpapi

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kgaq/internal/core"
	"kgaq/internal/datagen"
	"kgaq/internal/federate"
)

// TestCoordinatorHTTP drives a federation coordinator through its HTTP
// surface: two in-process tiny members behind httptest and one coordinator
// Server. A plain query merges both members' strata, a stream answers
// round lines then a result, the fields that do not federate answer 400,
// and healthz and /debug/federation report the federation.
func TestCoordinatorHTTP(t *testing.T) {
	p := datagen.TinyProfile()
	ds, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func() *core.Engine {
		eng, err := core.NewEngine(ds.Graph, ds.Model, core.Options{Tau: p.OptimalTau})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	var members []federate.Member
	for j := 0; j < 2; j++ {
		m := httptest.NewServer(NewServer(newEngine()).Handler())
		t.Cleanup(m.Close)
		members = append(members, federate.Member{Name: fmt.Sprintf("m%d", j), URL: m.URL})
	}
	coord, err := federate.New(federate.Config{Members: members, Retries: 1, RetryBackoff: 5e6, HedgeAfter: -1},
		core.Options{ErrorBound: 0.1, Tau: p.OptimalTau})
	if err != nil {
		t.Fatal(err)
	}
	api := NewServer(newEngine())
	api.ConfigureFederation(coord)
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)

	var text string
	for _, gq := range ds.Queries {
		if gq.Category == "simple" && gq.Agg.Func.HasGuarantee() {
			text = gq.Agg.String()
			break
		}
	}
	if text == "" {
		t.Fatal("the tiny profile has no simple guaranteed query")
	}
	body := func(extra string) string { return fmt.Sprintf(`{"query": %q, "seed": 5%s}`, text, extra) }

	for _, extra := range []string{"", `, "sampler": "semantic"`} {
		resp, raw := postJSON(t, ts.URL+"/v1/query", body(extra))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query%s: status %d: %s", extra, resp.StatusCode, raw)
		}
		var qr queryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Strata != len(members) || qr.Estimate == nil {
			t.Fatalf("query%s: strata %d, estimate %v; want %d contributing members and an estimate",
				extra, qr.Strata, qr.Estimate, len(members))
		}
	}

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body(`, "stream": true`)))
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/x-ndjson" {
		t.Fatalf("stream: status %d, Content-Type %q", resp.StatusCode, ct)
	}
	rounds, results := 0, 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Round  *roundJSON     `json:"round"`
			Result *queryResponse `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("%v in %s", err, sc.Text())
		}
		switch {
		case line.Round != nil && results == 0:
			rounds++
		case line.Result != nil:
			results++
		default:
			t.Fatalf("unexpected stream line %s", sc.Text())
		}
	}
	resp.Body.Close()
	if rounds == 0 || results != 1 {
		t.Fatalf("stream shape: %d rounds, %d results", rounds, results)
	}

	for _, c := range []struct{ extra, err string }{
		{`, "aggregates": [{"func": "COUNT"}]`, "multi-aggregate queries do not federate (one shared sample cannot span members)"},
		{`, "min_epoch": 1`, "min_epoch is not meaningful across federation members (each owns its own epoch sequence)"},
		{`, "sampler": "cnarw"`, "sampler does not federate (every member samples with its own engine's sampler)"},
		{`, "shards": 4`, `bad request body: json: unknown field "shards"`},
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/query", body(c.extra))
		var e struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(raw, &e)
		if resp.StatusCode != http.StatusBadRequest || e.Error != c.err {
			t.Errorf("query%s: status %d, error %q; want 400 %q", c.extra, resp.StatusCode, e.Error, c.err)
		}
	}

	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	err = json.NewDecoder(hresp.Body).Decode(&h)
	hresp.Body.Close()
	if err != nil || h.Federation == nil || len(h.Federation.Members) != len(members) || h.Federation.Queries == 0 {
		t.Fatalf("healthz federation block = %+v (%v)", h.Federation, err)
	}

	plain := NewServer(newEngine())
	for _, c := range []struct {
		srv    *Server
		status int
	}{{api, http.StatusOK}, {plain, http.StatusNotFound}} {
		dbg := httptest.NewServer(c.srv.DebugHandler())
		resp, err := http.Get(dbg.URL + "/debug/federation")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		dbg.Close()
		if resp.StatusCode != c.status {
			t.Errorf("/debug/federation: status %d, want %d", resp.StatusCode, c.status)
		}
	}
}
