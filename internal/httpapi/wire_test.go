package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"

	"kgaq/internal/admission"
	"kgaq/internal/core"
	"kgaq/internal/embedding/embtest"
	"kgaq/internal/kg/kgtest"
	"kgaq/internal/live"
)

// wireCase is one request of the wire contract and what it must answer:
// the status, the Content-Type, whether the X-Trace-ID header is set, and
// either the exact error text (error bodies) or the sorted key paths of
// the JSON body (200 bodies; an NDJSON body contributes the union of its
// lines). Values that vary run to run — elapsed_ms, trace_id, the request
// id — are never compared.
type wireCase struct {
	name  string
	path  string // "{plan}" is replaced by a prepared plan's id
	ctype string
	body  string
	// want
	status int
	rctype string
	traced bool
	err    string
	keys   []string
}

const (
	jsonCT   = "application/json; charset=utf-8"
	ndjsonCT = "application/x-ndjson"
	countGer = "COUNT(*) MATCH (g:Country name=Germany)-[product]->(c:Automobile) TARGET c"
	atlantis = "COUNT(*) MATCH (g:Country name=Atlantis)-[product]->(c:Automobile) TARGET c"
)

var (
	// Figure 1's six candidates are fewer than any first round, so every
	// answer below is a census: it carries "exact".
	singleKeys = []string{"achieved_eb", "candidates", "confidence", "converged", "distinct", "elapsed_ms",
		"epoch", "estimate", "exact", "moe", "query", "rounds", "rounds[].estimate", "rounds[].moe",
		"rounds[].sample_size", "sample_size", "target_eb", "trace_id"}
	multiKeys = []string{"aggregates", "aggregates[].achieved_eb", "aggregates[].attr", "aggregates[].converged",
		"aggregates[].error_bound", "aggregates[].estimate", "aggregates[].exact", "aggregates[].func", "aggregates[].moe",
		"aggregates[].rounds", "aggregates[].rounds[].estimate", "aggregates[].rounds[].moe",
		"aggregates[].rounds[].sample_size", "candidates", "confidence", "converged", "distinct",
		"elapsed_ms", "epoch", "query", "rounds", "sample_size", "trace_id"}
	planKeys = []string{"cache_built", "cache_hits", "candidates", "epoch", "epoch_policy", "hop_bound",
		"id", "idle_s", "paths", "query", "shape", "ttl_s", "age_s", "uses"}
	sampleKeys = []string{"candidates", "elapsed_ms", "epoch", "moments", "moments.c", "moments.cc",
		"moments.correct", "moments.n", "moments.s", "moments.sc", "moments.ss"}
)

// streamKeys is the key set of an NDJSON stream: round lines, then a
// result line carrying the single-aggregate response.
func streamKeys() []string {
	out := []string{"result", "round", "round.estimate", "round.moe", "round.sample_size"}
	for _, k := range singleKeys {
		out = append(out, "result."+k)
	}
	return out
}

func withKeys(base []string, extra ...string) []string {
	return append(slices.Clone(base), extra...)
}

// TestWireContract pins the JSON work endpoints' observable contract —
// status codes, Content-Type, the trace header, error texts and response
// key sets — for the success path and every refusal of the request head
// and dispatch, on /v1/query, /v1/plans/{id}/query, /v1/prepare,
// /v1/federate/sample and /v1/mutate.
func TestWireContract(t *testing.T) {
	g := kgtest.Figure1()
	store := live.NewStore(g, 0)
	eng, err := core.NewLiveEngine(store, embtest.Figure1Model(g), core.Options{ErrorBound: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// kgaqd always serves behind admission control, so the contract does too.
	api := NewLiveServer(eng, store)
	api.ConfigureAdmission(admission.New(admission.Config{MaxErrorBound: 0.25}), "")
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)

	resp, body := postJSON(t, ts.URL+"/v1/prepare", fmt.Sprintf(`{"query": %q}`, avgPriceText))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare: %d %s", resp.StatusCode, body)
	}
	var plan planJSON
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatal(err)
	}

	big := `{"query": "` + strings.Repeat("x", maxRequestBody+1024) + `"}`
	q := func(extra string) string {
		return fmt.Sprintf(`{"query": %q, "seed": 3%s}`, avgPriceText, extra)
	}
	const aggs = `, "aggregates": [{"func": "COUNT"}, {"func": "AVG", "attr": "price"}]`
	tooBig := "request body exceeds 1048576 bytes"
	badCT := `unsupported Content-Type "text/plain" (use application/json)`
	malformed := "bad request body: invalid character 'n' looking for beginning of object key string"
	unknownEntity := `core: unknown entity: specific entity "Atlantis" not in graph`

	cases := []wireCase{
		// POST /v1/query
		{name: "query ok", path: "/v1/query", body: q(""), status: 200, rctype: jsonCT, traced: true, keys: singleKeys},
		{name: "query grouped", path: "/v1/query", body: fmt.Sprintf(`{"query": %q, "seed": 3}`, countGer+" GROUPBY fuel_economy"),
			status: 200, rctype: jsonCT, traced: true,
			keys: withKeys(singleKeys, "groups", "groups.*", "groups.*.draws", "groups.*.estimate", "groups.*.moe")},
		{name: "query multi", path: "/v1/query", body: q(aggs), status: 200, rctype: jsonCT, traced: true, keys: multiKeys},
		{name: "query stream", path: "/v1/query", body: q(`, "stream": true`), status: 200, rctype: ndjsonCT, traced: true, keys: streamKeys()},
		{name: "query 415", path: "/v1/query", ctype: "text/plain", body: q(""), status: 415, rctype: jsonCT, err: badCT},
		{name: "query 413", path: "/v1/query", body: big, status: 413, rctype: jsonCT, err: tooBig},
		{name: "query malformed", path: "/v1/query", body: `{not json`, status: 400, rctype: jsonCT, err: malformed},
		{name: "query unknown field", path: "/v1/query", body: `{"query": "x", "epoch_policy": "pin"}`, status: 400, rctype: jsonCT,
			err: `bad request body: json: unknown field "epoch_policy"`},
		{name: "query shards field", path: "/v1/query", body: q(`, "shards": 2`), status: 400, rctype: jsonCT,
			err: `bad request body: json: unknown field "shards"`},
		{name: "query wrong type", path: "/v1/query", body: `{"query": "x", "error_bound": "tight"}`, status: 400, rctype: jsonCT,
			err: "bad request body: json: cannot unmarshal string into Go struct field queryRequest.error_bound of type float64"},
		{name: "query missing", path: "/v1/query", body: `{"seed": 3}`, status: 400, rctype: jsonCT, err: `missing "query"`},
		{name: "query parse", path: "/v1/query", body: `{"query": "AVG(price) MATCH nonsense"}`, status: 400, rctype: jsonCT,
			err: "parse: query: parse: at offset 17: expected '(' starting a node"},
		{name: "query sampler", path: "/v1/query", body: q(`, "sampler": "quantum"`), status: 400, rctype: jsonCT,
			err: `unknown sampler "quantum" (semantic, cnarw, node2vec)`},
		{name: "query aggregates+stream", path: "/v1/query", body: q(aggs + `, "stream": true`), status: 400, rctype: jsonCT, traced: true,
			err: `"aggregates" and "stream" are incompatible`},
		{name: "query bad aggregate", path: "/v1/query", body: q(`, "aggregates": [{"func": "MEDIAN"}]`), status: 400, rctype: jsonCT, traced: true,
			err: `aggregates[0]: query: unknown aggregate function "MEDIAN"`},
		{name: "query unknown entity", path: "/v1/query", body: fmt.Sprintf(`{"query": %q}`, atlantis), status: 400, rctype: jsonCT, traced: true,
			err: unknownEntity},
		{name: "query stream unknown entity", path: "/v1/query", body: fmt.Sprintf(`{"query": %q, "stream": true}`, atlantis),
			status: 400, rctype: ndjsonCT, traced: true, err: unknownEntity},
		{name: "query min_epoch", path: "/v1/query", body: q(`, "min_epoch": 99, "timeout_ms": 30`), status: 504, rctype: jsonCT, traced: true,
			err: "core: query interrupted during preparation: live: waiting for epoch 99 (at 0): context deadline exceeded"},

		// POST /v1/plans/{id}/query
		{name: "plan ok", path: "/v1/plans/{plan}/query", body: `{"seed": 3}`, status: 200, rctype: jsonCT, traced: true, keys: singleKeys},
		{name: "plan multi", path: "/v1/plans/{plan}/query", body: `{"seed": 3` + aggs + `}`, status: 200, rctype: jsonCT, traced: true, keys: multiKeys},
		{name: "plan stream", path: "/v1/plans/{plan}/query", body: `{"seed": 3, "stream": true}`, status: 200, rctype: ndjsonCT, traced: true, keys: streamKeys()},
		{name: "plan 415", path: "/v1/plans/{plan}/query", ctype: "text/plain", body: `{}`, status: 415, rctype: jsonCT, err: badCT},
		{name: "plan 413", path: "/v1/plans/{plan}/query", body: big, status: 413, rctype: jsonCT, err: tooBig},
		{name: "plan malformed", path: "/v1/plans/{plan}/query", body: `{not json`, status: 400, rctype: jsonCT, err: malformed},
		{name: "plan query in body", path: "/v1/plans/{plan}/query", body: q(""), status: 400, rctype: jsonCT,
			err: `"query" belongs to /v1/prepare; the plan already carries it`},
		{name: "plan unknown", path: "/v1/plans/p0000000000000000/query", body: `{}`, status: 404, rctype: jsonCT,
			err: `unknown or expired plan "p0000000000000000" (POST /v1/prepare first)`},
		{name: "plan sampler", path: "/v1/plans/{plan}/query", body: `{"sampler": "quantum"}`, status: 400, rctype: jsonCT,
			err: `unknown sampler "quantum" (semantic, cnarw, node2vec)`},
		{name: "plan sampler refused", path: "/v1/plans/{plan}/query", body: `{"sampler": "cnarw"}`, status: 400, rctype: jsonCT, traced: true,
			err: "core: option is compiled into the prepared plan: plan compiled with {sampler:0 n:3 tau:0.85}, " +
				"execution requested {sampler:1 n:3 tau:0.85}"},
		{name: "plan aggregates+stream", path: "/v1/plans/{plan}/query", body: `{"stream": true` + aggs + `}`, status: 400, rctype: jsonCT, traced: true,
			err: `"aggregates" and "stream" are incompatible`},

		// POST /v1/prepare
		{name: "prepare ok", path: "/v1/prepare", body: fmt.Sprintf(`{"query": %q, "tau": 0.8}`, countGer), status: 200, rctype: jsonCT, traced: true, keys: planKeys},
		{name: "prepare again", path: "/v1/prepare", body: fmt.Sprintf(`{"query": %q, "tau": 0.8}`, countGer), status: 200, rctype: jsonCT, traced: true,
			keys: planKeys},
		{name: "prepare 415", path: "/v1/prepare", ctype: "text/plain", body: q(""), status: 415, rctype: jsonCT, err: badCT},
		{name: "prepare 413", path: "/v1/prepare", body: big, status: 413, rctype: jsonCT, err: tooBig},
		{name: "prepare malformed", path: "/v1/prepare", body: `{not json`, status: 400, rctype: jsonCT, err: malformed},
		{name: "prepare unknown field", path: "/v1/prepare", body: q(""), status: 400, rctype: jsonCT,
			err: `bad request body: json: unknown field "seed"`},
		{name: "prepare shards field", path: "/v1/prepare", body: fmt.Sprintf(`{"query": %q, "shards": 2}`, countGer), status: 400, rctype: jsonCT,
			err: `bad request body: json: unknown field "shards"`},
		{name: "prepare missing", path: "/v1/prepare", body: `{}`, status: 400, rctype: jsonCT, err: `missing "query"`},
		{name: "prepare parse", path: "/v1/prepare", body: `{"query": "AVG(price) MATCH nonsense"}`, status: 400, rctype: jsonCT,
			err: "parse: query: parse: at offset 17: expected '(' starting a node"},
		{name: "prepare epoch_policy", path: "/v1/prepare", body: fmt.Sprintf(`{"query": %q, "epoch_policy": "float"}`, countGer), status: 400, rctype: jsonCT,
			err: `unknown epoch_policy "float" (pin, repin)`},
		{name: "prepare unknown entity", path: "/v1/prepare", body: fmt.Sprintf(`{"query": %q}`, atlantis), status: 400, rctype: jsonCT, traced: true,
			err: unknownEntity},

		// POST /v1/federate/sample
		{name: "sample ok", path: "/v1/federate/sample", body: fmt.Sprintf(`{"query": %q, "draws": 50, "pilot": true, "seed": 7}`, avgPriceText),
			status: 200, rctype: jsonCT, traced: true, keys: sampleKeys},
		{name: "sample unresolved", path: "/v1/federate/sample", body: fmt.Sprintf(`{"query": %q, "draws": 50}`, atlantis),
			status: 200, rctype: jsonCT, traced: true, keys: sampleKeys},
		{name: "sample 415", path: "/v1/federate/sample", ctype: "text/plain", body: q(""), status: 415, rctype: jsonCT, err: badCT},
		{name: "sample 413", path: "/v1/federate/sample", body: big, status: 413, rctype: jsonCT, err: tooBig},
		{name: "sample malformed", path: "/v1/federate/sample", body: `{not json`, status: 400, rctype: jsonCT, err: malformed},
		{name: "sample unknown field", path: "/v1/federate/sample", body: `{"query": "x", "stream": true}`, status: 400, rctype: jsonCT,
			err: `bad request body: json: unknown field "stream"`},
		{name: "sample missing", path: "/v1/federate/sample", body: `{"draws": 5}`, status: 400, rctype: jsonCT, err: `missing "query"`},
		{name: "sample parse", path: "/v1/federate/sample", body: `{"query": "AVG(price) MATCH nonsense"}`, status: 400, rctype: jsonCT,
			err: "parse: query: parse: at offset 17: expected '(' starting a node"},

		// POST /v1/mutate
		{name: "mutate ok", path: "/v1/mutate", ctype: "application/x-ndjson",
			body:   `{"op":"set_attr","entity":"Berlin","attr":"population","value":3.6}`,
			status: 200, rctype: jsonCT, traced: true, keys: []string{"applied", "edges", "epoch", "nodes", "trace_id"}},
		{name: "mutate 415", path: "/v1/mutate", ctype: "text/plain", body: `{}`, status: 415, rctype: jsonCT,
			err: `unsupported Content-Type "text/plain" (use application/x-ndjson)`},
		{name: "mutate empty", path: "/v1/mutate", ctype: "application/x-ndjson", body: "\n", status: 400, rctype: jsonCT,
			err: "empty mutation batch"},
		{name: "mutate bad line", path: "/v1/mutate", ctype: "application/x-ndjson", body: "{not json", status: 400, rctype: jsonCT,
			err: "line 1: invalid character 'n' looking for beginning of object key string"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ct := c.ctype
			if ct == "" {
				ct = "application/json"
			}
			resp, err := http.Post(ts.URL+strings.ReplaceAll(c.path, "{plan}", plan.ID), ct, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.status {
				t.Errorf("status = %d, want %d (%s)", resp.StatusCode, c.status, trimBody(buf.Bytes()))
			}
			if got := resp.Header.Get("Content-Type"); got != c.rctype {
				t.Errorf("Content-Type = %q, want %q", got, c.rctype)
			}
			if got := resp.Header.Get(TraceIDHeader) != ""; got != c.traced {
				t.Errorf("X-Trace-ID present = %v, want %v", got, c.traced)
			}
			if resp.Header.Get(RequestIDHeader) == "" {
				t.Error("X-Request-ID missing")
			}
			if c.status != http.StatusOK {
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
					t.Fatalf("error body %s: %v", trimBody(buf.Bytes()), err)
				}
				if e.Error != c.err {
					t.Errorf("error = %q, want %q", e.Error, c.err)
				}
				return
			}
			keys := map[string]bool{}
			sc := bufio.NewScanner(&buf)
			for sc.Scan() {
				var v any
				if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
					t.Fatalf("%v in %s", err, sc.Text())
				}
				keyPaths(v, "", keys)
			}
			got := make([]string, 0, len(keys))
			for k := range keys {
				got = append(got, k)
			}
			sort.Strings(got)
			want := slices.Clone(c.keys)
			sort.Strings(want)
			if !slices.Equal(got, want) {
				t.Errorf("keys:\n got %q\nwant %q", got, want)
			}
		})
	}
}

// keyPaths collects the dotted key paths of a decoded JSON value: array
// elements share the path "name[]" and the labels of a "groups" map
// collapse to "*".
func keyPaths(v any, prefix string, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			if strings.HasSuffix(prefix, "groups") {
				k = "*"
			}
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			keyPaths(e, p, out)
		}
	case []any:
		for _, e := range x {
			keyPaths(e, prefix+"[]", out)
		}
	}
}

func trimBody(b []byte) string {
	if len(b) > 300 {
		b = b[:300]
	}
	return string(b)
}
