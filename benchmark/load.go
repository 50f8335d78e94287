package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"
)

// op is one request of a client's sequence.
type op struct {
	mutate   bool
	req      *distinct // nil for a mutate batch
	body     []byte
	minEpoch uint64
	lines    int // mutations in a batch
}

// answer is one checked (ungrouped COUNT/SUM/AVG) answer of a response.
type answer struct {
	key       answerKey
	est, moe  float64
	converged bool
}

// sample is the client-side record of one completed operation.
type sample struct {
	mutate   bool
	req      *distinct
	latMS    float64 // client-observed: request written → body fully read
	serverMS float64 // the response's elapsed_ms
	bytes    int
	fail     string // "" = success
	epoch    uint64
	rounds   int
	draws    int
	answers  []answer
	body     []byte // a mutate batch's NDJSON, for the churn oracle's replay
}

// client is one closed-loop load-generator connection.
type client struct {
	base string
	http *http.Client
	buf  bytes.Buffer
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		http: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
			Timeout:   time.Duration(timeoutMS+5000) * time.Millisecond,
		},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends one body and returns status, the full response body (valid
// until the next call) and the client-observed latency.
func (c *client) post(path, ctype string, body []byte) (int, []byte, float64, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", ctype)
	begin := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, msSince(begin), err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	lat := msSince(begin)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), lat, err
}

// do runs one op and validates the response: transport error, non-200,
// unparseable body, non-finite estimate or margin, interrupted, degraded
// and a stale epoch are failures; an un-converged answer is not.
func (c *client) do(o op) sample {
	s := sample{mutate: o.mutate, req: o.req}
	if o.mutate {
		s.body = o.body
	}
	path, ctype := "/v1/query", "application/json"
	if o.mutate {
		path, ctype = "/v1/mutate", "application/x-ndjson"
	}
	status, body, lat, err := c.post(path, ctype, o.body)
	s.latMS, s.bytes = lat, len(body)
	switch {
	case err != nil:
		s.fail = "transport: " + err.Error()
	case status != http.StatusOK:
		s.fail = fmt.Sprintf("status %d: %.200s", status, body)
	case o.mutate:
		var mr struct {
			Epoch   uint64 `json:"epoch"`
			Applied int    `json:"applied"`
		}
		if err := json.Unmarshal(body, &mr); err != nil {
			s.fail = "unparseable mutate response: " + err.Error()
		} else if mr.Applied != o.lines || mr.Epoch == 0 {
			s.fail = fmt.Sprintf("mutate applied %d of %d at epoch %d", mr.Applied, o.lines, mr.Epoch)
		}
		s.epoch = mr.Epoch
	default:
		s.fail = parseQueryResponse(body, o, &s)
	}
	return s
}

type wireAnswer struct {
	Func      string   `json:"func"`
	Attr      string   `json:"attr"`
	Estimate  *float64 `json:"estimate"`
	MoE       *float64 `json:"moe"`
	Converged bool     `json:"converged"`
}

// parseQueryResponse fills s from a single- or multi-aggregate body and
// returns the failure reason, if any.
func parseQueryResponse(body []byte, o op, s *sample) string {
	var r struct {
		wireAnswer
		Interrupted bool `json:"interrupted"`
		Degraded    bool `json:"degraded"`
		SampleSize  int  `json:"sample_size"`
		// rounds is a list on single-aggregate responses and a count on
		// multi-aggregate ones.
		Rounds     json.RawMessage                        `json:"rounds"`
		Groups     map[string]struct{ Estimate *float64 } `json:"groups"`
		Aggregates []wireAnswer                           `json:"aggregates"`
		Epoch      uint64                                 `json:"epoch"`
		ElapsedMS  float64                                `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return "unparseable response: " + err.Error()
	}
	s.epoch, s.serverMS, s.draws = r.Epoch, r.ElapsedMS, r.SampleSize
	if len(r.Rounds) > 0 && r.Rounds[0] == '[' {
		var rounds []json.RawMessage
		if err := json.Unmarshal(r.Rounds, &rounds); err != nil {
			return "unparseable rounds: " + err.Error()
		}
		s.rounds = len(rounds)
	} else if len(r.Rounds) > 0 {
		if err := json.Unmarshal(r.Rounds, &s.rounds); err != nil {
			return "unparseable rounds: " + err.Error()
		}
	}
	switch {
	case r.Interrupted:
		return "interrupted"
	case r.Degraded:
		return "degraded"
	case r.Epoch < o.minEpoch:
		return fmt.Sprintf("stale read: epoch %d < min_epoch %d", r.Epoch, o.minEpoch)
	}
	finite := func(p *float64) bool { return p != nil && !math.IsNaN(*p) && !math.IsInf(*p, 0) }
	switch {
	case o.req.multi != nil:
		if len(r.Aggregates) != len(o.req.multi) {
			return fmt.Sprintf("%d aggregates for %d specs", len(r.Aggregates), len(o.req.multi))
		}
		for i, a := range r.Aggregates {
			if !finite(a.Estimate) || !finite(a.MoE) {
				return "non-finite estimate or margin in aggregate " + a.Func
			}
			s.answers = append(s.answers, answer{o.req.multi[i], *a.Estimate, *a.MoE, a.Converged})
		}
	case o.req.grouped():
		if len(r.Groups) == 0 {
			return "GROUP-BY response without groups"
		}
		for label, g := range r.Groups {
			if !finite(g.Estimate) {
				return "non-finite estimate in group " + label
			}
		}
	default:
		if !finite(r.Estimate) || !finite(r.MoE) {
			return "non-finite estimate or margin"
		}
		key := answerKey{o.req.agg.Func, o.req.agg.Attr}
		s.answers = append(s.answers, answer{key, *r.Estimate, *r.MoE, r.Converged})
	}
	return ""
}

// generator yields client c's j-th op; last is the newest epoch any of
// that client's writes was acknowledged at.
type generator func(c, j int, last uint64) op

// runLoad drives the closed loop: each client issues its own fixed
// sequence, the next request only after the previous reply. The phase ends
// once both dur has passed and ops operations were issued in total (client
// c takes j with j·clients+c < ops): dur 0 gives exactly ops operations,
// ops 0 a phase of length dur.
func runLoad(addr string, clients int, gen generator, ops int, dur time.Duration) (samples []sample, wall time.Duration) {
	perClient := make([][]sample, clients)
	var wg sync.WaitGroup
	begin := time.Now()
	deadline := begin.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(addr)
			defer cl.close()
			var last uint64
			out := make([]sample, 0, 4096)
			for j := 0; ; j++ {
				if j*clients+c >= ops && !time.Now().Before(deadline) {
					break
				}
				s := cl.do(gen(c, j, last))
				if s.mutate && s.fail == "" {
					last = s.epoch
				}
				out = append(out, s)
			}
			perClient[c] = out
		}(c)
	}
	wg.Wait()
	wall = time.Since(begin)
	for _, cs := range perClient {
		samples = append(samples, cs...)
	}
	return samples, wall
}

// staticGen cycles a seeded permutation of list; op i = j·clients+c gets
// its own engine seed, so a repeated query never repeats an execution.
func staticGen(list []*distinct, seed int64, clients int) generator {
	perm := permutation(seed, len(list))
	return func(c, j int, _ uint64) op {
		i := j*clients + c
		r := list[perm[i%len(perm)]]
		return op{req: r, body: queryBody(r, opSeed(seed, i), 0)}
	}
}

// churnGen loops 4 reads + 1 mutate batch per client; reads demand the
// client's last acknowledged epoch (read-your-writes).
func churnGen(reads []*distinct, roots []string, seed int64, clients int) generator {
	perm := permutation(seed, len(reads))
	return func(c, j int, last uint64) op {
		i := j*clients + c
		if j%5 == 4 {
			body, lines := mutationBatch(seed, c, j, roots[i%len(roots)])
			return op{mutate: true, body: body, lines: lines}
		}
		r := reads[perm[i%len(perm)]]
		return op{req: r, body: queryBody(r, opSeed(seed, i), last), minEpoch: last}
	}
}

// rootsOf lists the distinct specific-entity names of one-hop queries.
func rootsOf(list []*distinct) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range list {
		for _, n := range r.agg.Q.Nodes {
			if n.IsSpecific() && !seen[n.Name] {
				seen[n.Name] = true
				out = append(out, n.Name)
			}
		}
	}
	return out
}
