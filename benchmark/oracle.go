package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"kgaq/internal/baselines"
	"kgaq/internal/kg"
	"kgaq/internal/live"
	"kgaq/internal/query"
	"kgaq/internal/semsim"
)

// Sanity limits on the aggregate validity of a run. Theorem 2 promises a
// miss share ≤ 0.05; the measured shares (0.06 single-engine, 0.2
// federated at eb 0.10) are tracked as metrics and written up in README.md.
// These limits only catch an estimator that is plainly broken.
const (
	maxMissShare = 0.50
	maxRelErrP50 = errorBound
)

// accuracy scores every ungrouped COUNT/SUM/AVG answer against the oracle.
func (e *env) accuracy(m *metrics, res *result, flat []sample) error {
	truthOf := func(s *sample, k answerKey) (float64, error) { return s.req.truth[k], nil }
	if e.wl.churn {
		mirror, err := newMirror(e.data[0], flat)
		if err != nil {
			res.Findings = append(res.Findings, "churn oracle: "+err.Error())
			return nil
		}
		truthOf = mirror.truth
	}
	var n, unconverged, miss float64
	var relErr []float64
	for i := range flat {
		s := &flat[i]
		if s.fail != "" || s.mutate {
			continue
		}
		for _, a := range s.answers {
			truth, err := truthOf(s, a.key)
			if err != nil {
				return err
			}
			n++
			if !a.converged {
				unconverged++
			}
			if math.Abs(a.est-truth) > a.moe {
				miss++
			}
			if truth != 0 {
				relErr = append(relErr, math.Abs(a.est-truth)/math.Abs(truth))
			}
		}
	}
	if n == 0 {
		return fmt.Errorf("no checked answer in the measured phase")
	}
	m.exact("unconverged_share", unconverged/n, "ratio")
	m.exact("ci_miss_share", miss/n, "ratio")
	m.exact("converged_share", 1-unconverged/n, "ratio")
	m.exact("ci_cover_share", 1-miss/n, "ratio")
	p50 := median(relErr)
	m.exact("rel_err_p50", p50, "ratio")
	m.set("accuracy.answers", n, "count")
	if miss/n > maxMissShare {
		res.Findings = append(res.Findings, fmt.Sprintf("%.3f of the intervals miss the truth (limit %.2f)", miss/n, maxMissShare))
	}
	if p50 > maxRelErrP50 {
		res.Findings = append(res.Findings, fmt.Sprintf("median relative error %.3f exceeds the requested bound %.2f", p50, maxRelErrP50))
	}
	return nil
}

// mirror replays churn's acknowledged batches, in epoch order, into an
// in-process live store, so that a read answered at epoch k is scored
// against the truth of the graph at epoch k.
type mirror struct {
	calc  *semsim.Calculator
	snaps []*live.Snapshot // index = epoch
	memo  map[mirrorKey]float64
}

type mirrorKey struct {
	req   *distinct
	key   answerKey
	epoch uint64
}

func newMirror(d *dataset, flat []sample) (*mirror, error) {
	calc, err := semsim.NewCalculator(d.ds.Graph, d.ds.Model, 0)
	if err != nil {
		return nil, err
	}
	var acked []*sample
	for i := range flat {
		if flat[i].mutate {
			if flat[i].fail != "" {
				return nil, fmt.Errorf("a mutate failed, the epoch history is unknown")
			}
			acked = append(acked, &flat[i])
		}
	}
	sort.Slice(acked, func(i, j int) bool { return acked[i].epoch < acked[j].epoch })
	store := live.NewStore(d.ds.Graph, 0)
	mi := &mirror{calc: calc, snaps: []*live.Snapshot{store.Snapshot()}, memo: map[mirrorKey]float64{}}
	for i, s := range acked {
		if s.epoch != uint64(i+1) {
			return nil, fmt.Errorf("acknowledged epochs are not 1..%d: position %d holds %d", len(acked), i+1, s.epoch)
		}
		batch, err := decodeBatch(s.body)
		if err != nil {
			return nil, err
		}
		snap, err := store.Apply(batch)
		if err != nil {
			return nil, fmt.Errorf("mirror apply epoch %d: %w", s.epoch, err)
		}
		mi.snaps = append(mi.snaps, snap)
	}
	return mi, nil
}

func (mi *mirror) truth(s *sample, k answerKey) (float64, error) {
	if s.epoch >= uint64(len(mi.snaps)) {
		return 0, fmt.Errorf("read answered at epoch %d, only %d acknowledged", s.epoch, len(mi.snaps)-1)
	}
	mk := mirrorKey{s.req, k, s.epoch}
	if v, ok := mi.memo[mk]; ok {
		return v, nil
	}
	v, err := oneHopTruth(mi.snaps[s.epoch], mi.calc, s.req.agg)
	if err != nil {
		return 0, err
	}
	// The mirror's oracle is a re-statement of SSB for one-hop queries on a
	// ReadGraph; at epoch 0 it must agree with SSB itself.
	if s.epoch == 0 && math.Abs(v-s.req.truth[k]) > 1e-9*math.Max(1, math.Abs(v)) {
		return 0, fmt.Errorf("one-hop oracle %.6g disagrees with SSB %.6g on %s", v, s.req.truth[k], s.req.text)
	}
	mi.memo[mk] = v
	return v, nil
}

// typeIDs resolves the type names the graph knows.
func typeIDs(g kg.ReadGraph, names []string) []kg.TypeID {
	var out []kg.TypeID
	for _, n := range names {
		if t := g.TypeByName(n); t != kg.InvalidType {
			out = append(out, t)
		}
	}
	return out
}

// oneHopTruth is Algorithm 1 for a simple query on any ReadGraph: the
// τ-relevant typed nodes within the hop bound, aggregated exactly.
func oneHopTruth(g kg.ReadGraph, calc *semsim.Calculator, agg *query.Aggregate) (float64, error) {
	paths, err := agg.Q.Decompose()
	if err != nil {
		return 0, err
	}
	if len(paths) != 1 || len(paths[0].Hops) != 1 {
		return 0, fmt.Errorf("churn reads must be one-hop queries: %s", agg.String())
	}
	p, hop := paths[0], paths[0].Hops[0]
	root, pred := g.NodeByName(p.RootName), g.PredByName(hop.Predicate)
	if root == kg.InvalidNode || pred == kg.InvalidPred {
		return 0, fmt.Errorf("unresolvable churn read %s", agg.String())
	}
	types := typeIDs(g, hop.Types)
	var answers []kg.NodeID
	for u, sim := range semsim.Exhaustive(g, calc, root, pred, hopBound) {
		if sim >= tau && g.SharesType(u, types) {
			answers = append(answers, u)
		}
	}
	sort.Slice(answers, func(i, j int) bool { return answers[i] < answers[j] })
	ans, err := baselines.AggregateOver(g, agg, answers)
	if err != nil {
		return 0, err
	}
	return ans.Value, nil
}

// Sizes of the from-outside probes of a -trace 1 run.
const (
	mutateTail   = 60 // batches sent to a static workload's member 0
	singleReplay = 2 * time.Second
)

// afterLoad runs what follows the measured phase. churn_durable always
// crashes and recovers its server: the recovered epoch is part of its
// correctness. A -trace 1 run does the same on every workload and adds the
// member-RPC, single-member and mutate probes, so that each per-layer
// metric is a measurement on each workload.
func (e *env) afterLoad(m *metrics, res *result, flat []sample) error {
	var lastAck uint64
	mutations := 0
	for _, s := range flat {
		if s.mutate && s.fail == "" {
			lastAck = max(lastAck, s.epoch)
			mutations += 3
		}
	}
	m0 := e.servers[0]

	if e.cfg.Trace {
		var rpc []float64
		cl := newClient(m0.addr)
		for i, r := range ungrouped(e.list) {
			if r.multi != nil {
				continue
			}
			body, _ := json.Marshal(map[string]any{"query": r.text, "draws": 0, "pilot": true,
				"seed": opSeed(e.cfg.Seed, -1000-i), "timeout_ms": timeoutMS})
			status, out, lat, err := cl.post("/v1/federate/sample", "application/json", body)
			if err != nil || status != 200 {
				return fmt.Errorf("member RPC %s: status %d err %v: %.200s", r.text, status, err, out)
			}
			rpc = append(rpc, lat)
		}
		cl.close()
		m.setN("federate.member_rpc_p50_ms", percentile(rpc, 0.50), "ms", len(rpc))

		ratio := 1.0 // the target is the single member
		if e.coord != nil {
			gen := staticGen(e.list, e.cfg.Seed, e.cfg.Clients)
			ops := 0
			if e.cfg.Seconds == 0 {
				ops = e.sized(100)
			}
			single, _ := runLoad(m0.addr, e.cfg.Clients, gen, ops, singleReplay)
			var lat []float64
			for _, s := range single {
				if s.fail != "" {
					return fmt.Errorf("single-member replay: %s", s.fail)
				}
				lat = append(lat, s.latMS)
			}
			ratio = m.byName["query_p50_ms"].Value / percentile(lat, 0.50)
		}
		m.set("federate.vs_single_member_p50", ratio, "ratio")

		if !e.wl.churn {
			// Static workloads have served every checked read by now; the
			// tail measures the memory-only mutate path through HTTP.
			roots := rootsOf(byCategory(e.data[0].all, "simple"))
			gen := func(c, j int, _ uint64) op {
				body, lines := mutationBatch(e.cfg.Seed, c, j, roots[j%len(roots)])
				return op{mutate: true, body: body, lines: lines}
			}
			tail, _ := runLoad(m0.addr, 1, gen, e.sized(mutateTail), 0)
			var lat []float64
			for _, s := range tail {
				if s.fail != "" {
					return fmt.Errorf("mutate tail: %s", s.fail)
				}
				lat = append(lat, s.latMS)
				lastAck = max(lastAck, s.epoch)
			}
			m.setN("mutate_p50_ms", percentile(lat, 0.50), "ms", len(lat))
			m.setN("httpapi.mutate_p95_ms", percentile(lat, 0.95), "ms", len(lat))
		}
	}
	if !e.cfg.Trace && !e.wl.churn {
		return nil
	}

	h, err := healthz(m0.addr)
	if err != nil {
		return err
	}
	m.set("live.delta_nodes_end", float64(h.DeltaNodes), "count")
	walBytes, segments := dirBytes(e.dataDir, "wal-")
	m.exact("wal.bytes_per_mutation", float64(walBytes)/float64(max(mutations, 1)), "bytes")
	m.set("wal.segments_end", float64(segments), "count")

	m0.kill()
	np, recoverS, err := m0.restart(e.work)
	if err != nil {
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	e.servers[0] = np
	m.set("live.recover_s", recoverS, "s")
	if e.wl.churn {
		h, err := healthz(np.addr)
		if err != nil {
			return err
		}
		if h.Epoch != lastAck {
			res.Findings = append(res.Findings, fmt.Sprintf("recovered epoch %d != last acknowledged epoch %d", h.Epoch, lastAck))
		}
		m.set("live.recovered_epoch", float64(h.Epoch), "count")
	}
	return nil
}
