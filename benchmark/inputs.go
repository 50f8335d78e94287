package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"

	"kgaq"
	"kgaq/internal/baselines"
	"kgaq/internal/datagen"
	"kgaq/internal/query"
)

// Every request carries these; confidence stays at the server's 0.95.
const (
	errorBound = 0.10
	tau        = 0.85
	hopBound   = 3
	timeoutMS  = 10000
)

// answerKey identifies one checked answer of a request: the request's own
// aggregate, or one aggregate of a multi request.
type answerKey struct {
	fn   query.AggFunc
	attr string
}

// distinct is one distinct request of a workload's list: a query text, an
// optional multi-aggregate spec, and the oracle truth of each answer.
type distinct struct {
	text     string
	agg      *query.Aggregate
	category string
	multi    []answerKey // non-nil = "aggregates" request
	// truth holds the SSB τ-ground-truth of every ungrouped COUNT/SUM/AVG
	// answer this request returns; empty for GROUP-BY requests, which count
	// for latency only.
	truth map[answerKey]float64
}

func (d *distinct) grouped() bool { return d.agg.GroupBy != "" }

// dataset is one generated graph with its files on disk and its request
// material.
type dataset struct {
	ds        *datagen.Dataset
	graphPath string
	embPath   string
	ssb       *baselines.SSB
	all       []*distinct // every non-extreme query, dataset order
	multis    []*distinct // one multi request per SUM/AVG simple query
}

// profileFor resolves the profile name with the graph seed applied.
func profileFor(name string, seed int64) (datagen.Profile, error) {
	p, ok := datagen.ProfileByName(name)
	if !ok {
		return p, fmt.Errorf("unknown profile %q", name)
	}
	p.Seed = seed
	return p, nil
}

// makeDataset generates the graph for (profile, graph seed), writes the two
// snapshot files kgaqd will load and computes every truth. None of this is
// inside setup_s.
func makeDataset(profile string, seed int64, dir, stem string) (*dataset, error) {
	p, err := profileFor(profile, seed)
	if err != nil {
		return nil, err
	}
	ds, err := datagen.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("generate %s seed %d: %w", profile, seed, err)
	}
	d := &dataset{
		ds:        ds,
		graphPath: filepath.Join(dir, stem+".graph"),
		embPath:   filepath.Join(dir, stem+".emb"),
	}
	if err := kgaq.SaveGraphSnapshot(d.graphPath, ds.Graph); err != nil {
		return nil, err
	}
	if err := kgaq.SaveEmbedding(d.embPath, ds.Model); err != nil {
		return nil, err
	}
	if d.ssb, err = baselines.NewSSB(ds.Graph, ds.Model, tau, hopBound); err != nil {
		return nil, err
	}
	for _, q := range ds.Queries {
		// MAX/MIN carry no guarantee and run sub-millisecond: they would
		// only dilute the percentiles.
		if q.Category == "extreme" {
			continue
		}
		r := &distinct{text: q.Agg.String(), agg: q.Agg, category: q.Category}
		if !r.grouped() {
			key := answerKey{q.Agg.Func, q.Agg.Attr}
			v, err := d.truthOf(q.Agg, key)
			if err != nil {
				return nil, err
			}
			r.truth = map[answerKey]float64{key: v}
		}
		d.all = append(d.all, r)
		if q.Category == "simple" && q.Agg.Func != query.Count {
			keys := []answerKey{{query.Count, ""}, {query.Sum, q.Agg.Attr}, {query.Avg, q.Agg.Attr}}
			m := &distinct{text: r.text, agg: q.Agg, category: "multi", multi: keys, truth: map[answerKey]float64{}}
			for _, k := range keys {
				if m.truth[k], err = d.truthOf(q.Agg, k); err != nil {
					return nil, err
				}
			}
			d.multis = append(d.multis, m)
		}
	}
	if len(d.all) == 0 {
		return nil, fmt.Errorf("profile %s seed %d generated no usable query", profile, seed)
	}
	return d, nil
}

// truthOf is the SSB answer of agg's query graph under another aggregate.
func (d *dataset) truthOf(agg *query.Aggregate, k answerKey) (float64, error) {
	a := *agg
	a.Func, a.Attr = k.fn, k.attr
	ans, err := d.ssb.Execute(&a)
	if err != nil {
		return 0, fmt.Errorf("oracle %s: %w", a.String(), err)
	}
	return ans.Value, nil
}

// byCategory filters the distinct list.
func byCategory(list []*distinct, cats ...string) []*distinct {
	var out []*distinct
	for _, r := range list {
		for _, c := range cats {
			if r.category == c {
				out = append(out, r)
			}
		}
	}
	return out
}

func ungrouped(list []*distinct) []*distinct {
	var out []*distinct
	for _, r := range list {
		if !r.grouped() {
			out = append(out, r)
		}
	}
	return out
}

// queryBody is the JSON body of one /v1/query request.
func queryBody(r *distinct, seed int64, minEpoch uint64) []byte {
	type spec struct {
		Func string `json:"func"`
		Attr string `json:"attr,omitempty"`
	}
	body := struct {
		Query      string  `json:"query"`
		ErrorBound float64 `json:"error_bound"`
		Seed       int64   `json:"seed"`
		TimeoutMS  int     `json:"timeout_ms"`
		MinEpoch   uint64  `json:"min_epoch,omitempty"`
		Aggregates []spec  `json:"aggregates,omitempty"`
	}{Query: r.text, ErrorBound: errorBound, Seed: seed, TimeoutMS: timeoutMS, MinEpoch: minEpoch}
	for _, k := range r.multi {
		body.Aggregates = append(body.Aggregates, spec{Func: k.fn.String(), Attr: k.attr})
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // plain strings and numbers cannot fail to encode
	}
	return b
}

// opSeed is the per-request engine seed of operation i: a splitmix64 step
// of (run seed, i), kept positive and non-zero (0 means "server default").
func opSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>1) | 1
}

// permutation is the seeded request order of a workload.
func permutation(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// mutationBatch is the churn write: a new Automobile produced by one of
// the read roots, priced from the seed. NDJSON, one batch per request.
func mutationBatch(seed int64, client, j int, country string) (body []byte, lines int) {
	name := fmt.Sprintf("BenchCar_%d_%d", client, j)
	price := 10000 + float64(opSeed(seed, client<<24|j)%50000)
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, m := range []kgaq.Mutation{
		kgaq.AddEntity(name, "Automobile"),
		kgaq.AddEdge(country, "product", name),
		kgaq.SetAttr(name, "price", price),
	} {
		if err := enc.Encode(m); err != nil {
			panic(err)
		}
		lines++
	}
	return []byte(sb.String()), lines
}
