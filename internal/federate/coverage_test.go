package federate_test

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"kgaq/internal/baselines"
	"kgaq/internal/core"
	"kgaq/internal/datagen"
	"kgaq/internal/federate"
	"kgaq/internal/httpapi"
	"kgaq/internal/query"
)

// TestFederatedCoverageTiny is TestSeededCoverageTiny (internal/core) for
// the federated path: three `tiny` members generated from distinct datagen
// seeds (7, 1007, 2007, as the benchmark offsets its members' graphs), with
// validation on, and every ungrouped COUNT/SUM/AVG query of member 0 under 6
// seeds at eb 0.10. The truth is the federation's: COUNT and SUM add the
// members' SSB answers, AVG is Σ SUM / Σ COUNT. Each (query, seed) pair is
// scored twice: cold, on a fresh coordinator, and warm, as the next
// execution (another seed) on that coordinator, sized from the cold one's
// prior. An answer the coordinator could not estimate counts as neither
// covered nor converged.
//
// The floors are the shares this test measured when the prior was added,
// minus 0.02: 168 pairs, cold covered 0.8988 and converged 0.9940, warm
// covered 0.8988 and converged 1.0000, in 0.7 s. The cold path is the one
// every execution took before priors existed.
func TestFederatedCoverageTiny(t *testing.T) {
	p := datagen.TinyProfile()
	type member struct {
		ssb *baselines.SSB
		url string
	}
	var members []member
	var queries []datagen.GenQuery
	for j := int64(0); j < 3; j++ {
		mp := p
		mp.Seed = p.Seed + 1000*j
		ds, err := datagen.Generate(mp)
		if err != nil {
			t.Fatal(err)
		}
		if j == 0 {
			queries = ds.Queries
		}
		ssb, err := baselines.NewSSB(ds.Graph, ds.Model, p.OptimalTau, 3)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(ds.Graph, ds.Model, core.Options{Tau: p.OptimalTau})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(httpapi.NewServer(eng).Handler())
		t.Cleanup(srv.Close)
		members = append(members, member{ssb, srv.URL})
	}
	fedMembers := make([]federate.Member, len(members))
	for j, m := range members {
		fedMembers[j] = federate.Member{Name: fmt.Sprintf("m%d", j), URL: m.url}
	}
	// Every cold coordinator shares one connection pool.
	cfg := fastConfig(fedMembers)
	cfg.Client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	t.Cleanup(cfg.Client.CloseIdleConnections)
	base := core.Options{ErrorBound: 0.10, Tau: p.OptimalTau}

	// sum is the federation's SSB answer of a's query graph under fn(attr),
	// for COUNT and SUM.
	sum := func(a *query.Aggregate, fn query.AggFunc, attr string) float64 {
		c := *a
		c.Func, c.Attr = fn, attr
		total := 0.0
		for _, m := range members {
			ans, err := m.ssb.Execute(&c)
			if err != nil {
				t.Fatalf("SSB %v: %v", c.String(), err)
			}
			total += ans.Value
		}
		return total
	}
	type shares struct{ scored, covered, converged int }
	var cold, warm shares
	score := func(s *shares, res *core.Result, err error, want float64) {
		s.scored++
		if err != nil {
			return
		}
		if res.Converged {
			s.converged++
		}
		if math.Abs(res.Estimate-want) <= res.MoE {
			s.covered++
		}
	}
	ctx := context.Background()
	for _, gq := range queries {
		if gq.Category == "groupby" || gq.Category == "extreme" {
			continue
		}
		a := gq.Agg
		want := 0.0
		if a.Func == query.Avg {
			want = sum(a, query.Sum, a.Attr) / sum(a, query.Count, "")
		} else {
			want = sum(a, a.Func, a.Attr)
		}
		for seed := int64(1); seed <= 6; seed++ {
			coord, err := federate.New(cfg, base)
			if err != nil {
				t.Fatal(err)
			}
			res, err := coord.Query(ctx, a, core.WithSeed(seed))
			score(&cold, res, err, want)
			res, err = coord.Query(ctx, a, core.WithSeed(seed+1000))
			score(&warm, res, err, want)
		}
	}
	if cold.scored < 60 {
		t.Fatalf("only %d (query, seed) pairs, want ≥ 60", cold.scored)
	}
	share := func(n, of int) float64 { return float64(n) / float64(of) }
	for _, c := range []struct {
		name                        string
		s                           shares
		floorCovered, floorConverge float64
	}{
		{"cold", cold, 0.8988 - 0.02, 0.9940 - 0.02},
		{"warm", warm, 0.8988 - 0.02, 1 - 0.02},
	} {
		cov, conv := share(c.s.covered, c.s.scored), share(c.s.converged, c.s.scored)
		t.Logf("%s: %d pairs: covered %.4f, converged %.4f", c.name, c.s.scored, cov, conv)
		if cov < c.floorCovered {
			t.Errorf("%s covered share %.4f below its floor %.4f", c.name, cov, c.floorCovered)
		}
		if conv < c.floorConverge {
			t.Errorf("%s converged share %.4f below its floor %.4f", c.name, conv, c.floorConverge)
		}
	}
	if share(warm.covered, warm.scored) < share(cold.covered, cold.scored)-0.02 {
		t.Errorf("warm covered share %.4f more than 0.02 below cold %.4f",
			share(warm.covered, warm.scored), share(cold.covered, cold.scored))
	}
}
