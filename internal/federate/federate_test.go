package federate_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"kgaq/internal/core"
	"kgaq/internal/embedding/embtest"
	"kgaq/internal/estimate"
	"kgaq/internal/federate"
	"kgaq/internal/httpapi"
	"kgaq/internal/kg"
	"kgaq/internal/query"
	"kgaq/internal/stats"
)

// buildSplit constructs a federation fixture the way a shard-owners
// deployment splits one logical graph: every graph (member and twin alike)
// holds the anchor Country Root_0, member j owns the answers with
// i ≡ j (mod parts), and the unsplit twin holds all of them. Prices are
// deterministic, so exact ground truth is available alongside the twin.
func buildSplit(parts, answers int) (members []*kg.Graph, twin *kg.Graph, sum float64) {
	build := func(owns func(i int) bool) *kg.Graph {
		bld := kg.NewBuilder()
		root := bld.AddNode("Root_0", "Country")
		for i := 0; i < answers; i++ {
			if !owns(i) {
				continue
			}
			car := bld.AddNode(fmt.Sprintf("Car_%d", i), "Automobile")
			if err := bld.SetAttr(car, "price", price(i)); err != nil {
				panic(err)
			}
			if err := bld.AddEdge(root, "product", car); err != nil {
				panic(err)
			}
			// Non-answer structure so the walk has somewhere else to go.
			factory := bld.AddNode(fmt.Sprintf("Factory_%d", i), "Factory")
			if err := bld.AddEdge(car, "assembly", factory); err != nil {
				panic(err)
			}
		}
		return bld.Build()
	}
	for j := 0; j < parts; j++ {
		members = append(members, build(func(i int) bool { return i%parts == j }))
	}
	twin = build(func(int) bool { return true })
	for i := 0; i < answers; i++ {
		sum += price(i)
	}
	return members, twin, sum
}

func price(i int) float64 { return 10000 + float64(i%37)*777 }

func newEngine(t *testing.T, g *kg.Graph, opts core.Options) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(g, embtest.Figure1Model(g), opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng
}

// startFederation boots one in-process member server per graph, optionally
// wrapped (the chaos tests interpose kill switches), and returns the member
// list for a coordinator.
func startFederation(t *testing.T, graphs []*kg.Graph, wrap func(j int, h http.Handler) http.Handler) []federate.Member {
	t.Helper()
	var members []federate.Member
	for j, g := range graphs {
		eng := newEngine(t, g, core.Options{SkipValidation: true, Seed: int64(100 + j)})
		h := httpapi.NewServer(eng).Handler()
		if wrap != nil {
			h = wrap(j, h)
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		members = append(members, federate.Member{Name: fmt.Sprintf("m%d", j), URL: srv.URL})
	}
	return members
}

// fastConfig keeps death detection cheap inside tests.
func fastConfig(members []federate.Member) federate.Config {
	return federate.Config{
		Members:      members,
		Retries:      1,
		RetryBackoff: 5e6, // 5ms
		HedgeAfter:   -1,  // wall-clock hedging off: deterministic tests
	}
}

// TestFederatedMatchesUnsplitTwin is the merge-correctness property: the
// federated COUNT/SUM/AVG over 3 members must agree with an unsplit twin of
// the same logical graph within the two runs' guaranteed margins, and the
// federated interval must contain the exact truth.
func TestFederatedMatchesUnsplitTwin(t *testing.T) {
	const answers = 240
	graphs, twin, sum := buildSplit(3, answers)
	members := startFederation(t, graphs, nil)
	coord, err := federate.New(fastConfig(members), core.Options{ErrorBound: 0.1, Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	twinEng := newEngine(t, twin, core.Options{SkipValidation: true, Seed: 11, ErrorBound: 0.1})

	cases := []struct {
		fn    query.AggFunc
		attr  string
		truth float64
	}{
		{query.Count, "", float64(answers)},
		{query.Sum, "price", sum},
		{query.Avg, "price", sum / float64(answers)},
	}
	for _, tc := range cases {
		t.Run(tc.fn.String(), func(t *testing.T) {
			q := query.Simple(tc.fn, tc.attr, "Root_0", "Country", "product", "Automobile")
			fed, err := coord.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("federated query: %v", err)
			}
			twinRes, err := twinEng.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("twin query: %v", err)
			}
			if !fed.Converged {
				t.Fatalf("federated query did not converge: %+v", fed)
			}
			if fed.Degraded {
				t.Fatalf("healthy federation reported degraded")
			}
			if fed.Strata != 3 {
				t.Fatalf("merged %d strata, want 3", fed.Strata)
			}
			if got := math.Abs(fed.Estimate - tc.truth); got > fed.MoE+1e-9 {
				t.Errorf("federated interval misses truth: estimate %.3f ± %.3f, truth %.3f",
					fed.Estimate, fed.MoE, tc.truth)
			}
			if got, bound := math.Abs(fed.Estimate-twinRes.Estimate), fed.MoE+twinRes.MoE; got > bound+1e-9 {
				t.Errorf("federated %.3f ± %.3f vs twin %.3f ± %.3f: gap %.3f exceeds combined margin %.3f",
					fed.Estimate, fed.MoE, twinRes.Estimate, twinRes.MoE, got, bound)
			}
			if fed.Candidates != answers {
				t.Errorf("federation-wide candidates = %d, want %d", fed.Candidates, answers)
			}
		})
	}
}

// killSwitch makes a member die (fail every sample RPC) after serving a
// fixed number of them — the mid-query member-kill chaos lever.
type killSwitch struct {
	inner     http.Handler
	served    atomic.Int64
	killAfter int64 // die once this many sample RPCs were served; 0 = dead from the start
}

func (k *killSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == federate.SamplePath {
		if k.served.Add(1) > k.killAfter {
			// Every attempt (including retries) lands here: the member is
			// gone for good, as after a SIGKILL.
			http.Error(w, "killed", http.StatusServiceUnavailable)
			return
		}
	}
	k.inner.ServeHTTP(w, r)
}

// TestMemberKillFreezesStratum kills one member after it served the pilot
// round: its gathered sample freezes in the merge (the estimate stays
// unbiased for the full federation), the response is flagged degraded, and
// the reported interval still contains the full unsplit truth.
func TestMemberKillFreezesStratum(t *testing.T) {
	const answers = 240
	graphs, _, sum := buildSplit(3, answers)
	var ks *killSwitch
	members := startFederation(t, graphs, func(j int, h http.Handler) http.Handler {
		if j != 2 {
			return h
		}
		ks = &killSwitch{inner: h, killAfter: 1}
		return ks
	})
	coord, err := federate.New(fastConfig(members), core.Options{ErrorBound: 0.02, Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	q := query.Simple(query.Sum, "price", "Root_0", "Country", "product", "Automobile")
	res, err := coord.Query(context.Background(), q,
		core.WithDegradation(core.Degradation{MaxErrorBound: 0.5}))
	if err != nil {
		t.Fatalf("degradation-enabled query must not fail on a member kill: %v", err)
	}
	if served := ks.served.Load(); served <= 1 {
		t.Fatalf("kill switch never engaged (served %d sample RPCs)", served)
	}
	if !res.Degraded {
		t.Fatalf("losing a member mid-query must flag the answer degraded: %+v", res)
	}
	if res.Strata != 3 {
		t.Fatalf("frozen stratum must stay in the merge: got %d strata, want 3", res.Strata)
	}
	// The frozen merge is still unbiased for the FULL federation, so the
	// honest (possibly widened) interval must cover the unsplit truth.
	if got := math.Abs(res.Estimate - sum); got > res.MoE+1e-9 {
		t.Errorf("degraded interval misses full truth: estimate %.1f ± %.1f, truth %.1f",
			res.Estimate, res.MoE, sum)
	}
}

// TestMemberDeadAtStartDropsStratum kills one member before it ever
// contributes: under degradation its stratum drops, the surviving strata
// re-weight, and the scoped answer (flagged degraded) covers the surviving
// members' truth.
func TestMemberDeadAtStartDropsStratum(t *testing.T) {
	const answers = 240
	graphs, _, _ := buildSplit(3, answers)
	members := startFederation(t, graphs, func(j int, h http.Handler) http.Handler {
		if j != 1 {
			return h
		}
		return &killSwitch{inner: h, killAfter: 0}
	})
	coord, err := federate.New(fastConfig(members), core.Options{ErrorBound: 0.1, Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Truth over the surviving members 0 and 2 only.
	survivorSum := 0.0
	survivors := 0
	for i := 0; i < answers; i++ {
		if i%3 != 1 {
			survivorSum += price(i)
			survivors++
		}
	}
	q := query.Simple(query.Sum, "price", "Root_0", "Country", "product", "Automobile")
	res, err := coord.Query(context.Background(), q,
		core.WithDegradation(core.Degradation{MaxErrorBound: 0.5}))
	if err != nil {
		t.Fatalf("degradation-enabled query must not fail on a dead member: %v", err)
	}
	if !res.Degraded {
		t.Fatalf("a dropped member must flag the answer degraded: %+v", res)
	}
	if res.Strata != 2 {
		t.Fatalf("dropped stratum must leave the merge: got %d strata, want 2", res.Strata)
	}
	if res.Candidates != survivors {
		t.Errorf("surviving candidates = %d, want %d", res.Candidates, survivors)
	}
	if got := math.Abs(res.Estimate - survivorSum); got > res.MoE+1e-9 {
		t.Errorf("re-weighted interval misses the survivors' truth: estimate %.1f ± %.1f, truth %.1f",
			res.Estimate, res.MoE, survivorSum)
	}
}

// TestMemberDeathWithoutDegradationIsTyped asserts the other half of the
// honesty contract: without WithDegradation a dead member is a typed
// ErrPartialFederation, never a silently narrower answer.
func TestMemberDeathWithoutDegradationIsTyped(t *testing.T) {
	graphs, _, _ := buildSplit(3, 120)
	members := startFederation(t, graphs, func(j int, h http.Handler) http.Handler {
		if j != 0 {
			return h
		}
		return &killSwitch{inner: h, killAfter: 0}
	})
	coord, err := federate.New(fastConfig(members), core.Options{ErrorBound: 0.1, Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	q := query.Simple(query.Count, "", "Root_0", "Country", "product", "Automobile")
	_, err = coord.Query(context.Background(), q)
	if !errors.Is(err, federate.ErrPartialFederation) {
		t.Fatalf("want ErrPartialFederation, got %v", err)
	}
}

// TestEmptyMemberIsNotDeath: a member whose graph simply lacks the query's
// anchor answers with an empty stratum and the federation carries on at
// full health.
func TestEmptyMemberIsNotDeath(t *testing.T) {
	graphs, _, sum := buildSplit(2, 120)
	// A third member whose graph knows nothing about the query.
	bld := kg.NewBuilder()
	other := bld.AddNode("Elsewhere_0", "City")
	other2 := bld.AddNode("Elsewhere_1", "City")
	if err := bld.AddEdge(other, "near", other2); err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, bld.Build())
	members := startFederation(t, graphs, nil)
	coord, err := federate.New(fastConfig(members), core.Options{ErrorBound: 0.1, Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	q := query.Simple(query.Sum, "price", "Root_0", "Country", "product", "Automobile")
	res, err := coord.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Degraded || !res.Converged {
		t.Fatalf("an empty member is not a failure: %+v", res)
	}
	if res.Strata != 2 {
		t.Fatalf("merged %d strata, want 2 (empty member contributes none)", res.Strata)
	}
	if got := math.Abs(res.Estimate - sum); got > res.MoE+1e-9 {
		t.Errorf("interval misses truth: estimate %.1f ± %.1f, truth %.1f", res.Estimate, res.MoE, sum)
	}
}

// TestFederatedRejectsUnguaranteed: extremes and GROUP-BY do not decompose
// into remote strata and must be rejected with the typed sentinel.
func TestFederatedRejectsUnguaranteed(t *testing.T) {
	graphs, _, _ := buildSplit(2, 30)
	members := startFederation(t, graphs, nil)
	coord, err := federate.New(fastConfig(members), core.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	q := query.Simple(query.Max, "price", "Root_0", "Country", "product", "Automobile")
	if _, err := coord.Query(context.Background(), q); !errors.Is(err, core.ErrFederatedQuery) {
		t.Fatalf("MAX: want ErrFederatedQuery, got %v", err)
	}
	q = query.Simple(query.Count, "", "Root_0", "Country", "product", "Automobile")
	q.GroupBy = "price"
	if _, err := coord.Query(context.Background(), q); !errors.Is(err, core.ErrFederatedQuery) {
		t.Fatalf("GROUP-BY: want ErrFederatedQuery, got %v", err)
	}
}

func TestParseMembers(t *testing.T) {
	ms, err := federate.ParseMembers("a=http://h1:1, http://h2:2/,b=https://h3:3")
	if err != nil {
		t.Fatalf("ParseMembers: %v", err)
	}
	want := []federate.Member{
		{Name: "a", URL: "http://h1:1"},
		{Name: "member-1", URL: "http://h2:2"},
		{Name: "b", URL: "https://h3:3"},
	}
	if len(ms) != len(want) {
		t.Fatalf("got %d members, want %d", len(ms), len(want))
	}
	for i := range want {
		if ms[i] != want[i] {
			t.Errorf("member[%d] = %+v, want %+v", i, ms[i], want[i])
		}
	}
	if _, err := federate.ParseMembers("h1:1"); err == nil {
		t.Error("scheme-less member URL must be rejected")
	}
	if _, err := federate.ParseMembers(" , "); !errors.Is(err, federate.ErrNoMembers) {
		t.Errorf("empty spec: want ErrNoMembers, got %v", err)
	}
}

func TestReadMembersFile(t *testing.T) {
	ms, err := federate.ReadMembersFile("# fleet\neast http://h1:1\n\nhttp://h2:2/\n")
	if err != nil {
		t.Fatalf("ReadMembersFile: %v", err)
	}
	if len(ms) != 2 || ms[0] != (federate.Member{Name: "east", URL: "http://h1:1"}) ||
		ms[1] != (federate.Member{Name: "member-1", URL: "http://h2:2"}) {
		t.Fatalf("unexpected members: %+v", ms)
	}
	if _, err := federate.ReadMembersFile("a b c\n"); err == nil {
		t.Error("three-field line must be rejected")
	}
}

// TestMomentsWireKeepsCoordinatorResult pins the coordinator's answer for a
// fixed seed to the values the observation wire produced (captured on the
// commit before members began shipping moments): the statistics are
// algebraically the same, so estimate and ε agree to rounding and rounds and
// sample size exactly. Each query runs twice: cold from the pilot, then warm,
// sized from the cold run's prior (its row captured when priors landed).
func TestMomentsWireKeepsCoordinatorResult(t *testing.T) {
	graphs, _, _ := buildSplit(3, 240)
	members := startFederation(t, graphs, nil)
	coord, err := federate.New(fastConfig(members), core.Options{ErrorBound: 0.02, Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, tc := range []struct {
		fn     query.AggFunc
		attr   string
		rounds []core.Round // as the observation wire returned them
		warm   []core.Round // the repeat, sized from the first execution
	}{
		{query.Sum, "price", []core.Round{
			{Estimate: 5576376.000000009, MoE: 433252.63412245864, SampleSize: 90},
			{Estimate: 5715066.034482762, MoE: 173631.11049171642, SampleSize: 540},
			{Estimate: 5716920.640968496, MoE: 110527.7094189871, SampleSize: 1296},
		}, []core.Round{
			{Estimate: 5588354.299900696, MoE: 109360.03482166857, SampleSize: 1260},
		}},
		{query.Avg, "price", []core.Round{
			{Estimate: 23234.899999999994, MoE: 1805.2193088435743, SampleSize: 90},
			{Estimate: 23812.77514367816, MoE: 723.4629603821513, SampleSize: 540},
			{Estimate: 23820.50267070206, MoE: 460.5321225791127, SampleSize: 1296},
		}, []core.Round{
			{Estimate: 23284.80958291956, MoE: 455.66681175695226, SampleSize: 1260},
		}},
	} {
		q := query.Simple(tc.fn, tc.attr, "Root_0", "Country", "product", "Automobile")
		for run, rounds := range [][]core.Round{tc.rounds, tc.warm} {
			name := [...]string{"cold", "warm"}[run]
			res, err := coord.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("%v %s: %v", tc.fn, name, err)
			}
			last := rounds[len(rounds)-1]
			if !res.Converged || res.SampleSize != last.SampleSize || res.Correct != last.SampleSize {
				t.Errorf("%v %s: converged %v with %d draws (%d correct), want true with %d, all correct",
					tc.fn, name, res.Converged, res.SampleSize, res.Correct, last.SampleSize)
			}
			if len(res.Rounds) != len(rounds) {
				t.Fatalf("%v %s: %d rounds, want %d: %+v", tc.fn, name, len(res.Rounds), len(rounds), res.Rounds)
			}
			for i, want := range rounds {
				got := res.Rounds[i]
				if got.SampleSize != want.SampleSize ||
					math.Abs(got.Estimate-want.Estimate) > 1e-9*want.Estimate ||
					math.Abs(got.MoE-want.MoE) > 1e-9*want.MoE {
					t.Errorf("%v %s round %d: %+v, want %+v", tc.fn, name, i, got, want)
				}
			}
			if res.Estimate != res.Rounds[len(res.Rounds)-1].Estimate || res.MoE != res.Rounds[len(res.Rounds)-1].MoE {
				t.Errorf("%v %s: result %v ± %v is not its last round %+v", tc.fn, name, res.Estimate, res.MoE, res.Rounds[len(res.Rounds)-1])
			}
		}
	}
}

// fakeMember answers sample RPCs with the moments of a synthetic seeded
// sample over 100 equiprobable candidates, half of them correct, at the
// epoch and through the tampering the test chooses.
func fakeMember(t *testing.T, epochOf func(rpc int) uint64, tamper func(*federate.SampleResponse)) (federate.Member, *atomic.Int64) {
	t.Helper()
	var rpcs, drawn atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req federate.SampleRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n := req.Draws
		if req.Pilot && n < 30 {
			n = 30
		}
		rng := stats.NewRand(req.Seed)
		obs := make([]estimate.Observation, n)
		for i := range obs {
			obs[i] = estimate.Observation{Value: 10 + 90*rng.Float64(), Prob: 0.01, Correct: rng.Float64() < 0.5}
		}
		resp := federate.SampleResponse{
			Moments:    estimate.MomentsOf(query.Count, obs),
			Candidates: 100,
			Epoch:      epochOf(int(rpcs.Add(1))),
		}
		if tamper != nil {
			tamper(&resp)
		}
		drawn.Add(int64(n))
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			t.Errorf("encode: %v", err)
		}
	}))
	t.Cleanup(srv.Close)
	return federate.Member{Name: "fake", URL: srv.URL}, &drawn
}

// TestEpochRestartResetsMoments: a member whose graph moved between rounds
// sampled a different graph earlier, so the coordinator drops its running
// moments and restarts them from the round that reported the new epoch.
func TestEpochRestartResetsMoments(t *testing.T) {
	var pilotDraws atomic.Int64
	var drawn *atomic.Int64
	member, drawn := fakeMember(t, func(rpc int) uint64 {
		if rpc == 1 {
			return 1
		}
		if rpc == 2 {
			pilotDraws.Store(drawn.Load()) // everything drawn at epoch 1
		}
		return 2
	}, nil)
	coord, err := federate.New(fastConfig([]federate.Member{member}), core.Options{ErrorBound: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := query.Simple(query.Count, "", "Root_0", "Country", "product", "Automobile")
	res, err := coord.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) < 2 {
		t.Fatalf("fixture must need a second round, got %+v", res.Rounds)
	}
	before, all := pilotDraws.Load(), drawn.Load()
	if before == 0 || res.SampleSize != int(all-before) {
		t.Errorf("sample size %d, want the %d draws made at the new epoch (%d drawn in all, %d before the restart)",
			res.SampleSize, all-before, all, before)
	}
	if got := coord.Stats().Members[0].EpochRestarts; got != 1 {
		t.Errorf("epoch restarts = %d, want 1", got)
	}
	if math.Abs(res.Estimate-50) > res.MoE+5 {
		t.Errorf("COUNT over 100 half-correct candidates = %.2f ± %.2f", res.Estimate, res.MoE)
	}
}

// TestMalformedMomentsFailTheMember: moments no sample can produce take the
// member-error path, exactly as an undecodable observation did.
func TestMalformedMomentsFailTheMember(t *testing.T) {
	for name, tamper := range map[string]func(*federate.SampleResponse){
		"correct > n":     func(r *federate.SampleResponse) { r.Moments.Correct = r.Moments.N + 1 },
		"negative square": func(r *federate.SampleResponse) { r.Moments.M2S = -1 },
		"sums without a correct draw": func(r *federate.SampleResponse) {
			r.Moments = estimate.Moments{N: r.Moments.N, SumS: 12}
		},
	} {
		member, _ := fakeMember(t, func(int) uint64 { return 0 }, tamper)
		coord, err := federate.New(fastConfig([]federate.Member{member}), core.Options{ErrorBound: 0.05, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		q := query.Simple(query.Count, "", "Root_0", "Country", "product", "Automobile")
		if _, err := coord.Query(context.Background(), q); !errors.Is(err, federate.ErrPartialFederation) {
			t.Errorf("%s: want ErrPartialFederation, got %v", name, err)
		}
	}
}
