package estimate

import (
	"math"
	"math/rand"
	"testing"

	"kgaq/internal/query"
	"kgaq/internal/stats"
)

// stratify cuts a population into n hash-strata the way internal/shard
// partitions a candidate-answer space: each answer owned by one stratum,
// per-stratum probabilities conditional, weights summing to 1.
type stratified struct {
	pop    *population
	weight []float64
	index  [][]int
	alias  []*stats.Alias
}

func stratifyPop(pop *population, n int) *stratified {
	s := &stratified{pop: pop, weight: make([]float64, n), index: make([][]int, n)}
	for i := range pop.values {
		h := (i * 2654435761) % n
		s.index[h] = append(s.index[h], i)
		s.weight[h] += pop.probs[i]
	}
	s.alias = make([]*stats.Alias, n)
	for h := range s.index {
		if len(s.index[h]) == 0 {
			continue
		}
		cond := make([]float64, len(s.index[h]))
		for k, i := range s.index[h] {
			cond[k] = pop.probs[i] / s.weight[h]
		}
		s.alias[h] = stats.NewAlias(cond)
	}
	return s
}

// draw samples per-stratum observations with conditional probabilities.
func (s *stratified) draw(r *rand.Rand, perStratum int) []Stratum {
	var out []Stratum
	for h := range s.index {
		if s.alias[h] == nil {
			continue
		}
		out = append(out, Stratum{Weight: s.weight[h], Obs: s.drawStratum(r, h, nil, perStratum)})
	}
	return out
}

// drawStratum appends n draws of stratum h to obs.
func (s *stratified) drawStratum(r *rand.Rand, h int, obs []Observation, n int) []Observation {
	for d := 0; d < n; d++ {
		i := s.index[h][s.alias[h].Pick(r.Uint64())]
		obs = append(obs, Observation{
			Value:         s.pop.values[i],
			Prob:          s.pop.probs[i] / s.weight[h],
			Correct:       s.pop.correct[i],
			Stratum:       h,
			StratumWeight: s.weight[h],
		})
	}
	return obs
}

// The merged stratified estimator is unbiased for COUNT and SUM, exactly
// like its single-shard counterpart (Lemma 3/4 carried across the merge).
func TestStratifiedUnbiasedSumCount(t *testing.T) {
	r := stats.NewRand(42)
	pop := newPopulation(r, 40, 0.7)
	for _, shards := range []int{2, 8} {
		s := stratifyPop(pop, shards)
		for _, fn := range []query.AggFunc{query.Sum, query.Count} {
			truth := pop.truth(fn)
			const trials = 4000
			acc := 0.0
			for i := 0; i < trials; i++ {
				strata := s.draw(r, 40/shards+1)
				v, err := EstimateStratified(fn, strata, SampleSize)
				if err != nil {
					t.Fatal(err)
				}
				acc += v
			}
			mean := acc / trials
			if rel := math.Abs(mean-truth) / truth; rel > 0.02 {
				t.Errorf("%s @%d shards: mean %v vs truth %v (rel %v)", fn, shards, mean, truth, rel)
			}
		}
	}
}

// A single stratum of weight 1 reproduces the plain estimator bit for bit,
// for every aggregate and both divisor policies.
func TestStratifiedSingleStratumEquivalence(t *testing.T) {
	r := stats.NewRand(11)
	pop := newPopulation(r, 30, 0.6)
	obs := pop.draw(r, 200)
	for _, fn := range []query.AggFunc{query.Count, query.Sum, query.Avg, query.Max, query.Min} {
		for _, pol := range []DivisorPolicy{SampleSize, CorrectOnly} {
			want, werr := Estimate(fn, obs, pol)
			got, gerr := EstimateStratified(fn, []Stratum{{Weight: 1, Obs: obs}}, pol)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s/%s: err %v vs %v", fn, pol, werr, gerr)
			}
			if werr == nil && got != want {
				t.Fatalf("%s/%s: stratified %v != plain %v", fn, pol, got, want)
			}
		}
	}
}

// The AVG arm of the equivalence above on many samples: the stratified
// ratio of per-stratum means, (Σs/d)/(Σc/d), rounds differently from Σs/Σc
// on some of them, so one stratum must take the plain ratio.
func TestStratifiedSingleStratumAvgBits(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := stats.NewRand(seed)
		obs := newPopulation(r, 30, 0.6).draw(r, 50)
		for _, pol := range []DivisorPolicy{SampleSize, CorrectOnly} {
			want, werr := Estimate(query.Avg, obs, pol)
			got, gerr := EstimateStratified(query.Avg, []Stratum{{Weight: 1, Obs: obs}}, pol)
			if werr != nil || gerr != nil || got != want {
				t.Fatalf("seed %d %s: stratified %v (%v) != plain %v (%v)", seed, pol, got, gerr, want, werr)
			}
		}
	}
}

// Regroup reassembles flat observations into the strata they came from and
// folds unsharded observations into one weight-1 stratum.
func TestRegroup(t *testing.T) {
	r := stats.NewRand(5)
	pop := newPopulation(r, 24, 0.7)
	s := stratifyPop(pop, 3)
	strata := s.draw(r, 10)
	var flat []Observation
	for _, st := range strata {
		flat = append(flat, st.Obs...)
	}
	re := Regroup(flat)
	if len(re) != len(strata) {
		t.Fatalf("regrouped %d strata, want %d", len(re), len(strata))
	}
	for i := range re {
		if re[i].Weight != strata[i].Weight || len(re[i].Obs) != len(strata[i].Obs) {
			t.Fatalf("stratum %d mismatch after regroup", i)
		}
	}
	v1, err1 := EstimateStratified(query.Sum, strata, SampleSize)
	v2, err2 := EstimateStratified(query.Sum, re, SampleSize)
	if err1 != nil || err2 != nil || v1 != v2 {
		t.Fatalf("regrouped estimate %v (%v) vs %v (%v)", v2, err2, v1, err1)
	}

	plain := Regroup(pop.draw(r, 50))
	if len(plain) != 1 || plain[0].Weight != 1 {
		t.Fatalf("unsharded draws regrouped to %+v, want one weight-1 stratum", plain)
	}
}

// The stratified bootstrap interval covers the truth at roughly the
// configured confidence.
func TestStratifiedMoECoverage(t *testing.T) {
	r := stats.NewRand(23)
	pop := newPopulation(r, 40, 0.8)
	s := stratifyPop(pop, 4)
	truth := pop.truth(query.Sum)
	const trials = 200
	covered := 0
	for i := 0; i < trials; i++ {
		strata := s.draw(r, 60)
		v, err := EstimateStratified(query.Sum, strata, SampleSize)
		if err != nil {
			t.Fatal(err)
		}
		eps, err := MoEStratified(query.Sum, strata, SampleSize, DefaultGuarantee())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-truth) <= eps {
			covered++
		}
	}
	if rate := float64(covered) / trials; rate < 0.88 {
		t.Fatalf("stratified 95%% interval covered truth %.0f%% of the time", rate*100)
	}
}

// Stratification with Neyman-style per-stratum sampling cannot be worse
// than plain sampling in expectation; sanity-check that the stratified
// estimator's spread is no larger than the plain one's at equal total size.
func TestStratifiedVarianceNoWorse(t *testing.T) {
	r := stats.NewRand(31)
	pop := newPopulation(r, 60, 0.75)
	s := stratifyPop(pop, 6)
	const trials, total = 1500, 60
	var plainVar, stratVar float64
	truth := pop.truth(query.Sum)
	for i := 0; i < trials; i++ {
		v1, _ := Estimate(query.Sum, pop.draw(r, total), SampleSize)
		plainVar += (v1 - truth) * (v1 - truth)
		v2, _ := EstimateStratified(query.Sum, s.draw(r, total/6), SampleSize)
		stratVar += (v2 - truth) * (v2 - truth)
	}
	if stratVar > plainVar*1.1 { // 10% slack for sampling noise
		t.Fatalf("stratified MSE %v exceeds plain MSE %v", stratVar/trials, plainVar/trials)
	}
}

func TestAllocateDraws(t *testing.T) {
	// Proportional fallback while no variance signal exists.
	alloc := AllocateDraws(100, []StratumStats{{Weight: 0.5}, {Weight: 0.3}, {Weight: 0.2}})
	if sum(alloc) != 100 {
		t.Fatalf("allocation %v does not sum to 100", alloc)
	}
	if alloc[0] != 50 || alloc[1] != 30 || alloc[2] != 20 {
		t.Fatalf("proportional allocation = %v", alloc)
	}

	// Neyman: draws follow w·σ.
	alloc = AllocateDraws(100, []StratumStats{
		{Weight: 0.5, Sigma: 0}, {Weight: 0.25, Sigma: 8}, {Weight: 0.25, Sigma: 2}})
	if sum(alloc) != 100 {
		t.Fatalf("allocation %v does not sum to 100", alloc)
	}
	if alloc[1] <= alloc[2] {
		t.Fatalf("high-variance stratum got %d ≤ low-variance %d", alloc[1], alloc[2])
	}
	// A stratum whose σ̂ reads zero keeps its defensive share, 10 % of its
	// proportional 50.
	if alloc[0] < 5 {
		t.Fatalf("zero-variance stratum got %d draws, want its defensive 5: %v", alloc[0], alloc)
	}

	// Floors: every stratum sampled when the budget allows.
	alloc = AllocateDraws(3, []StratumStats{{Weight: 0.98}, {Weight: 0.01}, {Weight: 0.01}})
	for i, a := range alloc {
		if a < 1 {
			t.Fatalf("stratum %d got no draw: %v", i, alloc)
		}
	}
	if got := AllocateDraws(0, []StratumStats{{Weight: 1}}); sum(got) != 0 {
		t.Fatalf("zero budget allocated %v", got)
	}
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// The interval a federation coordinator reads (EstimateMoments,
// MoEMoments) covers the truth at roughly the configured 95% when a
// refinement draws 1, 2 or 8 strata by Neyman allocation and stops at
// Theorem 2's bound. The 0.85 floor leaves room for the CLT margin's
// small-sample optimism; at least half the runs must converge.
func TestStratifiedRefinementCoverage(t *testing.T) {
	const eb, trials, rounds = 0.05, 60, 10
	pop := newPopulation(stats.NewRand(5), 60, 0.5)
	truth := pop.truth(query.Sum)
	for _, n := range []int{1, 2, 8} {
		s := stratifyPop(pop, n)
		var strata []int // the non-empty ones
		for h := range s.index {
			if s.alias[h] != nil {
				strata = append(strata, h)
			}
		}
		covered, converged := 0, 0
		for trial := 0; trial < trials; trial++ {
			r := stats.NewRand(int64(100 + trial))
			obs := make([][]Observation, len(strata))
			mom := make([]Moments, len(strata))
			st := make([]StratumStats, len(strata))
			for round := 0; round < rounds; round++ {
				for j, h := range strata {
					st[j] = StratumStats{Weight: s.weight[h], Sigma: mom[j].Sigma()}
				}
				for j, k := range AllocateDraws(100<<round, st) {
					obs[j] = s.drawStratum(r, strata[j], obs[j], k)
					mom[j] = MomentsOf(query.Sum, obs[j])
				}
				v, err := EstimateMoments(query.Sum, mom, SampleSize)
				if err != nil {
					continue
				}
				eps, err := MoEMoments(query.Sum, mom, SampleSize, DefaultGuarantee())
				if err != nil || !Satisfied(v, eps, eb) {
					continue
				}
				converged++
				if math.Abs(v-truth) <= eps {
					covered++
				}
				break
			}
		}
		if converged < trials/2 {
			t.Fatalf("%d strata: only %d/%d runs converged", n, converged, trials)
		}
		if rate := float64(covered) / float64(converged); rate < 0.85 {
			t.Fatalf("%d strata: interval covered truth in %.0f%% of %d converged runs", n, rate*100, converged)
		}
	}
}
