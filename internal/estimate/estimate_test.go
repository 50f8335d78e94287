package estimate

import (
	"math"
	"math/rand"
	"testing"

	"kgaq/internal/query"
	"kgaq/internal/stats"
)

// population is a synthetic candidate-answer set with known ground truth,
// mirroring a converged walker: each answer has a value, a sampling
// probability π′ and a correctness flag.
type population struct {
	values  []float64
	probs   []float64
	correct []bool
	alias   *stats.Alias
}

func newPopulation(r *rand.Rand, k int, correctFrac float64) *population {
	p := &population{
		values:  make([]float64, k),
		probs:   make([]float64, k),
		correct: make([]bool, k),
	}
	total := 0.0
	for i := 0; i < k; i++ {
		p.values[i] = 10 + r.Float64()*90
		p.probs[i] = 0.05 + r.Float64() // non-uniform
		p.correct[i] = r.Float64() < correctFrac
		total += p.probs[i]
	}
	for i := range p.probs {
		p.probs[i] /= total
	}
	p.alias = stats.NewAlias(p.probs)
	return p
}

func (p *population) truth(fn query.AggFunc) float64 {
	sum, cnt := 0.0, 0.0
	for i := range p.values {
		if p.correct[i] {
			sum += p.values[i]
			cnt++
		}
	}
	switch fn {
	case query.Count:
		return cnt
	case query.Sum:
		return sum
	case query.Avg:
		if cnt == 0 {
			return 0
		}
		return sum / cnt
	default:
		return math.NaN()
	}
}

func (p *population) draw(r *rand.Rand, n int) []Observation {
	obs := make([]Observation, n)
	for i := range obs {
		j := p.alias.Pick(r.Uint64())
		obs[i] = Observation{Value: p.values[j], Prob: p.probs[j], Correct: p.correct[j]}
	}
	return obs
}

// Lemma 3/4: the SampleSize estimators for SUM and COUNT are unbiased — the
// mean estimate over many independent samples converges to the truth.
func TestUnbiasedSumCount(t *testing.T) {
	r := stats.NewRand(42)
	pop := newPopulation(r, 40, 0.7)
	for _, fn := range []query.AggFunc{query.Sum, query.Count} {
		truth := pop.truth(fn)
		const trials = 4000
		acc := 0.0
		for i := 0; i < trials; i++ {
			obs := pop.draw(r, 40)
			v, err := Estimate(fn, obs, SampleSize)
			if err != nil {
				t.Fatal(err)
			}
			acc += v
		}
		mean := acc / trials
		if rel := math.Abs(mean-truth) / truth; rel > 0.02 {
			t.Errorf("%s: mean estimate %v vs truth %v (rel %v)", fn, mean, truth, rel)
		}
	}
}

// Lemma 5: the AVG estimator is consistent — a single large sample lands
// near the truth.
func TestConsistentAvg(t *testing.T) {
	r := stats.NewRand(7)
	pop := newPopulation(r, 40, 0.7)
	truth := pop.truth(query.Avg)
	obs := pop.draw(r, 40000)
	v, err := Estimate(query.Avg, obs, SampleSize)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(v-truth) / truth; rel > 0.02 {
		t.Fatalf("AVG estimate %v vs truth %v (rel %v)", v, truth, rel)
	}
}

// The paper's printed divisor (|S⁺|) overestimates whenever the sample
// contains incorrect answers; the ablation in DESIGN.md rests on this.
func TestCorrectOnlyBias(t *testing.T) {
	r := stats.NewRand(13)
	pop := newPopulation(r, 40, 0.6)
	truth := pop.truth(query.Count)
	const trials = 2000
	acc := 0.0
	for i := 0; i < trials; i++ {
		obs := pop.draw(r, 40)
		v, err := Estimate(query.Count, obs, CorrectOnly)
		if err != nil {
			t.Fatal(err)
		}
		acc += v
	}
	mean := acc / trials
	if mean <= truth*1.1 {
		t.Fatalf("CorrectOnly COUNT mean %v should exceed truth %v markedly", mean, truth)
	}
}

// AVG is policy-independent (divisors cancel in the ratio).
func TestAvgPolicyIndependent(t *testing.T) {
	r := stats.NewRand(3)
	pop := newPopulation(r, 30, 0.5)
	obs := pop.draw(r, 500)
	a, err := Estimate(query.Avg, obs, SampleSize)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(query.Avg, obs, CorrectOnly)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("AVG differs across policies: %v vs %v", a, b)
	}
}

func TestEstimateMaxMin(t *testing.T) {
	obs := []Observation{
		{Value: 5, Prob: 0.2, Correct: true},
		{Value: 50, Prob: 0.2, Correct: false}, // incorrect: ignored
		{Value: 9, Prob: 0.2, Correct: true},
		{Value: 1, Prob: 0.2, Correct: true},
	}
	v, err := Estimate(query.Max, obs, SampleSize)
	if err != nil || v != 9 {
		t.Fatalf("MAX = %v, %v; want 9", v, err)
	}
	v, err = Estimate(query.Min, obs, SampleSize)
	if err != nil || v != 1 {
		t.Fatalf("MIN = %v, %v; want 1", v, err)
	}
}

func TestEstimateErrors(t *testing.T) {
	if _, err := Estimate(query.Sum, nil, SampleSize); err != ErrNoObservations {
		t.Fatalf("empty sample err = %v", err)
	}
	bad := []Observation{{Value: 1, Prob: 0.5, Correct: false}}
	if _, err := Estimate(query.Avg, bad, SampleSize); err != ErrNoCorrect {
		t.Fatalf("AVG with no correct err = %v", err)
	}
	if _, err := Estimate(query.Max, bad, SampleSize); err != ErrNoCorrect {
		t.Fatalf("MAX with no correct err = %v", err)
	}
	if _, err := Estimate(query.Count, bad, CorrectOnly); err != ErrNoCorrect {
		t.Fatalf("CorrectOnly with no correct err = %v", err)
	}
	// SampleSize COUNT with no correct answers is a valid zero estimate.
	if v, err := Estimate(query.Count, bad, SampleSize); err != nil || v != 0 {
		t.Fatalf("SampleSize COUNT = %v, %v; want 0, nil", v, err)
	}
	if _, err := Estimate(query.AggFunc(99), bad, SampleSize); err == nil {
		t.Fatal("unknown aggregate accepted")
	}
}

func TestZeroProbObservationsIgnored(t *testing.T) {
	obs := []Observation{
		{Value: 10, Prob: 0, Correct: true}, // impossible draw: guard
		{Value: 10, Prob: 0.5, Correct: true},
		{Value: 10, Prob: 0.5, Correct: true},
	}
	v, err := Estimate(query.Sum, obs, SampleSize)
	if err != nil {
		t.Fatal(err)
	}
	want := (10/0.5 + 10/0.5) / 3.0
	if math.Abs(v-want) > 1e-9 {
		t.Fatalf("SUM = %v, want %v", v, want)
	}
}

// Confidence interval coverage: at 95% the BLB interval should contain the
// truth in the vast majority of trials. Bootstrap CIs are approximate, so
// the assertion is deliberately loose.
func TestMoECoverage(t *testing.T) {
	r := stats.NewRand(99)
	pop := newPopulation(r, 50, 0.8)
	truth := pop.truth(query.Sum)
	const trials = 120
	covered := 0
	for i := 0; i < trials; i++ {
		obs := pop.draw(r, 120)
		v, err := Estimate(query.Sum, obs, SampleSize)
		if err != nil {
			t.Fatal(err)
		}
		eps, err := MoE(query.Sum, obs, SampleSize, DefaultGuarantee(), r)
		if err != nil {
			t.Fatal(err)
		}
		iv := Interval{Estimate: v, MoE: eps, Confidence: 0.95}
		if iv.Contains(truth) {
			covered++
		}
	}
	if frac := float64(covered) / trials; frac < 0.75 {
		t.Fatalf("coverage = %v, want ≥ 0.75", frac)
	}
}

func TestMoEShrinksWithSampleSize(t *testing.T) {
	r := stats.NewRand(21)
	pop := newPopulation(r, 50, 0.8)
	small := pop.draw(r, 60)
	large := pop.draw(r, 2000)
	eSmall, err := MoE(query.Sum, small, SampleSize, DefaultGuarantee(), r)
	if err != nil {
		t.Fatal(err)
	}
	eLarge, err := MoE(query.Sum, large, SampleSize, DefaultGuarantee(), r)
	if err != nil {
		t.Fatal(err)
	}
	if eLarge >= eSmall {
		t.Fatalf("MoE did not shrink: %v (n=60) vs %v (n=2000)", eSmall, eLarge)
	}
}

func TestMoEHigherConfidenceWiderInterval(t *testing.T) {
	r := stats.NewRand(23)
	pop := newPopulation(r, 50, 0.8)
	obs := pop.draw(r, 300)
	cfgLo := GuaranteeConfig{Confidence: 0.86, T: 3, B: 50, M: 0.6}
	cfgHi := GuaranteeConfig{Confidence: 0.98, T: 3, B: 50, M: 0.6}
	// Identical RNG streams keep the bootstrap noise comparable.
	eLo, err := MoE(query.Sum, obs, SampleSize, cfgLo, stats.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	eHi, err := MoE(query.Sum, obs, SampleSize, cfgHi, stats.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if eHi <= eLo {
		t.Fatalf("98%% MoE %v should exceed 86%% MoE %v", eHi, eLo)
	}
}

func TestMoEErrors(t *testing.T) {
	r := stats.NewRand(1)
	if _, err := MoE(query.Sum, nil, SampleSize, DefaultGuarantee(), r); err != ErrNoObservations {
		t.Fatalf("err = %v", err)
	}
	bad := []Observation{{Value: 1, Prob: 0.5, Correct: false}, {Value: 2, Prob: 0.5, Correct: false}}
	if _, err := MoE(query.Avg, bad, SampleSize, DefaultGuarantee(), r); err != ErrNoCorrect {
		t.Fatalf("err = %v", err)
	}
}

// Theorem 2: once ε ≤ V̂·eb/(1+eb), the relative error is bounded by eb for
// any true value inside the interval.
func TestTheorem2(t *testing.T) {
	vhat, eb := 578.0, 0.01
	target := Target(vhat, eb)
	if math.Abs(target-578.0*0.01/1.01) > 1e-12 {
		t.Fatalf("target = %v", target)
	}
	if !Satisfied(vhat, target, eb) || Satisfied(vhat, target*1.01, eb) {
		t.Fatal("Satisfied boundary wrong")
	}
	if Satisfied(0, 0, eb) {
		t.Fatal("zero estimate must not satisfy termination")
	}
	// Any truth V within [V̂-ε, V̂+ε] has |V̂-V|/V ≤ eb when ε = target.
	eps := target
	for _, v := range []float64{vhat - eps, vhat, vhat + eps} {
		if rel := math.Abs(vhat-v) / v; rel > eb+1e-12 {
			t.Fatalf("relative error %v exceeds eb at V=%v", rel, v)
		}
	}
}

// Example 5 of the paper: |S|=100, V̂=578, ε=6.5, eb=1%. The paper damps the
// step with m=0.6 (|ΔS| ≈ 16); the closed-form ε scales as 1/√N exactly, so
// the engine sizes undamped: 100·((6.5/5.7228)² − 1) = 29.
func TestNextSampleSizeExample5(t *testing.T) {
	got := NextSampleSize(100, 6.5, 578, 0.01)
	if got != 29 {
		t.Fatalf("|ΔS| = %d, want 29", got)
	}
}

func TestNextSampleSizeBoundaries(t *testing.T) {
	target := Target(578, 0.01)
	for _, c := range []struct {
		name        string
		moe, vhat   float64
		next, total int
	}{
		// Termination already satisfied → no more samples; the total is
		// the smaller sample that would just have met the target.
		{"satisfied", 1.0, 578, 0, 4},
		// Barely unsatisfied → at least 1.
		{"tiny excess", target * 1.0001, 578, 1, 100},
		// Undamped: halving ε needs four times the sample.
		{"twice the target", 2 * target, 578, 300, 400},
		// A zero estimate has no target to size toward.
		{"zero estimate", 6.5, 0, 0, 0},
		// An estimate tiny against its margin saturates instead of
		// overflowing to a one-draw step.
		{"tiny estimate saturates", 1.0, 1e-12, maxSampleGrowth, 100 + maxSampleGrowth},
	} {
		if got := NextSampleSize(100, c.moe, c.vhat, 0.01); got != c.next {
			t.Errorf("%s: NextSampleSize = %d, want %d", c.name, got, c.next)
		}
		if got := TotalSampleSize(100, c.moe, c.vhat, 0.01); got != c.total {
			t.Errorf("%s: TotalSampleSize = %d, want %d", c.name, got, c.total)
		}
	}
	// Larger ε → more samples (monotonicity).
	if NextSampleSize(100, 13, 578, 0.01) <= NextSampleSize(100, 6.5, 578, 0.01) {
		t.Fatal("|ΔS| not monotone in ε")
	}
}

func TestIntervalAccessors(t *testing.T) {
	iv := Interval{Estimate: 100, MoE: 5, Confidence: 0.95}
	if iv.Low() != 95 || iv.High() != 105 {
		t.Fatalf("bounds = [%v, %v]", iv.Low(), iv.High())
	}
	if !iv.Contains(95) || !iv.Contains(105) || iv.Contains(94.99) {
		t.Fatal("Contains wrong")
	}
	if iv.String() == "" {
		t.Fatal("String empty")
	}
}

func TestGuaranteeDefaults(t *testing.T) {
	cfg := GuaranteeConfig{}.withDefaults()
	if cfg != DefaultGuarantee() {
		t.Fatalf("defaults = %+v", cfg)
	}
	cfg = GuaranteeConfig{Confidence: 2, T: -1, B: 0, M: 5}.withDefaults()
	if cfg != DefaultGuarantee() {
		t.Fatalf("sanitised = %+v", cfg)
	}
}

func TestDivisorPolicyString(t *testing.T) {
	if SampleSize.String() != "sample-size" || CorrectOnly.String() != "correct-only" {
		t.Fatal("policy names wrong")
	}
}
