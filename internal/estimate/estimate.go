package estimate

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"kgaq/internal/query"
	"kgaq/internal/stats"
)

// Observation is one sampled answer after correctness validation: its
// aggregated attribute value, its per-draw probability π′, and the
// validation verdict (semantic similarity ≥ τ and all filters passed).
//
// A draw from one stratum of a stratified sample carries the probability
// conditional on its stratum in Prob, and the stratum's inclusion
// probability rides along in StratumWeight so the stratified combiner can
// merge per-stratum samples without side tables. The zero values (Stratum 0, StratumWeight 0) mark an
// unstratified observation, which Regroup treats as a single stratum of
// weight 1.
type Observation struct {
	Value   float64
	Prob    float64
	Correct bool

	// Stratum identifies the stratum the draw came from.
	Stratum int
	// StratumWeight is the inclusion probability w_h of that stratum
	// (Σ π′ over its answers); zero means unstratified.
	StratumWeight float64
}

// DivisorPolicy selects the estimator normalisation (see DESIGN.md).
type DivisorPolicy int

const (
	// SampleSize divides by |S| and weights by the correctness indicator —
	// the provably unbiased importance-sampling form, and the default.
	SampleSize DivisorPolicy = iota
	// CorrectOnly divides by |S⁺| and sums over the validated answers only,
	// the paper's printed Eq. 7–8. It coincides with SampleSize when every
	// sampled answer validates; otherwise it overestimates by |S|/|S⁺|.
	CorrectOnly
)

// String names the policy.
func (p DivisorPolicy) String() string {
	if p == CorrectOnly {
		return "correct-only"
	}
	return "sample-size"
}

// ErrNoObservations is returned when an estimate is requested over an empty
// sample.
var ErrNoObservations = fmt.Errorf("estimate: no observations")

// ErrNoCorrect is returned when an estimator that needs at least one correct
// answer (AVG, MAX, MIN, or any CorrectOnly estimate) sees none.
var ErrNoCorrect = fmt.Errorf("estimate: no correct answers in sample")

// Estimate computes the point estimate V̂ = f̂ₐ(S) (Eq. 7–9). COUNT ignores
// observation values. MAX and MIN return the extreme value among correct
// observations — supported without an accuracy guarantee, as in §VII.
func Estimate(fn query.AggFunc, obs []Observation, pol DivisorPolicy) (float64, error) {
	if len(obs) == 0 {
		return 0, ErrNoObservations
	}
	switch fn {
	case query.Count, query.Sum:
		num, nCorrect := htSum(fn, obs)
		switch pol {
		case CorrectOnly:
			if nCorrect == 0 {
				return 0, ErrNoCorrect
			}
			return num / float64(nCorrect), nil
		default:
			return num / float64(len(obs)), nil
		}
	case query.Avg:
		// Ratio estimator (Eq. 9): divisors cancel, so AVG is identical
		// under both policies.
		sum, _ := htSum(query.Sum, obs)
		cnt, nCorrect := htSum(query.Count, obs)
		if nCorrect == 0 || cnt == 0 {
			return 0, ErrNoCorrect
		}
		return sum / cnt, nil
	case query.Max, query.Min:
		best := math.NaN()
		for _, o := range obs {
			if !o.Correct {
				continue
			}
			if math.IsNaN(best) ||
				(fn == query.Max && o.Value > best) ||
				(fn == query.Min && o.Value < best) {
				best = o.Value
			}
		}
		if math.IsNaN(best) {
			return 0, ErrNoCorrect
		}
		return best, nil
	default:
		return 0, fmt.Errorf("estimate: unsupported aggregate %v", fn)
	}
}

// htSum returns Σ_{correct} v/π′ (v = 1 for COUNT) and the number of correct
// observations.
func htSum(fn query.AggFunc, obs []Observation) (float64, int) {
	sum := 0.0
	n := 0
	for _, o := range obs {
		if !o.Correct || o.Prob <= 0 {
			continue
		}
		n++
		v := 1.0
		if fn != query.Count {
			v = o.Value
		}
		sum += v / o.Prob
	}
	return sum, n
}

// GuaranteeConfig tunes the confidence-interval machinery of §IV-C. The
// closed-form margin the engine serves (MoEMoments, MoEStratified) reads
// Confidence alone; T, B and M configure the bootstrap reference MoESeeded.
type GuaranteeConfig struct {
	// Confidence is 1-α (default 0.95).
	Confidence float64
	// T is the number of BLB small samples (paper: t ≥ 3).
	T int
	// B is the number of bootstrap resamples per small sample (paper: ≥50).
	B int
	// M is the BLB scale factor m ∈ [0.5, 1] (paper: 0.6).
	M float64
}

// DefaultGuarantee returns the paper's default configuration.
func DefaultGuarantee() GuaranteeConfig {
	return GuaranteeConfig{Confidence: 0.95, T: 3, B: 50, M: 0.6}
}

func (c GuaranteeConfig) withDefaults() GuaranteeConfig {
	d := DefaultGuarantee()
	if c.Confidence <= 0 || c.Confidence >= 1 {
		c.Confidence = d.Confidence
	}
	if c.T <= 0 {
		c.T = d.T
	}
	if c.B <= 0 {
		c.B = d.B
	}
	if c.M <= 0 || c.M > 1 {
		c.M = d.M
	}
	return c
}

// moeKind selects the flattened bootstrap accumulator for one (fn, policy)
// pair. The COUNT/SUM/AVG estimators are all of the form Σ termᵢ / divisor,
// so a resample estimate needs only one or two running sums over
// precomputed per-observation contributions — no Observation copies, no
// per-element branching on correctness, no division in the inner loop.
type moeKind int

const (
	// moeGeneric falls back to re-running Estimate per resample (MAX/MIN,
	// or any future aggregate without a flat form).
	moeGeneric moeKind = iota
	// moePlain divides the HT term sum by the fixed resample size
	// (COUNT/SUM under SampleSize): one accumulator.
	moePlain
	// moeByCount divides the HT term sum by the resample's correct count
	// (COUNT/SUM under CorrectOnly): two accumulators, skip when none.
	moeByCount
	// moeRatio is the AVG ratio estimator Σ v/π′ / Σ 1/π′ over correct
	// draws: two accumulators, skip when the denominator is empty.
	moeRatio
)

// moeKindOf classifies (fn, pol); ok is false for the generic fallback.
func moeKindOf(fn query.AggFunc, pol DivisorPolicy) moeKind {
	switch fn {
	case query.Count, query.Sum:
		if pol == CorrectOnly {
			return moeByCount
		}
		return moePlain
	case query.Avg:
		return moeRatio
	default:
		return moeGeneric
	}
}

// moeScratch is the reusable working memory of one MoE evaluation: the
// flattened per-observation contribution arrays and the resample estimate
// buffer, pooled so a warm evaluation allocates nothing.
type moeScratch struct {
	valTerms []float64
	cntTerms []float64
	ests     []float64
	resample []Observation // generic fallback only
}

var moePool = sync.Pool{New: func() any { return new(moeScratch) }}

// grow returns buf resized to n, reallocating only when capacity is short.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// MoE estimates the margin of error ε of the confidence interval V̂ ± ε at
// the configured confidence level using the Bag of Little Bootstraps
// (§IV-C) — the paper's Eq. 10–11, kept as the reference the closed-form
// margin is tested against (the engine itself serves MoEMoments; see
// DESIGN.md "Deliberate deviation: closed-form margin"): the sample is
// split into T small samples; each is bootstrapped B
// times with resamples of size |S| — the size of the full collected sample,
// so the bootstrap distribution matches the estimator actually reported;
// Eq. 11 turns the resample estimates into a σ, Eq. 10 into an ε; the final
// ε is the mean over small samples.
//
// The result is a deterministic function of (fn, obs, pol, cfg) and exactly
// one Int63 drawn from r, which seeds the internal resampling stream: a
// caller that derives r from a stable key gets a reproducible ε regardless
// of how much randomness other subsystems consumed in between.
func MoE(fn query.AggFunc, obs []Observation, pol DivisorPolicy,
	cfg GuaranteeConfig, r *rand.Rand) (float64, error) {
	return MoESeeded(fn, obs, pol, cfg, r.Int63())
}

// MoESeeded is MoE with the resampling stream seeded directly: a
// deterministic function of its arguments, allocation-free once its pooled
// scratch is warm. Tests and the benchmark's estimate.moe_blb_* probes call
// it; no execution path does.
func MoESeeded(fn query.AggFunc, obs []Observation, pol DivisorPolicy,
	cfg GuaranteeConfig, seed int64) (float64, error) {

	cfg = cfg.withDefaults()
	if len(obs) == 0 {
		return 0, ErrNoObservations
	}
	resampleN := len(obs)
	z := stats.ZCritical(cfg.Confidence)

	t := cfg.T
	if t > len(obs) {
		t = len(obs)
	}
	chunk := len(obs) / t
	if chunk == 0 {
		chunk = 1
	}

	sc := moePool.Get().(*moeScratch)
	defer moePool.Put(sc)
	sm := stats.NewSplitmix(seed)

	kind := moeKindOf(fn, pol)
	if kind != moeGeneric {
		sc.valTerms = grow(sc.valTerms, len(obs))
		sc.cntTerms = grow(sc.cntTerms, len(obs))
		for i, o := range obs {
			sc.valTerms[i], sc.cntTerms[i] = 0, 0
			if !o.Correct || o.Prob <= 0 {
				continue
			}
			switch kind {
			case moePlain, moeByCount:
				v := 1.0
				if fn != query.Count {
					v = o.Value
				}
				sc.valTerms[i] = v / o.Prob
				sc.cntTerms[i] = 1 // correct-draw indicator
			case moeRatio:
				sc.valTerms[i] = o.Value / o.Prob
				sc.cntTerms[i] = 1 / o.Prob
			}
		}
	}

	epsSum, epsN := 0.0, 0
	for i := 0; i < t; i++ {
		lo := i * chunk
		hi := lo + chunk
		if i == t-1 {
			hi = len(obs)
		}
		var sigma float64
		var err error
		if kind == moeGeneric {
			sigma, err = sc.genericSigma(fn, obs[lo:hi], pol, resampleN, cfg.B, &sm)
		} else {
			sigma, err = sc.flatSigma(kind, lo, hi, resampleN, cfg.B, &sm)
		}
		if err != nil {
			// A small sample without correct answers contributes no ε; skip
			// it rather than failing the whole guarantee round.
			continue
		}
		epsSum += z * sigma
		epsN++
	}
	if epsN == 0 {
		return 0, ErrNoCorrect
	}
	return epsSum / float64(epsN), nil
}

// flatSigma estimates σ_V̂ per Eq. 11 over b resamples of size resampleN
// drawn with replacement from the small sample [lo,hi), using the
// precomputed contribution arrays: each resample element costs one bounded
// splitmix draw and one or two adds.
func (sc *moeScratch) flatSigma(kind moeKind, lo, hi, resampleN, b int, sm *stats.Splitmix) (float64, error) {
	w := hi - lo
	ests := sc.ests[:0]
	for rep := 0; rep < b; rep++ {
		if kind == moePlain {
			sSum := 0.0
			for j := 0; j < resampleN; j++ {
				sSum += sc.valTerms[lo+sm.Intn(w)]
			}
			ests = append(ests, sSum/float64(resampleN))
			continue
		}
		sSum, cSum := 0.0, 0.0
		for j := 0; j < resampleN; j++ {
			idx := lo + sm.Intn(w)
			sSum += sc.valTerms[idx]
			cSum += sc.cntTerms[idx]
		}
		if cSum == 0 {
			continue // no correct draws in this resample: no estimate
		}
		ests = append(ests, sSum/cSum)
	}
	sc.ests = ests
	if len(ests) < 2 {
		return 0, ErrNoCorrect
	}
	return stats.StdDev(ests), nil
}

// genericSigma is flatSigma for aggregates without a flat accumulator form:
// it materialises each resample (into a reused buffer) and re-runs the full
// estimator.
func (sc *moeScratch) genericSigma(fn query.AggFunc, small []Observation, pol DivisorPolicy,
	resampleN, b int, sm *stats.Splitmix) (float64, error) {

	if cap(sc.resample) < resampleN {
		sc.resample = make([]Observation, resampleN)
	}
	resample := sc.resample[:resampleN]
	ests := sc.ests[:0]
	for rep := 0; rep < b; rep++ {
		for i := range resample {
			resample[i] = small[sm.Intn(len(small))]
		}
		v, err := Estimate(fn, resample, pol)
		if err != nil {
			continue
		}
		ests = append(ests, v)
	}
	sc.ests = ests
	if len(ests) < 2 {
		return 0, ErrNoCorrect
	}
	return stats.StdDev(ests), nil
}

// Target returns the Theorem 2 MoE target V̂·eb/(1+eb): once ε is at or
// below it, |V̂−V|/V ≤ eb holds with the configured confidence.
func Target(vhat, eb float64) float64 {
	return math.Abs(vhat) * eb / (1 + eb)
}

// Satisfied reports the Theorem 2 termination condition ε ≤ V̂·eb/(1+eb).
// A zero estimate never satisfies it (the target collapses to zero).
func Satisfied(vhat, moe, eb float64) bool {
	if vhat == 0 {
		return false
	}
	return moe <= Target(vhat, eb)
}

// maxSampleGrowth is where Eq. 12 saturates: more draws than any draw budget
// allows, and small enough that adding a sample size to it cannot overflow.
const maxSampleGrowth = math.MaxInt32

// TotalSampleSize is Eq. 12 as a total: the sample size at which a sample of
// curSize draws with margin moe would shrink ε to the Theorem 2 target,
// assuming σ ∝ 1/√N — |S| + |S|·((ε/target)² − 1), below |S| when ε is
// already inside its target. The growth term is clamped before it becomes
// an int, so an estimate tiny against its margin (a SUM over mixed-sign
// values) asks for maxSampleGrowth more draws instead of overflowing. It
// returns 0 when the estimate has no target (V̂ = 0).
func TotalSampleSize(curSize int, moe, vhat, eb float64) int {
	tgt := Target(vhat, eb)
	if tgt <= 0 {
		return 0
	}
	ratio := moe / tgt
	grow := float64(curSize) * (ratio*ratio - 1)
	if !(grow < maxSampleGrowth) { // NaN included
		grow = maxSampleGrowth
	}
	return curSize + int(grow)
}

// NextSampleSize returns |ΔS| per Eq. 12: the number of additional answers
// to collect so that ε shrinks to the Theorem 2 target (TotalSampleSize
// minus the current size). The step is undamped: the closed-form ε scales as
// 1/√N exactly, so the paper's bootstrap-era exponent 2m < 2 would only
// under-size every round (DESIGN.md "Deliberate deviation: closed-form
// margin"). It returns at least 1 whenever the termination condition is
// unmet.
func NextSampleSize(curSize int, moe, vhat, eb float64) int {
	if tgt := Target(vhat, eb); tgt <= 0 || moe <= tgt {
		return 0
	}
	return max(TotalSampleSize(curSize, moe, vhat, eb)-curSize, 1)
}

// Interval is a confidence interval V̂ ± ε with its confidence level.
type Interval struct {
	Estimate   float64
	MoE        float64
	Confidence float64
}

// Low returns the lower bound of the interval.
func (iv Interval) Low() float64 { return iv.Estimate - iv.MoE }

// High returns the upper bound of the interval.
func (iv Interval) High() float64 { return iv.Estimate + iv.MoE }

// Contains reports whether v lies inside the interval.
func (iv Interval) Contains(v float64) bool {
	return v >= iv.Low() && v <= iv.High()
}

// String renders the interval for logs and the CLI.
func (iv Interval) String() string {
	return fmt.Sprintf("%.4f ± %.4f (%.0f%%)", iv.Estimate, iv.MoE, iv.Confidence*100)
}
