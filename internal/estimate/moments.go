package estimate

import (
	"fmt"
	"math"

	"kgaq/internal/query"
	"kgaq/internal/stats"
)

// This file is the guarantee step of §IV-C as the engine serves it: the
// margin of error ε = z·σ̂ of the (stratified) Horvitz–Thompson estimator,
// with σ̂ in closed form from per-stratum moments of the per-draw HT terms
// rather than from bootstrap resamples (DESIGN.md "Deliberate deviation:
// closed-form margin"; MoESeeded keeps the paper's Eq. 10–11 as the
// reference). Every execution path — plain, grouped, multi-aggregate,
// federated — computes its ε here, and a federation member ships
// exactly these seven numbers per round instead of its observations.

// Moments is the sufficient statistic of one stratum's sample for the
// COUNT/SUM/AVG estimators and their CLT margin: the draw and correct-draw
// counts plus first and centred second moments of the per-draw HT terms
//
//	s = v·1{correct}/p   (v = 1 for COUNT)      c = 1{correct}/p
//
// The second moments are kept centred (Σ(s−s̄)², not Σs²) and combined with
// the pairwise update of Chan, Golub and LeVeque, so neither accumulating a
// round nor merging rounds ever subtracts two large near-equal sums: HT
// terms of magnitude 1e7 keep their variance to full precision (see
// TestMomentsStableAtLargeMagnitude). The JSON form is the federation wire
// (federate.SampleResponse).
type Moments struct {
	// N is the number of draws, Correct how many of them validated (with a
	// positive probability — the only draws with non-zero terms).
	N       int `json:"n"`
	Correct int `json:"correct"`
	// SumS and SumC are Σs and Σc over the N draws.
	SumS float64 `json:"s"`
	SumC float64 `json:"c"`
	// M2S, M2C and CSC are Σ(s−s̄)², Σ(c−c̄)² and Σ(s−s̄)(c−c̄) over the N
	// draws, centred on the stratum's own means.
	M2S float64 `json:"ss"`
	M2C float64 `json:"cc"`
	CSC float64 `json:"sc"`
}

// MomentsOf reduces one stratum's observations to its moments under
// aggregate fn (COUNT takes v = 1, every other function the observed
// value; AVG shares SUM's terms). The correct draws go through Welford's
// update one by one; the incorrect ones are a block of zero terms folded
// in with one Merge, so the cost is per correct draw.
func MomentsOf(fn query.AggFunc, obs []Observation) Moments {
	var m Moments
	var meanS, meanC float64
	for _, o := range obs {
		if !o.Correct || o.Prob <= 0 {
			continue
		}
		c := 1 / o.Prob
		s := c
		if fn != query.Count {
			s = o.Value / o.Prob
		}
		m.Correct++
		k := float64(m.Correct)
		m.SumS += s
		m.SumC += c
		ds, dc := s-meanS, c-meanC
		meanS += ds / k
		meanC += dc / k
		m.M2S += ds * (s - meanS)
		m.M2C += dc * (c - meanC)
		m.CSC += ds * (c - meanC)
	}
	m.N = m.Correct
	m.Merge(Moments{N: len(obs) - m.Correct})
	return m
}

// Running is MomentsOf in running form: the accumulator a refinement loop
// keeps per (aggregate, stratum, group) so that a round folds only its fresh
// draws instead of reducing the whole sample again. Add takes the HT terms
// of one correct draw — Welford's update, the same arithmetic in the same
// order as MomentsOf's loop — and the incorrect draws are never seen: they
// are the stratum's draw count minus Correct, merged as one block of zeros
// at read-out, exactly as MomentsOf merges them. Fed a stratum's correct
// draws in draw order, Moments(n) therefore returns MomentsOf of the first n
// draws bit for bit, whatever the round boundaries in between
// (TestRunningMatchesMomentsOf).
type Running struct {
	m            Moments // over the correct draws alone: N is filled at read-out
	meanS, meanC float64
}

// Add folds one correct draw's terms s = v/p (1/p for COUNT) and c = 1/p.
func (r *Running) Add(s, c float64) {
	m := &r.m
	m.Correct++
	k := float64(m.Correct)
	m.SumS += s
	m.SumC += c
	ds, dc := s-r.meanS, c-r.meanC
	r.meanS += ds / k
	r.meanC += dc / k
	m.M2S += ds * (s - r.meanS)
	m.M2C += dc * (c - r.meanC)
	m.CSC += ds * (c - r.meanC)
}

// Correct is the number of draws added so far.
func (r *Running) Correct() int { return r.m.Correct }

// Moments reads the accumulator out as the moments of a stratum of n draws,
// n − Correct of them zero terms.
func (r *Running) Moments(n int) Moments {
	m := r.m
	m.N = m.Correct
	m.Merge(Moments{N: n - m.Correct})
	return m
}

// Estimate is the point estimate of one unstratified sample from its
// moments, in Estimate's own arithmetic — COUNT and SUM divide Σs by the
// divisor the policy names, AVG is Σs/Σc — so a loop that keeps moments
// instead of the observation list reports the same bits, and so does the
// stratified form over a single stratum. MAX and MIN have no moments form.
func (m Moments) Estimate(fn query.AggFunc, pol DivisorPolicy) (float64, error) {
	if m.N == 0 {
		return 0, ErrNoObservations
	}
	switch fn {
	case query.Count, query.Sum:
		if pol == CorrectOnly {
			if m.Correct == 0 {
				return 0, ErrNoCorrect
			}
			return m.SumS / float64(m.Correct), nil
		}
		return m.SumS / float64(m.N), nil
	case query.Avg:
		if m.Correct == 0 || m.SumC == 0 {
			return 0, ErrNoCorrect
		}
		return m.SumS / m.SumC, nil
	default:
		return 0, fmt.Errorf("estimate: %v has no moments form", fn)
	}
}

// Merge folds another sample of the same stratum into m (Chan et al.'s
// pairwise combine): the counts and sums add, the centred moments add plus
// the between-sample term δ²·n_a·n_b/(n_a+n_b).
func (m *Moments) Merge(o Moments) {
	if o.N == 0 {
		return
	}
	if m.N == 0 {
		*m = o
		return
	}
	na, nb := float64(m.N), float64(o.N)
	ds := o.SumS/nb - m.SumS/na
	dc := o.SumC/nb - m.SumC/na
	w := na * nb / (na + nb)
	m.M2S += o.M2S + ds*ds*w
	m.M2C += o.M2C + dc*dc*w
	m.CSC += o.CSC + ds*dc*w
	m.SumS += o.SumS
	m.SumC += o.SumC
	m.N += o.N
	m.Correct += o.Correct
}

// Sigma is the sample standard deviation of the stratum's per-draw s terms
// — the variance signal of the Neyman allocator. Fewer than two draws carry
// no signal and report zero.
func (m Moments) Sigma() float64 {
	if m.N < 2 {
		return 0
	}
	return math.Sqrt(m.M2S / float64(m.N-1))
}

// Validate rejects moments no sample can produce — the decode-side check of
// the federation wire. A corrupt member must fail its RPC, not poison the
// merge with a NaN or a negative variance.
func (m Moments) Validate() error {
	for _, v := range [...]float64{m.SumS, m.SumC, m.M2S, m.M2C, m.CSC} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("estimate: moments carry a non-finite number")
		}
	}
	switch {
	case m.N < 0 || m.Correct < 0 || m.Correct > m.N:
		return fmt.Errorf("estimate: moments count %d correct of %d draws", m.Correct, m.N)
	case m.M2S < 0 || m.M2C < 0:
		return fmt.Errorf("estimate: moments carry a negative sum of squares")
	case m.SumC < float64(m.Correct):
		// Every correct draw adds 1/p ≥ 1.
		return fmt.Errorf("estimate: moments imply a draw probability above 1")
	case m.Correct == 0 && (m.SumS != 0 || m.SumC != 0 || m.M2S != 0 || m.M2C != 0 || m.CSC != 0):
		return fmt.Errorf("estimate: moments carry non-zero sums without a correct draw")
	}
	return nil
}

// stratifiedAcc folds per-stratum moments into what the stratified point
// estimate and its CLT margin need. Both are linear in the per-stratum
// quantities once AVG's ratio is known, so one pass serves every aggregate.
type stratifiedAcc struct {
	n, correct int
	// meanS and meanC are Σ_h of the stratum means of s and c under the
	// divisor policy: the stratified SUM (or COUNT) and COUNT estimates.
	meanS, meanC float64
	// varS, varC and cov are Σ_h (per-draw variance)/n_h over the strata
	// with at least two draws.
	varS, varC, cov float64
	// pooled merges the single-draw strata, which cannot estimate their own
	// variance and are assessed jointly.
	pooled Moments
	// strata counts the strata with draws; first is the first of them, the
	// whole sample when strata is 1.
	strata int
	first  Moments
}

// accOfMoments folds strata already reduced to moments.
func accOfMoments(strata []Moments, pol DivisorPolicy) stratifiedAcc {
	var a stratifiedAcc
	for _, m := range strata {
		a.add(m, pol)
	}
	return a
}

// accOfStrata reduces each stratum's observations to moments under fn and
// folds them; nothing is buffered, so it allocates nothing.
func accOfStrata(fn query.AggFunc, strata []Stratum, pol DivisorPolicy) stratifiedAcc {
	var a stratifiedAcc
	for _, st := range strata {
		a.add(MomentsOf(fn, st.Obs), pol)
	}
	return a
}

func (a *stratifiedAcc) add(m Moments, pol DivisorPolicy) {
	if m.N == 0 {
		return
	}
	if a.strata++; a.strata == 1 {
		a.first = m
	}
	a.n += m.N
	a.correct += m.Correct
	// The stratum's inclusion probability is already folded into the
	// conditional draw probabilities, so its HT mean estimates the stratum
	// total directly and the merge is a plain sum.
	switch {
	case pol != CorrectOnly:
		a.meanS += m.SumS / float64(m.N)
		a.meanC += m.SumC / float64(m.N)
	case m.Correct > 0:
		a.meanS += m.SumS / float64(m.Correct)
		a.meanC += m.SumC / float64(m.Correct)
	}
	if m.N == 1 {
		a.pooled.Merge(m)
		return
	}
	a.addVariance(m)
}

// addVariance adds the variance of one stratum's HT mean: s_h²/n_h.
func (a *stratifiedAcc) addVariance(m Moments) {
	n := float64(m.N)
	a.varS += m.M2S / (n - 1) / n
	a.varC += m.M2C / (n - 1) / n
	a.cov += m.CSC / (n - 1) / n
}

func (a stratifiedAcc) estimate(fn query.AggFunc, pol DivisorPolicy) (float64, error) {
	if a.n == 0 {
		return 0, ErrNoObservations
	}
	switch fn {
	case query.Count, query.Sum:
		if pol == CorrectOnly && a.correct == 0 {
			return 0, ErrNoCorrect
		}
		return a.meanS, nil
	case query.Avg:
		// Ratio estimator over the stratified totals. One stratum is the
		// plain sample: Σs/Σc, not (Σs/d)/(Σc/d), which rounds differently.
		if a.strata == 1 {
			return a.first.Estimate(fn, pol)
		}
		if a.correct == 0 || a.meanC == 0 {
			return 0, ErrNoCorrect
		}
		return a.meanS / a.meanC, nil
	default:
		return 0, fmt.Errorf("estimate: %v has no moments form", fn)
	}
}

// margin has a value receiver on purpose: folding the pooled single-draw
// strata below edits its own copy, so the accumulator stays reusable.
func (a stratifiedAcc) margin(fn query.AggFunc, confidence float64) (float64, error) {
	if a.n == 0 {
		return 0, ErrNoObservations
	}
	if !fn.HasGuarantee() || a.correct == 0 {
		return 0, ErrNoCorrect // MAX and MIN carry no guarantee (§VII)
	}
	switch {
	case a.pooled.N >= 2:
		// The union of the single-draw strata as one proportionally sampled
		// pseudo-stratum. Its spread includes between-stratum variation, so
		// the interval errs wide.
		a.addVariance(a.pooled)
	case a.pooled.N == 1:
		// A lone single-draw stratum contributes its squared term —
		// maximally conservative — which the allocator's next round resolves.
		a.varS += a.pooled.SumS * a.pooled.SumS
	}
	variance := a.varS
	if fn == query.Avg {
		if a.meanC == 0 {
			return 0, ErrNoCorrect
		}
		// Delta-method linearisation of the ratio R = S/C:
		// Var(R) ≈ (Var(s) + R²·Var(c) − 2R·Cov(s,c)) / C².
		r := a.meanS / a.meanC
		variance = (a.varS + r*r*a.varC - 2*r*a.cov) / (a.meanC * a.meanC)
	}
	if variance < 0 {
		variance = 0 // delta-method cross terms can dip below zero numerically
	}
	return stats.ZCritical(confidence) * math.Sqrt(variance), nil
}

// EstimateMoments is EstimateStratified over strata already reduced to
// moments: COUNT and SUM merge as Σ_h of the per-stratum HT means, AVG is
// the ratio of the stratified SUM and COUNT. MAX and MIN have no moments
// form.
func EstimateMoments(fn query.AggFunc, strata []Moments, pol DivisorPolicy) (float64, error) {
	return accOfMoments(strata, pol).estimate(fn, pol)
}

// MoEMoments is the margin of error of the stratified estimate, from
// per-stratum moments: the strata are independent, so Var(V̂) = Σ_h s_h²/n_h
// with s_h the sample standard deviation of stratum h's per-draw HT terms,
// and ε = z·σ at the configured confidence. AVG uses the delta-method
// linearisation of the ratio. Strata too small to carry a variance signal
// (a single draw) are pooled and assessed jointly, erring toward a wider
// interval. One stratum of weight 1 is the unstratified sample.
//
// MAX and MIN carry no guarantee (§VII) and report ErrNoCorrect.
func MoEMoments(fn query.AggFunc, strata []Moments, pol DivisorPolicy, cfg GuaranteeConfig) (float64, error) {
	return accOfMoments(strata, pol).margin(fn, cfg.withDefaults().Confidence)
}
