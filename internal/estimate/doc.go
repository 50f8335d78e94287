// Package estimate implements the approximate-result estimation and
// accuracy-guarantee layers of the paper (§IV-B, §IV-C): Horvitz–Thompson
// style estimators for COUNT and SUM (unbiased) and AVG (consistent) over
// the non-uniform sample drawn from the stationary answer distribution π′,
// confidence intervals via the Central Limit Theorem — σ in closed form
// from per-stratum Moments of the HT terms (MoEMoments), with the paper's
// Bag of Little Bootstraps (MoESeeded) kept as the tested reference — the
// Theorem 2 termination test, and the error-based sample-size configuration
// of Eq. 12.
//
// The engine's refinement loops keep their sample as moments, not as a
// list: Running is MomentsOf in running form (Welford over the correct
// draws in draw order, the zero terms merged at read-out), so a round folds
// its fresh draws only, and Moments.Estimate / EstimateMoments / MoEMoments
// read the estimate and its margin out. The observation-list forms —
// Estimate, EstimateStratified, MoEStratified, MomentsOf, Regroup, Project —
// stay as the reference the running forms are tested bit for bit against
// (TestRunningMatchesMomentsOf; core's TestFoldMatchesListForm); no query
// path calls them.
//
// The package also provides the stratified side: per-stratum samples of
// disjoint strata of the candidate-answer space, which EstimateStratified
// merges into one unbiased estimate with the stratum inclusion
// probabilities folded into each Observation's conditional draw
// probability; MoEStratified computes the closed-form stratified CLT margin
// of error, and AllocateDraws splits the next round's draws across strata
// by Neyman allocation. Federation members are the strata: they ship their
// Moments, which EstimateMoments and MoEMoments merge without ever seeing
// an observation.
//
// Multi-aggregate execution rides the same machinery: the engine keeps one
// Running per aggregate over the one sample, so one sample feeds COUNT, SUM
// and AVG at once without touching the estimators.
package estimate
