// Package shard hash-partitions a query's candidate answers into N strata
// for sharded execution. A Plan hash-assigns every node to exactly one
// shard, and SplitSpace cuts a query's candidate-answer distribution π′
// into per-shard strata whose observations merge back into one estimate
// through the stratified Horvitz–Thompson combiner of internal/estimate.
//
// # Ownership strata over shared topology
//
// The shards are ownership strata, not topology partitions: every stratum
// is drawn from the one converged stationary distribution over the full,
// shared edge structure (walks must see the whole n-bounded neighbourhood,
// or answers reachable only through another shard's nodes would silently
// get visiting probability zero and bias the estimator), while the
// candidate-answer space is cut by node ownership — each answer belongs to
// exactly one shard, so per-shard samples are disjoint strata and the
// merged estimate stays provably unbiased (E[Σ_h V̂_h] = Σ_h Σ_{u∈A_h}
// v·1{correct} = V, the same decomposition stratified approximate
// aggregation systems such as ABae exploit). Hash strata are random
// partitions, though, so unlike ABae's proxy strata they do not reduce
// variance.
package shard
