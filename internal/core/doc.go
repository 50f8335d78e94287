// Package core is the paper's primary contribution assembled end to end
// (Algorithm 2): semantic-aware sampling over the n-bounded subgraph
// (§IV-A), correctness validation and Horvitz–Thompson estimation (§IV-B),
// and the iteratively refined CLT accuracy guarantee (§IV-C, with σ in
// closed form from the sample's moments — DESIGN.md "Deliberate deviation:
// closed-form margin"), extended
// with filters, GROUP-BY, MAX/MIN, chain-shaped queries via two-stage
// sampling, and star/cycle/flower queries via decomposition–assembly (§V).
//
// # Execution model
//
// An Engine pairs one graph source (static *kg.Graph or live mutation
// store) with one embedding model and serves any number of concurrent
// queries. Execution follows a two-phase Prepare → Execute model:
// Engine.Prepare compiles a query once — name→id resolution, shape
// classification, filter/attribute binding, walker convergence, the answer
// distribution and alias tables — into a concurrency-safe
// *Prepared (introspectable via Plan()); each Prepared.Start then returns a
// private Execution holding its own draw stream, draw list and term table
// over the shared compiled space, pinned to one epoch-consistent graph view
// (EpochPin freezes the Prepare-time snapshot, EpochRepin follows the live
// graph). Execution.Refine implements Algorithm 1's refinement loop: draw,
// validate, estimate, compute the margin of error, test Theorem 2's
// termination condition, and size the next round per Eq. 12. Engine.Query
// and Engine.Start remain as thin single-use wrappers, and
// Engine.QueryBatch dedupes identical plan keys so same-graph queries
// share one build.
//
// The sample is kept in reduced form (terms.go, DESIGN.md "Running moments
// and the term table"): a candidate answer is evaluated once — verdict,
// filters, attribute values, Horvitz–Thompson terms, group — into the
// execution's term table; each round validates only the new candidates
// among its fresh draws and folds only those fresh draws into one running
// moments accumulator per (aggregate, group), all of them or — when
// cancelled mid-validation — none; estimate and margin are read from the
// moments. The one refinement loop (refine, behind Refine and QueryMulti,
// grouped or not) and FederateSample's single round sit
// on that one data path, bit-identical to the observation-list form it
// replaced; the loop's stopping rule is Decide (decide.go), which the
// federated coordinator calls too.
//
// # Multi-aggregate execution
//
// Prepared.QueryMulti (and the Engine.QueryMulti one-shot) evaluates a
// list of AggSpecs — e.g. COUNT, SUM(price), AVG(price) — over one shared
// draw stream: the Eq. 7–9 estimators all consume the same semantic-aware
// sample, so a candidate is evaluated once against every spec and each
// round's one fold feeds every spec's running Horvitz–Thompson moments;
// the guarantee loop refines until every guaranteed spec meets its error
// bound, GROUP-BY groups included.
//
// # Performance machinery
//
// Converged walker stages (stationary distributions plus their validation
// verdicts) live in an engine-wide memory-bounded LRU keyed by (root,
// predicate, target types, walk config), and so do the answer spaces
// assembled from them, keyed by (decomposed paths, plan knobs) and carrying
// one shared verdict per candidate: a repeat of a query graph — through any
// entry point — skips compilation and re-validation and goes straight to
// drawing. Under a live graph, entries are invalidated
// selectively — only when a mutation touches their walk scope — and a
// stage a mutation evicted is rebuilt by the next query that wants it.
//
// Every execution draws one sample from one stratum: there is no
// in-process sharding (DESIGN.md "Sharded execution"). Stratified merging
// lives where the strata are real, across federation members
// (FederateSample and internal/federate).
package core
