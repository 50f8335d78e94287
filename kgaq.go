// Package kgaq is an approximate aggregate-query engine for knowledge
// graphs, reproducing "Aggregate Queries on Knowledge Graphs: Fast
// Approximation with Semantic-aware Sampling" (ICDE 2022).
//
// Given a schema-flexible knowledge graph, an offline KG embedding and an
// aggregate query such as "the average price of cars produced in Germany",
// kgaq returns an approximate answer with a confidence-interval accuracy
// guarantee in milliseconds, instead of the seconds an exact graph-matching
// engine needs — and without missing the semantically equivalent answers an
// exact-schema (SPARQL) engine ignores.
//
// # Quick start
//
//	g, errs := kgaq.LoadNTriplesFile("facts.nt")
//	model, _ := kgaq.TrainEmbedding("TransE", g, kgaq.DefaultTrainConfig())
//	engine, _ := kgaq.NewEngine(g, model, kgaq.Options{ErrorBound: 0.01})
//	q := kgaq.SimpleQuery(kgaq.Avg, "price", "Germany", "Country", "product", "Automobile")
//	res, _ := engine.Query(ctx, q, kgaq.WithErrorBound(0.02))
//	fmt.Printf("AVG = %.2f ± %.2f (95%%)\n", res.Estimate, res.MoE)
//
// Query honours ctx cancellation and deadlines mid-refinement (a cancelled
// query returns its partial estimate plus ErrInterrupted), QueryOptions
// override any engine knob per query, the OnRound option streams refinement
// progress live, and one Engine safely serves any number of concurrent
// queries (QueryBatch runs a whole workload over a worker pool, sharing
// one answer-space build across same-graph queries).
//
// Heavy repeat traffic should split compilation from execution:
// Engine.Prepare compiles a query once into a concurrency-safe *Prepared
// (resolution, shape classification, walk convergence, alias tables, shard
// split), and Prepared.Query / Prepared.QueryMulti execute it any number
// of times. QueryMulti evaluates several aggregates — e.g. COUNT, SUM and
// AVG of one query graph — over a single shared sample, refining until
// every guaranteed aggregate meets its error bound.
// Options.Shards / WithShards switches a query to sharded execution, a
// library ablation: the candidate-answer space is hash-partitioned into
// ownership strata, sampled per shard, and merged through a stratified
// Horvitz–Thompson combiner (see DESIGN.md "Sharded execution"). The kgaqd
// command wraps the engine in an HTTP/JSON service, which always runs
// unsharded.
//
// The pipeline is the paper's Algorithm 2: a semantic-aware random walk
// over the n-bounded subgraph around the query's specific entity collects a
// sample of candidate answers biased toward semantic similarity;
// Horvitz–Thompson estimators with exact correctness validation produce an
// unbiased COUNT/SUM (consistent AVG) estimate; the Central Limit Theorem
// yields a confidence interval (its variance in closed form from the
// sample's moments; the paper's Bag of Little Bootstraps is kept as a
// tested reference) that is iteratively tightened until the user's
// relative error bound holds.
// Filters, GROUP-BY, MAX/MIN (without guarantee) and chain / star / cycle /
// flower query shapes are supported (§V extensions).
//
// The facade re-exports the stable surface of the internal packages; see
// DESIGN.md for the full architecture.
package kgaq

import (
	"errors"
	"fmt"
	"io"

	"kgaq/internal/core"
	"kgaq/internal/datagen"
	"kgaq/internal/embedding"
	"kgaq/internal/kg"
	"kgaq/internal/live"
	"kgaq/internal/query"
)

// Graph is an immutable in-memory knowledge graph.
type Graph = kg.Graph

// GraphBuilder assembles a Graph programmatically.
type GraphBuilder = kg.Builder

// NodeID identifies a graph node.
type NodeID = kg.NodeID

// NTOptions configures the N-Triples loader.
type NTOptions = kg.NTOptions

// NewGraphBuilder returns an empty graph builder.
func NewGraphBuilder() *GraphBuilder { return kg.NewBuilder() }

// LoadNTriplesFile loads a pragmatic N-Triples subset from disk; see
// internal/kg for the accepted grammar. Malformed lines are reported in the
// error slice while the rest of the file still loads.
func LoadNTriplesFile(path string) (*Graph, []error) {
	return kg.LoadNTriplesFile(path, kg.NTOptions{})
}

// ReadNTriples loads the N-Triples subset from a reader.
func ReadNTriples(r io.Reader, opts NTOptions) (*Graph, []error) {
	return kg.ReadNTriples(r, opts)
}

// LoadGraphSnapshot reads a binary snapshot written by SaveGraphSnapshot.
func LoadGraphSnapshot(path string) (*Graph, error) { return kg.LoadFile(path) }

// SaveGraphSnapshot writes a binary graph snapshot.
func SaveGraphSnapshot(path string, g *Graph) error { return g.SaveFile(path) }

// EmbeddingModel supplies per-predicate semantic vectors.
type EmbeddingModel = embedding.Model

// TrainConfig tunes embedding training.
type TrainConfig = embedding.TrainConfig

// TrainedEmbedding is a trained embedding model (also a link scorer).
type TrainedEmbedding = embedding.Trained

// DefaultTrainConfig returns sensible embedding-training defaults.
func DefaultTrainConfig() TrainConfig { return embedding.DefaultTrainConfig() }

// TrainEmbedding fits one of TransE, TransH, TransD, RESCAL or SE to the
// graph's triples by SGD with negative sampling.
func TrainEmbedding(model string, g *Graph, cfg TrainConfig) (*TrainedEmbedding, error) {
	return embedding.Train(model, g, cfg)
}

// EmbeddingModelNames lists the trainable embedding models.
func EmbeddingModelNames() []string { return embedding.ModelNames() }

// LoadEmbedding reads an embedding snapshot from disk.
func LoadEmbedding(path string) (EmbeddingModel, error) {
	m, err := embedding.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// SaveEmbedding writes an embedding snapshot.
func SaveEmbedding(path string, m EmbeddingModel) error {
	return embedding.SaveFile(path, m)
}

// AggFunc is an aggregate function.
type AggFunc = query.AggFunc

// Aggregate functions. COUNT, SUM and AVG carry the accuracy guarantee;
// MAX and MIN are answered without one.
const (
	Count = query.Count
	Sum   = query.Sum
	Avg   = query.Avg
	Max   = query.Max
	Min   = query.Min
)

// AggregateQuery is a full aggregate query over a knowledge graph.
type AggregateQuery = query.Aggregate

// QueryHop is one step of a chain-shaped query.
type QueryHop = query.Hop

// QueryBuilder assembles arbitrary-shape query graphs.
type QueryBuilder = query.Builder

// SimpleQuery builds the canonical simple aggregate query: a named specific
// entity connected to a typed target by one predicate.
func SimpleQuery(f AggFunc, attr, specificName, specificType, predicate, targetType string) *AggregateQuery {
	return query.Simple(f, attr, specificName, specificType, predicate, targetType)
}

// ChainQuery builds a chain-shaped query: specific entity, then hops
// through typed unknowns, ending at the target.
func ChainQuery(f AggFunc, attr, specificName, specificType string, hops []QueryHop) *AggregateQuery {
	return query.Chain(f, attr, specificName, specificType, hops)
}

// NewQueryBuilder returns a builder for star/cycle/flower query graphs.
func NewQueryBuilder() *QueryBuilder { return query.NewBuilder() }

// ParseQuery parses the textual query language, e.g.
//
//	AVG(price) MATCH (g:Country name=Germany)-[product]->(c:Automobile) TARGET c
func ParseQuery(input string) (*AggregateQuery, error) { return query.Parse(input) }

// Options carries the engine knobs; zero values mean the paper's defaults
// (τ=0.85, eb=1%, 95% confidence, n=3, r=3, λ=0.3).
type Options = core.Options

// Engine executes aggregate queries over one graph + embedding pair. It is
// safe for concurrent use: run Engine.Query from as many goroutines as you
// like, or hand a whole workload to Engine.QueryBatch.
type Engine = core.Engine

// Execution is a started query whose sample can be refined interactively
// (Engine.Start + Execution.Refine). A single Execution must not be shared
// across goroutines.
type Execution = core.Execution

// Prepared is a compiled query plan (Engine.Prepare): name resolution,
// shape classification, filter/attribute binding and the full answer-space
// build happen once; Query/Start/QueryMulti on the plan skip straight to
// drawing the sample. A Prepared is safe for concurrent use. See
// DESIGN.md "Prepared plans".
type Prepared = core.Prepared

// PlanInfo is a prepared plan's introspection metadata (Prepared.Plan):
// shape, hop bound, strata, candidate count, epoch pin and build-cache
// counters.
type PlanInfo = core.PlanInfo

// EpochPolicy selects how a prepared plan follows a live graph's epochs
// (WithEpochPolicy): EpochPin freezes the Prepare-time snapshot, EpochRepin
// re-pins and rebuilds as the graph moves.
type EpochPolicy = core.EpochPolicy

// Epoch policies for prepared plans on live graphs.
const (
	EpochPin   = core.EpochPin
	EpochRepin = core.EpochRepin
)

// AggSpec names one aggregate of a multi-aggregate execution
// (Engine.QueryMulti / Prepared.QueryMulti): function, attribute, optional
// per-aggregate error bound.
type AggSpec = core.AggSpec

// AggResult is one AggSpec's outcome within a MultiResult.
type AggResult = core.AggResult

// MultiResult is the outcome of a multi-aggregate execution: one shared
// semantic-aware sample, one refinement loop, N aggregate results — the
// Eq. 7–9 estimators all feeding off a single draw stream.
type MultiResult = core.MultiResult

// Result is the outcome of a query execution.
type Result = core.Result

// Round records one refinement iteration.
type Round = core.Round

// GroupResult is a per-group outcome of a GROUP-BY query.
type GroupResult = core.GroupResult

// BatchResult pairs one Engine.QueryBatch query with its outcome.
type BatchResult = core.BatchResult

// CacheStats snapshots the engine's answer-space cache (Engine.CacheStats):
// converged stationary distributions, the answer spaces assembled from them
// per compiled query graph (Plans, PlanBytes) and validation verdicts, all
// reused across queries. Bound the cache with Options.CacheMaxBytes (default 64 MiB,
// negative disables).
type CacheStats = core.CacheStats

// SamplerKind selects the sampling algorithm (WithSampler / Options).
type SamplerKind = core.SamplerKind

// Sampling algorithms: the paper's semantic-aware walk (default) and the
// topology-only ablation baselines.
const (
	SamplerSemantic = core.SamplerSemantic
	SamplerCNARW    = core.SamplerCNARW
	SamplerNode2Vec = core.SamplerNode2Vec
)

// QueryOption overrides one engine-level option for a single Query, Start
// or QueryBatch call.
type QueryOption = core.QueryOption

// Per-query option constructors; see the core package for details.
func WithErrorBound(eb float64) QueryOption    { return core.WithErrorBound(eb) }
func WithConfidence(conf float64) QueryOption  { return core.WithConfidence(conf) }
func WithTau(tau float64) QueryOption          { return core.WithTau(tau) }
func WithSeed(seed int64) QueryOption          { return core.WithSeed(seed) }
func WithSampler(s SamplerKind) QueryOption    { return core.WithSampler(s) }
func WithMaxDraws(n int) QueryOption           { return core.WithMaxDraws(n) }
func WithMaxRounds(n int) QueryOption          { return core.WithMaxRounds(n) }
func WithHopBound(n int) QueryOption           { return core.WithHopBound(n) }
func WithLambda(l float64) QueryOption         { return core.WithLambda(l) }
func WithSkipValidation(skip bool) QueryOption { return core.WithSkipValidation(skip) }
func WithOptions(o Options) QueryOption        { return core.WithOptions(o) }
func WithParallelism(n int) QueryOption        { return core.WithParallelism(n) }
func WithMinEpoch(epoch uint64) QueryOption    { return core.WithMinEpoch(epoch) }
func WithShards(n int) QueryOption             { return core.WithShards(n) }
func WithEpochPolicy(p EpochPolicy) QueryOption {
	return core.WithEpochPolicy(p)
}
func OnRound(fn func(Round)) QueryOption { return core.OnRound(fn) }

// Sentinel errors surfaced by query execution; match with errors.Is.
var (
	// ErrUnknownEntity reports a specific entity absent from the graph.
	ErrUnknownEntity = core.ErrUnknownEntity
	// ErrUnknownType reports a query type name absent from the graph.
	ErrUnknownType = core.ErrUnknownType
	// ErrUnknownPredicate reports a query predicate absent from the graph.
	ErrUnknownPredicate = core.ErrUnknownPredicate
	// ErrUnknownAttribute reports an aggregated/filtered/grouped attribute
	// absent from the graph.
	ErrUnknownAttribute = core.ErrUnknownAttribute
	// ErrNotConverged reports that no estimable sample was obtained within
	// the round budget.
	ErrNotConverged = core.ErrNotConverged
	// ErrInterrupted reports a context cancellation or deadline mid-query;
	// it can accompany a partial Result with Converged=false.
	ErrInterrupted = core.ErrInterrupted
	// ErrEpochNotReached reports a WithMinEpoch requirement the engine's
	// graph source can never satisfy (static engines are pinned at epoch 0).
	ErrEpochNotReached = core.ErrEpochNotReached
	// ErrShardedSampler reports WithShards combined with a topology-only
	// ablation sampler (only the semantic sampler stratifies).
	ErrShardedSampler = core.ErrShardedSampler
	// ErrPlanSampler reports Engine.Prepare with a topology-only ablation
	// sampler (prepared plans require the semantic sampler).
	ErrPlanSampler = core.ErrPlanSampler
	// ErrPlanOption reports a per-execution override of an option compiled
	// into a prepared plan (sampler, shards, hop bound, τ).
	ErrPlanOption = core.ErrPlanOption
	// ErrBadAggSpec reports an invalid multi-aggregate specification.
	ErrBadAggSpec = core.ErrBadAggSpec
	// ErrUnknownProfile reports a dataset profile name that is not built in.
	ErrUnknownProfile = errors.New("kgaq: unknown dataset profile")
)

// NewEngine builds an execution engine over a static (immutable) graph.
func NewEngine(g *Graph, model EmbeddingModel, opts Options) (*Engine, error) {
	return core.NewEngine(g, model, opts)
}

// LiveStore is an epoch-versioned mutable knowledge graph: atomic mutation
// batches over a copy-on-write overlay, consistent snapshots for readers,
// and a background compactor. See internal/live and DESIGN.md "Live graphs:
// epochs and consistency".
type LiveStore = live.Store

// Mutation is one live-graph update; build with AddEntity, AddEdge,
// RemoveEdge, SetAttr and SetTypes.
type Mutation = live.Mutation

// MutationBatch is an atomically applied sequence of mutations.
type MutationBatch = live.Batch

// Mutation constructors; see the live package for semantics.
func AddEntity(name string, types ...string) Mutation { return live.AddEntity(name, types...) }
func AddEdge(src, pred, dst string) Mutation          { return live.AddEdge(src, pred, dst) }
func RemoveEdge(src, pred, dst string) Mutation       { return live.RemoveEdge(src, pred, dst) }
func SetAttr(entity, attr string, v float64) Mutation { return live.SetAttr(entity, attr, v) }
func SetTypes(entity string, types ...string) Mutation {
	return live.SetTypes(entity, types...)
}

// NewLiveStore wraps an immutable graph as a live graph at epoch 0.
func NewLiveStore(g *Graph) *LiveStore { return live.NewStore(g, 0) }

// NewLiveEngine builds an execution engine over a live store: queries run
// against epoch-consistent snapshots while mutation batches proceed, with
// selective answer-space cache invalidation. Use WithMinEpoch for
// read-your-writes.
func NewLiveEngine(store *LiveStore, model EmbeddingModel, opts Options) (*Engine, error) {
	return core.NewLiveEngine(store, model, opts)
}

// Dataset is a synthetic benchmark dataset: a schema-flexible knowledge
// graph, a matching oracle embedding, and a query workload with ground
// truth (see internal/datagen and DESIGN.md for how it mirrors the paper's
// DBpedia / Freebase / YAGO2 evaluation data).
type Dataset = datagen.Dataset

// DatasetQuery is one workload query with its human-annotation ground
// truth.
type DatasetQuery = datagen.GenQuery

// DatasetProfiles lists the built-in synthetic dataset profiles:
// dbpedia-sim, freebase-sim, yago2-sim and tiny.
func DatasetProfiles() []string {
	var out []string
	for _, p := range datagen.Profiles() {
		out = append(out, p.Name)
	}
	return append(out, datagen.TinyProfile().Name)
}

// GenerateDataset synthesises a named benchmark dataset. The returned
// dataset's Model is a ready-to-use embedding and its Queries carry
// human-annotated ground truth, so a downstream user can evaluate the
// engine end to end without external data.
func GenerateDataset(profile string) (*Dataset, error) {
	p, ok := datagen.ProfileByName(profile)
	if !ok {
		return nil, errUnknownProfile(profile)
	}
	return datagen.Generate(p)
}

// DatasetOptimalTau returns the τ threshold a profile was designed around
// (the τ* at which its Table V AJS curve peaks).
func DatasetOptimalTau(profile string) (float64, error) {
	p, ok := datagen.ProfileByName(profile)
	if !ok {
		return 0, errUnknownProfile(profile)
	}
	return p.OptimalTau, nil
}

func errUnknownProfile(profile string) error {
	return fmt.Errorf("%w %s (see DatasetProfiles)", ErrUnknownProfile, profile)
}
