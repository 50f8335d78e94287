// Package walk implements the semantic-aware random walk of §IV-A: a Markov
// chain over the n-bounded subgraph around the query's specific entity whose
// transition probabilities follow predicate similarity (Eq. 5), with a tiny
// self-loop at the start node for aperiodicity, convergence to the
// stationary distribution π, and continuous sampling of candidate answers
// from the renormalised answer distribution π′ (Theorem 1).
//
// The chain is reversible, so π is the closed form W(i)/ΣW over weighted
// degrees, where the paper's power iteration (Eq. 6) converges. New computes
// those degrees in one dense pass (breadth-first scope, then every half-edge
// once) together with the weight arriving at each node, which lets
// ConvergeCtx check the closed form without a transition matrix. A scope
// that fails the check lists some edge at one end only; ConvergeCtx then
// returns ErrAsymmetric. The package's tests keep the literal Eq. 5 matrix,
// power iteration and walking with rejection as the reference that π is
// held to (reference_test.go).
//
// The package also provides the topology-only samplers CNARW and Node2Vec
// used as ablation baselines in Fig. 5a of the paper.
package walk
