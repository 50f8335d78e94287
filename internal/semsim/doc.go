// Package semsim implements the semantic-similarity machinery of §III and
// §IV-B2 of the paper: predicate similarity via KG-embedding cosine (Eq. 4),
// path similarity as the geometric mean of predicate similarities (Eq. 2),
// answer similarity as the maximum over subgraph matches (Eq. 3), the
// exhaustive bounded path enumeration used by the SSB baseline, and the
// τ-bounded enumeration that decides Eq. 3 for the engine's answers.
package semsim
