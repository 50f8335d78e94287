package federate

import (
	"sync"

	"kgaq/internal/estimate"
)

// This file is the coordinator's memory of how large a query turned out to
// be (DESIGN.md "Federation: remote strata"): the final per-member moments
// of the last execution of each query that finished whole, from which the
// next execution sizes its first scatter instead of running a pilot. A
// prior only sizes draws; it never enters an estimate or a margin.

// priorCapacity bounds the table: enough for every distinct query of a
// serving mix, a few hundred bytes each.
const priorCapacity = 1024

// priorKey is what makes two executions the same query for sizing: the
// query text and the options that change what the members' draws estimate
// or how tight the answer must be. The seed is not part of it.
type priorKey struct {
	query      string
	tau, eb    float64
	confidence float64
	policy     estimate.DivisorPolicy
}

// priorTable maps a query to its prior. It holds at most priorCapacity
// keys and, full, starts over empty, so its contents are a function of the
// order of the executions that stored into it.
type priorTable struct {
	mu    sync.Mutex
	byKey map[priorKey][]memberRun
}

// get returns the prior stored for key; the slice is never mutated after it
// is stored, so the caller may read it without the lock.
func (t *priorTable) get(key priorKey) ([]memberRun, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pr, ok := t.byKey[key]
	return pr, ok
}

// put stores the final moments and candidate counts of runs as key's prior.
func (t *priorTable) put(key priorKey, runs []memberRun) {
	pr := make([]memberRun, len(runs))
	for i, r := range runs {
		pr[i] = memberRun{sample: r.sample, candidates: r.candidates}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byKey == nil {
		t.byKey = make(map[priorKey][]memberRun)
	}
	if _, ok := t.byKey[key]; !ok && len(t.byKey) == priorCapacity {
		clear(t.byKey)
	}
	t.byKey[key] = pr
}
