package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"kgaq/internal/faultinject"
	"kgaq/internal/query"
)

// An injected panic inside candidate validation must surface as a typed
// ErrInternal carrying the query and a stack — and leave the engine fully
// usable for the next query.
func TestPanicInValidationIsContained(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.02, Seed: 7})
	deactivate := faultinject.Activate(1, faultinject.Fault{
		Point: "core.validate", Count: 1, Panic: "injected validation panic",
	})
	_, err := e.Query(context.Background(), avgPriceQuery())
	deactivate()
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("query under injected panic = %v, want ErrInternal", err)
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("error is not *InternalError: %v", err)
	}
	if ie.Query == "" || len(ie.Stack) == 0 {
		t.Fatalf("InternalError missing context: query %q, stack %d bytes", ie.Query, len(ie.Stack))
	}

	// The engine survives: the very next query succeeds.
	res, err := e.Query(context.Background(), avgPriceQuery())
	if err != nil {
		t.Fatalf("query after contained panic: %v", err)
	}
	if res == nil || res.Estimate <= 0 {
		t.Fatalf("degenerate result after contained panic: %+v", res)
	}
}

// A panic on a worker goroutine — the chain-build pool's, which captures
// it into a panicBox — crosses to the coordinating goroutine and reaches
// the entry-point guard as ErrInternal, with the query and the stack of
// the worker that panicked.
func TestPanicInWorkerKeepsItsStack(t *testing.T) {
	q := countQuery()
	run := func() (err error) {
		defer catchPanics(q, &err)
		var wg sync.WaitGroup
		var pb panicBox
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer pb.capture()
				if w == 1 {
					panickingWorker()
				}
			}()
		}
		wg.Wait()
		pb.rethrow()
		return nil
	}
	err := run()
	var ie *InternalError
	if !errors.Is(err, ErrInternal) || !errors.As(err, &ie) {
		t.Fatalf("worker panic surfaced as %v, want an *InternalError", err)
	}
	if ie.Panic != "worker fault" || ie.Query != q.String() {
		t.Fatalf("InternalError carries panic %v for query %q, want %q for %q", ie.Panic, ie.Query, "worker fault", q)
	}
	if !bytes.Contains(ie.Stack, []byte("panickingWorker")) {
		t.Fatalf("InternalError stack is not the worker's:\n%s", ie.Stack)
	}
}

//go:noinline
func panickingWorker() { panic("worker fault") }

// One poisoned query in a batch must fail alone; its siblings complete.
func TestPanicInBatchIsolated(t *testing.T) {
	e, _ := figure1Engine(t, Options{ErrorBound: 0.02, Seed: 7})
	defer faultinject.Activate(1, faultinject.Fault{
		Point: "core.validate", Count: 1, Panic: "injected batch panic",
	})()
	qs := []*query.Aggregate{avgPriceQuery(), countQuery(), avgPriceQuery()}
	results := e.QueryBatch(context.Background(), qs)
	internal, ok := 0, 0
	for i, r := range results {
		switch {
		case errors.Is(r.Err, ErrInternal):
			internal++
		case r.Err != nil:
			t.Fatalf("query %d failed with unexpected error: %v", i, r.Err)
		default:
			ok++
		}
	}
	if internal != 1 {
		t.Fatalf("%d queries hit the injected panic, want exactly 1", internal)
	}
	if ok != len(qs)-1 {
		t.Fatalf("%d sibling queries completed, want %d", ok, len(qs)-1)
	}
}
