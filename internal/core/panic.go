package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"kgaq/internal/faultinject"
	"kgaq/internal/query"
)

// ErrInternal reports a panic inside query execution, converted into an
// error at the engine boundary so one bad query cannot take the process
// down. Match with errors.Is; the concrete *InternalError carries the
// query, the panic value and the goroutine stack.
var ErrInternal = errors.New("internal error")

// InternalError is the typed form of a contained panic.
type InternalError struct {
	// Query is the query being executed when the panic fired ("" if the
	// panic predates query binding).
	Query string
	// Panic is the recovered panic value.
	Panic any
	// Stack is the stack of the panicking goroutine.
	Stack []byte
}

func (e *InternalError) Error() string {
	if e.Query == "" {
		return fmt.Sprintf("internal error: panic: %v", e.Panic)
	}
	return fmt.Sprintf("internal error: panic executing %q: %v", e.Query, e.Panic)
}

func (e *InternalError) Unwrap() error { return ErrInternal }

// catchPanics is the deferred guard on every exported engine entry point:
// it converts a panic into an *InternalError assigned through err, leaving
// the engine itself untouched and usable. A panic captured on a worker
// goroutine (rethrown as *capturedPanic) keeps its original stack. Both
// variants call recover() directly — recover only works in the immediate
// deferred frame — and take the query, not its text: the arguments of a
// deferred call are evaluated at the defer, on every call, and only a
// recovered panic reads the text.
func (x *Execution) catchPanics(err *error) {
	if r := recover(); r != nil {
		*err = toInternal(x.queryString(), r)
	}
}

func catchPanics(q *query.Aggregate, err *error) {
	if r := recover(); r != nil {
		*err = toInternal(aggString(q), r)
	}
}

func toInternal(query string, r any) error {
	if c, ok := r.(*capturedPanic); ok {
		return &InternalError{Query: query, Panic: c.val, Stack: c.stack}
	}
	return &InternalError{Query: query, Panic: r, Stack: debug.Stack()}
}

func (x *Execution) queryString() string {
	if x == nil {
		return ""
	}
	return aggString(x.q)
}

func aggString(q *query.Aggregate) string {
	if q == nil {
		return ""
	}
	return q.String()
}

// capturedPanic carries a panic across a goroutine boundary: worker
// goroutines recover into a panicBox, and the coordinating goroutine
// rethrows after the WaitGroup settles so the entry-point guard converts
// it with the worker's own stack.
type capturedPanic struct {
	val   any
	stack []byte
}

// panicBox collects the first panic among a set of worker goroutines.
type panicBox struct {
	p atomic.Pointer[capturedPanic]
}

// capture is deferred inside each worker goroutine.
func (b *panicBox) capture() {
	if r := recover(); r != nil {
		if c, ok := r.(*capturedPanic); ok {
			b.p.CompareAndSwap(nil, c)
			return
		}
		b.p.CompareAndSwap(nil, &capturedPanic{val: r, stack: debug.Stack()})
	}
}

// rethrow re-raises the captured panic (if any) on the calling goroutine.
// Call after the workers' WaitGroup has settled.
func (b *panicBox) rethrow() {
	if c := b.p.Load(); c != nil {
		panic(c)
	}
}

// fireValidatePoint is the faultinject seam the chaos suite uses to panic
// inside candidate validation.
func fireValidatePoint() {
	if faultinject.Enabled() {
		if err := faultinject.Fire("core.validate"); err != nil {
			panic(err)
		}
	}
}
