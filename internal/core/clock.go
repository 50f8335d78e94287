package core

import "time"

// now is the step clock's time source; a test may replace it.
var now = time.Now

// stepClock times an execution in the paper's three steps. Each step edge
// reads the clock once and charges the interval since the previous reading
// to the step that ends there, so the steps add up to the wall time of the
// refinement calls less their OnRound callbacks (DESIGN.md "Refinement
// loop").
type stepClock struct {
	times StepTimes
	last  time.Time // the latest reading
	round time.Time // the reading the current round opened at
}

// edge ends a step at a new reading, which it returns: the interval since
// the previous reading is added to *step, or to no step when step is nil —
// the OnRound callback, or the time before the clock opens a call.
func (c *stepClock) edge(step *time.Duration) time.Time {
	t := now()
	if step != nil {
		*step += t.Sub(c.last)
	}
	c.last = t
	return t
}
