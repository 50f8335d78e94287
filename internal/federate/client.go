package federate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// maxResponseBytes bounds a member sample response body. A response is
// seven numbers and three fields, a few hundred bytes whatever the round
// drew; anything past this is a broken or hostile member.
const maxResponseBytes = 64 << 10

// sampleMember runs one member's scatter RPC for one round: per-attempt
// deadline, Retries extra attempts with jittered exponential backoff, and a
// tail-latency hedge inside each attempt. The error returned after the last
// attempt is the member's death certificate for this query.
func (c *Coordinator) sampleMember(ctx context.Context, mi int, req SampleRequest) (*SampleResponse, error) {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			d := c.cfg.RetryBackoff << (attempt - 1)
			// Full jitter over the upper half: sleep in [d/2, d).
			d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, context.Cause(ctx)
			}
		}
		resp, err := c.sampleOnce(ctx, mi, req)
		if err == nil {
			c.noteRPC(mi, nil)
			return resp, nil
		}
		lastErr = err
		c.noteRPC(mi, err)
		if ctx.Err() != nil {
			break // the query is over, not the member
		}
	}
	return nil, lastErr
}

// sampleOnce issues one attempt under the per-member deadline, re-issuing a
// hedge copy after HedgeAfter and taking whichever lands first. Both copies
// carry the same seed, so the draws are identical and the loser is simply
// cancelled — hedging never perturbs the sample.
func (c *Coordinator) sampleOnce(parent context.Context, mi int, req SampleRequest) (*SampleResponse, error) {
	ctx, cancel := context.WithTimeout(parent, c.cfg.MemberTimeout)
	defer cancel()

	type outcome struct {
		resp *SampleResponse
		err  error
	}
	ch := make(chan outcome, 2)
	launch := func() {
		start := time.Now()
		resp, err := c.post(ctx, mi, req)
		metRPCSeconds.With(c.cfg.Members[mi].Name).Observe(time.Since(start).Seconds())
		ch <- outcome{resp, err}
	}
	go launch()

	inflight := 1
	var timerC <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		t := time.NewTimer(c.cfg.HedgeAfter)
		defer t.Stop()
		timerC = t.C
	}
	var firstErr error
	for {
		select {
		case o := <-ch:
			inflight--
			if o.err == nil {
				return o.resp, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if inflight == 0 {
				return nil, firstErr
			}
		case <-timerC:
			timerC = nil
			metHedges.With(c.cfg.Members[mi].Name).Inc()
			inflight++
			go launch()
		}
	}
}

// post performs the raw HTTP exchange with one member.
func (c *Coordinator) post(ctx context.Context, mi int, req SampleRequest) (*SampleResponse, error) {
	m := c.cfg.Members[mi]
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("federate: encode request for %s: %w", m.Name, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, m.URL+SamplePath, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("federate: build request for %s: %w", m.Name, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hres, err := c.cfg.Client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("federate: member %s: %w", m.Name, err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(hres.Body, 4096))
		hres.Body.Close()
	}()
	if hres.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hres.Body, 512))
		return nil, fmt.Errorf("federate: member %s: %w", m.Name, &statusError{
			code: hres.StatusCode,
			msg:  fmt.Sprintf("HTTP %d: %s", hres.StatusCode, bytes.TrimSpace(msg)),
		})
	}
	var out SampleResponse
	dec := json.NewDecoder(io.LimitReader(hres.Body, maxResponseBytes))
	if err := dec.Decode(&out); err != nil {
		return nil, fmt.Errorf("federate: member %s: decode response: %w", m.Name, err)
	}
	return &out, nil
}

// errKind classifies a member RPC failure for the error-counter label.
func errKind(err error) string {
	var se *statusError
	switch {
	case errors.As(err, &se):
		return "http_" + strconv.Itoa(se.code)
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "conn"
	}
}

// statusError is recognised by errKind; post wraps non-200 answers in it.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }
