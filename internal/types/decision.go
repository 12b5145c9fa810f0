package types

import (
	"context"
	"sync"
)

// Decision is a decide-once latch: the first Learn fixes the value for good
// and every later Learn is ignored, which is the agreement property a
// learner must keep however many decide broadcasts (or its own proposal)
// reach it. The zero value is an undecided latch. Decision is safe for
// concurrent use and never hands out its own buffer.
type Decision struct {
	mu   sync.Mutex
	v    Value
	ok   bool
	done chan struct{} // closed by the first Learn; made on first use
}

// doneLocked returns the channel the first Learn closes.
func (d *Decision) doneLocked() chan struct{} {
	if d.done == nil {
		d.done = make(chan struct{})
	}
	return d.done
}

// Learn records v as the decision if none is recorded yet, storing a copy,
// and reports whether this call was the one that decided.
func (d *Decision) Learn(v Value) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ok {
		return false
	}
	d.v, d.ok = v.Clone(), true
	close(d.doneLocked())
	return true
}

// Decided returns a copy of the decision, if any.
func (d *Decision) Decided() (Value, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.v.Clone(), d.ok
}

// Done returns a channel closed once the decision is learned, for select
// loops that wait on other events too.
func (d *Decision) Done() <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.doneLocked()
}

// Wait blocks until the decision is learned or ctx is done, and returns a
// copy of the decision or ctx's error. When both are ready it prefers the
// decision, so a learner polled with an already-expired context still
// reports a value it has in fact learned.
func (d *Decision) Wait(ctx context.Context) (Value, error) {
	done := d.Done()
	select {
	case <-done:
	case <-ctx.Done():
		select {
		case <-done:
		default:
			return nil, ctx.Err()
		}
	}
	v, _ := d.Decided()
	return v, nil
}
