// Package simtime is the simulator's one way to wait for simulated time to
// pass. memsim waits through it for a memory operation's latency and netsim
// for a message's link delay, so the precision of every injected delay is
// decided here and nowhere else.
//
// Go's runtime timers are millisecond-granular when the process is idle: the
// netpoller turns any wait under 1 ms into a 1 ms epoll_wait, so a 250 µs
// sleep returns after about 1 ms. On Linux, Until therefore waits out the
// sub-millisecond part of a deadline on a timerfd the netpoller watches (see
// until_linux.go); elsewhere it uses a runtime timer and stays
// millisecond-granular.
package simtime

import (
	"context"
	"sync"
	"time"
)

// Until blocks until the wall clock reaches deadline or ctx is done,
// whichever comes first. It returns nil once the deadline has passed, even
// when ctx is done by then, so an operation whose time has come is never
// withdrawn; it returns ctx's error only when ctx ends before the deadline.
func Until(ctx context.Context, deadline time.Time) error {
	if !time.Now().Before(deadline) {
		return nil
	}
	err := ctx.Err()
	if err == nil {
		err = wait(ctx, deadline)
	}
	if err != nil && !time.Now().Before(deadline) {
		return nil
	}
	return err
}

// timers recycles the runtime timers sleep waits on. Since Go 1.23 a stopped
// or fired timer can be Reset without a stale tick left in its channel.
var timers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// sleep waits d on a runtime timer, or until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	t := timers.Get().(*time.Timer)
	defer timers.Put(t)
	t.Reset(d)
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		t.Stop()
		return ctx.Err()
	}
}
