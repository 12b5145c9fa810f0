package simtime

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// A runtime timer returns a 250 µs wait after about 1 ms in an idle process;
// the timerfd leg must not.
func TestSubMillisecondPrecision(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("sub-millisecond waits need the Linux timerfd")
	}
	const wait, runs = 250 * time.Microsecond, 50
	took := make([]time.Duration, runs)
	for i := range took {
		start := time.Now()
		if err := Until(context.Background(), start.Add(wait)); err != nil {
			t.Fatalf("Until: %v", err)
		}
		took[i] = time.Since(start)
	}
	slices.Sort(took)
	if median := took[runs/2]; median >= 600*time.Microsecond {
		t.Fatalf("median 250µs wait took %v, want < 600µs (sorted: %v)", median, took)
	}
}

// An operation whose time has come is applied even if its caller has
// already given up: returning ctx's error here would withdraw it.
func TestElapsedDeadlineIgnoresCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Until(ctx, time.Now().Add(-time.Microsecond)); err != nil {
		t.Fatalf("Until past deadline with cancelled ctx = %v, want nil", err)
	}
	deadline := time.Now().Add(300 * time.Microsecond)
	time.Sleep(time.Until(deadline))
	if err := Until(ctx, deadline); err != nil {
		t.Fatalf("Until at deadline with cancelled ctx = %v, want nil", err)
	}
}

func TestCancelBeforeDeadline(t *testing.T) {
	t.Run("runtime timer", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(10*time.Millisecond, cancel)
		start := time.Now()
		err := Until(ctx, start.Add(time.Second))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Until = %v, want context.Canceled", err)
		}
		if took := time.Since(start); took > 500*time.Millisecond {
			t.Fatalf("cancelled wait returned after %v", took)
		}
	})
	t.Run("sub-millisecond", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		// Until itself returns before parking on an already cancelled ctx;
		// wait shows that a parked sub-millisecond wait leaves on ctx.
		if err := wait(ctx, time.Now().Add(900*time.Microsecond)); !errors.Is(err, context.Canceled) {
			t.Fatalf("wait = %v, want context.Canceled", err)
		}
		if err := Until(ctx, time.Now().Add(900*time.Microsecond)); !errors.Is(err, context.Canceled) {
			t.Fatalf("Until = %v, want context.Canceled", err)
		}
	})
}

// Waiters parked together, on both legs, each wake no earlier than their
// own deadline, however their deadlines interleave.
func TestConcurrentWaitersWakeNoEarlierThanDeadline(t *testing.T) {
	const waiters = 1000
	offsets := rand.Perm(waiters)
	start := time.Now()
	var wg sync.WaitGroup
	for _, off := range offsets {
		deadline := start.Add(time.Duration(off) * 3 * time.Microsecond) // 0–3 ms
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := Until(context.Background(), deadline); err != nil {
				t.Errorf("Until: %v", err)
				return
			}
			if early := deadline.Sub(time.Now()); early > 0 {
				t.Errorf("woke %v before its deadline", early)
			}
		}()
	}
	wg.Wait()
}
