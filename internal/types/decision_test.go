package types

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestDecisionFirstLearnWins races many Learn calls against many Wait calls
// (run it with -race): exactly one Learn decides, and every waiter and every
// later read sees that one value.
func TestDecisionFirstLearnWins(t *testing.T) {
	var d Decision
	const learners, waiters = 16, 16
	var wg sync.WaitGroup
	won := make(chan Value, learners)
	got := make(chan Value, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := d.Wait(context.Background())
			if err != nil {
				t.Errorf("Wait: %v", err)
			}
			got <- v
		}()
	}
	for i := 0; i < learners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := Value(fmt.Sprintf("v%d", i))
			if d.Learn(v) {
				won <- v
			}
		}(i)
	}
	wg.Wait()
	close(won)
	close(got)
	if len(won) != 1 {
		t.Fatalf("%d Learn calls decided, want exactly 1", len(won))
	}
	first := <-won
	for v := range got {
		if !v.Equal(first) {
			t.Fatalf("a waiter saw %v, want the first learned %v", v, first)
		}
	}
	if v, ok := d.Decided(); !ok || !v.Equal(first) {
		t.Fatalf("Decided() = %v, %v; want %v, true", v, ok, first)
	}
}

// TestDecisionHandsOutCopies pins that neither the learned value nor a value
// read back aliases the latch's own buffer.
func TestDecisionHandsOutCopies(t *testing.T) {
	var d Decision
	if v, ok := d.Decided(); ok || v != nil {
		t.Fatalf("zero Decision: Decided() = %v, %v; want nil, false", v, ok)
	}
	in := Value("abc")
	d.Learn(in)
	in[0] = 'x'
	out, _ := d.Decided()
	out[1] = 'y'
	if v, _ := d.Wait(context.Background()); !v.Equal(Value("abc")) {
		t.Fatalf("decision = %v after mutating the caller's copies, want %q", v, "abc")
	}
}

// TestDecisionWaitPrefersValue pins the tie-break: once a value is learned,
// Wait returns it even when ctx is already done, and it returns ctx's error
// only while undecided.
func TestDecisionWaitPrefersValue(t *testing.T) {
	var d Decision
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("undecided Wait with a done ctx = %v, want context.Canceled", err)
	}
	select {
	case <-d.Done():
		t.Fatalf("Done closed before any Learn")
	default:
	}
	d.Learn(Value("v"))
	<-d.Done()
	for i := 0; i < 200; i++ {
		if v, err := d.Wait(ctx); err != nil || !v.Equal(Value("v")) {
			t.Fatalf("Wait %d on a decided latch with a done ctx = %v, %v; want the value", i, v, err)
		}
	}
}
