package smr

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"rdmaagreement/internal/core"
)

// TestBarrierFlushesCommittedPrefix pins Barrier's contract: when it returns,
// every command enqueued before the call is committed and applied, and the
// returned index is the applied prefix length. It must pay the slot path even
// when a lease is in force — a zero-slot answer would flush nothing.
func TestBarrierFlushesCommittedPrefix(t *testing.T) {
	opts := leaseTestOptions(time.Second)
	opts.NewSM = newTestSM
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for i := 0; i < 3; i++ {
		propose(t, ctx, l, "key", "v")
	}
	slotsBefore := l.Slots()
	index, err := l.Barrier(ctx)
	if err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	if index != 3 {
		t.Fatalf("Barrier index = %d, want 3 (the applied prefix)", index)
	}
	if got := l.Slots(); got <= slotsBefore {
		t.Fatalf("Barrier committed no slot (Slots() %d, was %d): the flush must ride the log even under a lease", got, slotsBefore)
	}
}

// TestBarrierAfterClose pins the lifecycle error.
func TestBarrierAfterClose(t *testing.T) {
	l := newTestLog(t, testOptions(core.ProtocolProtectedMemoryPaxos))
	l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := l.Barrier(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Barrier after Close: err = %v, want ErrClosed", err)
	}
}

// TestLocalReadPrefersLeaseHolderThenApplied pins the stale-read routing fix:
// under a healthy lease LocalRead answers (from the holder's view); after the
// holder's process is stalled — the window in which Cluster.Leader() may
// still name the deposed holder, whose learner view is frozen — LocalRead
// must still answer, from whichever replica view has applied the most.
func TestLocalReadPrefersLeaseHolderThenApplied(t *testing.T) {
	opts := leaseTestOptions(150 * time.Millisecond)
	opts.NewSM = newTestSM
	opts.ReplicaCatchUp = 200 * time.Millisecond
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	propose(t, ctx, l, "key", "v1")
	if got, err := l.LocalRead([]byte("key")); err != nil || string(got) != "v1" {
		t.Fatalf("LocalRead under lease = %q, %v; want v1", got, err)
	}

	// Stall the holder and poll LocalRead continuously through the takeover:
	// it must answer at every point — mid-takeover included — never error and
	// never lose the committed value.
	old := l.Cluster().LeaseHolder()
	l.Cluster().CrashProcess(old)
	deadline := time.Now().Add(10 * time.Second)
	for l.Cluster().LeaseEpoch() == 1 {
		if got, err := l.LocalRead([]byte("key")); err != nil || string(got) != "v1" {
			t.Fatalf("LocalRead mid-takeover = %q, %v; want v1", got, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no takeover after stalling %s", old)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got, err := l.LocalRead([]byte("key")); err != nil || string(got) != "v1" {
		t.Fatalf("LocalRead after takeover = %q, %v; want v1", got, err)
	}
}

// TestBatchWaitCoalesces pins the BatchWait horizon: commands that arrive
// together while the queue is held commit as one slot, and a Barrier queued
// behind a held queue cuts it at once instead of waiting out the horizon.
func TestBatchWaitCoalesces(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	t.Run("coalesces", func(t *testing.T) {
		opts := testOptions(core.ProtocolProtectedMemoryPaxos)
		opts.BatchWait = 50 * time.Millisecond
		l := newTestLog(t, opts)
		slotsBefore := l.Slots()
		const n = 8
		start := make(chan struct{})
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			go func() {
				<-start
				_, _, err := l.Propose(ctx, []byte(fmt.Sprintf("cmd-%d", i)))
				errs <- err
			}()
		}
		close(start)
		for i := 0; i < n; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("Propose: %v", err)
			}
		}
		if got := l.Slots() - slotsBefore; got != 1 {
			t.Fatalf("%d proposes started together took %d slots, want 1", n, got)
		}
		if got := l.Metrics().BatchSize.Max; got != n {
			t.Fatalf("BatchSize.Max = %v, want %d", got, n)
		}
	})

	t.Run("barrier-cuts", func(t *testing.T) {
		opts := testOptions(core.ProtocolProtectedMemoryPaxos)
		opts.BatchWait = 2 * time.Second
		l := newTestLog(t, opts)
		proposed := make(chan error, 1)
		go func() {
			_, _, err := l.Propose(ctx, []byte("held"))
			proposed <- err
		}()
		deadline := time.Now().Add(5 * time.Second)
		for l.Metrics().QueueDepth.Current == 0 {
			if time.Now().After(deadline) {
				t.Fatal("the proposal was never held in the queue")
			}
			time.Sleep(time.Millisecond)
		}
		start := time.Now()
		index, err := l.Barrier(ctx)
		if err != nil {
			t.Fatalf("Barrier: %v", err)
		}
		if elapsed := time.Since(start); elapsed > opts.BatchWait/4 {
			t.Fatalf("Barrier behind a held queue took %v, want well inside the %v horizon", elapsed, opts.BatchWait)
		}
		if index != 1 {
			t.Fatalf("Barrier index = %d, want 1: the held command rides the barrier's slot", index)
		}
		if err := <-proposed; err != nil {
			t.Fatalf("held Propose: %v", err)
		}
	})
}

// TestClosedLogReportsZeroPipelineDepth pins the "closed is not backed off"
// normalization: a live group reports its adaptive depth, a closed one
// reports 0 so that cross-group minimum aggregations can skip it.
func TestClosedLogReportsZeroPipelineDepth(t *testing.T) {
	opts := testOptions(core.ProtocolProtectedMemoryPaxos)
	opts.Pipeline = 4
	l, err := NewLog(opts)
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	if got := l.Stats().PipelineDepth; got != 4 {
		t.Fatalf("live PipelineDepth = %d, want 4", got)
	}
	l.Close()
	if got := l.Stats().PipelineDepth; got != 0 {
		t.Fatalf("closed PipelineDepth = %d, want 0", got)
	}
}
