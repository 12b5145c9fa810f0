package netsim

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"rdmaagreement/internal/types"
)

func newTestNetwork(t *testing.T, opts Options) *Network {
	t.Helper()
	n := New(opts)
	t.Cleanup(n.Close)
	return n
}

func TestSendReceive(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a := n.Register(1)
	b := n.Register(2)

	if err := a.Send(2, "ping", []byte("hello"), 5); err != nil {
		t.Fatalf("Send: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	msg, err := b.Receive(ctx)
	if err != nil {
		t.Fatalf("Receive: %v", err)
	}
	if msg.From != 1 || msg.To != 2 || msg.Kind != "ping" || string(msg.Payload) != "hello" {
		t.Fatalf("unexpected message %+v", msg)
	}
	if msg.Stamp != 5 {
		t.Fatalf("stamp not propagated: %v", msg.Stamp)
	}
}

func TestFIFOPerLink(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a := n.Register(1)
	b := n.Register(2)
	const count = 200
	for i := 0; i < count; i++ {
		if err := a.Send(2, "seq", []byte{byte(i)}, 0); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for i := 0; i < count; i++ {
		msg, err := b.Receive(ctx)
		if err != nil {
			t.Fatalf("Receive %d: %v", i, err)
		}
		if msg.Payload[0] != byte(i) {
			t.Fatalf("out of order: got %d, want %d", msg.Payload[0], i)
		}
	}
}

func TestSendToUnknownProcess(t *testing.T) {
	n := newTestNetwork(t, Options{})
	n.Register(1)
	if err := n.Send(1, 99, "x", nil, 0); !errors.Is(err, types.ErrUnknownProcess) {
		t.Fatalf("expected unknown process, got %v", err)
	}
	if err := n.Send(99, 1, "x", nil, 0); !errors.Is(err, types.ErrUnknownProcess) {
		t.Fatalf("expected unknown process for unknown sender, got %v", err)
	}
}

func TestCrashProcess(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a := n.Register(1)
	b := n.Register(2)
	n.CrashProcess(1)
	if !n.ProcessCrashed(1) || n.ProcessCrashed(2) {
		t.Fatalf("ProcessCrashed bookkeeping wrong")
	}
	if err := a.Send(2, "x", nil, 0); !errors.Is(err, types.ErrProcessCrashed) {
		t.Fatalf("crashed sender should fail, got %v", err)
	}
	// Messages to a crashed process are dropped silently.
	if err := b.Send(1, "x", nil, 0); err != nil {
		t.Fatalf("send to crashed process should not error at sender: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := n.Counters().Snapshot().Dropped; got == 0 {
		t.Fatalf("expected dropped message count > 0")
	}
}

func TestBroadcastIncludesSelf(t *testing.T) {
	n := newTestNetwork(t, Options{})
	eps := make(map[types.ProcID]*Endpoint)
	for _, p := range []types.ProcID{1, 2, 3} {
		eps[p] = n.Register(p)
	}
	if err := eps[1].Broadcast("hello", []byte("b"), 0); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for p, ep := range eps {
		msg, err := ep.Receive(ctx)
		if err != nil {
			t.Fatalf("receive at %s: %v", p, err)
		}
		if msg.Kind != "hello" {
			t.Fatalf("unexpected message %+v at %s", msg, p)
		}
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a := n.Register(1)
	b := n.Register(2)
	n.Partition([]types.ProcID{1}, []types.ProcID{2})

	if err := a.Send(2, "blocked", nil, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	shortCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := b.Receive(shortCtx); err == nil {
		t.Fatalf("message crossed a partition")
	}

	n.Heal()
	if err := a.Send(2, "open", nil, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	ctx, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	msg, err := b.Receive(ctx)
	if err != nil {
		t.Fatalf("Receive after heal: %v", err)
	}
	if msg.Kind != "open" {
		t.Fatalf("unexpected message after heal: %+v", msg)
	}
}

func TestTapDropsMessages(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a := n.Register(1)
	b := n.Register(2)
	n.SetTap(func(m Message) bool { return m.Kind != "drop-me" })

	if err := a.Send(2, "drop-me", nil, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := a.Send(2, "keep-me", nil, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	msg, err := b.Receive(ctx)
	if err != nil {
		t.Fatalf("Receive: %v", err)
	}
	if msg.Kind != "keep-me" {
		t.Fatalf("tap did not drop message, got %+v", msg)
	}
	n.SetTap(nil)
}

func TestDelayIsApplied(t *testing.T) {
	n := newTestNetwork(t, Options{Delay: 30 * time.Millisecond})
	a := n.Register(1)
	b := n.Register(2)
	start := time.Now()
	if err := a.Send(2, "slow", nil, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := b.Receive(ctx); err != nil {
		t.Fatalf("Receive: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delay not applied: %v", elapsed)
	}
}

// A link is a pipe, not a serial server: each message arrives one delay
// after it was sent, however many were sent just before it on the same link.
func TestLinkIsAPipe(t *testing.T) {
	const delay, count = 5 * time.Millisecond, 10
	n := newTestNetwork(t, Options{Delay: delay})
	a := n.Register(1)
	b := n.Register(2)
	start := time.Now()
	for i := range count {
		if err := a.Send(2, "pipe", []byte{byte(i)}, 0); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for i := range count {
		msg, err := b.Receive(ctx)
		if err != nil {
			t.Fatalf("Receive %d: %v", i, err)
		}
		if msg.Payload[0] != byte(i) {
			t.Fatalf("out of order: got %d, want %d", msg.Payload[0], i)
		}
	}
	if took := time.Since(start); took < delay || took > 5*delay {
		t.Fatalf("%d messages on one %v link took %v, want one delay plus slack (< %v)", count, delay, took, 5*delay)
	}
}

func TestTryReceive(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a := n.Register(1)
	b := n.Register(2)
	if _, ok := b.TryReceive(); ok {
		t.Fatalf("TryReceive on empty inbox should report false")
	}
	if err := a.Send(2, "x", nil, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		if _, ok := b.TryReceive(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("message never became available")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCounters(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a := n.Register(1)
	b := n.Register(2)
	if err := a.Send(2, "x", nil, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := b.Receive(ctx); err != nil {
		t.Fatalf("Receive: %v", err)
	}
	s := n.Counters().Snapshot()
	if s.Sent != 1 || s.Delivered != 1 {
		t.Fatalf("counters = %+v", s)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a1 := n.Register(1)
	a2 := n.Register(1)
	if a1 != a2 {
		t.Fatalf("re-registration should return the same endpoint")
	}
	if len(n.Processes()) != 1 {
		t.Fatalf("Processes() = %v", n.Processes())
	}
}

// TestProcessesSortedAndAllocFree pins the membership Broadcast ranges over
// on every send: sorted whatever the registration order, a snapshot that a
// later Register does not change, and read without allocating.
func TestProcessesSortedAndAllocFree(t *testing.T) {
	n := newTestNetwork(t, Options{})
	for _, p := range []types.ProcID{3, 1, 2} {
		n.Register(p)
	}
	before := n.Processes()
	if !slices.Equal(before, []types.ProcID{1, 2, 3}) {
		t.Fatalf("Processes() = %v, want [p1 p2 p3]", before)
	}
	n.Register(4)
	if got := n.Processes(); !slices.Equal(got, []types.ProcID{1, 2, 3, 4}) || !slices.Equal(before, []types.ProcID{1, 2, 3}) {
		t.Fatalf("after Register(4): Processes() = %v, earlier snapshot = %v", got, before)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = n.Processes() }); allocs != 0 {
		t.Fatalf("Processes() allocates %v per call, want 0", allocs)
	}
}

func TestCloseStopsSends(t *testing.T) {
	n := New(Options{})
	n.Register(1)
	n.Register(2)
	n.Close()
	n.Close() // idempotent
	if err := n.Send(1, 2, "x", nil, 0); err == nil {
		t.Fatalf("send after close should fail")
	}
}

func TestReceiveContextCancellation(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a := n.Register(1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.Receive(ctx); err == nil {
		t.Fatalf("receive with no messages should fail when context expires")
	}
}

func TestMessageUniqueness(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a := n.Register(1)
	b := n.Register(2)
	const count = 50
	for i := 0; i < count; i++ {
		if err := a.Send(2, "m", []byte(fmt.Sprintf("%d", i)), 0); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	seen := make(map[uint64]bool)
	for i := 0; i < count; i++ {
		msg, err := b.Receive(ctx)
		if err != nil {
			t.Fatalf("Receive: %v", err)
		}
		if seen[msg.Seq] {
			t.Fatalf("duplicate sequence number %d (integrity violation)", msg.Seq)
		}
		seen[msg.Seq] = true
	}
}

func TestConcurrentSenders(t *testing.T) {
	n := newTestNetwork(t, Options{})
	receiver := n.Register(1)
	const senders = 5
	const perSender = 50
	for s := 2; s < 2+senders; s++ {
		n.Register(types.ProcID(s))
	}
	for s := 2; s < 2+senders; s++ {
		go func(id types.ProcID) {
			for i := 0; i < perSender; i++ {
				_ = n.Send(id, 1, "load", nil, 0)
			}
		}(types.ProcID(s))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < senders*perSender; i++ {
		if _, err := receiver.Receive(ctx); err != nil {
			t.Fatalf("Receive %d: %v", i, err)
		}
	}
}

func TestReviveProcessRestoresFlow(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a := n.Register(1)
	b := n.Register(2)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	n.CrashProcess(1)
	if err := a.Send(2, "dead", nil, 0); !errors.Is(err, types.ErrProcessCrashed) {
		t.Fatalf("send from crashed process: got %v, want ErrProcessCrashed", err)
	}
	if !n.ProcessCrashed(1) {
		t.Fatalf("process 1 should report crashed")
	}

	n.ReviveProcess(1)
	if n.ProcessCrashed(1) {
		t.Fatalf("process 1 should report revived")
	}
	if err := a.Send(2, "alive", []byte("x"), 0); err != nil {
		t.Fatalf("send after revive: %v", err)
	}
	msg, err := b.Receive(ctx)
	if err != nil {
		t.Fatalf("receive after revive: %v", err)
	}
	if msg.Kind != "alive" {
		t.Fatalf("unexpected message %+v", msg)
	}
}

func TestJitterDelaysAndRemoval(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a := n.Register(1)
	b := n.Register(2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	const extra = 60 * time.Millisecond
	n.SetJitter(func(Message) time.Duration { return extra })
	start := time.Now()
	if err := a.Send(2, "slow", nil, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, err := b.Receive(ctx); err != nil {
		t.Fatalf("Receive: %v", err)
	}
	if got := time.Since(start); got < extra {
		t.Fatalf("jittered delivery took %v, want >= %v", got, extra)
	}

	// Removal restores fast delivery: well under the previous jitter.
	n.SetJitter(nil)
	start = time.Now()
	if err := a.Send(2, "fast", nil, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, err := b.Receive(ctx); err != nil {
		t.Fatalf("Receive: %v", err)
	}
	if got := time.Since(start); got >= extra {
		t.Fatalf("post-removal delivery took %v, want < %v", got, extra)
	}
}

func TestJitterReordersAcrossLinks(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a := n.Register(1)
	c := n.Register(2)
	b := n.Register(3)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Delay only link 1->3; link 2->3 runs at full speed, so a message sent
	// later on the fast link overtakes the jittered one.
	n.SetJitter(func(m Message) time.Duration {
		if m.From == 1 {
			return 80 * time.Millisecond
		}
		return 0
	})
	if err := a.Send(3, "slow", nil, 0); err != nil {
		t.Fatalf("Send slow: %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := c.Send(3, "fast", nil, 0); err != nil {
		t.Fatalf("Send fast: %v", err)
	}
	first, err := b.Receive(ctx)
	if err != nil {
		t.Fatalf("Receive: %v", err)
	}
	if first.Kind != "fast" {
		t.Fatalf("expected the un-jittered message first, got %q", first.Kind)
	}
	second, err := b.Receive(ctx)
	if err != nil {
		t.Fatalf("Receive: %v", err)
	}
	if second.Kind != "slow" {
		t.Fatalf("expected the jittered message second, got %q", second.Kind)
	}
}
