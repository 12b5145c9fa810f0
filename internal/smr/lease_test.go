package smr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rdmaagreement/internal/core"
)

// leaseTestOptions is a 3-process Protected Memory Paxos group with
// time-bounded leases enabled.
func leaseTestOptions(duration time.Duration) Options {
	opts := testOptions(core.ProtocolProtectedMemoryPaxos)
	opts.Cluster.LeaseDuration = duration
	return opts
}

// TestLeaseReadServesLocally pins the lease fast path's contract: while the
// holder keeps renewing, linearizable reads observe every returned Propose,
// commit ZERO consensus slots, and are counted as lease reads — the
// read-index barrier is never paid.
func TestLeaseReadServesLocally(t *testing.T) {
	opts := leaseTestOptions(time.Second)
	opts.NewSM = newTestSM
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	propose(t, ctx, l, "key", "v1")
	slotsBefore := l.Slots()

	for i := 0; i < 10; i++ {
		got, err := l.Read(ctx, []byte("key"))
		if err != nil {
			t.Fatalf("lease Read %d: %v", i, err)
		}
		if string(got) != "v1" {
			t.Fatalf("lease Read %d = %q, want %q", i, got, "v1")
		}
	}
	if got := l.Slots(); got != slotsBefore {
		t.Fatalf("lease reads committed %d consensus slots, want 0", got-slotsBefore)
	}
	stats := l.Stats()
	if stats.LeaseReads != 10 || stats.BarrierReads != 0 {
		t.Fatalf("Stats reads = {Lease:%d Barrier:%d}, want {Lease:10 Barrier:0}", stats.LeaseReads, stats.BarrierReads)
	}
	if stats.Epoch != 1 || stats.Takeovers != 0 {
		t.Fatalf("healthy group: epoch %d takeovers %d, want 1 and 0", stats.Epoch, stats.Takeovers)
	}

	// Freshness across a write, and a follower-served lease read: ReadFrom
	// still costs no slot — it waits for the follower's view to reach the
	// local read index, then answers there.
	propose(t, ctx, l, "key", "v2")
	slotsBefore = l.Slots()
	if got, err := l.Read(ctx, []byte("key")); err != nil || string(got) != "v2" {
		t.Fatalf("lease Read after write = %q, %v; want %q", got, err, "v2")
	}
	f := follower(t, l)
	if got, err := l.ReadFrom(ctx, f, []byte("key")); err != nil || string(got) != "v2" {
		t.Fatalf("lease ReadFrom(%s) = %q, %v; want %q", f, got, err, "v2")
	}
	if got := l.Slots(); got != slotsBefore {
		t.Fatalf("lease Read+ReadFrom committed %d slots, want 0", got-slotsBefore)
	}
}

// TestBarrierReadWithoutLease pins the fallback: with leases disabled (the
// default), linearizable reads keep paying the read-index barrier and are
// counted as barrier reads.
func TestBarrierReadWithoutLease(t *testing.T) {
	opts := testOptions(core.ProtocolProtectedMemoryPaxos)
	opts.NewSM = newTestSM
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	propose(t, ctx, l, "key", "v1")
	slotsBefore := l.Slots()
	if got, err := l.Read(ctx, []byte("key")); err != nil || string(got) != "v1" {
		t.Fatalf("Read = %q, %v; want %q", got, err, "v1")
	}
	if got := l.Slots(); got <= slotsBefore {
		t.Fatalf("barrier read committed no slot: Slots() = %d, was %d", got, slotsBefore)
	}
	stats := l.Stats()
	if stats.LeaseReads != 0 || stats.BarrierReads != 1 {
		t.Fatalf("Stats reads = {Lease:%d Barrier:%d}, want {Lease:0 Barrier:1}", stats.LeaseReads, stats.BarrierReads)
	}
}

// TestLeaseInDoubtFallsBackToBarrier silences the whole cluster (every
// process network-crashed, so nobody heartbeats and nobody is electable):
// the lease expires with no successor, and reads must fall back to the
// read-index barrier — which still works, because the committer's memory
// path is alive — rather than serve under a lapsed lease.
func TestLeaseInDoubtFallsBackToBarrier(t *testing.T) {
	opts := leaseTestOptions(150 * time.Millisecond)
	opts.NewSM = newTestSM
	opts.ReplicaCatchUp = 200 * time.Millisecond // crashed learners: lag fast
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	propose(t, ctx, l, "key", "v1")
	for _, p := range l.Cluster().Procs {
		l.Cluster().CrashProcess(p)
	}
	deadline := time.Now().Add(10 * time.Second)
	for l.Cluster().Lease().Valid(time.Now()) {
		if time.Now().After(deadline) {
			t.Fatalf("lease still valid with every process crashed: %+v", l.Cluster().Lease())
		}
		time.Sleep(10 * time.Millisecond)
	}

	slotsBefore := l.Slots()
	if got, err := l.Read(ctx, []byte("key")); err != nil || string(got) != "v1" {
		t.Fatalf("Read with lapsed lease = %q, %v; want %q", got, err, "v1")
	}
	if got := l.Slots(); got <= slotsBefore {
		t.Fatalf("lapsed-lease read served locally: Slots() = %d, was %d (want a barrier slot)", got, slotsBefore)
	}
	stats := l.Stats()
	if stats.LeaseReads != 0 || stats.BarrierReads != 1 {
		t.Fatalf("Stats reads = {Lease:%d Barrier:%d}, want {Lease:0 Barrier:1}", stats.LeaseReads, stats.BarrierReads)
	}
	if stats.Takeovers != 0 {
		t.Fatalf("a fully silent cluster elected a leader: %d takeovers", stats.Takeovers)
	}
}

// TestLeaseFailoverMidPipeline is the leader-change-mid-pipeline suite: the
// lease holder's process stalls while pipelined slots are in flight and
// writers keep submitting. It asserts the takeover contract end to end —
// a follower takes over under a bumped epoch; every Propose waiter gets a
// committed response or the typed retryable ErrLeaseLost; every
// acknowledged command is in the log exactly once at its returned index (no
// committed entry lost, no duplicate); every ErrLeaseLost command is absent
// (it provably did not commit); and slots committed after the takeover are
// never decided by the deposed holder or under its epoch. Run with -race in
// CI: the dispatcher, slot workers, lease watcher and writers all race here.
func TestLeaseFailoverMidPipeline(t *testing.T) {
	opts := leaseTestOptions(250 * time.Millisecond)
	opts.Pipeline = 4
	opts.MaxBatch = 1
	opts.SnapshotInterval = -1 // retain every entry for the exactly-once audit
	opts.Cluster.MemoryLatency = time.Millisecond
	opts.ReplicaCatchUp = 200 * time.Millisecond
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	old := l.Cluster().LeaseHolder()

	// result is one writer submission's fate.
	type result struct {
		cmd   string
		index uint64
		err   error
	}
	const writers = 4
	var mu sync.Mutex
	var results []result
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				cmd := fmt.Sprintf("w%d/%d", w, seq)
				index, _, err := l.Propose(ctx, []byte(cmd))
				mu.Lock()
				results = append(results, result{cmd: cmd, index: index, err: err})
				mu.Unlock()
			}
		}(w)
	}

	// Let the pipeline fill, then stall the holder: its heartbeats stop, the
	// lease expires, and a follower must take over.
	time.Sleep(100 * time.Millisecond)
	l.Cluster().CrashProcess(old)
	deadline := time.Now().Add(30 * time.Second)
	for l.Cluster().LeaseEpoch() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no takeover after stalling the lease holder (lease %+v)", l.Cluster().Lease())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Keep writing across the transition, then stop.
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	stats := l.Stats()
	if stats.Takeovers < 1 || stats.Epoch < 2 {
		t.Fatalf("Stats = epoch %d, %d takeovers; want a takeover under a bumped epoch", stats.Epoch, stats.Takeovers)
	}
	newHolder := l.Cluster().LeaseHolder()
	if newHolder == old {
		t.Fatalf("lease holder is still the stalled %s after the takeover", old)
	}

	// Every waiter got a response or the typed retryable error — nothing
	// else, and nobody was left hanging (wg.Wait returned).
	mu.Lock()
	defer mu.Unlock()
	acked := make(map[string]uint64)
	for _, r := range results {
		switch {
		case r.err == nil:
			acked[r.cmd] = r.index
		case errors.Is(r.err, ErrLeaseLost):
			// retryable: provably not committed — audited below
		default:
			t.Fatalf("Propose(%s) failed with %v, want success or ErrLeaseLost", r.cmd, r.err)
		}
	}

	// The committed log is gap-free with every acknowledged command exactly
	// once, at its acknowledged index; ErrLeaseLost commands are absent.
	seen := make(map[string]int)
	for i := uint64(0); i < l.Len(); i++ {
		e, ok := l.Get(i)
		if !ok {
			t.Fatalf("Get(%d): gap in the committed log (Len %d)", i, l.Len())
		}
		seen[string(e.Cmd)]++
	}
	for cmd, index := range acked {
		if seen[cmd] != 1 {
			t.Fatalf("acked command %q appears %d times in the log, want exactly once", cmd, seen[cmd])
		}
		if e, ok := l.Get(index); !ok || string(e.Cmd) != cmd {
			t.Fatalf("acked command %q not at its returned index %d (got %q, %v)", cmd, index, e.Cmd, ok)
		}
	}
	for _, r := range results {
		if errors.Is(r.err, ErrLeaseLost) && seen[r.cmd] != 0 {
			t.Fatalf("ErrLeaseLost command %q IS committed (%d times): the error promised it was not", r.cmd, seen[r.cmd])
		}
	}

	// The group remains live under the new epoch, and post-takeover slots
	// are never decided by the deposed holder or under its old epoch.
	epoch := l.Cluster().LeaseEpoch()
	for i := 0; i < 3; i++ {
		index, _, err := l.Propose(ctx, []byte(fmt.Sprintf("after/%d", i)))
		if err != nil {
			t.Fatalf("Propose after takeover: %v", err)
		}
		e, ok := l.Get(index)
		if !ok {
			t.Fatalf("Get(%d) after takeover: missing", index)
		}
		decider, ok := l.DeciderOf(e.Slot)
		if !ok {
			t.Fatalf("DeciderOf(%d): unknown slot", e.Slot)
		}
		if decider.Proposer == old {
			t.Fatalf("slot %d decided by the deposed holder %s after the takeover", e.Slot, old)
		}
		if decider.Epoch < epoch {
			t.Fatalf("slot %d decided under epoch %d after epoch %d began", e.Slot, decider.Epoch, epoch)
		}
	}

	// Lease reads resume on the survivor: zero additional slots.
	leaseReadsBefore, slotsBefore := l.Stats().LeaseReads, l.Slots()
	if _, err := l.Read(ctx, nil); err != nil {
		t.Fatalf("Read after takeover: %v", err)
	}
	after := l.Stats()
	if after.LeaseReads != leaseReadsBefore+1 || l.Slots() != slotsBefore {
		t.Fatalf("post-takeover read: lease reads %d→%d, slots %d→%d; want a local lease read",
			leaseReadsBefore, after.LeaseReads, slotsBefore, l.Slots())
	}
}

// TestAdaptivePipelineBacksOff drives a slot through ambiguous-timeout
// recovery and checks the committer's adaptive depth: a recovered slot must
// halve the live depth (surfaced in Stats), and a streak of clean commits
// must restore it to Options.Pipeline.
func TestAdaptivePipelineBacksOff(t *testing.T) {
	opts := testOptions(core.ProtocolProtectedMemoryPaxos)
	opts.Pipeline = 4
	opts.SlotTimeout = 300 * time.Millisecond
	l := newTestLog(t, opts)
	pool := l.Cluster().Pool

	if depth := l.Stats().PipelineDepth; depth != 4 {
		t.Fatalf("initial PipelineDepth = %d, want Options.Pipeline 4", depth)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	pool.CrashQuorumSafe(3)
	done := make(chan error, 1)
	go func() {
		_, _, err := l.Propose(ctx, []byte("through-the-stall"))
		done <- err
	}()
	time.Sleep(2 * opts.SlotTimeout)
	pool.Revive()
	if err := <-done; err != nil {
		t.Fatalf("Propose through the stall: %v", err)
	}

	stats := l.Stats()
	if stats.PipelineBackoffs < 1 {
		t.Fatalf("PipelineBackoffs = %d after a recovered slot, want ≥ 1", stats.PipelineBackoffs)
	}
	if stats.PipelineDepth >= 4 {
		t.Fatalf("PipelineDepth = %d after a recovered slot, want backed off below 4", stats.PipelineDepth)
	}

	// A streak of clean commits restores the depth stepwise to the ceiling.
	for i := 0; i < 2*adaptiveRestoreStreak; i++ {
		if _, _, err := l.Propose(ctx, []byte(fmt.Sprintf("clean-%d", i))); err != nil {
			t.Fatalf("Propose(clean-%d): %v", i, err)
		}
	}
	if depth := l.Stats().PipelineDepth; depth != 4 {
		t.Fatalf("PipelineDepth = %d after %d clean commits, want restored to 4", depth, 2*adaptiveRestoreStreak)
	}
}

// TestDeciderOfTracksProposer checks the per-slot decider bookkeeping on the
// healthy path: slots are decided by the lease holder under epoch 1.
func TestDeciderOfTracksProposer(t *testing.T) {
	l := newTestLog(t, leaseTestOptions(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	index, _, err := l.Propose(ctx, []byte("cmd"))
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	e, ok := l.Get(index)
	if !ok {
		t.Fatalf("Get(%d): missing", index)
	}
	decider, ok := l.DeciderOf(e.Slot)
	if !ok {
		t.Fatalf("DeciderOf(%d): unknown slot", e.Slot)
	}
	if want := l.Cluster().LeaseHolder(); decider.Proposer != want || decider.Epoch != 1 {
		t.Fatalf("DeciderOf(%d) = %+v, want proposer %s under epoch 1", e.Slot, decider, want)
	}
	if _, ok := l.DeciderOf(e.Slot + 100); ok {
		t.Fatalf("DeciderOf reported an undecided slot")
	}
}

// TestDoubleTransferFencesMidRecovery moves the lease twice in quick
// succession while pipelined slots are in flight. The first transfer fences
// epoch 1's attempts into recovery; the second lands while those recovery
// rounds run, so each is fenced again and re-run under the newest holder
// without consuming a recovery attempt (the epochRetryBound path). Across
// both fences every waiter gets a committed result or ErrLeaseLost, every
// acknowledged command is in the log exactly once, no ErrLeaseLost command
// is, and slots committed after the second transfer carry the final epoch.
func TestDoubleTransferFencesMidRecovery(t *testing.T) {
	opts := testOptions(core.ProtocolProtectedMemoryPaxos)
	opts.Pipeline = 4
	opts.MaxBatch = 1
	opts.SnapshotInterval = -1 // retain every entry for the exactly-once audit
	opts.Cluster.MemoryLatency = time.Millisecond
	opts.ReplicaCatchUp = 200 * time.Millisecond
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var mu sync.Mutex
	results := make(map[string]error) // command → Propose's error
	acked := make(map[string]uint64)  // command → returned index
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				cmd := fmt.Sprintf("w%d/%d", w, seq)
				index, _, err := l.Propose(ctx, []byte(cmd))
				mu.Lock()
				results[cmd] = err
				if err == nil {
					acked[cmd] = index
				}
				mu.Unlock()
			}
		}(w)
	}

	// Let the pipeline fill, then transfer twice: the second transfer waits
	// only until the committer has adopted the first and its fenced slots
	// have begun their recovery rounds (each pays several 1 ms memory
	// round trips).
	time.Sleep(50 * time.Millisecond)
	procs := l.Cluster().Procs
	l.Cluster().SetLeader(procs[1])
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, epoch, _ := l.leaseView(); epoch >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("committer never adopted the first transfer's epoch")
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(2 * time.Millisecond)
	l.Cluster().SetLeader(procs[2])
	final := l.Cluster().LeaseEpoch()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for cmd, err := range results {
		if err != nil && !errors.Is(err, ErrLeaseLost) {
			t.Fatalf("Propose(%s) failed with %v, want success or ErrLeaseLost", cmd, err)
		}
	}
	seen := make(map[string]int)
	for i := uint64(0); i < l.Len(); i++ {
		e, ok := l.Get(i)
		if !ok {
			t.Fatalf("Get(%d): gap in the committed log (Len %d)", i, l.Len())
		}
		seen[string(e.Cmd)]++
	}
	for cmd, index := range acked {
		if seen[cmd] != 1 {
			t.Fatalf("acked command %q appears %d times in the log, want exactly once", cmd, seen[cmd])
		}
		if e, ok := l.Get(index); !ok || string(e.Cmd) != cmd {
			t.Fatalf("acked command %q not at its returned index %d (got %q, %v)", cmd, index, e.Cmd, ok)
		}
	}
	for cmd, err := range results {
		if errors.Is(err, ErrLeaseLost) && seen[cmd] != 0 {
			t.Fatalf("ErrLeaseLost command %q IS committed (%d times)", cmd, seen[cmd])
		}
	}

	for i := 0; i < 3; i++ {
		index, _, err := l.Propose(ctx, []byte(fmt.Sprintf("after/%d", i)))
		if err != nil {
			t.Fatalf("Propose after the transfers: %v", err)
		}
		e, _ := l.Get(index)
		decider, ok := l.DeciderOf(e.Slot)
		if !ok || decider.Epoch != final || decider.Proposer != procs[2] {
			t.Fatalf("DeciderOf(%d) = %+v, %v; want %s under the final epoch %d", e.Slot, decider, ok, procs[2], final)
		}
	}
}
