package smr

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"rdmaagreement/internal/core"
	"rdmaagreement/internal/types"
)

// testSM is the key-value state machine the snapshot and read tests plug in:
// commands are "key=value", queries are the raw key (or "__applies" for the
// number of Apply calls this instance has executed — the probe that tells a
// snapshot restore apart from a full replay).
type testSM struct {
	state   map[string]string
	applies int
}

func newTestSM() StateMachine {
	return &testSM{state: make(map[string]string)}
}

func (m *testSM) Apply(e Entry) ([]byte, error) {
	k, v, ok := strings.Cut(string(e.Cmd), "=")
	if !ok {
		return nil, fmt.Errorf("test sm: malformed command %q", e.Cmd)
	}
	m.state[k] = v
	m.applies++
	return []byte(v), nil
}

func (m *testSM) Query(query []byte) ([]byte, error) {
	if string(query) == "__applies" {
		return []byte(strconv.Itoa(m.applies)), nil
	}
	return []byte(m.state[string(query)]), nil
}

func (m *testSM) Snapshot() ([]byte, error) { return json.Marshal(m.state) }

func (m *testSM) Restore(snapshot []byte, _ uint64) error {
	state := make(map[string]string)
	if len(snapshot) > 0 {
		if err := json.Unmarshal(snapshot, &state); err != nil {
			return err
		}
	}
	m.state = state
	return nil
}

// propose commits key=value and fails the test on error.
func propose(t *testing.T, ctx context.Context, l *Log, key, value string) {
	t.Helper()
	if _, _, err := l.Propose(ctx, []byte(key+"="+value)); err != nil {
		t.Fatalf("Propose(%s=%s): %v", key, value, err)
	}
}

// TestSnapshotRestoreRoundTrip commits entries across several snapshot
// intervals and checks that restoring the latest snapshot into a fresh
// machine reproduces exactly the state at the snapshot's last index.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	opts := testOptions(core.ProtocolProtectedMemoryPaxos)
	opts.NewSM = newTestSM
	opts.SnapshotInterval = 8
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const n = 20
	for i := 0; i < n; i++ {
		propose(t, ctx, l, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	data, lastIndex, ok := l.Snapshot()
	if !ok {
		t.Fatalf("no snapshot after %d entries with interval %d", n, opts.SnapshotInterval)
	}
	if want := uint64(opts.SnapshotInterval - 1); lastIndex < want {
		t.Fatalf("snapshot lastIndex = %d, want ≥ %d", lastIndex, want)
	}

	restored := newTestSM()
	if err := restored.Restore(data, lastIndex); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// Entry i wrote ki=vi at index i, so the snapshot covers keys 0..lastIndex
	// and nothing beyond.
	for i := 0; i < n; i++ {
		got, err := restored.(*testSM).Query([]byte(fmt.Sprintf("k%d", i)))
		if err != nil {
			t.Fatalf("Query(k%d): %v", i, err)
		}
		want := ""
		if uint64(i) <= lastIndex {
			want = fmt.Sprintf("v%d", i)
		}
		if string(got) != want {
			t.Fatalf("restored k%d = %q, want %q (snapshot through index %d)", i, got, want, lastIndex)
		}
	}
}

// TestSlotGCBoundsMemoryRegions commits 10× SnapshotInterval entries and
// asserts that the live memsim regions stay bounded by the snapshot window —
// independent of log length — while the log's logical surface (Len, Slots)
// keeps counting the truncated prefix.
func TestSlotGCBoundsMemoryRegions(t *testing.T) {
	opts := testOptions(core.ProtocolProtectedMemoryPaxos)
	opts.NewSM = newTestSM
	opts.SnapshotInterval = 4
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	total := 10 * opts.SnapshotInterval
	for i := 0; i < total; i++ {
		propose(t, ctx, l, fmt.Sprintf("k%d", i%5), fmt.Sprintf("v%d", i))
	}

	if got := l.Len(); got != uint64(total) {
		t.Fatalf("Len() = %d, want %d", got, total)
	}
	if snaps := l.Snapshots(); snaps < total/opts.SnapshotInterval-1 {
		t.Fatalf("Snapshots() = %d after %d entries at interval %d", snaps, total, opts.SnapshotInterval)
	}
	if first := l.FirstIndex(); first < uint64(total-opts.SnapshotInterval) {
		t.Fatalf("FirstIndex() = %d, want ≥ %d (prefix not truncated)", first, total-opts.SnapshotInterval)
	}
	// Each memory keeps its base layout plus at most one snapshot window of
	// per-slot regions (the window's slots plus the slot that triggered the
	// snapshot). Anything above that bound means truncation is not releasing
	// regions.
	memories := l.Cluster().Opts.Memories
	bound := memories * (1 + opts.SnapshotInterval + 2)
	if live := l.Cluster().LiveRegions(); live > bound {
		t.Fatalf("LiveRegions() = %d after %d slots, want ≤ %d: slot GC not bounding memory", live, l.Slots(), bound)
	}
	// The truncated prefix is compacted away; entries after the latest
	// snapshot stay retrievable and reads serve the full history's state.
	if _, ok := l.Get(0); ok {
		t.Fatalf("Get(0) found an entry that should be compacted into the snapshot")
	}
	if tail := l.Entries(0); tail != nil {
		t.Fatalf("Entries(0) below FirstIndex returned %d entries, want nil (silently skipping a truncated prefix would hand learners a gap)", len(tail))
	}
	propose(t, ctx, l, "extra", "done")
	if _, ok := l.Get(uint64(total)); !ok {
		t.Fatalf("Get(%d) lost an entry committed after the latest snapshot", total)
	}
	resp, err := l.Read(ctx, []byte("k0"))
	if err != nil {
		t.Fatalf("Read(k0): %v", err)
	}
	want := fmt.Sprintf("v%d", total-5)
	if string(resp) != want {
		t.Fatalf("Read(k0) = %q, want %q (state behind the snapshot lost)", resp, want)
	}
}

// TestReadOnlySlotGC drives a group with linearizable reads only: the no-op
// barrier slots apply no entries, but their regions and recorded values must
// still be truncated once SnapshotInterval slots have been decided —
// otherwise a read-heavy group grows without bound.
func TestReadOnlySlotGC(t *testing.T) {
	opts := testOptions(core.ProtocolProtectedMemoryPaxos)
	opts.NewSM = newTestSM
	opts.SnapshotInterval = 4
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const reads = 20
	for i := 0; i < reads; i++ {
		if _, err := l.Read(ctx, []byte("missing")); err != nil {
			t.Fatalf("Read(%d): %v", i, err)
		}
	}
	if slots := l.Slots(); slots < reads/2 {
		t.Fatalf("Slots() = %d after %d reads, want no-op slots to have been committed", slots, reads)
	}
	memories := l.Cluster().Opts.Memories
	bound := memories * (1 + opts.SnapshotInterval + 2)
	if live := l.Cluster().LiveRegions(); live > bound {
		t.Fatalf("LiveRegions() = %d after %d read-only slots, want ≤ %d: no-op slots never truncated", live, l.Slots(), bound)
	}
	if l.Len() != 0 {
		t.Fatalf("Len() = %d, want 0 (no-op slots must not create entries)", l.Len())
	}
}

// failSnapshotSM fails the first *fails Snapshot calls (the counter is shared
// by every machine of a group; only the authoritative one snapshots).
type failSnapshotSM struct {
	*testSM
	fails *int
}

var errSnapshotRefused = errors.New("snapshot refused")

func (m *failSnapshotSM) Snapshot() ([]byte, error) {
	if *m.fails > 0 {
		*m.fails--
		return nil, errSnapshotRefused
	}
	return m.testSM.Snapshot()
}

// TestSnapshotFailureKeepsLogIntact pins the snapshot-failure path: while
// Snapshot fails the log keeps its whole prefix and every slot region,
// SnapshotFailures reports the count and the last error, and the next
// successful snapshot clears the error and truncates.
func TestSnapshotFailureKeepsLogIntact(t *testing.T) {
	fails := 2
	opts := testOptions(core.ProtocolProtectedMemoryPaxos)
	opts.NewSM = func() StateMachine {
		return &failSnapshotSM{testSM: &testSM{state: make(map[string]string)}, fails: &fails}
	}
	opts.SnapshotInterval = 2
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// The applier snapshots after resolving the slot's waiters, so poll.
	waitFor := func(what string, done func() bool) {
		t.Helper()
		for !done() {
			if ctx.Err() != nil {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for attempt := 1; attempt <= 2; attempt++ {
		for i := 0; i < opts.SnapshotInterval; i++ {
			propose(t, ctx, l, "k", fmt.Sprintf("v%d-%d", attempt, i))
		}
		waitFor(fmt.Sprintf("snapshot failure %d", attempt), func() bool {
			n, _ := l.SnapshotFailures()
			return n == attempt
		})
		if first := l.FirstIndex(); first != 0 {
			t.Fatalf("FirstIndex() = %d after a failed snapshot, want 0", first)
		}
		// Every memory keeps its base region plus one region per slot.
		want := opts.Cluster.Memories * (1 + int(l.Slots()))
		if live := l.Cluster().LiveRegions(); live != want {
			t.Fatalf("LiveRegions() = %d after a failed snapshot, want %d: regions released without a snapshot", live, want)
		}
	}
	if n, err := l.SnapshotFailures(); n != 2 || !errors.Is(err, errSnapshotRefused) {
		t.Fatalf("SnapshotFailures() = (%d, %v), want (2, %v)", n, err, errSnapshotRefused)
	}

	regions := l.Cluster().LiveRegions()
	for i := 0; i < opts.SnapshotInterval; i++ {
		propose(t, ctx, l, "k", fmt.Sprintf("v3-%d", i))
	}
	waitFor("a successful snapshot", func() bool { return l.Snapshots() == 1 })
	if n, err := l.SnapshotFailures(); n != 2 || err != nil {
		t.Fatalf("SnapshotFailures() after a success = (%d, %v), want (2, nil)", n, err)
	}
	if first := l.FirstIndex(); first != 6 {
		t.Fatalf("FirstIndex() = %d after the successful snapshot, want 6", first)
	}
	if live := l.Cluster().LiveRegions(); live >= regions {
		t.Fatalf("LiveRegions() = %d after truncation, want < %d", live, regions)
	}
}

// failRestoreSM refuses every Restore: it simulates a state machine whose
// snapshot cannot be deserialized, leaving lagging views permanently behind.
type failRestoreSM struct{ *testSM }

func (m *failRestoreSM) Restore([]byte, uint64) error {
	return fmt.Errorf("restore refused")
}

// TestNoOpTruncationDoesNotFastForwardFailedRestore pins the boundary between
// the two truncation paths: a view left behind by a FAILED snapshot restore
// misses real commands, so a later all-no-op truncation window must not
// fast-forward it (that would silently diverge its state machine); only views
// whose lag lies entirely within the no-op window may jump.
func TestNoOpTruncationDoesNotFastForwardFailedRestore(t *testing.T) {
	opts := testOptions(core.ProtocolProtectedMemoryPaxos)
	opts.NewSM = func() StateMachine { return &failRestoreSM{&testSM{state: make(map[string]string)}} }
	opts.SnapshotInterval = 4
	opts.ReplicaCatchUp = 300 * time.Millisecond
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	leader := l.Cluster().Leader()
	victim := types.NoProcess
	for _, p := range l.Cluster().Procs {
		if p != leader {
			victim = p
			break
		}
	}
	l.Cluster().CrashProcess(victim)

	// One write interval: snapshot + truncation run, the victim's restore
	// fails, so it stays behind the truncation point.
	for i := 0; i < opts.SnapshotInterval; i++ {
		propose(t, ctx, l, "key", fmt.Sprintf("v%d", i))
	}
	// One read-only interval: the no-op truncation path runs.
	for i := 0; i < 2*opts.SnapshotInterval; i++ {
		if _, err := l.Read(ctx, []byte("key")); err != nil {
			t.Fatalf("Read(%d): %v", i, err)
		}
	}

	if restores := l.Restores(victim); restores != 0 {
		t.Fatalf("Restores(%s) = %d, want 0 (every restore fails)", victim, restores)
	}
	l.mu.Lock()
	lagging := l.lagging[victim]
	nextSlot := l.replicas[victim].nextSlot
	firstSlot := l.firstSlot
	l.mu.Unlock()
	if nextSlot >= firstSlot {
		t.Fatalf("victim's nextSlot = %d ≥ firstSlot %d: the no-op truncation fast-forwarded a view past %d real commands it never applied", nextSlot, firstSlot, opts.SnapshotInterval)
	}
	if !lagging {
		t.Fatalf("victim cleared from the lagging set without a successful restore")
	}
}

// TestCommitThroughSnapshotUnderMemoryCrash crashes 2 of 5 memories
// mid-workload and checks that commits, snapshots and truncation all keep
// going: region release is host-side bookkeeping, not an RDMA operation, so
// GC must not need the crashed minority.
func TestCommitThroughSnapshotUnderMemoryCrash(t *testing.T) {
	opts := testOptions(core.ProtocolProtectedMemoryPaxos)
	opts.Cluster.Memories = 5
	opts.NewSM = newTestSM
	opts.SnapshotInterval = 4
	l := newTestLog(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const total = 24
	for i := 0; i < total; i++ {
		if i == total/2 {
			l.Cluster().CrashMemories(2)
		}
		propose(t, ctx, l, fmt.Sprintf("k%d", i%3), fmt.Sprintf("v%d", i))
	}
	if snaps := l.Snapshots(); snaps < total/opts.SnapshotInterval-1 {
		t.Fatalf("Snapshots() = %d: snapshotting stalled after the memory crash", snaps)
	}
	if first := l.FirstIndex(); first < uint64(total-opts.SnapshotInterval) {
		t.Fatalf("FirstIndex() = %d: truncation stalled after the memory crash", first)
	}
	resp, err := l.Read(ctx, []byte("k2"))
	if err != nil {
		t.Fatalf("Read(k2): %v", err)
	}
	if want := fmt.Sprintf("v%d", total-1); string(resp) != want {
		t.Fatalf("Read(k2) = %q, want %q", resp, want)
	}
}

// TestLaggingReplicaRestoredFromSnapshot crashes one non-leader replica, runs
// the log through several snapshot intervals and checks that the crashed
// replica's view is brought to the snapshot point by Restore — zero Apply
// calls — rather than by replaying the (truncated) log.
func TestLaggingReplicaRestoredFromSnapshot(t *testing.T) {
	opts := testOptions(core.ProtocolProtectedMemoryPaxos)
	opts.NewSM = newTestSM
	opts.SnapshotInterval = 4
	opts.ReplicaCatchUp = 500 * time.Millisecond
	l := newTestLog(t, opts)

	leader := l.Cluster().Leader()
	victim := types.NoProcess
	for _, p := range l.Cluster().Procs {
		if p != leader {
			victim = p
			break
		}
	}
	l.Cluster().CrashProcess(victim)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	total := 3 * opts.SnapshotInterval
	for i := 0; i < total; i++ {
		propose(t, ctx, l, "key", fmt.Sprintf("v%d", i))
	}

	if restores := l.Restores(victim); restores < 1 {
		t.Fatalf("Restores(%s) = %d, want ≥ 1: lagging replica never restored from snapshot", victim, restores)
	}
	applied, ok := l.ReplicaApplied(victim)
	if !ok || applied < uint64(opts.SnapshotInterval) {
		t.Fatalf("ReplicaApplied(%s) = %d (ok=%v), want ≥ %d after restore", victim, applied, ok, opts.SnapshotInterval)
	}
	// The restore must have carried state without replay: the view holds a
	// snapshot-era value of "key" while having executed zero Apply calls.
	applies, err := l.StaleRead(victim, []byte("__applies"))
	if err != nil {
		t.Fatalf("StaleRead(__applies): %v", err)
	}
	if string(applies) != "0" {
		t.Fatalf("victim executed %s Apply calls, want 0 (state must come from Restore, not replay)", applies)
	}
	got, err := l.StaleRead(victim, []byte("key"))
	if err != nil {
		t.Fatalf("StaleRead(key): %v", err)
	}
	if len(got) == 0 {
		t.Fatalf("victim has no value for \"key\" after a snapshot restore")
	}
	// Healthy replicas kept applying the log; no restore for them.
	for _, p := range l.Cluster().Procs {
		if p == victim {
			continue
		}
		if r := l.Restores(p); r != 0 {
			t.Fatalf("healthy replica %s restored %d times, want 0", p, r)
		}
		applied, _ := l.ReplicaApplied(p)
		if applied != uint64(total) {
			t.Fatalf("healthy replica %s applied %d entries, want %d", p, applied, total)
		}
	}
}
