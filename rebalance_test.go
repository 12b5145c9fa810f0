package rdmaagreement

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rdmaagreement/internal/shard"
)

// ringSnapshot reads the committed ring under kv.mu for test inspection.
func (kv *ShardedKV) ringSnapshot() *shard.Ring {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.ring
}

// routedCommand is the exact command a Put of key=value proposes, for tests
// that commit one at a shard's log directly, bypassing the router.
func routedCommand(key, value string) []byte {
	return encodeKVCommand(key, value)
}

// rawFoundIn counts the groups whose machine actually holds key, by querying
// every shard's log with a RAW (non-envelope) query — which bypasses the
// ownership gate and so sees the machine's true contents, hidden ceded state
// included. It is the fork detector: a correctly rebalanced key lives in
// exactly one machine.
func rawFoundIn(t *testing.T, ctx context.Context, kv *ShardedKV, key string) int {
	t.Helper()
	found := 0
	for _, name := range kv.Shards() {
		resp, err := kv.ShardLog(name).Read(ctx, []byte(key))
		if err != nil {
			t.Fatalf("raw read of %q on %s: %v", key, name, err)
		}
		if _, ok, err := decodeKVResult(resp); err != nil {
			t.Fatalf("raw read of %q on %s: decode: %v", key, name, err)
		} else if ok {
			found++
		}
	}
	return found
}

// TestAddShardMovesKeysExactlyOnce grows a quiet 2-shard store to 3 shards
// and pins the handoff's accounting: exactly the ring-diff's keys move, each
// key remains readable with its value, lives in exactly one group's machine,
// and routes to the new ring's owner.
func TestAddShardMovesKeysExactlyOnce(t *testing.T) {
	kv, err := NewShardedKV(ShardedKVOptions{
		Shards: 2,
		Log:    LogOptions{Cluster: Options{Processes: 3, Memories: 3}},
	})
	if err != nil {
		t.Fatalf("NewShardedKV: %v", err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const n = 40
	for i := 0; i < n; i++ {
		if _, _, err := kv.Put(ctx, fmt.Sprintf("user/%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}

	oldRing := kv.ringSnapshot().Clone()
	if err := kv.AddShard(ctx, "shard-2"); err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	newRing := kv.ringSnapshot()

	// The ring diff predicts the migrated set.
	predicted := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("user/%d", i)
		from, to, moved := shard.Moved(oldRing, newRing, key)
		if !moved {
			continue
		}
		predicted++
		if to != "shard-2" {
			t.Fatalf("key %q moved %s -> %s, not to the added shard", key, from, to)
		}
	}
	if predicted == 0 {
		t.Fatalf("ring diff predicts no moved key out of %d — the test key set is degenerate", n)
	}
	stats := kv.Stats()
	if stats.Migrated != uint64(predicted) {
		t.Fatalf("Stats.Migrated = %d, ring diff predicts %d moved keys", stats.Migrated, predicted)
	}
	if stats.Rebalances != 1 || stats.Shards != 3 {
		t.Fatalf("Stats = {Rebalances:%d Shards:%d}, want {1 3}", stats.Rebalances, stats.Shards)
	}

	// Every key: right value, right owner, exactly one physical home.
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("user/%d", i)
		v, ok, err := kv.GetLinearizable(ctx, key)
		if err != nil || !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("GetLinearizable(%s) = %q, %v, %v after rebalance", key, v, ok, err)
		}
		if got, want := kv.Shard(key), newRing.Shard(key); got != want {
			t.Fatalf("Shard(%s) = %s, new ring routes to %s", key, got, want)
		}
		if homes := rawFoundIn(t, ctx, kv, key); homes != 1 {
			t.Fatalf("key %q lives in %d groups, want exactly 1", key, homes)
		}
	}
	if got := kv.Shards(); len(got) != 3 || got[2] != "shard-2" {
		t.Fatalf("Shards() = %v after AddShard", got)
	}
}

// TestRemoveShardDrains shrinks a 3-shard store to 2 and checks the removed
// group's whole key space scattered to the survivors with nothing lost or
// forked, and that the removed shard's log is gone.
func TestRemoveShardDrains(t *testing.T) {
	kv, err := NewShardedKV(ShardedKVOptions{
		Shards: 3,
		Log:    LogOptions{Cluster: Options{Processes: 3, Memories: 3}},
	})
	if err != nil {
		t.Fatalf("NewShardedKV: %v", err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const n = 30
	removedOwned := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("item/%d", i)
		if _, _, err := kv.Put(ctx, key, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
		if kv.Shard(key) == "shard-1" {
			removedOwned++
		}
	}
	if removedOwned == 0 {
		t.Fatalf("no test key owned by shard-1 — degenerate key set")
	}

	if err := kv.RemoveShard(ctx, "shard-1"); err != nil {
		t.Fatalf("RemoveShard: %v", err)
	}
	if got := kv.Shards(); len(got) != 2 {
		t.Fatalf("Shards() = %v after RemoveShard", got)
	}
	if kv.ShardLog("shard-1") != nil {
		t.Fatalf("removed shard still has a log")
	}
	stats := kv.Stats()
	if stats.Migrated != uint64(removedOwned) {
		t.Fatalf("Stats.Migrated = %d, removed shard owned %d keys", stats.Migrated, removedOwned)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("item/%d", i)
		v, ok, err := kv.GetLinearizable(ctx, key)
		if err != nil || !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("GetLinearizable(%s) = %q, %v, %v after RemoveShard", key, v, ok, err)
		}
		if homes := rawFoundIn(t, ctx, kv, key); homes != 1 {
			t.Fatalf("key %q lives in %d surviving groups, want exactly 1", key, homes)
		}
	}
	// Removing an unknown shard is a no-op; removing down to zero is refused.
	if err := kv.RemoveShard(ctx, "shard-1"); err != nil {
		t.Fatalf("second RemoveShard: %v, want no-op", err)
	}
	if err := kv.RemoveShard(ctx, "shard-0"); err != nil {
		t.Fatalf("RemoveShard(shard-0): %v", err)
	}
	if err := kv.RemoveShard(ctx, "shard-2"); err == nil {
		t.Fatalf("RemoveShard of the last shard succeeded")
	}
}

// TestRebalanceUnderLiveTraffic is the tentpole's safety test, run under the
// race detector in CI: writers and linearizable readers hammer the store
// while a shard is added, and afterwards every acknowledged write must be
// readable with its value and live in exactly one group — no lost keys, no
// forked keys, no downtime.
func TestRebalanceUnderLiveTraffic(t *testing.T) {
	kv, err := NewShardedKV(ShardedKVOptions{
		Shards: 2,
		Log: LogOptions{
			Cluster:  Options{Processes: 3, Memories: 3, MemoryLatency: 200 * time.Microsecond},
			MaxBatch: 4,
		},
	})
	if err != nil {
		t.Fatalf("NewShardedKV: %v", err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()

	const writers = 4
	var (
		mu    sync.Mutex
		acked = make(map[string]string)
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key, value := fmt.Sprintf("w%d/%d", w, i), fmt.Sprintf("v%d-%d", w, i)
				if _, _, err := kv.Put(ctx, key, value); err != nil {
					t.Errorf("Put(%s) during rebalance: %v", key, err)
					return
				}
				mu.Lock()
				acked[key] = value
				mu.Unlock()
			}
		}(w)
	}
	// A reader pounding linearizable reads across the handoff: it must never
	// observe an error or a missing acked key.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			key, want := fmt.Sprintf("w%d/%d", i%writers, 0), acked[fmt.Sprintf("w%d/%d", i%writers, 0)]
			mu.Unlock()
			if want == "" {
				continue // that writer has not acked its first put yet
			}
			v, ok, err := kv.GetLinearizable(ctx, key)
			if err != nil || !ok || v != want {
				t.Errorf("GetLinearizable(%s) during rebalance = %q, %v, %v; want %q", key, v, ok, err, want)
				return
			}
		}
	}()

	time.Sleep(50 * time.Millisecond) // let traffic build
	began := time.Now()
	if err := kv.AddShard(ctx, "shard-2"); err != nil {
		t.Fatalf("AddShard under live traffic: %v", err)
	}
	handoff := time.Since(began)
	time.Sleep(50 * time.Millisecond) // traffic on the new topology
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	mu.Lock()
	defer mu.Unlock()
	if len(acked) == 0 {
		t.Fatalf("no write was acknowledged during the rebalance")
	}
	for key, want := range acked {
		v, ok, err := kv.GetLinearizable(ctx, key)
		if err != nil || !ok || v != want {
			t.Fatalf("committed key %q = %q, %v, %v after rebalance; want %q (lost write)", key, v, ok, err, want)
		}
		if homes := rawFoundIn(t, ctx, kv, key); homes != 1 {
			t.Fatalf("committed key %q lives in %d groups, want exactly 1 (forked key)", key, homes)
		}
	}
	t.Logf("rebalance under traffic: AddShard took %v, %d acked writes, stats %+v", handoff, len(acked), kv.Stats())
}

// TestOwnershipGateRefusesMovedKey pins the gate that closes the
// route-then-commit race: after a rebalance, the OLD owner's machine commits
// a typed refusal for a moved key proposed directly at its log (the race's
// stand-in), while the public API transparently serves the key at its new
// owner.
func TestOwnershipGateRefusesMovedKey(t *testing.T) {
	kv, err := NewShardedKV(ShardedKVOptions{
		Shards: 2,
		Log:    LogOptions{Cluster: Options{Processes: 3, Memories: 3}},
	})
	if err != nil {
		t.Fatalf("NewShardedKV: %v", err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Find a key that the grown ring moves to the new shard.
	oldRing := kv.ringSnapshot().Clone()
	grown := oldRing.Clone()
	grown.Add("shard-2")
	var key, oldOwner string
	for i := 0; ; i++ {
		k := fmt.Sprintf("probe/%d", i)
		if from, to, moved := shard.Moved(oldRing, grown, k); moved && to == "shard-2" {
			key, oldOwner = k, from
			break
		}
	}
	if _, _, err := kv.Put(ctx, key, "before"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := kv.AddShard(ctx, "shard-2"); err != nil {
		t.Fatalf("AddShard: %v", err)
	}

	// The race's stand-in: a write that routed to the old owner before the
	// move but commits after it. Its entry commits, but the machine refuses
	// it — deterministically, on every replica — instead of forking the key.
	env := routedCommand(key, "split-brain")
	if _, _, err := kv.ShardLog(oldOwner).Propose(ctx, env); !errors.Is(err, ErrKeyMoved) {
		t.Fatalf("stale-routed propose err = %v, want ErrKeyMoved", err)
	}
	// The refused write must not have resurrected the key at the old owner.
	if homes := rawFoundIn(t, ctx, kv, key); homes != 1 {
		t.Fatalf("key %q lives in %d groups after refused write, want 1", key, homes)
	}
	// And the public API serves the key at its new home, via forwarding-aware
	// routing.
	if v, ok, err := kv.GetLinearizable(ctx, key); err != nil || !ok || v != "before" {
		t.Fatalf("GetLinearizable = %q, %v, %v; want \"before\"", v, ok, err)
	}
	if _, _, err := kv.Put(ctx, key, "after"); err != nil {
		t.Fatalf("Put after move: %v", err)
	}
	if v, _ := kv.Get(key); v != "after" {
		t.Fatalf("Get after move = %q, want \"after\"", v)
	}
}

// TestStaleReadSurvivesStalledLeader is the regression test for the stale-
// read routing bug: the stale read behind Get used to read from
// Cluster.Leader(), which mid-takeover can still name the deposed holder — a
// crashed process whose frozen learner view stops advancing. Get must keep
// answering
// throughout the stall, the takeover, and after it.
func TestStaleReadSurvivesStalledLeader(t *testing.T) {
	kv, err := NewShardedKV(ShardedKVOptions{
		Shards: 1,
		Log: LogOptions{
			Cluster:        Options{Processes: 3, Memories: 3, LeaseDuration: 150 * time.Millisecond},
			ReplicaCatchUp: 300 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("NewShardedKV: %v", err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	if _, _, err := kv.Put(ctx, "k", "v1"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	l := kv.ShardLog(kv.Shard("k"))
	epochBefore := l.Cluster().LeaseEpoch()
	old := l.Cluster().LeaseHolder()
	l.Cluster().CrashProcess(old)

	// Poll continuously through the takeover: every Get must answer
	// the committed value — no error, no empty answer from a frozen view.
	deadline := time.Now().Add(15 * time.Second)
	for l.Cluster().LeaseEpoch() == epochBefore {
		if v, ok := kv.Get("k"); !ok || v != "v1" {
			t.Fatalf("Get(k) mid-takeover = %q, %v; want \"v1\"", v, ok)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no takeover after stalling %s", old)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// After the takeover a write through the new holder must become visible
	// to stale reads: the answer comes from a live, advancing view, not the
	// deposed holder's frozen one.
	if _, _, err := kv.Put(ctx, "k", "v2"); err != nil {
		t.Fatalf("Put after takeover: %v", err)
	}
	readDeadline := time.Now().Add(10 * time.Second)
	for {
		if v, ok := kv.Get("k"); ok && v == "v2" {
			break
		}
		if time.Now().After(readDeadline) {
			v, ok := kv.Get("k")
			t.Fatalf("Get(k) after takeover write = %q, %v; never advanced to \"v2\"", v, ok)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShardedStatsDepthIgnoresClosedShards pins the PipelineDepth
// normalization: a closed group reports depth 0 and must be SKIPPED by the
// cross-shard minimum instead of reading as "most backed off"; only when no
// live group remains does the aggregate report 0.
func TestShardedStatsDepthIgnoresClosedShards(t *testing.T) {
	kv, err := NewShardedKV(ShardedKVOptions{
		Shards: 2,
		Log:    LogOptions{Cluster: Options{Processes: 3, Memories: 3}, Pipeline: 4},
	})
	if err != nil {
		t.Fatalf("NewShardedKV: %v", err)
	}
	defer kv.Close()

	if got := kv.Stats().PipelineDepth; got != 4 {
		t.Fatalf("PipelineDepth = %d with both shards live, want 4", got)
	}
	kv.ShardLog("shard-0").Close()
	if got := kv.Stats().PipelineDepth; got != 4 {
		t.Fatalf("PipelineDepth = %d with one shard closed, want 4 (the live minimum, not the corpse's 0)", got)
	}
	kv.ShardLog("shard-1").Close()
	if got := kv.Stats().PipelineDepth; got != 0 {
		t.Fatalf("PipelineDepth = %d with every shard closed, want 0", got)
	}
}
