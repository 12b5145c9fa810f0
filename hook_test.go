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

// TestRebalanceKeepsCommitHookContract pins what a caller's OnCommit, passed
// in ShardedKVOptions.Log, observes across a rebalance: every applied Put
// exactly once, as its KV command bytes; never a migrate command and never a
// gate refusal; raw foreign entries as they were committed. ForeignEntries
// counts only the untagged entries.
func TestRebalanceKeepsCommitHookContract(t *testing.T) {
	type observed struct {
		cmd      string
		rejected bool
	}
	var (
		mu   sync.Mutex
		seen []observed
	)
	kv, err := NewShardedKV(ShardedKVOptions{
		Shards: 2,
		Log: LogOptions{
			Cluster: Options{Processes: 3, Memories: 3},
			OnCommit: func(e LogEntry) {
				mu.Lock()
				seen = append(seen, observed{cmd: string(e.Cmd), rejected: e.Rejected})
				mu.Unlock()
			},
		},
	})
	if err != nil {
		t.Fatalf("NewShardedKV: %v", err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	puts := make(map[string]bool) // the KV command bytes of every applied Put
	put := func(key, value string) {
		t.Helper()
		if _, _, err := kv.Put(ctx, key, value); err != nil {
			t.Fatalf("Put(%s): %v", key, err)
		}
		puts[string(encodeKVCommand(key, value))] = true
	}
	for i := 0; i < 24; i++ {
		put(fmt.Sprintf("hook/%d", i), fmt.Sprintf("v%d", i))
	}
	oldRing := NewRing(kv.RingConfig())
	if err := kv.AddShard(ctx, "shard-2"); err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	newRing := NewRing(kv.RingConfig())

	// A gate refusal: a write routed to a key's old owner after the move.
	var key, from string
	for i := 0; from == ""; i++ {
		k := fmt.Sprintf("probe/%d", i)
		if f, _, moved := shard.Moved(oldRing, newRing, k); moved {
			key, from = k, f
		}
	}
	if _, _, err := kv.ShardLog(from).Propose(ctx, routedCommand(key, "refused")); !errors.Is(err, ErrKeyMoved) {
		t.Fatalf("stale-routed propose err = %v, want ErrKeyMoved", err)
	}
	// A raw foreign entry, committed and refused by the machine.
	raw := "not a kv command"
	if _, _, err := kv.ShardLog(from).Propose(ctx, []byte(raw)); !errors.Is(err, ErrForeignCommand) {
		t.Fatalf("raw propose err = %v, want ErrForeignCommand", err)
	}
	put(key, "after the move")

	mu.Lock()
	defer mu.Unlock()
	count := make(map[string]int)
	for _, e := range seen {
		switch {
		case e.cmd == raw:
			if !e.rejected {
				t.Errorf("hook saw the raw entry unrejected")
			}
		case !puts[e.cmd]:
			t.Errorf("hook saw %q (rejected %v), which is neither an applied Put nor the raw entry", e.cmd, e.rejected)
		case e.rejected:
			t.Errorf("hook saw the applied Put %q as rejected", e.cmd)
		}
		count[e.cmd]++
	}
	for cmd := range puts {
		if count[cmd] != 1 {
			t.Errorf("hook fired %d times for Put %q, want 1", count[cmd], cmd)
		}
	}
	if count[raw] != 1 {
		t.Errorf("hook fired %d times for the raw entry, want 1", count[raw])
	}
	if n := kv.ForeignEntries(); n != 1 {
		t.Errorf("ForeignEntries() = %d, want 1 (only the untagged entry)", n)
	}
}
