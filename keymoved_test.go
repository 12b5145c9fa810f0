package rdmaagreement

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"rdmaagreement/internal/shard"
)

// TestKeyMovedErrorCarriesOwner pins the structured refusal contract the
// network layer routes on: a stale-routed propose fails with a *KeyMovedError
// that still satisfies errors.Is(err, ErrKeyMoved) and names the shard that
// now owns the key.
func TestKeyMovedErrorCarriesOwner(t *testing.T) {
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

	// Find a key the grown ring hands to the new shard.
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
	if _, _, err := kv.Put(ctx, key, "v"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := kv.AddShard(ctx, "shard-2"); err != nil {
		t.Fatalf("AddShard: %v", err)
	}

	env := routedCommand(key, "stale")
	_, _, perr := kv.ShardLog(oldOwner).Propose(ctx, env)
	if perr == nil {
		t.Fatal("stale-routed propose succeeded, want KeyMovedError")
	}
	if !errors.Is(perr, ErrKeyMoved) {
		t.Fatalf("errors.Is(err, ErrKeyMoved) = false for %v", perr)
	}
	var moved *KeyMovedError
	if !errors.As(perr, &moved) {
		t.Fatalf("errors.As(*KeyMovedError) = false for %v", perr)
	}
	if moved.Owner != "shard-2" || moved.From != oldOwner || moved.Key != key {
		t.Fatalf("KeyMovedError = %+v, want owner shard-2, from %s, key %q", moved, oldOwner, key)
	}
}

// TestGetWithContext covers the ctx-aware stale read: it serves committed
// values, and a dead context fails fast instead of blocking on the store.
func TestGetWithContext(t *testing.T) {
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

	if _, _, err := kv.Put(ctx, "k", "v1"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if v, ok, err := kv.GetWithContext(ctx, "k"); err != nil || !ok || v != "v1" {
		t.Fatalf("GetWithContext = %q, %v, %v; want \"v1\", true, nil", v, ok, err)
	}
	if _, ok, err := kv.GetWithContext(ctx, "missing"); err != nil || ok {
		t.Fatalf("GetWithContext(missing) = ok=%v err=%v; want false, nil", ok, err)
	}

	dead, kill := context.WithCancel(context.Background())
	kill()
	if _, _, err := kv.GetWithContext(dead, "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("GetWithContext with dead ctx = %v, want context.Canceled", err)
	}
}
