package rdmaagreement

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"rdmaagreement/internal/types"
)

func TestPublicAPIExperimentRegistry(t *testing.T) {
	exps := Experiments()
	ids := ExperimentIDs()
	if len(exps) != len(ids) {
		t.Fatalf("experiment registry and id list out of sync")
	}
	// Run the cheapest experiment end to end through the public API.
	table, err := exps["e5"]()
	if err != nil {
		t.Fatalf("e5: %v", err)
	}
	if len(table.Rows) == 0 || table.String() == "" {
		t.Fatalf("e5 produced an empty table")
	}
}

func TestPublicAPIRecorder(t *testing.T) {
	rec := &Recorder{}
	cluster, err := NewCluster(ProtocolProtectedMemoryPaxos, Options{Processes: 2, Memories: 3, Recorder: rec})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := cluster.Proposer(1).Propose(ctx, Value("traced")); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if len(rec.Decisions()) == 0 {
		t.Fatalf("recorder captured no decision events")
	}
}

func TestPublicAPILog(t *testing.T) {
	l, err := NewLog(LogOptions{Cluster: Options{Processes: 3, Memories: 3}})
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		index, _, err := l.Propose(ctx, []byte{byte(i)})
		if err != nil {
			t.Fatalf("Propose(%d): %v", i, err)
		}
		if index != uint64(i) {
			t.Fatalf("Propose(%d): index = %d, want %d", i, index, i)
		}
	}
	if l.Len() != 5 {
		t.Fatalf("Len() = %d, want 5", l.Len())
	}
}

func TestPublicAPIShardedKV(t *testing.T) {
	kv, err := NewShardedKV(ShardedKVOptions{
		Shards: 2,
		Log:    LogOptions{Cluster: Options{Processes: 3, Memories: 3}},
	})
	if err != nil {
		t.Fatalf("NewShardedKV: %v", err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	keys := []string{"alpha", "beta", "gamma", "delta"}
	for i, k := range keys {
		shardName, _, err := kv.Put(ctx, k, k+"-value")
		if err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
		if shardName != kv.Shard(k) {
			t.Fatalf("Put(%s) committed on %s, ring routes to %s", k, shardName, kv.Shard(k))
		}
		if got := kv.Len(); got != uint64(i+1) {
			t.Fatalf("Len() = %d after %d puts", got, i+1)
		}
	}
	for _, k := range keys {
		v, ok := kv.Get(k)
		if !ok || v != k+"-value" {
			t.Fatalf("Get(%s) = %q, %v", k, v, ok)
		}
	}
	if _, ok := kv.Get("missing"); ok {
		t.Fatalf("Get(missing) found a value")
	}
}

// counterMachine is a minimal non-KV workload for the generic Sharded layer:
// any command increments, queries answer the count. It demonstrates that a
// new workload is a StateMachine plugin, not a fork of ShardedKV.
type counterMachine struct{ n int }

func (m *counterMachine) Apply(LogEntry) ([]byte, error) {
	m.n++
	return []byte(fmt.Sprintf("%d", m.n)), nil
}
func (m *counterMachine) Query([]byte) ([]byte, error) { return []byte(fmt.Sprintf("%d", m.n)), nil }
func (m *counterMachine) Snapshot() ([]byte, error)    { return []byte(fmt.Sprintf("%d", m.n)), nil }
func (m *counterMachine) Restore(snapshot []byte, _ uint64) error {
	_, err := fmt.Sscanf(string(snapshot), "%d", &m.n)
	return err
}

func TestPublicAPISharded(t *testing.T) {
	s, err := NewSharded(func() StateMachine { return &counterMachine{} }, ShardedOptions{
		Shards: 2,
		Log:    LogOptions{Cluster: Options{Processes: 3, Memories: 3}},
	})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	key := "bumps"
	for i := 1; i <= 3; i++ {
		_, _, resp, err := s.Propose(ctx, key, []byte("bump"))
		if err != nil {
			t.Fatalf("Propose(%d): %v", i, err)
		}
		if string(resp) != fmt.Sprintf("%d", i) {
			t.Fatalf("Propose(%d) response = %q, want %d", i, resp, i)
		}
	}
	got, err := s.Read(ctx, key, nil)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(got) != "3" {
		t.Fatalf("Read = %q, want 3", got)
	}
	if stale, err := s.StaleRead(key, nil); err != nil || string(stale) != "3" {
		t.Fatalf("StaleRead = %q, %v; want 3", stale, err)
	}
}

func TestNewShardedNeedsStateMachine(t *testing.T) {
	if _, err := NewSharded(nil, ShardedOptions{}); !errors.Is(err, types.ErrInvalidConfig) {
		t.Fatalf("NewSharded(nil) = %v, want ErrInvalidConfig", err)
	}
}

func TestPublicAPIShardedKVLinearizableAndForeign(t *testing.T) {
	kv, err := NewShardedKV(ShardedKVOptions{
		Shards: 2,
		Log:    LogOptions{Cluster: Options{Processes: 3, Memories: 3}},
	})
	if err != nil {
		t.Fatalf("NewShardedKV: %v", err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, _, err := kv.Put(ctx, "alpha", "one"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, ok, err := kv.GetLinearizable(ctx, "alpha")
	if err != nil || !ok || v != "one" {
		t.Fatalf("GetLinearizable(alpha) = %q, %v, %v; want \"one\", true, nil", v, ok, err)
	}
	if _, ok, err := kv.GetLinearizable(ctx, "missing"); err != nil || ok {
		t.Fatalf("GetLinearizable(missing) = ok=%v, err=%v; want false, nil", ok, err)
	}

	// A raw, untagged blob appended through the shard's log must be reported
	// as foreign — not guessed into a KV write (the old decoder applied any
	// JSON-shaped blob, `null` included).
	shardLog := kv.ShardLog(kv.Shard("alpha"))
	_, _, err = shardLog.Propose(ctx, []byte(`{"key":"alpha","value":"hijacked"}`))
	if !errors.Is(err, ErrForeignCommand) {
		t.Fatalf("raw Propose response err = %v, want ErrForeignCommand", err)
	}
	if n := kv.ForeignEntries(); n != 1 {
		t.Fatalf("ForeignEntries() = %d, want exactly 1 (one entry, counted once — not once per replica machine)", n)
	}
	if v, _ := kv.Get("alpha"); v != "one" {
		t.Fatalf("Get(alpha) = %q after foreign entry, want \"one\" (store must not apply untagged blobs)", v)
	}
}

// FuzzDecodeKVCommand holds the KV command decoder to reject-or-round-trip
// on arbitrary bytes: it must never panic, and a command it accepts must
// re-encode to a value that decodes to the same command.
func FuzzDecodeKVCommand(f *testing.F) {
	f.Add(encodeKVCommand("k/1", "v"))
	f.Add(encodeKVCommand("", ""))
	f.Add(encodeKVCommand("key", string(bytes.Repeat([]byte{0xff}, 300))))
	// Seeds that must be rejected.
	rejected := [][]byte{
		[]byte(`rkv` + "\x00\x01" + `{"key":"k","value":"v"}`), // retired JSON command
		[]byte("rkv\x00\x02"),      // tag, no key length
		[]byte("rkv\x00\x02\x05k"), // key overruns payload
		[]byte(`{"key":"k","value":"v"}`),
		{},
	}
	for _, raw := range rejected {
		if cmd, err := decodeKVCommand(raw); err == nil {
			f.Fatalf("decodeKVCommand(%q) = %+v, want an error", raw, cmd)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		cmd, err := decodeKVCommand(raw)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		again, err := decodeKVCommand(encodeKVCommand(cmd.Key, cmd.Value))
		if err != nil || again != cmd {
			t.Fatalf("round trip of %+v = (%+v, %v)", cmd, again, err)
		}
	})
}

// FuzzDecodeKVResult holds the KV response decoder to reject-or-round-trip:
// it must never panic, and a response it accepts must re-encode to exactly
// the bytes it came from.
func FuzzDecodeKVResult(f *testing.F) {
	f.Add(encodeKVResult(true, "v"))
	f.Add(encodeKVResult(false, ""))
	// Seeds that must be rejected.
	rejected := [][]byte{
		[]byte(`{"found":true,"value":"v"}`), // retired JSON result
		[]byte("\x02v"),                      // found byte out of range
		{},
	}
	for _, raw := range rejected {
		if v, found, err := decodeKVResult(raw); err == nil {
			f.Fatalf("decodeKVResult(%q) = (%q, %v), want an error", raw, v, found)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		v, found, err := decodeKVResult(raw)
		if err != nil {
			return
		}
		if again := encodeKVResult(found, v); !bytes.Equal(again, raw) {
			t.Fatalf("decodeKVResult(%q) = (%q, %v), which re-encodes to %q", raw, v, found, again)
		}
	})
}

func TestPublicAPILifecycleErrors(t *testing.T) {
	l, err := NewLog(LogOptions{Cluster: Options{Processes: 3, Memories: 3}})
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, _, err := l.Propose(ctx, []byte("x")); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("Propose after Close: err = %v, want ErrLogClosed", err)
	}
	if _, err := l.Read(ctx, nil); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("Read after Close: err = %v, want ErrLogClosed", err)
	}
}

func TestPublicAPIMetrics(t *testing.T) {
	// All shard groups record into one deployment-wide registry by default,
	// so the store-level snapshot is the aggregate across shards.
	kv, err := NewShardedKV(ShardedKVOptions{
		Shards: 2,
		Log:    LogOptions{Cluster: Options{Processes: 3, Memories: 3}},
	})
	if err != nil {
		t.Fatalf("NewShardedKV: %v", err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for _, k := range keys {
		if _, _, err := kv.Put(ctx, k, k+"-value"); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}

	m := kv.Metrics()
	if m.Enqueued != uint64(len(keys)) {
		t.Fatalf("Metrics().Enqueued = %d, want %d", m.Enqueued, len(keys))
	}
	if m.EndToEnd.Count != uint64(len(keys)) || m.EndToEnd.P50 <= 0 {
		t.Fatalf("end-to-end stage not populated: %+v", m.EndToEnd)
	}
	if m.Agreement.Count == 0 || m.Agreement.P50 <= 0 {
		t.Fatalf("agreement stage not populated: %+v", m.Agreement)
	}
	if m.Slots == 0 || m.Committed < uint64(len(keys)) {
		t.Fatalf("slot counters not populated: %+v", m)
	}

	// The registry behind the snapshot serves text exposition.
	var buf bytes.Buffer
	if err := kv.Registry().WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("smr_e2e_seconds")) {
		t.Fatalf("exposition missing e2e histogram:\n%s", buf.String())
	}

	// A caller-supplied registry aggregates on top of whatever else records
	// into it.
	reg := NewMetricsRegistry()
	l, err := NewLog(LogOptions{
		Cluster: Options{Processes: 3, Memories: 3},
		Metrics: reg,
	})
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	defer l.Close()
	if _, _, err := l.Propose(ctx, []byte("solo")); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if l.Registry() != reg {
		t.Fatal("Log.Registry() must return the caller-supplied registry")
	}
	if got := l.Metrics().Enqueued; got != 1 {
		t.Fatalf("custom-registry Enqueued = %d, want 1", got)
	}
}
