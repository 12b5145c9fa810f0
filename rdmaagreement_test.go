package rdmaagreement

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
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
		shardName, index, err := kv.Put(ctx, k, k+"-value")
		if err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
		if shardName != kv.Shard(k) {
			t.Fatalf("Put(%s) committed on %s, ring routes to %s", k, shardName, kv.Shard(k))
		}
		// One frame per op: the log holds exactly the KV command, the key
		// framed once.
		if e, ok := kv.ShardLog(shardName).Get(index); !ok || !bytes.Equal(e.Cmd, encodeKVCommand(k, k+"-value")) {
			t.Fatalf("Put(%s) committed %q (found %v), want exactly its KV command", k, e.Cmd, ok)
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

// counterMachine is a minimal non-KV workload: any command increments,
// queries answer the count. It demonstrates that a new workload plugs in at
// NewLog (LogOptions.NewSM) and needs no fork of the KV store.
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

func TestPublicAPILogStateMachineRead(t *testing.T) {
	l, err := NewLog(LogOptions{
		Cluster: Options{Processes: 3, Memories: 3},
		NewSM:   func() StateMachine { return &counterMachine{} },
	})
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for i := 1; i <= 3; i++ {
		_, resp, err := l.Propose(ctx, []byte("bump"))
		if err != nil {
			t.Fatalf("Propose(%d): %v", i, err)
		}
		if string(resp) != fmt.Sprintf("%d", i) {
			t.Fatalf("Propose(%d) response = %q, want %d", i, resp, i)
		}
	}
	if got, err := l.Read(ctx, nil); err != nil || string(got) != "3" {
		t.Fatalf("Read = %q, %v; want 3", got, err)
	}
	if stale, err := l.LocalRead(nil); err != nil || string(stale) != "3" {
		t.Fatalf("LocalRead = %q, %v; want 3", stale, err)
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

// FuzzDecodeKVCommand holds the one command decoder — behind Apply, Query,
// the ownership gate and the commit hook — to reject-or-round-trip on
// arbitrary bytes: it must never panic, a KV frame it accepts must re-encode
// to a value that decodes to the same key and rest, and a migration command
// it accepts must re-encode to exactly its bytes: every command has one
// encoding.
func FuzzDecodeKVCommand(f *testing.F) {
	f.Add(encodeKVCommand("k/1", "v"))
	f.Add(encodeKVCommand("", ""))
	f.Add(encodeKVCommand("key", string(bytes.Repeat([]byte{0xff}, 300))))
	mustReject := func(raw []byte) {
		if key, rest, mig, ok := decodeKVCommand(raw); ok {
			f.Fatalf("decodeKVCommand(%q) = (%q, %q, %+v), want rejection", raw, key, rest, mig)
		}
		f.Add(raw)
	}
	for _, raw := range [][]byte{
		[]byte(`rkv` + "\x00\x01" + `{"key":"k","value":"v"}`), // retired JSON command
		[]byte("rkv\x00\x02"),      // tag, no key length
		[]byte("rkv\x00\x02\x05k"), // key overruns payload
		[]byte(`{"key":"k","value":"v"}`),
		{},
	} {
		mustReject(raw)
	}
	// The retired keyed envelope that once wrapped every routed command is
	// untagged bytes now.
	mustReject(append([]byte("rshb\x00\x01\x03k/1"), encodeKVCommand("k/1", "v")...))
	mustReject([]byte("rshb\x00\x01\x00"))
	valid := migrateCmd{Kind: exportKind, Version: 1, Group: "shard-0", Shards: []string{"shard-0", "shard-1"}, VNodes: 64}
	for _, m := range []migrateCmd{
		valid,
		{Kind: importKind, Version: 2, Group: "shard-0", Shards: []string{"shard-0"}, VNodes: 64,
			Exports: [][]byte{lawExport(map[string]string{"k": "v"}), lawExport(map[string]string{"k\xfe": "v\xff"})}},
		{Kind: ackKind, Version: 1, Group: "shard-0", Shards: []string{"shard-0", "shard-1"}, VNodes: 64},
	} {
		f.Add(encodeMigrate(m))
	}
	with := func(edit func(*migrateCmd)) []byte {
		m := valid
		edit(&m)
		return encodeMigrate(m)
	}
	for _, raw := range [][]byte{
		[]byte("rshd\x00\x01" + `{"out":true,"epoch":1,"shards":["shard-0","shard-1"],"vnodes":64,"group":"shard-0"}`),                             // retired JSON export
		[]byte("rshd\x00\x01" + `{"epoch":2,"shards":["shard-0"],"vnodes":64,"group":"shard-0","source":"shard-1","data":"cmt2cwABAAAAAAAAAA=="}`), // retired JSON import
		[]byte("rshd\x00\x01" + `{"key":"k/1","cmd":"dg=="}`),                                                                                      // retired keyed JSON envelope
		[]byte("rshd\x00\x01" + `{"migrate":{"out":true,"epoch":1,"group":"shard-0"}}`),                                                            // retired wrapped migration
		[]byte("rshd\x00\x01" + `{"epoch":1,"group":"shard-0"}}`),                                                                                  // retired JSON, trailing bytes
		[]byte("rshd\x00\x01"),
		[]byte("rshd\x00\x02"),
		with(func(m *migrateCmd) { m.Kind = 3 }),                               // unknown kind
		with(func(m *migrateCmd) { m.Kind = 256 + importKind }),                // unknown kind a byte would truncate to an import
		with(func(m *migrateCmd) { m.VNodes = maxVirtualNodes + 1 }),           // oversized ring
		with(func(m *migrateCmd) { m.Shards = nil }),                           // a ring with no shards
		append(with(func(*migrateCmd) {}), 0),                                  // trailing bytes
		append([]byte("rshd\x00\x02"), 1, 1, 1, 'g', 8, 1, 1, 'g', 5),          // export count overruns
		append([]byte("rshd\x00\x02"), 0x80, 0x00, 1, 1, 'g', 8, 1, 1, 'g', 0), // kind not in its shortest form
		[]byte("rshb\x00\x01"),                                                 // retired envelope tag, no key length
		[]byte("rshb\x00\x01\x05k"),                                            // retired envelope, key overruns payload
		[]byte("raw log payload"),
	} {
		mustReject(raw)
	}
	f.Add(encodeKVCommand("k/1", ""))        // a routed query
	f.Add(encodeKVCommand("k\xfe", "v\xff")) // key and value that are not UTF-8

	f.Fuzz(func(t *testing.T, raw []byte) {
		key, rest, mig, ok := decodeKVCommand(raw)
		if !ok {
			return // rejected is fine; panicking is not
		}
		if mig == nil {
			k2, r2, m2, ok := decodeKVCommand(encodeKVCommand(string(key), string(rest)))
			if !ok || m2 != nil || !bytes.Equal(k2, key) || !bytes.Equal(r2, rest) {
				t.Fatalf("round trip of (%q, %q) = (%q, %q, %+v, %v)", key, rest, k2, r2, m2, ok)
			}
			return
		}
		if key != nil || rest != nil {
			t.Fatalf("migration decoded with key %q and rest %q", key, rest)
		}
		if again := encodeMigrate(*mig); !bytes.Equal(again, raw) {
			t.Fatalf("migration %q re-encodes to %q", raw, again)
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
