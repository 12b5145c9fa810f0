package rdmaagreement

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rdmaagreement/internal/types"
)

// TestSnapshotRoundTripNonUTF8 is the regression test for the JSON state
// codec, which rewrote every byte that is not valid UTF-8 to U+FFFD: a
// restored machine found nothing under k\xfe and "v�" under "k�".
func TestSnapshotRoundTripNonUTF8(t *testing.T) {
	m := newKVMachine("shard-0")
	if _, err := m.Apply(LogEntry{Cmd: encodeKVCommand("k\xfe", "v\xff")}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	r := newKVMachine("shard-0")
	if err := r.Restore(snap, 0); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for _, query := range [][]byte{encodeKVCommand("k\xfe", ""), []byte("k\xfe")} {
		resp, err := r.Query(query)
		if err != nil {
			t.Fatalf("Query(%q): %v", query, err)
		}
		if v, found, err := decodeKVResult(resp); err != nil || !found || v != "v\xff" {
			t.Fatalf("Query(%q) after restore = %q, %v, %v; want \"v\\xff\"", query, v, found, err)
		}
	}
	if resp, _ := r.Query([]byte("k�")); !bytes.Equal(resp, encodeKVResult(false, "")) {
		t.Fatalf("restore invented the key \"k\\ufffd\" = %q", resp)
	}
}

// TestAddShardRemoveShardNonUTF8Keys is the regression test for the JSON
// migrate export, which lost every acknowledged write whose key is not valid
// UTF-8 when a rebalance moved it. Each key must survive AddShard and then
// RemoveShard with its value, in exactly one group.
func TestAddShardRemoveShardNonUTF8Keys(t *testing.T) {
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

	const n = 64
	key := func(i int) string { return "k" + string([]byte{byte(i)}) + "\xff" }
	value := func(i int) string { return "v\xfe" + string([]byte{byte(i)}) }
	for i := 0; i < n; i++ {
		if _, _, err := kv.Put(ctx, key(i), value(i)); err != nil {
			t.Fatalf("Put(%q): %v", key(i), err)
		}
	}
	audit := func(step string) {
		t.Helper()
		for i := 0; i < n; i++ {
			v, ok, err := kv.GetLinearizable(ctx, key(i))
			if err != nil || !ok || v != value(i) {
				t.Fatalf("after %s: GetLinearizable(%q) = %q, %v, %v; want %q", step, key(i), v, ok, err, value(i))
			}
			if homes := rawFoundIn(t, ctx, kv, key(i)); homes != 1 {
				t.Fatalf("after %s: key %q lives in %d groups, want 1", step, key(i), homes)
			}
		}
	}
	if err := kv.AddShard(ctx, "shard-2"); err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	audit("AddShard")
	moved := kv.Stats().Migrated
	if moved == 0 {
		t.Fatalf("AddShard moved no key out of %d — the test key set is degenerate", n)
	}
	if err := kv.RemoveShard(ctx, "shard-0"); err != nil {
		t.Fatalf("RemoveShard: %v", err)
	}
	audit("RemoveShard")
	if kv.Stats().Migrated == moved {
		t.Fatalf("RemoveShard moved no key")
	}
}

// TestAddShardRefusesInvalidUTF8Name is the regression test for a shard name
// that is not valid UTF-8: the JSON migrate command rewrote it, so the cede
// committed, every import failed, and the half-done rebalance blocked every
// later one. The name must be refused before anything commits.
func TestAddShardRefusesInvalidUTF8Name(t *testing.T) {
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

	const n = 32
	for i := 0; i < n; i++ {
		if _, _, err := kv.Put(ctx, fmt.Sprintf("key/%d", i), "v"); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	committed := kv.Len()
	for verb, op := range map[string]func(context.Context, string) error{"AddShard": kv.AddShard, "RemoveShard": kv.RemoveShard} {
		if err := op(ctx, "s\xff"); !errors.Is(err, types.ErrInvalidConfig) {
			t.Fatalf("%s(\"s\\xff\") = %v, want ErrInvalidConfig", verb, err)
		}
	}
	if got := kv.Len(); got != committed {
		t.Fatalf("refused rebalances committed %d entries", got-committed)
	}
	if stats := kv.Stats(); stats.Shards != 2 || stats.Rebalances != 0 {
		t.Fatalf("Stats = {Shards:%d Rebalances:%d} after refusals, want {2 0}", stats.Shards, stats.Rebalances)
	}
	if err := kv.AddShard(ctx, "shard-2"); err != nil {
		t.Fatalf("AddShard after the refusals: %v", err)
	}
	for i := 0; i < n; i++ {
		if v, ok, err := kv.GetLinearizable(ctx, fmt.Sprintf("key/%d", i)); err != nil || !ok || v != "v" {
			t.Fatalf("GetLinearizable(key/%d) = %q, %v, %v", i, v, ok, err)
		}
	}
}

// lawKeys are the keys the round-trip law writes and probes: plain ones and
// ones that are not valid UTF-8.
var lawKeys = []string{"a", "b", "c", "d", "e", "f", "g", "h", "k\xfe", "\xff", "\xc3", "x\x00y"}

// lawCommands generates a random command sequence for the machine of group
// "shard-0": writes, exports, imports, acks, commands built for another
// group, and foreign bytes, over rings drawn from three groups, with
// versions that repeat so duplicates and stale commands occur.
func lawCommands(rng *rand.Rand, n int) [][]byte {
	groups := []string{"shard-0", "shard-1", "shard-2"}
	ring := func() []string {
		var shards []string
		for _, g := range groups {
			if rng.Intn(3) > 0 {
				shards = append(shards, g)
			}
		}
		return append(shards, "shard-0")
	}
	version := func() uint64 { return uint64(1 + rng.Intn(4)) }
	cmds := make([][]byte, 0, n)
	for len(cmds) < n {
		switch r := rng.Intn(20); {
		case r < 11:
			cmds = append(cmds, encodeKVCommand(lawKeys[rng.Intn(len(lawKeys))], fmt.Sprintf("v%d\xfe", rng.Intn(100))))
		case r < 13:
			cmds = append(cmds, migrateOut("shard-0", version(), ring()))
		case r < 16:
			export := map[string]string{}
			for i := rng.Intn(5); i > 0; i-- {
				export[lawKeys[rng.Intn(len(lawKeys))]] = fmt.Sprintf("in%d", rng.Intn(100))
			}
			cmds = append(cmds, migrateIn("shard-0", version(), ring(), lawExport(export)))
		case r < 18:
			cmds = append(cmds, migrateAck("shard-0", version(), ring()))
		case r < 19:
			cmds = append(cmds, migrateOut("shard-1", version(), ring()))
		default:
			cmds = append(cmds, []byte("foreign"))
		}
	}
	return cmds
}

// replay builds the machine of group "shard-0" that applied cmds.
func replay(cmds [][]byte) *kvMachine {
	m := newKVMachine("shard-0")
	for i, cmd := range cmds {
		_, _ = m.Apply(LogEntry{Index: uint64(i + 1), Cmd: cmd})
	}
	return m
}

// checkRoundTrip is the round-trip law: the machine restored from
// snapshot(s) answers every query as s does, and then behaves like s under
// every command of suffix, responses and errors included, ending in the same
// snapshot bytes. s applies suffix too.
func checkRoundTrip(s *kvMachine, snapshot func(*kvMachine) []byte, suffix [][]byte) error {
	r := newKVMachine(s.self)
	if err := r.Restore(snapshot(s), 0); err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	same := func(what string, a, b []byte, aerr, berr error) error {
		if !bytes.Equal(a, b) || fmt.Sprint(aerr) != fmt.Sprint(berr) {
			return fmt.Errorf("%s: original answers (%q, %v), restored (%q, %v)", what, a, aerr, b, berr)
		}
		return nil
	}
	queries := func(stage string) error {
		for _, k := range lawKeys {
			for _, q := range [][]byte{encodeKVCommand(k, ""), []byte(k)} {
				a, aerr := s.Query(q)
				b, berr := r.Query(q)
				if err := same(fmt.Sprintf("%s: query %q", stage, q), a, b, aerr, berr); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := queries("after restore"); err != nil {
		return err
	}
	for i, cmd := range suffix {
		e := LogEntry{Index: uint64(1000 + i), Cmd: cmd}
		a, aerr := s.Apply(e)
		b, berr := r.Apply(e)
		if err := same(fmt.Sprintf("command %d %q", i, cmd), a, b, aerr, berr); err != nil {
			return err
		}
	}
	if err := queries("after the suffix"); err != nil {
		return err
	}
	if !bytes.Equal(s.encode(), r.encode()) {
		return errors.New("snapshots differ after the suffix")
	}
	return nil
}

func encodeSnapshot(m *kvMachine) []byte { return m.encode() }

// TestSnapshotRoundTripLaw checks the round-trip law at every split of
// random command sequences, so the ring, its version and ceded keys all
// cross a snapshot in many states, and checks that each state's snapshot is
// byte-exact: restoring it and snapshotting again gives the same bytes.
func TestSnapshotRoundTripLaw(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cmds := lawCommands(rand.New(rand.NewSource(seed)), 40)
		for split := 0; split <= len(cmds); split++ {
			s := replay(cmds[:split])
			snap := s.encode()
			r := newKVMachine("shard-0")
			if err := r.Restore(snap, 0); err != nil || !bytes.Equal(r.encode(), snap) {
				t.Fatalf("seed %d split %d: snapshot is not byte-exact (restore err %v)", seed, split, err)
			}
			if err := checkRoundTrip(s, encodeSnapshot, cmds[split:]); err != nil {
				t.Fatalf("seed %d split %d: %v", seed, split, err)
			}
		}
	}
}

// TestSnapshotRoundTripLawCatchesLoss runs the law against snapshots that
// drop the ring or its version, and requires it to fail: the law must
// notice gate state a snapshot forgets.
func TestSnapshotRoundTripLawCatchesLoss(t *testing.T) {
	export := map[string]string{}
	for _, k := range lawKeys {
		export[k] = "imported"
	}
	var prefix [][]byte
	for _, k := range lawKeys {
		prefix = append(prefix, encodeKVCommand(k, "v"))
	}
	ring := []string{"shard-0", "shard-1"}
	exportCmd := migrateOut("shard-0", 1, ring)
	importCmd := migrateIn("shard-0", 1, ring, lawExport(export))
	prefix = append(prefix, exportCmd, importCmd)
	var suffix [][]byte
	for _, k := range lawKeys {
		suffix = append(suffix, encodeKVCommand(k, "w"))
	}
	suffix = append(suffix, exportCmd, importCmd)

	if err := checkRoundTrip(replay(prefix), encodeSnapshot, suffix); err != nil {
		t.Fatalf("the law fails on a faithful snapshot: %v", err)
	}
	for name, lossy := range map[string]func(*kvMachine) []byte{
		"ring": func(m *kvMachine) []byte {
			c := *m
			c.ring = nil
			return c.encode()
		},
		"version": func(m *kvMachine) []byte {
			c := *m
			c.version = 0
			return c.encode()
		},
	} {
		if err := checkRoundTrip(replay(prefix), lossy, suffix); err == nil {
			t.Errorf("a snapshot that drops the %s passes the round-trip law", name)
		} else {
			t.Logf("dropped %s caught: %v", name, err)
		}
	}
}

// FuzzRestore holds the state decoder to error-or-round-trip on arbitrary
// bytes: it must never panic; a failed Restore leaves the machine as it was;
// and a machine it accepts snapshots to bytes that restore to a machine with
// the same snapshot and the same answers.
func FuzzRestore(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(replay(lawCommands(rand.New(rand.NewSource(seed)), 30)).encode())
	}
	f.Add(newKVMachine("shard-0").encode())
	full := replay(lawCommands(rand.New(rand.NewSource(5)), 30)).encode()
	state := func(b ...byte) []byte { return append(append([]byte(nil), kvStateMagic...), b...) }
	for _, raw := range [][]byte{
		full[:len(full)-1],                                 // truncated
		append(append([]byte(nil), full...), 0),            // trailing bytes
		state(0x80),                                        // truncated number
		state(0x80, 0, 0, 0, 0),                            // a number not in its shortest form
		state(0, 1, 5),                                     // field overruns the state
		state(0, 0, 0, 9),                                  // count overruns the state
		state(0x81, 0x40, 1, 1, 'a', 0, 0),                 // 8,193 virtual nodes
		[]byte("rkvs\x00\x01\x00\x00\x00\x00\x00\x00\x00"), // the retired layout with epochs and an outbox
		[]byte(`{"in_epochs":{},"inner":"e30="}`),          // the retired nested JSON
		[]byte("{}"),
		nil,
	} {
		if err := newKVMachine("shard-0").Restore(raw, 0); err == nil {
			f.Fatalf("Restore(%q) succeeded, want an error", raw)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		m := newKVMachine("shard-0")
		if err := m.Restore(full, 0); err != nil {
			t.Fatalf("Restore(seed): %v", err)
		}
		if err := m.Restore(raw, 0); err != nil {
			if !bytes.Equal(m.encode(), full) {
				t.Fatalf("failed Restore(%q) changed the machine", raw)
			}
			return
		}
		snap := m.encode()
		r := newKVMachine("shard-0")
		if err := r.Restore(snap, 0); err != nil {
			t.Fatalf("Restore of the restored machine's snapshot %q: %v", snap, err)
		}
		if again := r.encode(); !bytes.Equal(again, snap) {
			t.Fatalf("snapshot %q restores to snapshot %q", snap, again)
		}
		for k := range m.state {
			a, aerr := m.Query(encodeKVCommand(k, ""))
			b, berr := r.Query(encodeKVCommand(k, ""))
			if !bytes.Equal(a, b) || fmt.Sprint(aerr) != fmt.Sprint(berr) {
				t.Fatalf("query %q: (%q, %v) before the round trip, (%q, %v) after", k, a, aerr, b, berr)
			}
		}
	})
}

// sinkKV keeps TestKVCodecAllocs's results alive.
var sinkKV []byte

// TestKVCodecAllocs pins the KV command and result encoders at one
// allocation per call: the right-sized frame they return, and nothing else.
func TestKVCodecAllocs(t *testing.T) {
	key, value := string(bytes.Repeat([]byte("k"), 40)), string(bytes.Repeat([]byte("v"), 200))
	for name, fn := range map[string]func(){
		"encodeKVCommand": func() { sinkKV = encodeKVCommand(key, value) },
		"encodeKVResult":  func() { sinkKV = encodeKVResult(true, value) },
	} {
		if got := testing.AllocsPerRun(100, fn); got != 1 {
			t.Errorf("%s: %v allocs per call, want 1", name, got)
		}
	}
}
