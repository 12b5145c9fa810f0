package rdmaagreement

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rdmaagreement/internal/shard"
)

// lawVNodes is the virtual-node count of every ring the laws build.
const lawVNodes = 8

// migrateOut, migrateIn, migrateAck, lawExport and exportPayload are the
// laws' only contact with the migrate command codec: they build the
// commands the laws apply, an export's bytes from a key set, and the import
// payload from an export's answer.
func migrateOut(group string, version uint64, ring []string) []byte {
	return encodeMigrate(migrateCmd{Kind: exportKind, Version: version, Group: group, Shards: ring, VNodes: lawVNodes})
}

func migrateIn(group string, version uint64, ring []string, export []byte) []byte {
	return encodeMigrate(migrateCmd{Kind: importKind, Version: version, Group: group, Shards: ring, VNodes: lawVNodes, Exports: [][]byte{export}})
}

func migrateAck(group string, version uint64, ring []string) []byte {
	return encodeMigrate(migrateCmd{Kind: ackKind, Version: version, Group: group, Shards: ring, VNodes: lawVNodes})
}

func lawExport(pairs map[string]string) []byte {
	m := newKVMachine("export")
	m.state = pairs
	return m.appendPairs(nil, sortedKeys(pairs))
}

func exportPayload(resp []byte) []byte { return resp }

// migrateScenario builds, from seed, the ceding machine of group "shard-0"
// in a state a rebalance can leave it in — random writes and, for some
// seeds, an earlier rebalance completed by its ack followed by more writes —
// plus the ring and version of the next rebalance. The ring always holds the
// receiver "shard-1"; it drops "shard-0" (a removal) for some seeds.
func migrateScenario(seed int64) (src *kvMachine, ring []string, version uint64) {
	rng := rand.New(rand.NewSource(seed))
	src = newKVMachine("shard-0")
	write := func() {
		for i := rng.Intn(len(lawKeys)); i >= 0; i-- {
			cmd := encodeKVCommand(lawKeys[rng.Intn(len(lawKeys))], fmt.Sprintf("v%d\xfe", rng.Intn(100)))
			_, _ = src.Apply(LogEntry{Index: uint64(i + 1), Cmd: cmd})
		}
	}
	write()
	version = 1
	if rng.Intn(2) == 0 {
		prev := []string{"shard-0", "shard-1"}
		mustApply(src, migrateOut("shard-0", version, prev))
		mustApply(src, migrateAck("shard-0", version, prev))
		write()
		version++
	}
	ring = []string{"shard-1"}
	if rng.Intn(3) > 0 {
		ring = append(ring, "shard-0")
	}
	if rng.Intn(2) == 0 {
		ring = append(ring, "shard-2")
	}
	return src, ring, version
}

const migrateSeeds = 60

func mustApply(m *kvMachine, cmd []byte) []byte {
	resp, err := m.Apply(LogEntry{Index: 1, Cmd: cmd})
	if err != nil {
		panic(fmt.Sprintf("apply at %s: %v", m.self, err))
	}
	return resp
}

// served maps every law key a routed query at m finds to its value.
func served(m *kvMachine) map[string]string {
	out := map[string]string{}
	for _, k := range lawKeys {
		resp, err := m.Query(encodeKVCommand(k, ""))
		if err != nil {
			continue
		}
		if v, found, err := decodeKVResult(resp); err == nil && found {
			out[k] = v
		}
	}
	return out
}

// rawHeld maps every law key a raw, ungated query at m finds to its value.
func rawHeld(m *kvMachine) map[string]string {
	out := map[string]string{}
	for _, k := range lawKeys {
		resp, _ := m.Query([]byte(k))
		if v, found, err := decodeKVResult(resp); err == nil && found {
			out[k] = v
		}
	}
	return out
}

// cededBy is the part of held that ring routes away from group.
func cededBy(held map[string]string, ring []string, group string) map[string]string {
	r := shard.New(ring, lawVNodes)
	out := map[string]string{}
	for k, v := range held {
		if r.Shard(k) != group {
			out[k] = v
		}
	}
	return out
}

func cloneMachine(m *kvMachine) *kvMachine {
	c := newKVMachine(m.self)
	if err := c.Restore(m.encode(), 0); err != nil {
		panic(err)
	}
	return c
}

func sameMap(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// TestMigrateTwiceIsNoOp is the idempotence law: applying any migrate
// command a second time leaves the machine's encoding unchanged, and a
// duplicate export answers the same bytes. It runs every kind of command
// against the ceder before and after its export.
func TestMigrateTwiceIsNoOp(t *testing.T) {
	for seed := int64(1); seed <= migrateSeeds; seed++ {
		src, ring, version := migrateScenario(seed)
		exported := cloneMachine(src)
		export := exportPayload(mustApply(exported, migrateOut("shard-0", version, ring)))
		for stage, m := range map[string]*kvMachine{"before the export": src, "after the export": exported} {
			for name, cmd := range map[string][]byte{
				"export":           migrateOut("shard-0", version, ring),
				"newer export":     migrateOut("shard-0", version+1, ring),
				"stale export":     migrateOut("shard-0", version-1, ring),
				"import":           migrateIn("shard-0", version, ring, export),
				"newer import":     migrateIn("shard-0", version+1, ring, export),
				"ack":              migrateAck("shard-0", version, ring),
				"export elsewhere": migrateOut("shard-1", version, ring),
			} {
				c := cloneMachine(m)
				first, ferr := c.Apply(LogEntry{Index: 7, Cmd: cmd})
				once := c.encode()
				second, serr := c.Apply(LogEntry{Index: 8, Cmd: cmd})
				if !bytes.Equal(c.encode(), once) {
					t.Fatalf("seed %d, %s: a second %s changed the machine", seed, stage, name)
				}
				if name == "export" && (!bytes.Equal(first, second) || fmt.Sprint(ferr) != fmt.Sprint(serr)) {
					t.Fatalf("seed %d, %s: duplicate export answered (%q, %v), first (%q, %v)", seed, stage, second, serr, first, ferr)
				}
			}
		}
	}
}

// TestMigrateExportHoldsCededKeys is the export law: an export holds
// exactly the keys the ceder served that the new ring routes elsewhere,
// with their values. A probe group whose ring routes every key to itself
// imports the export and shows its contents.
func TestMigrateExportHoldsCededKeys(t *testing.T) {
	nonEmpty := 0
	for seed := int64(1); seed <= migrateSeeds; seed++ {
		src, ring, version := migrateScenario(seed)
		want := cededBy(served(src), ring, "shard-0")
		export := exportPayload(mustApply(src, migrateOut("shard-0", version, ring)))
		probe := newKVMachine("probe")
		mustApply(probe, migrateIn("probe", version, []string{"probe"}, export))
		if got := served(probe); !sameMap(got, want) {
			t.Fatalf("seed %d: export to ring %v holds %q, want %q", seed, ring, got, want)
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatalf("no scenario ceded a key — the law is vacuous")
	}
}

// TestMigrateImportGainsOwnedKeys is the import law: a receiver gains
// exactly the exported keys the new ring routes to it, with their values,
// and keeps what it held.
func TestMigrateImportGainsOwnedKeys(t *testing.T) {
	gained := 0
	for seed := int64(1); seed <= migrateSeeds; seed++ {
		src, ring, version := migrateScenario(seed)
		ceded := cededBy(served(src), ring, "shard-0")
		export := exportPayload(mustApply(src, migrateOut("shard-0", version, ring)))
		dst := newKVMachine("shard-1")
		want := map[string]string{}
		next := shard.New(ring, lawVNodes)
		for i, k := range lawKeys {
			if _, moving := ceded[k]; !moving && next.Shard(k) == "shard-1" && i%2 == 0 {
				mustApply(dst, encodeKVCommand(k, "own"))
				want[k] = "own"
			}
		}
		for k, v := range ceded {
			if next.Shard(k) == "shard-1" {
				want[k] = v
				gained++
			}
		}
		mustApply(dst, migrateIn("shard-1", version, ring, export))
		if got := served(dst); !sameMap(got, want) {
			t.Fatalf("seed %d: receiver serves %q after the import, want %q", seed, got, want)
		}
		if got := rawHeld(dst); !sameMap(got, want) {
			t.Fatalf("seed %d: receiver holds %q after the import, want %q", seed, got, want)
		}
	}
	if gained == 0 {
		t.Fatalf("no scenario moved a key to the receiver — the law is vacuous")
	}
}

// TestMigrateGateNamesNewOwner is the gate law: once the export commits, a
// routed query or write for a ceded key is refused with a KeyMovedError
// naming the ceder and the new ring's owner, and every key the ceder keeps
// is still served.
func TestMigrateGateNamesNewOwner(t *testing.T) {
	for seed := int64(1); seed <= migrateSeeds; seed++ {
		src, ring, version := migrateScenario(seed)
		before := served(src)
		ceded := cededBy(before, ring, "shard-0")
		mustApply(src, migrateOut("shard-0", version, ring))
		next := shard.New(ring, lawVNodes)
		for k := range ceded {
			var moved *KeyMovedError
			if _, err := src.Query(encodeKVCommand(k, "")); !errors.As(err, &moved) || moved.Owner != next.Shard(k) || moved.From != "shard-0" {
				t.Fatalf("seed %d: routed query for ceded %q = %v, want a KeyMovedError from shard-0 to %s", seed, k, err, next.Shard(k))
			}
			if _, err := src.Apply(LogEntry{Index: 9, Cmd: encodeKVCommand(k, "late")}); !errors.As(err, &moved) || moved.Owner != next.Shard(k) || moved.Index != 9 {
				t.Fatalf("seed %d: write to ceded %q = %v, want a KeyMovedError to %s at index 9", seed, k, err, next.Shard(k))
			}
		}
		for k, v := range before {
			if _, gone := ceded[k]; !gone && served(src)[k] != v {
				t.Fatalf("seed %d: kept key %q no longer served as %q", seed, k, v)
			}
		}
	}
}

// TestMigrateAckDropsCededKeys is the cleanup law: after the ack — or, when
// the ack is lost, after the next rebalance's export — a raw query at the
// ceder finds no ceded key, and still finds every key it kept.
func TestMigrateAckDropsCededKeys(t *testing.T) {
	for seed := int64(1); seed <= migrateSeeds; seed++ {
		src, ring, version := migrateScenario(seed)
		before := served(src)
		ceded := cededBy(before, ring, "shard-0")
		mustApply(src, migrateOut("shard-0", version, ring))
		acked, lost := cloneMachine(src), cloneMachine(src)
		mustApply(acked, migrateAck("shard-0", version, ring))
		mustApply(lost, migrateOut("shard-0", version+1, ring))
		for how, m := range map[string]*kvMachine{"the ack": acked, "a newer export": lost} {
			held := rawHeld(m)
			for k, v := range before {
				_, gone := ceded[k]
				if w, found := held[k]; gone && found {
					t.Fatalf("seed %d: after %s the ceder still holds ceded %q", seed, how, k)
				} else if !gone && (!found || w != v) {
					t.Fatalf("seed %d: after %s the ceder holds kept %q as %q, %v; want %q", seed, how, k, w, found, v)
				}
			}
		}
	}
}
