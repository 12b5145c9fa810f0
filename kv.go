package rdmaagreement

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"rdmaagreement/internal/shard"
)

// kvMagic tags every command and routed query ShardedKV submits to its
// groups: the binary framing magic | keylen uvarint | key | rest, where rest
// is a write's value and empty for a query. The routing key rides in the one
// frame, which is what lets each group's ownership gate check — at APPLY
// time, in log order — that the group still owns the key: the only point
// where the route-then-commit race of a live rebalance can be closed.
// Entries appended to a shard's log by other clients (raw Log.Propose) lack
// the tag and are reported as foreign instead of being guessed at; a raw
// query lacking it is a bare key, served past the gate. The trailing byte
// versions the wire format; it is 2 because version 1, a JSON object, is
// retired and no longer decodes.
var kvMagic = []byte("rkv\x00\x02")

// migrateMagic tags a migration command, framed like the state (see
// kvStateMagic):
//
//	magic | kind | version | group | vnodes | shards | exports
//
// The trailing byte versions the format; it is 2 because version 1, a JSON
// object, is retired and no longer decodes.
var migrateMagic = []byte("rshd\x00\x02")

// ErrForeignCommand is the response of the KV state machine to a committed
// entry that does not carry the KV wire tag. The entry stays in the log
// (commitment is the log's business), but it does not touch the store and its
// proposer is told explicitly.
var ErrForeignCommand = errors.New("kv: committed entry is not a tagged KV command")

func encodeKVCommand(key, value string) []byte {
	out := make([]byte, 0, len(kvMagic)+binary.MaxVarintLen64+len(key)+len(value))
	out = append(out, kvMagic...)
	out = binary.AppendUvarint(out, uint64(len(key)))
	out = append(out, key...)
	out = append(out, value...)
	return out
}

// decodeKVCommand splits a committed entry or a routed query into its key
// and rest (the KV framing) or a migration command. The returned key, rest
// and exports alias raw — the apply path converts them to strings only where
// it stores them. ok=false means raw carries neither well-formed tag.
func decodeKVCommand(raw []byte) (key, rest []byte, mig *migrateCmd, ok bool) {
	if bytes.HasPrefix(raw, kvMagic) {
		rest := raw[len(kvMagic):]
		klen, n := binary.Uvarint(rest)
		if n <= 0 || klen > uint64(len(rest)-n) {
			return nil, nil, nil, false
		}
		rest = rest[n:]
		return rest[:klen:klen], rest[klen:], nil, true
	}
	if !bytes.HasPrefix(raw, migrateMagic) {
		return nil, nil, nil, false
	}
	// Strict: every command has one encoding, so unknown kinds, oversized
	// rings, rings with no shards and trailing bytes are rejected.
	r := stateReader{buf: raw[len(migrateMagic):]}
	m := &migrateCmd{Kind: migrateKind(r.uvarint()), Version: r.uvarint(), Group: string(r.field())}
	vnodes := r.uvarint()
	m.Shards, m.Exports = readList[string](&r), readList[[]byte](&r)
	if r.done() != nil || m.Kind > ackKind || vnodes > maxVirtualNodes || len(m.Shards) == 0 {
		return nil, nil, nil, false
	}
	m.VNodes = int(vnodes)
	return nil, nil, m, true
}

// encodeKVResult is the machine's response to writes (the key's previous
// value) and queries (the key's current value): one found byte, 0 or 1, plus
// the value bytes.
func encodeKVResult(found bool, value string) []byte {
	out := make([]byte, 1, 1+len(value))
	if found {
		out[0] = 1
	}
	return append(out, value...)
}

func decodeKVResult(resp []byte) (string, bool, error) {
	if len(resp) == 0 || resp[0] > 1 {
		return "", false, fmt.Errorf("kv: decode response: not a KV result")
	}
	return string(resp[1:]), resp[0] == 1, nil
}

// DecodeKVResult decodes a kvMachine response obtained outside the ShardedKV
// client — a raw Log.Read/StaleRead against a shard's log, the path audit
// tooling uses to probe individual replicas — into (value, found).
func DecodeKVResult(resp []byte) (string, bool, error) { return decodeKVResult(resp) }

// migrateKind is the step a migration command takes in its group.
type migrateKind uint64

const (
	exportKind migrateKind = iota // in a ceder: install the ring, answer the keys it routes elsewhere
	importKind                    // in a receiver: merge the keys it owns from every export
	ackKind                       // in a ceder, once every import committed: drop the ceded keys
)

// migrateCmd is a rebalance step committed through a group's own log —
// membership changes ride the logs they affect, the Chubby/ZooKeeper
// reconfiguration-via-log pattern. The ring after the change travels as
// (Shards, VNodes): every machine rebuilds it deterministically, so the
// ownership predicate needs no out-of-band state.
type migrateCmd struct {
	Kind migrateKind
	// Version numbers the rebalance: one per AddShard/RemoveShard, strictly
	// increasing, shared by all of its commands. A machine takes one export
	// or import per version, so a re-proposed command is a no-op (a
	// duplicate export answers what the first did), which is what lets an
	// interrupted rebalance be retried safely.
	Version uint64
	// Group is the group this command is committed in.
	Group string
	// Shards and VNodes describe the ring after the rebalance.
	Shards []string
	VNodes int
	// Exports are the ceders' exports (imports only).
	Exports [][]byte
}

// encodeMigrate frames a migration command for its group's log.
func encodeMigrate(m migrateCmd) []byte {
	out := binary.AppendUvarint(append([]byte(nil), migrateMagic...), uint64(m.Kind))
	out = appendField(binary.AppendUvarint(out, m.Version), m.Group)
	out = appendList(binary.AppendUvarint(out, uint64(m.VNodes)), m.Shards)
	return appendList(out, m.Exports)
}

// kvMachine is the string-map StateMachine behind ShardedKV, inside one
// shard group's ownership gate: it refuses writes and queries for keys the
// group's latest committed ring config routes elsewhere — the refusal is
// itself a committed, deterministic log event, so a write that raced a
// handoff provably did not mutate the ceded range and can be retried at the
// new owner — and it applies the migration commands that carve a moved
// range out of one group and merge it into another.
//
// All gate state (the committed ring and its version) is part of the
// machine state proper: every replica view derives the identical gate from
// the identical log, and snapshots carry it. The owning Log serializes all
// calls, so no internal locking is needed.
// Foreign entries are counted by the ShardedKV's OnCommit hook — exactly once
// per committed entry — not here: one entry is applied by the authoritative
// machine and every replica view, and counting in Apply would multiply it by
// the replica count.
type kvMachine struct {
	self  string
	state map[string]string
	// ring is the latest committed ownership config, nil (every routed key is
	// ours) until the group's first rebalance, and version the rebalance
	// that installed it. Keys the ring routes elsewhere are ceded: an export
	// leaves them in state, refused by the gate, until the ack — or, if the
	// ack is lost, the next rebalance — drops them.
	ring    *shard.Ring
	version uint64
}

func newKVMachine(self string) *kvMachine {
	return &kvMachine{self: self, state: make(map[string]string)}
}

// Apply executes one committed write and responds with the key's previous
// value, or one migration step. Untagged entries are skipped and reported
// via ErrForeignCommand.
func (m *kvMachine) Apply(e LogEntry) ([]byte, error) {
	key, value, mig, ok := decodeKVCommand(e.Cmd)
	if !ok {
		return nil, fmt.Errorf("%w (index %d)", ErrForeignCommand, e.Index)
	}
	if mig != nil {
		return m.applyMigrate(mig)
	}
	if err := m.gate(key, e.Index); err != nil {
		return nil, err
	}
	k := string(key)
	prev, found := m.state[k]
	m.state[k] = string(value)
	return encodeKVResult(found, prev), nil
}

// gate refuses key if the group's committed ring routes it elsewhere; index
// is the refused entry's, 0 for a query. It materializes the key string only
// when a ring is committed: until the first rebalance (the common case on the
// hot path) every routed key is ours.
func (m *kvMachine) gate(key []byte, index uint64) error {
	if m.ring == nil {
		return nil
	}
	if k := string(key); !m.owns(k) {
		return &KeyMovedError{Key: k, From: m.self, Owner: m.ring.Shard(k), Index: index}
	}
	return nil
}

func (m *kvMachine) owns(key string) bool { return m.ring == nil || m.ring.Shard(key) == m.self }

// dropCeded deletes the keys the ring routes elsewhere.
func (m *kvMachine) dropCeded() {
	for k := range m.state {
		if !m.owns(k) {
			delete(m.state, k)
		}
	}
}

func (m *kvMachine) applyMigrate(c *migrateCmd) ([]byte, error) {
	if c.Group != m.self {
		// A migrate command built for another group (a replayed command, a
		// misdirected raw propose) must not carve up THIS group's state.
		return nil, fmt.Errorf("sharded kv: migrate command for %s committed in %s", c.Group, m.self)
	}
	in := make(map[string]string)
	for _, export := range c.Exports {
		r := stateReader{buf: export}
		r.pairs(in)
		if err := r.done(); err != nil {
			// Change nothing on failure: a retried rebalance must re-propose
			// this import and have it actually merge, not hit the duplicate
			// branch and silently drop the exported keys.
			return nil, fmt.Errorf("sharded kv: migrate into %s: %w", m.self, err)
		}
	}
	switch {
	case c.Kind == ackKind:
		// Every import has committed: drop the ceded keys so they stop
		// living in this machine's state (and its snapshots). A stale ack is
		// harmless: the newer rebalance dropped them already.
		if c.Version == m.version {
			m.dropCeded()
		}
		return nil, nil
	case c.Kind == exportKind && c.Version < m.version:
		return nil, fmt.Errorf("sharded kv: export of rebalance %d committed in %s after rebalance %d", c.Version, m.self, m.version)
	case c.Version > m.version:
		// A newer rebalance first drops what the previous one ceded, in case
		// its ack was lost.
		m.dropCeded()
		m.ring, m.version = shard.New(c.Shards, c.VNodes), c.Version
	case c.Kind == importKind:
		// Duplicate import (same rebalance re-proposed) or a stale one:
		// merging again could overwrite writes accepted since the first
		// merge.
		return binary.AppendUvarint(nil, 0), nil
	}
	if c.Kind == exportKind {
		// Gate and export commit together, inside this one apply, so no
		// command can slip between the cede and the export. The ceded keys
		// stay, frozen by the gate, so a duplicate export (a lost-response
		// retry) answers the same bytes. Deterministic: every replica runs
		// the identical branch on the identical state, and the export
		// encodes its keys sorted.
		return m.appendPairs(nil, slices.DeleteFunc(sortedKeys(m.state), m.owns)), nil
	}
	// A removed shard's export fans out to every survivor: keep only the
	// keys this group owns under the new ring.
	keys := uint64(0)
	for k, v := range in {
		if m.owns(k) {
			m.state[k] = v
			keys++
		}
	}
	return binary.AppendUvarint(nil, keys), nil
}

// Query answers a key lookup. A framed query passes the gate first; an
// untagged one is the bare key, answered past the gate — the raw log-level
// read audit tooling uses to see what a machine holds, ceded state included.
func (m *kvMachine) Query(query []byte) ([]byte, error) {
	key, _, mig, ok := decodeKVCommand(query)
	if !ok || mig != nil {
		key = query
	} else if err := m.gate(key, 0); err != nil {
		return nil, err
	}
	v, found := m.state[string(key)]
	return encodeKVResult(found, v), nil
}

// Snapshot serializes the full machine state: the store and its gate.
func (m *kvMachine) Snapshot() ([]byte, error) { return m.encode(), nil }

// Restore replaces the machine state with a snapshot's, or fails and leaves
// it untouched.
func (m *kvMachine) Restore(snapshot []byte, _ uint64) error {
	r, err := decodeKVState(m.self, snapshot)
	if err != nil {
		return fmt.Errorf("kv: restore: %w", err)
	}
	*m = *r
	return nil
}

// kvStateMagic opens the one encoding of a kvMachine's state, its snapshot:
//
//	magic | vnodes | shards | version | pairs
//
// Numbers are uvarints in their shortest form; strings and blobs are
// uvarint-length-prefixed, so every key and value survives byte for byte;
// each list is a uvarint count followed by its items, a pair being (key,
// value). The ring is absent (no shards) until the group's first rebalance.
// Shards and keys are sorted, so replicas in equal states encode equal
// bytes. A migrate export is the pairs alone. The trailing byte versions the
// format; version 1 no longer decodes.
var kvStateMagic = []byte("rkvs\x00\x02")

// maxVirtualNodes bounds a ring's virtual nodes per shard, so that a corrupt
// state cannot make the decoder build an arbitrarily large ring.
const maxVirtualNodes = 1 << 12

func (m *kvMachine) encode() []byte {
	var shards []string
	vnodes := 0
	if m.ring != nil {
		shards, vnodes = m.ring.Shards(), m.ring.VirtualNodes()
	}
	keys := sortedKeys(m.state)
	size := len(kvStateMagic) + 8*binary.MaxVarintLen64
	for _, k := range keys {
		size += len(k) + len(m.state[k]) + 4
	}
	out := binary.AppendUvarint(append(make([]byte, 0, size), kvStateMagic...), uint64(vnodes))
	out = binary.AppendUvarint(appendList(out, shards), m.version)
	return m.appendPairs(out, keys)
}

// appendPairs appends the list of keys' (key, value) pairs.
func (m *kvMachine) appendPairs(out []byte, keys []string) []byte {
	out = binary.AppendUvarint(out, uint64(len(keys)))
	for _, k := range keys {
		out = appendField(appendField(out, k), m.state[k])
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func appendField[T string | []byte](out []byte, b T) []byte {
	return append(binary.AppendUvarint(out, uint64(len(b))), b...)
}

func appendList[T string | []byte](out []byte, items []T) []byte {
	out = binary.AppendUvarint(out, uint64(len(items)))
	for _, b := range items {
		out = appendField(out, b)
	}
	return out
}

// decodeKVState rebuilds the machine named self from its encoded state. It
// rejects a missing tag, truncation, a length or count that overruns the
// input, an oversized ring and trailing bytes.
func decodeKVState(self string, raw []byte) (*kvMachine, error) {
	if !bytes.HasPrefix(raw, kvStateMagic) {
		return nil, errors.New("kv state: missing tag")
	}
	r := stateReader{buf: raw[len(kvStateMagic):]}
	m := newKVMachine(self)
	vnodes := r.uvarint()
	shards := readList[string](&r)
	m.version = r.uvarint()
	r.pairs(m.state)
	switch err := r.done(); {
	case err != nil:
		return nil, fmt.Errorf("kv state: %w", err)
	case vnodes > maxVirtualNodes:
		return nil, fmt.Errorf("kv state: %d virtual nodes per shard, at most %d", vnodes, maxVirtualNodes)
	case len(shards) > 0:
		m.ring = shard.New(shards, int(vnodes))
	}
	return m, nil
}

// stateReader walks an encoded state. The first malformed field sticks in
// err, and every later read returns a zero value.
type stateReader struct {
	buf []byte
	err error
}

func (r *stateReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 || n > 1 && r.buf[n-1] == 0 {
		r.err = errors.New("truncated number, or one not in its shortest form")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *stateReader) field() []byte {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.buf)) {
		r.err = errors.New("field overruns the state")
	}
	if r.err != nil {
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// count reads a list length whose items take at least min bytes each, so a
// corrupt count cannot make the decoder allocate beyond its input.
func (r *stateReader) count(min int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.buf)/min) {
		r.err = errors.New("count overruns the state")
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func readList[T string | []byte](r *stateReader) []T {
	items := make([]T, r.count(1))
	for i := range items {
		items[i] = T(r.field())
	}
	return items
}

// pairs reads a list of (key, value) pairs into m.
func (r *stateReader) pairs(m map[string]string) {
	for n := r.count(2); n > 0; n-- {
		k := string(r.field())
		m[k] = string(r.field())
	}
}

// done returns the first malformed field's error, or one for trailing bytes.
func (r *stateReader) done() error {
	if r.err == nil && len(r.buf) > 0 {
		return fmt.Errorf("%d trailing bytes", len(r.buf))
	}
	return r.err
}
