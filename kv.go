package rdmaagreement

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// migrateMagic tags a migration command, a bare JSON migrateCmd: rare and
// structured, it is the only JSON form on the command path.
var migrateMagic = []byte("rshd\x00\x01")

// ErrForeignCommand is the response of the KV state machine to a committed
// entry that does not carry the KV wire tag. The entry stays in the log
// (commitment is the log's business), but it does not touch the store and its
// proposer is told explicitly.
var ErrForeignCommand = errors.New("kv: committed entry is not a tagged KV command")

//smrlint:noalloc
func encodeKVCommand(key, value string) []byte {
	out := make([]byte, 0, len(kvMagic)+binary.MaxVarintLen64+len(key)+len(value))
	out = append(out, kvMagic...)
	out = binary.AppendUvarint(out, uint64(len(key)))
	out = append(out, key...)
	out = append(out, value...)
	return out
}

// decodeKVCommand splits a committed entry or a routed query into its key
// and rest (the KV framing) or a migration command (JSON). The returned key
// and rest alias raw — the apply path converts them to strings only where it
// stores them. ok=false means raw carries neither well-formed tag.
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
	if bytes.HasPrefix(raw, migrateMagic) {
		// Strict: unknown fields (such as the retired keyed JSON envelope's
		// "key"/"cmd") and trailing bytes are rejected, not ignored.
		var m migrateCmd
		dec := json.NewDecoder(bytes.NewReader(raw[len(migrateMagic):]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&m); err != nil {
			return nil, nil, nil, false
		}
		if _, err := dec.Token(); err != io.EOF {
			return nil, nil, nil, false
		}
		return nil, nil, &m, true
	}
	return nil, nil, nil, false
}

// encodeKVResult is the machine's response to writes (the key's previous
// value) and queries (the key's current value): one found byte, 0 or 1, plus
// the value bytes.
//
//smrlint:noalloc
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

// migrateCmd is a rebalance step committed through a group's own log —
// membership changes ride the logs they affect, the Chubby/ZooKeeper
// reconfiguration-via-log pattern. The ring after the change travels as
// (Shards, VNodes): every machine rebuilds it deterministically, so the
// ownership predicate needs no out-of-band state.
type migrateCmd struct {
	// Out marks the export half (committed in the ceding group); Ack marks
	// the post-import acknowledgement that lets the ceding group drop its
	// export outbox; otherwise this is an import (committed in a receiving
	// group).
	Out bool `json:"out,omitempty"`
	Ack bool `json:"ack,omitempty"`
	// Epoch is the migration epoch: one per rebalance operation, strictly
	// increasing. It makes re-proposed migration commands idempotent — a
	// duplicate export replays its stored result, a duplicate import is a
	// no-op — which is what lets an interrupted rebalance be retried safely.
	Epoch uint64 `json:"epoch"`
	// Shards and VNodes describe the ring after the rebalance.
	Shards []string `json:"shards"`
	VNodes int      `json:"vnodes"`
	// Group is the group this command is committed in.
	Group string `json:"group"`
	// Source is the ceding group (imports only).
	Source string `json:"source,omitempty"`
	// Data is the ceded sub-state (imports only).
	Data []byte `json:"data,omitempty"`
}

// migrateResult is the Apply response of a migration command: the export's
// bytes (out) and the number of keys exported or merged.
type migrateResult struct {
	Data []byte `json:"data,omitempty"`
	Keys int    `json:"keys"`
}

// encodeMigrate frames a migration command for its group's log. Marshal
// cannot fail on a struct of strings, numbers and bytes.
func encodeMigrate(m migrateCmd) []byte {
	blob, _ := json.Marshal(m)
	return append(append([]byte(nil), migrateMagic...), blob...)
}

// kvMachine is the string-map StateMachine behind ShardedKV, inside one
// shard group's ownership gate: it refuses writes and queries for keys the
// group's latest committed ring config routes elsewhere — the refusal is
// itself a committed, deterministic log event, so a write that raced a
// handoff provably did not mutate the ceded range and can be retried at the
// new owner — and it applies the migration commands that carve a moved
// range out of one group and merge it into another.
//
// All gate state (the committed ring config, the import dedupe epochs, the
// export outbox) is part of the machine state proper: every replica view
// derives the identical gate from the identical log, and snapshots carry it.
// The owning Log serializes all calls, so no internal locking is needed.
// Foreign entries are counted by the ShardedKV's OnCommit hook — exactly once
// per committed entry — not here: one entry is applied by the authoritative
// machine and every replica view, and counting in Apply would multiply it by
// the replica count.
type kvMachine struct {
	self  string
	state map[string]string

	ring     *shard.Ring       // latest committed ownership config; nil = every routed key is ours
	inEpochs map[string]uint64 // per ceding source: epoch of the last applied import
	// Export outbox: the latest migrate-out's result, keyed by its epoch. A
	// re-proposed export (the rebalancer retried after losing the first
	// response) replays the stored result instead of exporting the — by then
	// empty — range again, which would silently drop the ceded state.
	outEpoch uint64
	outData  []byte
	outKeys  int
}

func newKVMachine(self string) *kvMachine {
	return &kvMachine{self: self, state: make(map[string]string), inEpochs: make(map[string]uint64)}
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
	if k := string(key); m.ring.Shard(k) != m.self {
		return &KeyMovedError{Key: k, From: m.self, Owner: m.ring.Shard(k), Index: index}
	}
	return nil
}

func (m *kvMachine) applyMigrate(c *migrateCmd) ([]byte, error) {
	if c.Group != m.self {
		// A migrate command built for another group (a replayed command, a
		// misdirected raw propose) must not carve up THIS group's state.
		return nil, fmt.Errorf("sharded kv: migrate command for %s committed in %s", c.Group, m.self)
	}
	if c.Ack {
		// The exported range has been imported everywhere: drop the outbox
		// copy so the ceded bytes stop living in this machine's state (and
		// its snapshots) forever. Replaying a stale ack is harmless.
		if c.Epoch == m.outEpoch {
			m.outData = nil
		}
		return json.Marshal(migrateResult{})
	}
	next := shard.New(c.Shards, c.VNodes)
	if c.Out {
		if c.Epoch <= m.outEpoch {
			if c.Epoch == m.outEpoch {
				// Duplicate export (a lost-response retry): replay the result.
				return json.Marshal(migrateResult{Data: m.outData, Keys: m.outKeys})
			}
			return json.Marshal(migrateResult{}) // stale epoch: nothing left to say
		}
		// Gate and carve-out commit together, inside this one apply, so no
		// command can slip between the cede and the export. Deterministic:
		// every replica runs the identical branch on the identical state, and
		// the export encodes its keys sorted.
		moved := newKVMachine(m.self)
		for k, v := range m.state {
			if next.Shard(k) != m.self {
				moved.state[k] = v
				delete(m.state, k)
			}
		}
		m.ring = next
		m.outEpoch, m.outData, m.outKeys = c.Epoch, moved.encode(), len(moved.state)
		return json.Marshal(migrateResult{Data: m.outData, Keys: m.outKeys})
	}
	if last, dup := m.inEpochs[c.Source]; dup && c.Epoch <= last {
		// Duplicate import (same handoff re-proposed): merging again could
		// overwrite writes accepted since the first merge.
		return json.Marshal(migrateResult{})
	}
	in, err := decodeKVState(m.self, c.Data)
	if err != nil {
		// Record nothing on failure: a retried handoff must re-propose this
		// import and have it actually merge, not hit the dedupe branch and
		// silently drop the exported range.
		return nil, fmt.Errorf("sharded kv: migrate into %s: %w", m.self, err)
	}
	// A removed shard's export fans out to every survivor: keep only the
	// keys this group owns under the new ring.
	keys := 0
	for k, v := range in.state {
		if next.Shard(k) == m.self {
			m.state[k] = v
			keys++
		}
	}
	m.inEpochs[c.Source] = c.Epoch
	m.ring = next
	return json.Marshal(migrateResult{Keys: keys})
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

// kvStateMagic opens the one encoding of a kvMachine's state, shared by its
// snapshots and its migrate exports (an export is the state of a machine
// that holds only the ceded keys):
//
//	magic | vnodes | shards | in-epochs | out epoch | out data | out keys | pairs
//
// Numbers are uvarints; strings and blobs are uvarint-length-prefixed, so
// every key and value survives byte for byte; each list is a uvarint count
// followed by its items, an in-epoch being (source, epoch) and a pair (key,
// value). The ring is absent (no shards) until the group's first rebalance.
// Shards, sources and keys are sorted, so replicas in equal states encode
// equal bytes.
var kvStateMagic = []byte("rkvs\x00\x01")

// maxVirtualNodes bounds a ring's virtual nodes per shard, so that a corrupt
// state cannot make the decoder build an arbitrarily large ring.
const maxVirtualNodes = 1 << 12

func (m *kvMachine) encode() []byte {
	var shards []string
	vnodes := 0
	if m.ring != nil {
		shards, vnodes = m.ring.Shards(), m.ring.VirtualNodes()
	}
	sources, keys := sortedKeys(m.inEpochs), sortedKeys(m.state)
	size := len(kvStateMagic) + len(m.outData) + 8*binary.MaxVarintLen64
	for _, k := range keys {
		size += len(k) + len(m.state[k]) + 4
	}
	out := append(make([]byte, 0, size), kvStateMagic...)
	out = binary.AppendUvarint(out, uint64(vnodes))
	out = binary.AppendUvarint(out, uint64(len(shards)))
	for _, s := range shards {
		out = appendField(out, s)
	}
	out = binary.AppendUvarint(out, uint64(len(sources)))
	for _, s := range sources {
		out = binary.AppendUvarint(appendField(out, s), m.inEpochs[s])
	}
	out = binary.AppendUvarint(out, m.outEpoch)
	out = appendField(out, m.outData)
	out = binary.AppendUvarint(out, uint64(m.outKeys))
	out = binary.AppendUvarint(out, uint64(len(keys)))
	for _, k := range keys {
		out = appendField(appendField(out, k), m.state[k])
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
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
	shards := make([]string, r.count(1))
	for i := range shards {
		shards[i] = string(r.field())
	}
	for n := r.count(2); n > 0; n-- {
		source := string(r.field())
		m.inEpochs[source] = r.uvarint()
	}
	m.outEpoch = r.uvarint()
	m.outData = bytes.Clone(r.field())
	m.outKeys = int(r.uvarint())
	for n := r.count(2); n > 0; n-- {
		k := string(r.field())
		m.state[k] = string(r.field())
	}
	switch {
	case r.err != nil:
		return nil, fmt.Errorf("kv state: %w", r.err)
	case len(r.buf) > 0:
		return nil, fmt.Errorf("kv state: %d trailing bytes", len(r.buf))
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
	if n <= 0 {
		r.err = errors.New("truncated number")
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
