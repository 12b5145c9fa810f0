package rdmaagreement

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
)

// kvMagic tags every command replicated by ShardedKV: the binary framing
// magic | keylen uvarint | key | value. Entries appended to a shard's log by
// other clients (raw Log.Propose) lack the tag and are reported as foreign
// instead of being guessed at. The trailing byte versions the wire format;
// it is 2 because version 1, a JSON object, is retired and no longer decodes.
var kvMagic = []byte("rkv\x00\x02")

// ErrForeignCommand is the response of the KV state machine to a committed
// entry that does not carry the KV wire tag. The entry stays in the log
// (commitment is the log's business), but it does not touch the store and its
// proposer is told explicitly.
var ErrForeignCommand = errors.New("kv: committed entry is not a tagged KV command")

// kvCommand is the state-machine operation replicated by ShardedKV.
type kvCommand struct {
	Key   string
	Value string
}

//smrlint:noalloc
func encodeKVCommand(key, value string) []byte {
	out := make([]byte, 0, len(kvMagic)+binary.MaxVarintLen64+len(key)+len(value))
	out = append(out, kvMagic...)
	out = binary.AppendUvarint(out, uint64(len(key)))
	out = append(out, key...)
	out = append(out, value...)
	return out
}

// decodeKVCommand rejects untagged blobs and decodes tagged ones.
func decodeKVCommand(raw []byte) (kvCommand, error) {
	if !bytes.HasPrefix(raw, kvMagic) {
		return kvCommand{}, fmt.Errorf("missing KV wire tag")
	}
	rest := raw[len(kvMagic):]
	klen, n := binary.Uvarint(rest)
	if n <= 0 {
		return kvCommand{}, fmt.Errorf("truncated KV key length")
	}
	rest = rest[n:]
	if klen > uint64(len(rest)) {
		return kvCommand{}, fmt.Errorf("KV key overruns payload")
	}
	return kvCommand{Key: string(rest[:klen]), Value: string(rest[klen:])}, nil
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

// kvMachine is the string-map StateMachine behind ShardedKV. The owning Log
// serializes all calls, so no internal locking is needed. Foreign entries are
// counted by the ShardedKV's OnCommit hook — exactly once per committed entry
// — not here: one entry is applied by the authoritative machine and every
// replica view, and counting in Apply would multiply it by the replica count.
type kvMachine struct {
	state map[string]string
}

func newKVMachine() StateMachine {
	return &kvMachine{state: make(map[string]string)}
}

// Apply executes one committed write and responds with the key's previous
// value. Untagged entries are skipped and reported via ErrForeignCommand.
func (m *kvMachine) Apply(e LogEntry) ([]byte, error) {
	cmd, err := decodeKVCommand(e.Cmd)
	if err != nil {
		return nil, fmt.Errorf("%w (index %d)", ErrForeignCommand, e.Index)
	}
	prev, found := m.state[cmd.Key]
	m.state[cmd.Key] = cmd.Value
	return encodeKVResult(found, prev), nil
}

// Query answers a key lookup; the query payload is the raw key.
func (m *kvMachine) Query(query []byte) ([]byte, error) {
	v, found := m.state[string(query)]
	return encodeKVResult(found, v), nil
}

// Snapshot serializes the full store.
func (m *kvMachine) Snapshot() ([]byte, error) { return json.Marshal(m.state) }

// MigrateOut removes and serializes the keys a rebalance routes elsewhere.
// Deterministic as the Migrator contract requires: the removal is a pure set
// operation and json.Marshal emits map keys sorted.
func (m *kvMachine) MigrateOut(moved func(key string) bool) ([]byte, int, error) {
	out := make(map[string]string)
	for k, v := range m.state {
		if moved(k) {
			out[k] = v
			delete(m.state, k)
		}
	}
	if len(out) == 0 {
		return nil, 0, nil
	}
	blob, err := json.Marshal(out)
	if err != nil {
		return nil, 0, fmt.Errorf("kv: migrate out: %w", err)
	}
	return blob, len(out), nil
}

// MigrateIn merges a MigrateOut export, keeping only the keys this group owns
// under the new ring (a removed shard's export fans out to every survivor).
func (m *kvMachine) MigrateIn(data []byte, owned func(key string) bool) (int, error) {
	if len(data) == 0 {
		return 0, nil
	}
	in := make(map[string]string)
	if err := json.Unmarshal(data, &in); err != nil {
		return 0, fmt.Errorf("kv: migrate in: %w", err)
	}
	n := 0
	for k, v := range in {
		if owned(k) {
			m.state[k] = v
			n++
		}
	}
	return n, nil
}

// Restore replaces the store with a snapshot.
func (m *kvMachine) Restore(snapshot []byte, _ uint64) error {
	state := make(map[string]string)
	if len(snapshot) > 0 {
		if err := json.Unmarshal(snapshot, &state); err != nil {
			return fmt.Errorf("kv: restore: %w", err)
		}
	}
	m.state = state
	return nil
}

// ShardedKVOptions configure a ShardedKV.
type ShardedKVOptions = ShardedOptions

// ShardedKV is a crash-tolerant key-value store sharded over independent
// replicated-log groups: a thin client of the generic Sharded layer with
// kvMachine plugged in as the StateMachine. Everything consensus-shaped —
// batching, read indexes, snapshots, slot GC — lives below; this type only
// encodes commands and decodes responses, which is the template for any new
// workload (a counter, a queue, a lock service).
type ShardedKV struct {
	s       *Sharded
	foreign atomic.Int64
}

// NewShardedKV builds the ring and one replicated-log group per shard, each
// applying its own kvMachine replicas. Foreign (untagged) committed entries
// are tallied through the commit hook — once per entry, regardless of how
// many machine instances apply it — chaining any caller-supplied OnCommit.
func NewShardedKV(opts ShardedKVOptions) (*ShardedKV, error) {
	kv := &ShardedKV{}
	userHook := opts.Log.OnCommit
	opts.Log.OnCommit = func(e LogEntry) {
		// Just the cheap tag check on the hot commit path (the hook runs on
		// the committer): a tagged-but-malformed command is the proposer's
		// bug, reported to them through Apply's ErrForeignCommand response.
		if !bytes.HasPrefix(e.Cmd, kvMagic) {
			kv.foreign.Add(1)
		}
		if userHook != nil {
			userHook(e)
		}
	}
	s, err := NewSharded(func() StateMachine { return newKVMachine() }, opts)
	if err != nil {
		return nil, fmt.Errorf("sharded kv: %w", err)
	}
	kv.s = s
	return kv, nil
}

// Put replicates key=value through the owning shard's log and returns the
// shard's name and the command's index in that shard's log. When Put returns,
// the write is committed and applied on every live replica.
func (kv *ShardedKV) Put(ctx context.Context, key, value string) (string, uint64, error) {
	name, index, _, err := kv.s.Propose(ctx, key, encodeKVCommand(key, value))
	if err != nil {
		return name, index, fmt.Errorf("sharded kv: put %q: %w", key, err)
	}
	return name, index, nil
}

// Get returns the last committed value of key from the owning shard's
// freshest local replica view — the lease holder's while its lease is in
// force, otherwise the most-applied view, so a stalled or deposed leader's
// frozen view never serves it. Local and immediate, but formally a stale
// read (use GetLinearizable for a full linearizability guarantee).
func (kv *ShardedKV) Get(key string) (string, bool) {
	resp, err := kv.s.StaleRead(key, []byte(key))
	if err != nil {
		return "", false
	}
	v, found, err := decodeKVResult(resp)
	if err != nil {
		return "", false
	}
	return v, found
}

// GetWithContext is Get bounded by ctx, with the error surfaced instead of
// folded into "not found": the read itself is local and immediate, but a key
// whose range is mid-handoff waits for the handoff to commit, and that wait
// honors ctx — so a network front-end can enforce its request deadline on
// the stale-read path. Same consistency contract as Get: local, formally
// stale, served from the owning shard's freshest available replica view.
func (kv *ShardedKV) GetWithContext(ctx context.Context, key string) (string, bool, error) {
	resp, err := kv.s.StaleReadContext(ctx, key, []byte(key))
	if err != nil {
		return "", false, fmt.Errorf("sharded kv: get %q: %w", key, err)
	}
	return decodeKVResult(resp)
}

// GetLinearizable returns the value of key with a full linearizability
// guarantee: it observes every Put that returned before the call started,
// wherever it was issued. While the owning shard's leader holds an unexpired
// lease (Options.LeaseDuration > 0) the read is served locally with ZERO
// consensus slots — the lease fast path — and only falls back to the
// read-index barrier (one no-op slot commit, or a ride on a concurrent
// batch) when the lease is absent, expired or in doubt. LogStats splits the
// two paths into LeaseReads and BarrierReads.
func (kv *ShardedKV) GetLinearizable(ctx context.Context, key string) (string, bool, error) {
	resp, err := kv.s.Read(ctx, key, []byte(key))
	if err != nil {
		return "", false, fmt.Errorf("sharded kv: get %q: %w", key, err)
	}
	return decodeKVResult(resp)
}

// AddShard grows the store by one shard group under live traffic: the moved
// key ranges (an expected 1/(S+1) fraction) are drained into the new group
// with no downtime and no lost or forked keys. See Sharded.AddShard for the
// handoff, forwarding and failure semantics.
func (kv *ShardedKV) AddShard(ctx context.Context, name string) error {
	return kv.s.AddShard(ctx, name)
}

// RemoveShard drains the named shard's whole key space into the surviving
// groups and retires its log. See Sharded.RemoveShard.
func (kv *ShardedKV) RemoveShard(ctx context.Context, name string) error {
	return kv.s.RemoveShard(ctx, name)
}

// ForeignEntries reports how many committed entries across all shards were
// skipped because they did not carry the KV wire tag.
func (kv *ShardedKV) ForeignEntries() int64 { return kv.foreign.Load() }

// Shard returns the name of the shard that owns key.
func (kv *ShardedKV) Shard(key string) string { return kv.s.Shard(key) }

// ShardLog returns the replicated log behind the named shard (for fault
// injection and inspection).
func (kv *ShardedKV) ShardLog(name string) *Log { return kv.s.ShardLog(name) }

// Shards returns the shard names in stable order.
func (kv *ShardedKV) Shards() []string { return kv.s.Shards() }

// RingConfig returns the authoritative ring's geometry (shard names plus
// virtual-node count), from which a remote client rebuilds an identically
// routing ring. See Sharded.RingConfig.
func (kv *ShardedKV) RingConfig() ([]string, int) { return kv.s.RingConfig() }

// Len returns the total number of committed commands across all shards.
func (kv *ShardedKV) Len() uint64 { return kv.s.Len() }

// Stats aggregates the per-shard log counters plus the rebalancing view
// (shards, completed rebalances, migrated keys, forwarded operations).
func (kv *ShardedKV) Stats() ShardedStats { return kv.s.Stats() }

// Metrics snapshots the store-wide slot-lifecycle instrumentation (all
// shards aggregate into one registry; see Sharded.Metrics and LogMetrics).
func (kv *ShardedKV) Metrics() LogMetrics { return kv.s.Metrics() }

// Registry returns the store's shared metrics registry, for text exposition
// and expvar publication.
func (kv *ShardedKV) Registry() *MetricsRegistry { return kv.s.Registry() }

// Close shuts every shard's log down. Idempotent.
func (kv *ShardedKV) Close() { kv.s.Close() }
