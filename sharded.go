package rdmaagreement

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"rdmaagreement/internal/metrics"
	"rdmaagreement/internal/shard"
	"rdmaagreement/internal/smr"
	"rdmaagreement/internal/trace"
	"rdmaagreement/internal/types"
)

// ShardedKVOptions configure a ShardedKV.
type ShardedKVOptions struct {
	// Shards is the number of independent replicated-log groups. Zero means 4.
	Shards int
	// VirtualNodes is the ring's virtual-node count per shard, at most 4,096.
	// Zero means shard.DefaultVirtualNodes.
	VirtualNodes int
	// Log configures each shard's replicated log (protocol, topology,
	// batching, snapshot interval). The zero value is a 3-process, 3-memory
	// Protected Memory Paxos group. Log.NewSM is overridden: every group
	// applies the store's own state machine.
	Log LogOptions
}

// Rebalancing errors, matchable with errors.Is.
var (
	// ErrKeyMoved is the application-level rejection a shard group commits
	// for a command or query whose key it no longer owns: a rebalance moved
	// the key's range away. ShardedKV handles it internally by
	// retrying against the new owner (counted in ShardedStats.Forwarded);
	// only raw log-level clients, which bypass routing, observe it directly.
	ErrKeyMoved = errors.New("sharded: key is owned by another shard")
	// ErrRebalanceInProgress is returned by AddShard/RemoveShard while a
	// DIFFERENT rebalance is incomplete. Re-invoking the same operation
	// resumes it instead.
	ErrRebalanceInProgress = errors.New("sharded: another rebalance is still incomplete; retry it to completion first")
)

// KeyMovedError is the structured form of an ErrKeyMoved refusal: it names
// the group that refused the operation and the group its committed ring now
// routes the key to, so a routing layer that learns of the refusal — the
// network client in particular — can re-route directly instead of
// rediscovering the whole ring. It matches both errors.Is(err, ErrKeyMoved)
// and errors.As(err, &KeyMovedError{}).
type KeyMovedError struct {
	// Key is the routing key the refused operation carried.
	Key string
	// From is the group that committed the refusal (the key's old owner).
	From string
	// Owner is the group From's committed ring config routes the key to.
	Owner string
	// Index is the log index of the committed refusal; 0 for query-path
	// refusals, which commit nothing.
	Index uint64
}

func (e *KeyMovedError) Error() string {
	if e.Index > 0 {
		return fmt.Sprintf("%v: %q left %s for %s (index %d)", ErrKeyMoved, e.Key, e.From, e.Owner, e.Index)
	}
	return fmt.Sprintf("%v: %q is not served by %s (owner %s)", ErrKeyMoved, e.Key, e.From, e.Owner)
}

// Unwrap keeps the errors.Is(err, ErrKeyMoved) contract every existing
// retry loop relies on.
func (e *KeyMovedError) Unwrap() error { return ErrKeyMoved }

// ShardedStats aggregate the per-shard log counters (see LogStats for the
// embedded fields' semantics: sums across shards, except Epoch is the maximum
// and PipelineDepth the minimum over LIVE groups — a closed group reports
// depth 0 and is skipped, so it cannot masquerade as the most backed-off one)
// plus the rebalancing view.
type ShardedStats struct {
	LogStats
	// Shards is the current number of groups (AddShard/RemoveShard change it).
	Shards int
	// Rebalances counts completed AddShard/RemoveShard operations.
	Rebalances uint64
	// Migrated counts keys handed off between groups by those rebalances.
	Migrated uint64
	// Forwarded counts operations (Put and every Get) that were refused
	// by a key's old owner mid-rebalance and retried against the new owner.
	Forwarded uint64
}

// migration is one in-flight AddShard/RemoveShard: the ring it is moving to
// and the per-source handoff progress. done/ready are guarded by ShardedKV.mu
// (route reads them); exports is touched only under rebalanceMu.
type migration struct {
	epoch   uint64
	next    *shard.Ring
	target  string                   // shard being added ("" for a removal)
	removed string                   // shard being removed ("" for an addition)
	done    map[string]bool          // ceding source → its range's handoff has committed
	ready   map[string]chan struct{} // closed when the source's handoff commits
	exports map[string]migrateResult // exported but not yet fully imported ranges
}

func (m *migration) describe() string {
	if m.target != "" {
		return fmt.Sprintf("AddShard(%s)", m.target)
	}
	return fmt.Sprintf("RemoveShard(%s)", m.removed)
}

// ShardedKV is a crash-tolerant key-value store sharded over independent
// replicated-log groups on a consistent-hash ring: every group applies its
// own kvMachine replicas, so unrelated keys commit — and snapshot, and
// garbage-collect — in parallel while each key still enjoys the underlying
// protocol's resilience. Everything consensus-shaped — batching, read
// indexes, snapshots, slot GC — lives below in the logs; this type routes
// keys, frames commands and decodes responses. A workload other than a
// string map plugs in one level down, at NewLog.
//
// Keys never span shards, so per-key ordering is exactly per-shard log
// ordering; cross-shard operations get no atomicity.
//
// The shard set is LIVE: AddShard and RemoveShard rebalance the ring under
// traffic, draining each moved key range through the logs it leaves and
// enters (a committed migrate-out in the ceding group, a committed migrate-in
// in the receiving one) while the ownership gate in every group's machine
// refuses writes and reads for keys the group has ceded — a refused operation
// is retried against the new owner (ShardedStats.Forwarded), so a moving key
// is never lost and never forked across groups.
type ShardedKV struct {
	logOpts LogOptions // per-group template; NewSM is set per group

	// metrics is the registry every group records into — one per store (or
	// the caller's, via ShardedKVOptions.Log.Metrics), so the slot-lifecycle
	// instrumentation aggregates across shards for free.
	metrics *metrics.Registry

	mu       sync.RWMutex
	ring     *shard.Ring         // guarded by mu
	logs     map[string]*smr.Log // guarded by mu
	mig      *migration          // guarded by mu
	migEpoch uint64              // guarded by mu
	closed   bool                // guarded by mu

	// rebalanceMu serializes whole AddShard/RemoveShard operations.
	rebalanceMu sync.Mutex

	rebalances atomic.Uint64
	migrated   atomic.Uint64
	forwarded  atomic.Uint64
	foreign    atomic.Int64
}

// NewShardedKV builds the ring and one replicated-log group per shard, each
// applying its own kvMachine replicas (one authoritative machine plus one
// learner view per replica). Foreign (untagged) committed entries are
// tallied through the commit hook — once per entry, regardless of how many
// machine instances apply it — chaining any caller-supplied OnCommit.
func NewShardedKV(opts ShardedKVOptions) (*ShardedKV, error) {
	if opts.VirtualNodes > maxVirtualNodes {
		return nil, fmt.Errorf("sharded kv: %w: %d virtual nodes per shard, at most %d",
			types.ErrInvalidConfig, opts.VirtualNodes, maxVirtualNodes)
	}
	if opts.Shards <= 0 {
		opts.Shards = 4
	}
	if opts.Log.Metrics == nil {
		// One registry across every group (including those added by later
		// rebalances): counters, histogram buckets and delta-maintained
		// gauges then sum into a store-wide view (ShardedKV.Metrics).
		opts.Log.Metrics = metrics.NewRegistry()
	}
	names := shard.ShardNames(opts.Shards)
	kv := &ShardedKV{
		metrics: opts.Log.Metrics,
		ring:    shard.New(names, opts.VirtualNodes),
		logs:    make(map[string]*smr.Log, opts.Shards),
	}
	userHook := opts.Log.OnCommit
	opts.Log.OnCommit = func(e LogEntry) {
		// Application hooks see the application's commands: they skip both
		// the migration plumbing and gate-refused commands (committed
		// entries that changed no state — a refused write is retried and
		// fires the hook once, at the owner that applied it). Their indices
		// appear to the hook as gaps. Raw log-level entries pass through
		// untouched, rejected or not. A tagged-but-malformed command is the
		// proposer's bug, reported to them through Apply's
		// ErrForeignCommand response, and is not counted as foreign.
		_, _, mig, ok := decodeKVCommand(e.Cmd)
		switch {
		case mig != nil, ok && e.Rejected:
			return
		case !ok && !bytes.HasPrefix(e.Cmd, kvMagic):
			kv.foreign.Add(1)
		}
		if userHook != nil {
			userHook(e)
		}
	}
	kv.logOpts = opts.Log
	for _, name := range names {
		l, err := kv.makeLog(name)
		if err != nil {
			kv.Close()
			return nil, fmt.Errorf("sharded kv: shard %s: %w", name, err)
		}
		kv.logs[name] = l
	}
	return kv, nil
}

// makeLog builds one group's replicated log, its machines gated for the
// group's name.
func (kv *ShardedKV) makeLog(name string) (*smr.Log, error) {
	logOpts := kv.logOpts
	logOpts.NewSM = func() StateMachine { return newKVMachine(name) }
	return smr.NewLog(logOpts)
}

// route resolves the group that currently serves key: by the authoritative
// ring, except that a key whose range has completed its handoff mid-rebalance
// already routes to its new owner. For a key whose range is still moving it
// returns the (refusing-soon) old owner plus the channel closed when the
// range's handoff commits — the forwarding loops wait on it before retrying.
func (kv *ShardedKV) route(key string) (name string, l *smr.Log, handedOff <-chan struct{}, err error) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	if kv.closed {
		return "", nil, nil, ErrLogClosed
	}
	name, handedOff = kv.ownerLocked(key)
	l, ok := kv.logs[name]
	if !ok {
		return "", nil, nil, fmt.Errorf("sharded kv: no shard for key %q", key)
	}
	return name, l, handedOff, nil
}

// forward handles one refused operation: count it, then wait for the moving
// range's handoff to commit before the caller re-routes — bounded by ctx
// and, when bound > 0, by that duration (the timer is created only here, on
// the rare actually-waiting path, never on a hot read). A nil channel means
// the routing view has already moved on — re-routing alone suffices.
func (kv *ShardedKV) forward(ctx context.Context, handedOff <-chan struct{}, bound time.Duration) error {
	kv.forwarded.Add(1)
	if handedOff == nil {
		return nil
	}
	var expired <-chan time.Time // nil, so never ready, unless bounded
	if bound > 0 {
		t := time.NewTimer(bound)
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-handedOff:
		return nil
	case <-expired:
		return fmt.Errorf("%w (handoff still in flight after %v)", ErrKeyMoved, bound)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// withOwner is the one routing-retry loop behind Put and every Get: run op
// against key's current owner; on a committed ownership refusal, wait for
// the moving range's handoff (bounded by ctx, and by waitBound if positive)
// and retry at the new owner; on a closed log that turns out to be a removed
// shard, just re-route. Any other error — including application-level
// rejections, whose op may have captured a valid index and response — is
// final and wrapped with the verb.
func (kv *ShardedKV) withOwner(ctx context.Context, verb, key string, waitBound time.Duration, op func(l *smr.Log) error) (string, error) {
	for {
		name, l, handedOff, err := kv.route(key)
		if err != nil {
			return "", fmt.Errorf("sharded kv: %s %q: %w", verb, key, err)
		}
		err = op(l)
		switch {
		case err == nil:
			return name, nil
		case errors.Is(err, ErrKeyMoved):
			if werr := kv.forward(ctx, handedOff, waitBound); werr != nil {
				return name, fmt.Errorf("sharded kv: %s %q: %w", verb, key, werr)
			}
		case errors.Is(err, ErrLogClosed) && kv.rerouted(key, name):
			kv.forwarded.Add(1)
		default:
			return name, fmt.Errorf("sharded kv: %s %q: %w", verb, key, err)
		}
	}
}

// rerouted reports whether key now routes somewhere other than name — the
// retry test for operations that raced a shard removal.
func (kv *ShardedKV) rerouted(key, name string) bool {
	newName, _, _, err := kv.route(key)
	return err == nil && newName != name
}

// ownerLocked resolves the group that currently serves key — the
// authoritative ring, except that a key whose range has completed its
// mid-rebalance handoff already names its new owner. When the key's range is
// still moving it additionally returns the channel closed when the handoff
// commits. Callers must hold kv.mu (read or write).
//
//smrlint:holds mu
func (kv *ShardedKV) ownerLocked(key string) (name string, handedOff <-chan struct{}) {
	name = kv.ring.Shard(key)
	if kv.mig != nil {
		if next := kv.mig.next.Shard(key); next != name {
			if kv.mig.done[name] {
				name = next
			} else {
				handedOff = kv.mig.ready[name]
			}
		}
	}
	return name, handedOff
}

// Put replicates key=value through the owning shard's log and returns the
// shard's name and the command's index in that shard's log. When Put returns,
// the write is committed and applied on every live replica. If a rebalance
// moves the key's range mid-flight, the old owner commits a refusal instead
// of a write and Put transparently retries against the new owner (counted in
// ShardedStats.Forwarded).
func (kv *ShardedKV) Put(ctx context.Context, key, value string) (string, uint64, error) {
	cmd := encodeKVCommand(key, value)
	var index uint64
	name, err := kv.withOwner(ctx, "put", key, 0, func(l *smr.Log) error {
		var err error
		index, _, err = l.Propose(ctx, cmd)
		return err
	})
	return name, index, err
}

// Get returns the last committed value of key from the owning shard's
// freshest local replica view — the lease holder's while its lease is in
// force, otherwise the most-applied view, so a stalled or deposed leader's
// frozen view never serves it. Local and immediate, but formally a stale
// read (use GetLinearizable for a full linearizability guarantee). During a
// rebalance the staleness window extends across the handoff: a key that just
// moved may briefly read as absent on a destination replica that has not
// applied the import yet.
func (kv *ShardedKV) Get(key string) (string, bool) {
	v, found, err := kv.GetWithContext(context.Background(), key)
	if err != nil {
		return "", false
	}
	return v, found
}

// staleForwardWait bounds how long a stale read waits for a moving range's
// handoff before giving up. Handoffs commit in a few slot round trips, so a
// generous bound only ever bites when a rebalance is stuck.
const staleForwardWait = 2 * time.Second

// GetWithContext is Get bounded by ctx, with the error surfaced instead of
// folded into "not found": the read itself is local and immediate, but a key
// whose range is mid-handoff waits for the handoff to commit before retrying
// at the new owner, and that wait honors ctx — so a network front-end can
// enforce its request deadline on the stale-read path. The staleForwardWait
// bound still applies on top, so a stuck rebalance degrades to an error even
// under a generous ctx (the timer exists only on the actually-waiting path;
// the hot local-read case pays nothing for it).
func (kv *ShardedKV) GetWithContext(ctx context.Context, key string) (string, bool, error) {
	// The local read never blocks, so an already-dead ctx would otherwise
	// still succeed; callers handed a canceled request deserve a refusal.
	if err := ctx.Err(); err != nil {
		return "", false, fmt.Errorf("sharded kv: get %q: %w", key, err)
	}
	return kv.get(ctx, "get", key, staleForwardWait, func(l *smr.Log, query []byte) ([]byte, error) {
		return l.LocalRead(query)
	})
}

// GetLinearizable returns the value of key with a full linearizability
// guarantee: it observes every Put that returned before the call started,
// wherever it was issued — across rebalances too: once the key's new owner
// serves reads, it has imported every write its old owner committed. While
// the owning shard's leader holds an unexpired lease
// (Options.LeaseDuration > 0) the read is served locally with ZERO consensus
// slots — the lease fast path — and only falls back to the read-index
// barrier (one no-op slot commit, or a ride on a concurrent batch) when the
// lease is absent, expired or in doubt. LogStats splits the two paths into
// LeaseReads and BarrierReads.
func (kv *ShardedKV) GetLinearizable(ctx context.Context, key string) (string, bool, error) {
	return kv.get(ctx, "linearizable get", key, 0, func(l *smr.Log, query []byte) ([]byte, error) {
		return l.Read(ctx, query)
	})
}

// get routes one framed query for key through read and decodes the answer.
func (kv *ShardedKV) get(ctx context.Context, verb, key string, waitBound time.Duration, read func(l *smr.Log, query []byte) ([]byte, error)) (string, bool, error) {
	query := encodeKVCommand(key, "")
	var resp []byte
	_, err := kv.withOwner(ctx, verb, key, waitBound, func(l *smr.Log) error {
		var err error
		resp, err = read(l, query)
		return err
	})
	if err != nil {
		return "", false, err
	}
	return decodeKVResult(resp)
}

// AddShard grows the store by one group under live traffic: it builds the
// new group, computes the key ranges that move to it (an expected 1/(S+1)
// fraction, per consistent hashing's minimal movement), and drains each
// ceding group through its own log — a committed migrate-out carves the moved
// sub-state out of the source (after a Barrier so the export covers every
// write routed there before the rebalance began) and a committed migrate-in
// merges it into the new group. From the moment a source's cede commits, its
// machine refuses operations on the moved keys; the store retries them
// against the new owner once the range's import commits, so no write is
// lost, no key is served by two groups, and no downtime is taken.
//
// Adding an existing shard is a no-op, and a name that is not valid UTF-8
// is refused with ErrInvalidConfig before anything commits. If AddShard
// fails partway (context expired, a group halted), the moved ranges whose
// cede committed stay unavailable until AddShard is called again with the
// same name — it resumes the interrupted handoffs idempotently (duplicate
// migration commands replay or no-op by epoch). A rebalance for a different
// shard cannot start until then (ErrRebalanceInProgress).
func (kv *ShardedKV) AddShard(ctx context.Context, name string) error {
	return kv.rebalanceShards(ctx, name, "")
}

// RemoveShard shrinks the store by one group under live traffic: the removed
// group's whole key space is exported through its log and fanned out to every
// surviving group (each merges exactly the keys the new ring routes to it),
// after which the group's log is closed. Removing an unknown shard is a
// no-op; removing the last shard is an error. Name checks, failure and
// resume semantics match AddShard.
func (kv *ShardedKV) RemoveShard(ctx context.Context, name string) error {
	return kv.rebalanceShards(ctx, "", name)
}

func (kv *ShardedKV) rebalanceShards(ctx context.Context, add, remove string) error {
	// The ring travels to the groups inside JSON migrate commands, which
	// would rewrite a name that is not valid UTF-8: the cede would commit,
	// then every import would be refused as built for another group.
	if name := add + remove; !utf8.ValidString(name) {
		return fmt.Errorf("sharded kv: shard name %q: %w: not valid UTF-8", name, types.ErrInvalidConfig)
	}
	kv.rebalanceMu.Lock()
	defer kv.rebalanceMu.Unlock()

	kv.mu.RLock()
	closed, mig := kv.closed, kv.mig
	_, addExists := kv.logs[add]
	_, removeExists := kv.logs[remove]
	size := kv.ring.Size()
	kv.mu.RUnlock()
	if closed {
		return fmt.Errorf("sharded kv: rebalance: %w", ErrLogClosed)
	}
	if mig != nil && (mig.target != add || mig.removed != remove) {
		return fmt.Errorf("%w: %s", ErrRebalanceInProgress, mig.describe())
	}
	if mig == nil {
		switch {
		case add != "" && addExists:
			return nil // already a member
		case remove != "" && !removeExists:
			return nil // already gone
		case remove != "" && size <= 1:
			return fmt.Errorf("sharded kv: cannot remove the last shard %q", remove)
		}
		var addLog *smr.Log
		if add != "" {
			var err error
			if addLog, err = kv.makeLog(add); err != nil {
				return fmt.Errorf("sharded kv: shard %s: %w", add, err)
			}
		}
		kv.mu.Lock()
		if kv.closed {
			kv.mu.Unlock()
			if addLog != nil {
				addLog.Close()
			}
			return fmt.Errorf("sharded kv: rebalance: %w", ErrLogClosed)
		}
		next := kv.ring.Clone()
		if add != "" {
			next.Add(add)
		} else {
			next.Remove(remove)
		}
		kv.migEpoch++
		mig = &migration{
			epoch:   kv.migEpoch,
			next:    next,
			target:  add,
			removed: remove,
			done:    make(map[string]bool),
			ready:   make(map[string]chan struct{}),
			exports: make(map[string]migrateResult),
		}
		for _, src := range shard.Ceders(kv.ring, next) {
			mig.ready[src] = make(chan struct{})
		}
		if addLog != nil {
			kv.logs[add] = addLog
		}
		kv.mig = mig
		kv.mu.Unlock()
	}

	// Drain each still-pending source, in stable order.
	sources := make([]string, 0, len(mig.ready))
	for src := range mig.ready {
		sources = append(sources, src)
	}
	sort.Strings(sources)
	for _, src := range sources {
		kv.mu.RLock()
		done := mig.done[src]
		kv.mu.RUnlock()
		if done {
			continue
		}
		if err := kv.handoff(ctx, mig, src); err != nil {
			return err
		}
	}

	// Every range handed off: publish the new ring and retire the migration.
	kv.mu.Lock()
	kv.ring = mig.next
	kv.mig = nil
	var closing *smr.Log
	if remove != "" {
		closing = kv.logs[remove]
		delete(kv.logs, remove)
	}
	kv.mu.Unlock()
	kv.rebalances.Add(1)
	if closing != nil {
		closing.Close()
	}
	return nil
}

// importTimeout bounds the import half of a handoff, which runs detached from
// the caller's context: once a source has committed its cede, cancelling the
// caller must not strand the exported range in limbo.
const importTimeout = 10 * time.Minute

// handoff drains one ceding group's moved ranges: barrier, committed export,
// committed import(s), then mark the range as handed off so routing moves and
// forwarded operations retry.
func (kv *ShardedKV) handoff(ctx context.Context, mig *migration, src string) error {
	kv.mu.RLock()
	srcLog := kv.logs[src]
	kv.mu.RUnlock()
	if srcLog == nil {
		return fmt.Errorf("sharded kv: ceding shard %s has no log", src)
	}

	res, exported := mig.exports[src]
	if !exported {
		// Flush the source's queue first so the export commits strictly after
		// every write routed there before the rebalance began.
		if _, err := srcLog.Barrier(ctx); err != nil {
			return fmt.Errorf("sharded kv: barrier before migrating out of %s: %w", src, err)
		}
		out := encodeMigrate(migrateCmd{
			Out: true, Epoch: mig.epoch, Shards: mig.next.Shards(), VNodes: mig.next.VirtualNodes(), Group: src,
		})
		_, resp, err := proposeRetry(ctx, srcLog, out)
		if err != nil {
			return fmt.Errorf("sharded kv: migrate out of %s: %w", src, err)
		}
		if err := json.Unmarshal(resp, &res); err != nil {
			return fmt.Errorf("sharded kv: migrate out of %s: decode result: %w", src, err)
		}
		mig.exports[src] = res
		traceMigrate(srcLog, "migrate-out committed in %s: %d keys ceded (epoch %d)", src, res.Keys, mig.epoch)
	}

	// The cede is committed: the moved range exists only in res now. Run the
	// imports under a detached context so the caller's cancellation cannot
	// strand it.
	ictx, cancel := context.WithTimeout(context.Background(), importTimeout)
	defer cancel()
	dests := []string{mig.target}
	if mig.target == "" {
		dests = mig.next.Shards() // a removal fans out to every survivor
	}
	for _, dest := range dests {
		kv.mu.RLock()
		destLog := kv.logs[dest]
		kv.mu.RUnlock()
		if destLog == nil {
			return fmt.Errorf("sharded kv: import destination %s has no log", dest)
		}
		in := encodeMigrate(migrateCmd{
			Epoch: mig.epoch, Shards: mig.next.Shards(), VNodes: mig.next.VirtualNodes(),
			Group: dest, Source: src, Data: res.Data,
		})
		_, resp, err := proposeRetry(ictx, destLog, in)
		if err != nil {
			return fmt.Errorf("sharded kv: import %s's range into %s: %w (range unavailable until the rebalance is retried to completion)", src, dest, err)
		}
		var ires migrateResult
		if err := json.Unmarshal(resp, &ires); err != nil {
			return fmt.Errorf("sharded kv: import into %s: decode result: %w", dest, err)
		}
		kv.migrated.Add(uint64(ires.Keys))
		traceMigrate(destLog, "migrate-in committed in %s: %d keys merged from %s (epoch %d)", dest, ires.Keys, src, mig.epoch)
	}

	// Every import is committed: tell the source it may drop its export
	// outbox (best-effort — the ack only bounds memory; a lost ack leaves
	// the outbox until the next rebalance). A group being removed skips it:
	// its log closes in a moment anyway.
	if src != mig.removed {
		_, _, _ = proposeRetry(ictx, srcLog, encodeMigrate(migrateCmd{
			Ack: true, Epoch: mig.epoch, Shards: mig.next.Shards(), VNodes: mig.next.VirtualNodes(), Group: src,
		}))
	}

	delete(mig.exports, src)
	kv.mu.Lock()
	mig.done[src] = true
	close(mig.ready[src])
	kv.mu.Unlock()
	return nil
}

// traceMigrate records one leg of a shard handoff into the group's trace
// recorder (LogOptions.Cluster.Recorder). Nil-safe like every Recorder call.
func traceMigrate(l *smr.Log, format string, args ...any) {
	c := l.Cluster()
	c.Opts.Recorder.Record(c.LeaseHolder(), trace.KindShardMigrate, nil, 0, format, args...)
}

// proposeRetry re-proposes a migration command displaced by a lease takeover:
// ErrLeaseLost's contract is that the command provably did not commit, so
// re-proposing cannot double-apply (and migration commands are additionally
// idempotent by epoch).
func proposeRetry(ctx context.Context, l *smr.Log, cmd []byte) (uint64, []byte, error) {
	for {
		index, resp, err := l.Propose(ctx, cmd)
		if err == nil || !errors.Is(err, ErrLeaseLost) {
			return index, resp, err
		}
	}
}

// ForeignEntries reports how many committed entries across all shards were
// skipped because they did not carry a wire tag.
func (kv *ShardedKV) ForeignEntries() int64 { return kv.foreign.Load() }

// Shard returns the name of the shard that currently serves key (mid-
// rebalance, a key whose range has completed its handoff already names its
// new owner).
func (kv *ShardedKV) Shard(key string) string {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	name, _ := kv.ownerLocked(key)
	return name
}

// ShardLog returns the replicated log behind the named shard (for fault
// injection and inspection), or nil if no such shard exists.
func (kv *ShardedKV) ShardLog(name string) *Log {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.logs[name]
}

// Shards returns the shard names in stable order (the authoritative ring: a
// shard being added appears once its rebalance completes, one being removed
// disappears then).
func (kv *ShardedKV) Shards() []string {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.ring.Shards()
}

// RingConfig returns the authoritative ring's geometry — the shard names in
// stable order plus the virtual-node count per shard. A ring of identical
// routing built elsewhere from exactly these two values (NewRing) is how a
// remote client mirrors the router without sharing its memory.
func (kv *ShardedKV) RingConfig() (shards []string, vnodes int) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.ring.Shards(), kv.ring.VirtualNodes()
}

// groups returns every group's log, a group mid-join or parked by an
// interrupted rebalance included.
func (kv *ShardedKV) groups() []*smr.Log {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	logs := make([]*smr.Log, 0, len(kv.logs))
	for _, l := range kv.logs {
		logs = append(logs, l)
	}
	return logs
}

// Stats aggregates the per-shard counters (see ShardedStats): recovery,
// takeover and read counters are summed across shards; Epoch is the MAXIMUM
// shard epoch (the most-failed-over group) and PipelineDepth the MINIMUM
// adaptive depth over LIVE groups — a closed or removed group reports 0 and
// is skipped, so it cannot masquerade as the most-backed-off one.
func (kv *ShardedKV) Stats() ShardedStats {
	total := ShardedStats{
		// Shards is the authoritative ring's size, matching Shards(): a group
		// mid-join (or parked by an interrupted AddShard) is not a member yet,
		// even though its log already exists for the handoff.
		Shards:     len(kv.Shards()),
		Rebalances: kv.rebalances.Load(),
		Migrated:   kv.migrated.Load(),
		Forwarded:  kv.forwarded.Load(),
	}
	for _, l := range kv.groups() {
		stats := l.Stats()
		total.Recovered += stats.Recovered
		total.Refused += stats.Refused
		total.Takeovers += stats.Takeovers
		total.LeaseReads += stats.LeaseReads
		total.BarrierReads += stats.BarrierReads
		total.PipelineBackoffs += stats.PipelineBackoffs
		if stats.Epoch > total.Epoch {
			total.Epoch = stats.Epoch
		}
		if stats.PipelineDepth > 0 && (total.PipelineDepth == 0 || stats.PipelineDepth < total.PipelineDepth) {
			total.PipelineDepth = stats.PipelineDepth
		}
	}
	return total
}

// Metrics snapshots the store-wide slot-lifecycle instrumentation: every
// shard group records into one shared registry, so the counters, per-stage
// latency histograms and queue gauges here aggregate all groups — including
// any added or removed by rebalances — with no merge step. Safe to call from
// any goroutine mid-workload; see Log.Metrics for the stage semantics.
func (kv *ShardedKV) Metrics() LogMetrics { return smr.MetricsFrom(kv.metrics) }

// Registry returns the shared metrics registry behind Metrics, for text
// exposition (WriteText) and expvar publication.
func (kv *ShardedKV) Registry() *MetricsRegistry { return kv.metrics }

// Len returns the total number of committed commands across all shards
// (migration commands included: they are log entries like any other).
func (kv *ShardedKV) Len() uint64 {
	var total uint64
	for _, l := range kv.groups() {
		total += l.Len()
	}
	return total
}

// Close shuts every shard's log down. Like Log.Close it is idempotent.
func (kv *ShardedKV) Close() {
	kv.mu.Lock()
	kv.closed = true
	kv.mu.Unlock()

	var wg sync.WaitGroup
	for _, l := range kv.groups() {
		wg.Add(1)
		go func(l *smr.Log) {
			defer wg.Done()
			l.Close()
		}(l)
	}
	wg.Wait()
}
