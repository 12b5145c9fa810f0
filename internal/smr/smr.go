// Package smr builds a replicated state machine on top of the single-shot
// agreement protocols: one long-lived cluster serves an unbounded sequence of
// consensus instances (slots), one decided batch of commands per slot, and a
// pluggable StateMachine consumes the decided log.
//
// The paper's protocols decide a single value per deployment; serving real
// traffic needs a log of decisions. A Log owns one core.Cluster and
// multiplexes slots over its shared memories and network via
// core.Cluster.NewInstance, so committing entry k+1 reuses every substrate
// that committed entry k — no per-entry cluster construction, no per-entry
// memory pools, no per-entry network goroutines.
//
// Commands submitted concurrently are batched: a committer goroutine drains
// the queue and agrees on many commands as one slot value, so slot throughput
// amortizes over batch size while each command still gets its own log index.
// Batches preserve arrival order, which gives per-client FIFO: a client that
// submits its commands in order observes them committed in order.
//
// Slot agreement is pipelined: up to Options.Pipeline batches run their slots
// concurrently, each on its own consensus instance, so log throughput is
// bounded by the memory fabric rather than by sequential slot latency. A
// reorder buffer applies decided slots to the StateMachine strictly in slot
// order, so commit order stays gap-free and every prefix-derived artifact
// (responses, read indexes, snapshots, slot GC) is keyed to the contiguous
// applied prefix. A slot whose agreement times out mid-flight — an ambiguous
// outcome: its value may or may not be durable — no longer halts the group:
// a recovery round re-proposes a no-op into the slot from another replica to
// learn its decided fate, and a displaced batch is retried at a later slot,
// exactly once (see Stats).
//
// Leadership is a lease, not a constant: the committer proposes from the
// cluster's current lease holder (core.Cluster.LeaseHolder), and when the
// holder stalls — its heartbeats stop and the lease expires — a follower
// replica takes over under a bumped epoch. The takeover fences the old
// epoch: in-flight proposals of the superseded holder are cancelled and
// their slots re-run from the new holder through the recovery machinery,
// whose phase-1 permission steal guarantees a deposed leader's writes cannot
// decide after its epoch ends, while any batch that already persisted is
// adopted rather than lost. The reorder buffer carries across the epoch
// change untouched — slots still apply in slot order, whoever proposed them
// — and a batch displaced twice by the transition fails its waiters with the
// typed, retryable ErrLeaseLost instead of committing ambiguously.
//
// The application side is the classic RSM contract (StateMachine): Propose
// replicates a command and returns the machine's response for it; Read and
// ReadFrom serve linearizable queries in two steps, read index (lease or
// Barrier), then query — the read index is the applied prefix itself while
// the group's lease is in force (zero consensus slots: the lease is exactly
// the guarantee that no other proposer can have committed unseen writes) and
// a Barrier through the slot sequence otherwise, and the query then runs on a
// machine that has applied at least through it; StaleRead serves local,
// possibly-stale queries from a replica's learner view. Every
// SnapshotInterval applied entries the committer snapshots the
// machine and truncates the decided prefix — releasing the per-slot memory
// regions — so live memory is bounded by the machine's state plus one
// interval, not by log length; a replica that missed truncated slots is
// restored from the snapshot instead of replaying them.
package smr

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rdmaagreement/internal/core"
	"rdmaagreement/internal/metrics"
	"rdmaagreement/internal/trace"
	"rdmaagreement/internal/types"
)

// Options configure a Log.
type Options struct {
	// Protocol is the agreement protocol run per slot: Protected Memory Paxos
	// (the paper's 2-deciding crash algorithm; the default when empty) or
	// classic Paxos (the 4-delay message-passing baseline). Any other
	// protocol is single-shot only and NewLog fails with
	// types.ErrInvalidConfig.
	Protocol core.Protocol
	// Cluster describes the long-lived cluster (topology, failure bounds,
	// timing).
	Cluster core.Options
	// NewSM builds the group's state machines: one authoritative machine
	// applied by the committer (it produces Propose responses and the
	// snapshots behind slot GC) plus one learner view per replica (behind
	// StaleRead). Nil means a no-op machine: the Log is then a plain
	// replicated log of opaque commands.
	NewSM func() StateMachine
	// SnapshotInterval is the number of applied entries — or decided slots,
	// whichever threshold is crossed first, so that no-op read-barrier slots
	// are collected too — between committer snapshots. Each snapshot
	// truncates the decided slot prefix and releases its per-slot memory
	// regions, bounding live memory independent of log length. Zero means
	// 1024 when NewSM is set, and disabled when it is not:
	// a plain log's entries ARE its state, and a no-op machine's snapshot
	// could never bring them back. Negative disables snapshots and
	// truncation explicitly.
	SnapshotInterval int
	// MaxBatch bounds how many queued commands are agreed as one slot value.
	// Zero means 64.
	MaxBatch int
	// BatchWait is the coalescing horizon of adaptive group commit: when
	// the pending queue holds fewer commands than the budgets allow, the
	// dispatcher waits up to BatchWait — measured from the oldest queued
	// command's enqueue — for more arrivals before cutting the batch, so
	// batch size tracks offered load instead of whatever fragment the
	// scheduler happened to deliver. A full budget or a queued read barrier
	// cuts immediately regardless (reads never wait on the horizon). Zero
	// means no horizon: every dispatch drains whatever is queued right
	// away, the pre-adaptive behavior.
	BatchWait time.Duration
	// Pipeline is the maximum number of slots the committer keeps in flight
	// concurrently. Each in-flight slot runs on its own consensus instance
	// over the shared cluster, so slot agreement latency overlaps instead of
	// serializing; a reorder buffer still applies decided slots to the
	// StateMachine strictly in slot order, so commit order stays gap-free
	// and responses, read barriers, snapshots and slot GC are all keyed to
	// the contiguous applied prefix. Zero means 4; 1 (or negative) disables
	// pipelining and commits one slot at a time.
	//
	// Pipeline is a ceiling, not a constant: the committer adapts the live
	// depth, halving it whenever a slot times out into recovery (a struggling
	// fabric gains nothing from more concurrent timeouts) and restoring one
	// step after every run of consecutive clean slots. The live depth is
	// surfaced as Stats.PipelineDepth.
	Pipeline int
	// SlotTimeout bounds the agreement of one slot. A slot that times out
	// mid-agreement has an ambiguous outcome (its value may or may not be
	// durable); the committer then runs a recovery round — re-proposing a
	// no-op into the slot from another replica to learn its fate — instead
	// of halting the group. Zero means 30s.
	SlotTimeout time.Duration
	// ReplicaCatchUp bounds how long the committer waits for non-proposing
	// replicas to learn an already-made decision before moving to the next
	// slot (their learner keeps the value; the wait only orders the replica
	// bookkeeping). Zero means 5s.
	ReplicaCatchUp time.Duration
	// OnCommit, if set, is called once per committed entry in index order
	// from the committer's applier goroutine. Callbacks must be fast; they
	// serialize the log. State machines should be plugged in via NewSM;
	// OnCommit is an observability hook, not the application path.
	// Entry.Rejected tells the hook whether Apply refused the entry
	// (committed but no state changed). Like Apply, the hook receives
	// Entry.Cmd zero-copy: treat it as read-only and copy it before
	// retaining it past the call.
	OnCommit func(Entry)
	// Metrics is the registry the group's slot-lifecycle instrumentation
	// records into: per-stage latency histograms, queue-depth gauges and
	// commit counters (see Metrics and Log.Metrics). Nil means a private
	// registry per group. Several groups may share one registry — the
	// sharded layer does — and their counters, histogram buckets and
	// delta-maintained gauges then aggregate naturally.
	Metrics *metrics.Registry
}

func (o *Options) applyDefaults() {
	if o.Protocol == "" {
		o.Protocol = core.ProtocolProtectedMemoryPaxos
	}
	if o.SnapshotInterval == 0 {
		if o.NewSM != nil {
			o.SnapshotInterval = 1024
		} else {
			o.SnapshotInterval = -1
		}
	}
	if o.NewSM == nil {
		o.NewSM = func() StateMachine { return nopSM{} }
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.Pipeline == 0 {
		o.Pipeline = 4
	}
	if o.Pipeline < 1 {
		o.Pipeline = 1
	}
	if o.SlotTimeout <= 0 {
		o.SlotTimeout = 30 * time.Second
	}
	if o.ReplicaCatchUp <= 0 {
		o.ReplicaCatchUp = 5 * time.Second
	}
}

// Entry is one committed command.
type Entry struct {
	// Index is the command's position in the replicated log (0-based,
	// gap-free).
	Index uint64
	// Slot is the consensus instance whose decided batch contained the
	// command.
	Slot uint64
	// Cmd is the command payload.
	Cmd []byte
	// Rejected records that StateMachine.Apply refused this entry (an
	// application-level rejection: the entry is committed, every replica
	// rejects it identically, no state changed). Set on the copies the log
	// retains and hands to OnCommit — so observers like change feeds can
	// skip commands that never took effect — not on the Entry passed INTO
	// Apply.
	Rejected bool
}

// wireBatch is the value agreed on per slot: an ordered batch of commands
// tagged with their submitting log's identity, so a proposer can tell whether
// the decided batch is its own. A batch with zero commands is a no-op slot,
// committed by a Barrier when no writes are queued alongside, and by recovery
// rounds to learn an ambiguous slot's fate.
//
// The origin/ID plumbing is what keeps multi-proposer slots honest — and
// with leases the multi-proposer case is real: across a takeover the old
// epoch's batch and the new holder's fencing no-op compete for the same
// slot, and a slot lost to a competitor must commit the competitor's batch
// and retry (or fail) ours, never mislabel it.
//
// On the wire a batch is the length-prefixed binary framing in codec.go.
type wireBatch struct {
	Origin uint64
	IDs    []uint64
	Cmds   [][]byte
}

// Stats are per-group counters of the committer's recovery, lease and
// pipeline activity, exposed via Log.Stats.
type Stats struct {
	// Recovered counts slots whose agreement attempt timed out mid-slot and
	// whose fate was then learned by a recovery round instead of halting the
	// group: the recovery proposer re-runs the slot with a no-op, which
	// either adopts the original batch (it was durable) or decides the no-op
	// (it was not), and in the latter case the displaced batch is retried at
	// a later slot.
	Recovered uint64
	// Refused counts the subset of recovered slots whose no-op was refused:
	// the recovery round found the original batch persisted in the slot's
	// substrate and re-decided it, so the waiting commands resolved at the
	// recovered slot itself and nothing was displaced.
	Refused uint64
	// Epoch is the group's current lease epoch. It starts at 1 and is bumped
	// by every takeover; a proposal fenced by an epoch change can never
	// decide under the old epoch.
	Epoch uint64
	// Takeovers counts lease takeovers: elections after the holder's
	// renewals stopped, plus forced transfers.
	Takeovers uint64
	// LeaseReads counts linearizable reads served locally under an unexpired
	// lease — zero consensus slots committed.
	LeaseReads uint64
	// BarrierReads counts linearizable reads that paid the read-index
	// barrier (a slot ride or a dedicated no-op slot) because the lease was
	// absent, expired or in doubt.
	BarrierReads uint64
	// PipelineDepth is the committer's CURRENT adaptive pipeline depth: at
	// most Options.Pipeline, halved while slots time out into recovery and
	// restored stepwise by runs of clean commits. A closed group reports 0 —
	// it runs no pipeline at all, which is not the same as being backed off
	// to depth 1.
	PipelineDepth int
	// PipelineBackoffs counts the depth halvings.
	PipelineBackoffs uint64
}

// queued is one command — or one Barrier — waiting for a slot.
type queued struct {
	id         uint64
	cmd        []byte
	barrier    bool      // resolved with the read index its slot established
	enqueuedAt time.Time // when enqueue accepted it (BatchWait/EndToEnd spans)
	done       chan proposeResult
}

type proposeResult struct {
	index uint64
	resp  []byte
	err   error
}

// replicaView is the learner-side state of one replica: the slot values its
// learner saw plus its own StateMachine instance, applied in slot order.
type replicaView struct {
	sm        StateMachine
	learned   map[uint64]types.Value // decided value per slot (retained window)
	nextSlot  uint64                 // next slot to apply to sm
	nextIndex uint64                 // log index of the next command to apply
	restores  int                    // times restored from a snapshot instead of replay
}

// snapState is the latest committer snapshot; the truncated prefix's only
// surviving representation.
type snapState struct {
	data      []byte
	lastIndex uint64 // log index of the last entry the snapshot covers
	lastSlot  uint64 // last slot folded into the snapshot
}

// Log is a replicated state-machine group: one long-lived cluster plus the
// committer that multiplexes slots over it and applies decided entries to the
// group's StateMachine. All methods are safe for concurrent use.
type Log struct {
	opts         Options
	cluster      *core.Cluster
	origin       uint64
	leaseEnabled bool // cluster runs time-bounded leases (LeaseDuration > 0)

	m *logMetrics // slot-lifecycle instrumentation; never nil

	mu           sync.Mutex
	sm           StateMachine                  // authoritative machine, committer-applied
	pending      []queued                      // guarded by mu
	nextID       uint64                        // guarded by mu
	holder       types.ProcID                  // guarded by mu; lease holder the committer proposes from
	epoch        uint64                        // guarded by mu; lease epoch the committer has adopted
	epochCtx     context.Context               // guarded by mu; the worker context's child, cancelled when the adopted epoch is superseded
	epochCancel  context.CancelFunc            // guarded by mu; fences epochCtx
	deciders     []SlotDecider                 // guarded by mu; per retained slot, in slot order: who drove its decision, under which epoch
	entries      []Entry                       // guarded by mu; committed entries since the last truncation
	firstIndex   uint64                        // guarded by mu; index of entries[0]
	firstSlot    uint64                        // guarded by mu; slot of deciders[0]
	sinceSnap    int                           // guarded by mu; entries applied since the last snapshot
	sinceSlots   int                           // guarded by mu; slots decided since the last truncation
	snapFailures int                           // guarded by mu; failed Snapshot() attempts
	snapErr      error                         // guarded by mu; last Snapshot() failure; nil once one succeeds
	snap         *snapState                    // guarded by mu
	snapCount    int                           // guarded by mu
	replicas     map[types.ProcID]*replicaView // guarded by mu
	lagging      map[types.ProcID]bool         // guarded by mu; replicas that missed a catch-up window
	stats        Stats                         // guarded by mu; recovery counters
	closed       bool                          // guarded by mu
	failure      error                         // guarded by mu; set when the committer halts on an unrecoverable slot
	applied      *sync.Cond                    // on mu: broadcast when a view advances, or on close/halt

	applyByID map[uint64]int // recordSlot scratch (applier-only): command id → result offset

	notify chan struct{}
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// origins gives each Log a process-wide unique origin tag for its batches.
var origins atomic.Uint64

// NewLog builds the long-lived cluster, instantiates the state machines and
// starts the committer.
func NewLog(opts Options) (*Log, error) {
	opts.applyDefaults()
	// The log drives only per-slot instances; skip the cluster's single-shot
	// proposer nodes so a group does not carry idle base nodes for its
	// lifetime.
	opts.Cluster.InstancesOnly = true
	cluster, err := core.NewCluster(opts.Protocol, opts.Cluster)
	if err != nil {
		return nil, fmt.Errorf("smr log: %w", err)
	}
	// Fail fast if the protocol cannot multiplex slots: build and discard a
	// probe instance rather than failing on the first Propose.
	probe, err := cluster.NewInstance(0)
	if err != nil {
		cluster.Close()
		return nil, fmt.Errorf("smr log: %w", err)
	}
	probe.Close()

	// Close cancels ctx; workers, its child, is also cancelled when the
	// committer halts, and every epoch's context is derived from it.
	ctx, cancel := context.WithCancel(context.Background())
	workers, stopWorkers := context.WithCancel(ctx)
	l := &Log{
		opts:         opts,
		cluster:      cluster,
		origin:       origins.Add(1),
		leaseEnabled: opts.Cluster.LeaseDuration > 0,
		m:            newLogMetrics(opts.Metrics),
		sm:           opts.NewSM(),
		replicas:     make(map[types.ProcID]*replicaView, len(cluster.Procs)),
		lagging:      make(map[types.ProcID]bool),
		notify:       make(chan struct{}, 1),
		cancel:       cancel,
	}
	l.applied = sync.NewCond(&l.mu)
	lease := cluster.Lease()
	l.holder, l.epoch = lease.Holder, lease.Epoch
	l.epochCtx, l.epochCancel = context.WithCancel(workers)
	l.stats.PipelineDepth = opts.Pipeline
	for _, p := range cluster.Procs {
		l.replicas[p] = &replicaView{sm: opts.NewSM(), learned: make(map[uint64]types.Value)}
	}
	l.wg.Add(2)
	go l.commitLoop(workers, stopWorkers)
	go l.leaseWatch(ctx, workers)
	return l, nil
}

// leaseWatch adopts lease epoch changes: whenever the cluster's detector
// reports a takeover (an election after the holder stalled, or a forced
// SetLeader transfer), the committer's proposer view moves to the new holder
// and the superseded epoch's context is cancelled, fencing its in-flight
// proposals — their workers fall into the recovery path, which re-runs the
// slots from the new holder with a full phase 1 (permission steal) so
// nothing can decide under the dead epoch. Each epoch's context is a child
// of workers, so one context carries both the fence and the committer's
// shutdown.
func (l *Log) leaseWatch(ctx, workers context.Context) {
	defer l.wg.Done()
	changes := l.cluster.Oracle.Changes()
	for {
		select {
		case <-ctx.Done():
			return
		case <-changes:
			lease := l.cluster.Lease()
			l.mu.Lock()
			if lease.Epoch == l.epoch {
				l.mu.Unlock()
				continue
			}
			superseded := l.epoch
			l.holder, l.epoch = lease.Holder, lease.Epoch
			fence := l.epochCancel
			l.epochCtx, l.epochCancel = context.WithCancel(workers)
			l.mu.Unlock()
			fence()
			l.traceEvent(lease.Holder, trace.KindEpochFence,
				"epoch %d fenced; committer adopted epoch %d (holder %s)", superseded, lease.Epoch, lease.Holder)
		}
	}
}

// leaseView snapshots the committer's lease state: the holder to propose
// from, the adopted epoch, and the epoch's context, which is cancelled when
// that epoch is superseded or the committer stops.
func (l *Log) leaseView() (types.ProcID, uint64, context.Context) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.holder, l.epoch, l.epochCtx
}

// leaseValid reports whether the group currently holds an unexpired
// time-bounded lease (always false when leases are disabled: an eternal
// static lease justifies nothing, the barrier path keeps its semantics).
func (l *Log) leaseValid() bool {
	return l.leaseEnabled && l.cluster.Lease().Valid(time.Now())
}

// Cluster exposes the underlying long-lived cluster (for fault injection in
// tests and experiments).
func (l *Log) Cluster() *core.Cluster { return l.cluster }

// Close stops the committer and the cluster. Pending commands and reads fail
// with ErrClosed. Close is idempotent: second and later calls are no-ops.
func (l *Log) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.mu.Unlock()

	l.cancel()
	l.wg.Wait() // the committer's terminate fails whatever it abandons
	// A closed group runs no pipeline: zero the adaptive depth (after the
	// committer exited, so a worker's last report cannot overwrite it) so
	// aggregators that take a minimum across groups can tell "closed" apart
	// from "backed off to depth 1" instead of letting a dead shard masquerade
	// as the most-throttled live one.
	l.mu.Lock()
	l.stats.PipelineDepth = 0
	l.mu.Unlock()
	l.cluster.Close()
}

// endedLocked reports why the group no longer accepts work: ErrClosed after
// Close, ErrHalted wrapping the halt's cause, or nil while it runs. It is the
// one place the closed-vs-halted error is built.
//
//smrlint:holds mu
func (l *Log) endedLocked() error {
	if l.closed {
		return ErrClosed
	}
	if l.failure != nil {
		return fmt.Errorf("%w: %w", ErrHalted, l.failure)
	}
	return nil
}

// end records why the committer stopped — the first cause wins — so that
// submissions are refused from now on, wakes ReadFrom waiters into the
// failure path, and returns the error every abandoned waiter is told.
func (l *Log) end(cause error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failure == nil {
		l.failure = cause
	}
	l.applied.Broadcast()
	return l.endedLocked()
}

// failBatch resolves every waiter of batch with err.
func failBatch(batch []queued, err error) {
	for _, q := range batch {
		q.done <- proposeResult{err: err}
	}
}

// wake pokes the dispatcher without blocking; one pending poke covers any
// number of reasons to look at the queue again.
func (l *Log) wake() {
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// enqueue appends one command or barrier to the pending queue and wakes the
// committer, after the lifecycle checks every submission path shares.
func (l *Log) enqueue(q queued) (queued, error) {
	l.mu.Lock()
	if err := l.endedLocked(); err != nil {
		l.mu.Unlock()
		return queued{}, err
	}
	l.nextID++
	q.id = l.nextID
	q.enqueuedAt = time.Now()
	q.done = make(chan proposeResult, 1)
	l.pending = append(l.pending, q)
	// Raise the gauge before unlocking: once the lock drops, takeBatch may
	// take q and lower the gauge, which must never see it below zero.
	l.m.queueDepth.Add(1)
	l.mu.Unlock()
	if !q.barrier {
		l.m.enqueued.Inc()
	}
	l.wake()
	return q, nil
}

// Propose submits one command, blocks until it is committed and applied to
// the group's state machine, and returns its log index plus the machine's
// response. Commands submitted by one goroutine in sequence are committed in
// that sequence (per-client FIFO). A non-nil error with a valid index is an
// application-level rejection by StateMachine.Apply: the entry is committed
// (every replica applies and rejects it identically) but the machine refused
// it. If ctx expires first, Propose returns the context error, but the
// command may still commit later (it cannot be withdrawn once proposed).
//
// After Close, Propose returns ErrClosed; on a halted group it returns
// ErrHalted wrapping the halt's cause.
func (l *Log) Propose(ctx context.Context, cmd []byte) (uint64, []byte, error) {
	q, err := l.enqueue(queued{cmd: append([]byte(nil), cmd...)})
	if err != nil {
		return 0, nil, fmt.Errorf("smr propose: %w", err)
	}
	select {
	case res := <-q.done:
		return res.index, res.resp, res.err
	case <-ctx.Done():
		return 0, nil, fmt.Errorf("smr propose: %w", ctx.Err())
	}
}

// readIndex establishes a linearizable read index: a log index that covers
// every Propose returned before the call. While the group holds an unexpired
// lease it is the applied prefix right now, at zero consensus slots — the
// machine has applied every returned Propose, and the lease certifies that no
// other proposer can have committed writes this group has not applied (a
// competitor must first take the lease over, which fences this epoch and is
// visible here as an epoch bump). When the lease is absent, expired or in
// doubt it is a Barrier through the slot sequence. The read is counted as a
// lease read or a barrier read accordingly.
func (l *Log) readIndex(ctx context.Context) (uint64, error) {
	lease := l.leaseValid()
	l.mu.Lock()
	if err := l.endedLocked(); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	if lease {
		l.stats.LeaseReads++
		index := l.firstIndex + uint64(len(l.entries))
		l.mu.Unlock()
		return index, nil
	}
	l.stats.BarrierReads++
	l.mu.Unlock()
	return l.Barrier(ctx)
}

// Read serves a linearizable query against the group's state machine: it
// establishes a read index (the lease, or else a Barrier), then queries the
// authoritative machine, which has applied at least through that index. A
// Read that starts after any Propose returned therefore observes that
// command. The query is served via the machine's Querier implementation;
// machines without one get ErrNotQueryable.
func (l *Log) Read(ctx context.Context, query []byte) ([]byte, error) {
	if _, err := l.readIndex(ctx); err != nil {
		return nil, fmt.Errorf("smr read: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	resp, err := querySM(l.sm, query)
	if err != nil {
		return nil, fmt.Errorf("smr read: %w", err)
	}
	return resp, nil
}

// Barrier commits a pure read-index barrier through the group's slot
// sequence — a ride on the next write batch's slot, or a dedicated no-op slot
// when none is queued — and returns the contiguous applied log index it
// established. When Barrier returns, every command enqueued before it was
// called has been committed and applied to the authoritative machine.
//
// Barrier never takes the lease fast path: its job is to flush the queue
// through the log, and a zero-slot answer would flush nothing. It is the read
// index of Read and ReadFrom when the lease is in doubt, the prefix fence of
// a live shard rebalance (the sharded layer barriers a ceding group
// immediately before committing its migrate-out command, so the export
// captures every write routed there before the handoff began), and is useful
// to any caller that needs "everything before this point is applied" without
// reading state.
func (l *Log) Barrier(ctx context.Context) (uint64, error) {
	q, err := l.enqueue(queued{barrier: true})
	if err != nil {
		return 0, fmt.Errorf("smr barrier: %w", err)
	}
	select {
	case res := <-q.done:
		if res.err != nil {
			return 0, fmt.Errorf("smr barrier: %w", res.err)
		}
		return res.index, nil
	case <-ctx.Done():
		return 0, fmt.Errorf("smr barrier: %w", ctx.Err())
	}
}

// ReadFrom serves a linearizable query from replica p's learner view: it
// establishes the read index exactly like Read, then waits until p's view has
// applied through that index before querying p's machine. The answer is as
// current as Read's even though a follower serves it; on a lagging replica
// the wait lasts until the replica catches up (via a snapshot restore) or ctx
// expires.
func (l *Log) ReadFrom(ctx context.Context, p types.ProcID, query []byte) ([]byte, error) {
	l.mu.Lock()
	_, ok := l.replicas[p]
	l.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("smr read: unknown replica %s", p)
	}
	readIndex, err := l.readIndex(ctx)
	if err != nil {
		return nil, fmt.Errorf("smr read: %w", err)
	}
	// The cond is broadcast whenever any view advances (and on close/halt);
	// the AfterFunc wakes waiters on ctx expiry — it takes the mutex first,
	// so a waiter is either already in Wait or will re-check ctx before
	// entering it.
	stop := context.AfterFunc(ctx, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.applied.Broadcast()
	})
	defer stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		view := l.replicas[p]
		if view.nextIndex >= readIndex {
			resp, err := querySM(view.sm, query)
			if err != nil {
				return nil, fmt.Errorf("smr read: %w", err)
			}
			return resp, nil
		}
		if err := l.endedLocked(); err != nil {
			return nil, fmt.Errorf("smr read: %w", err)
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("smr read: replica %s behind read index %d: %w", p, readIndex, err)
		}
		l.applied.Wait()
	}
}

// StaleRead serves a query from replica p's learner view without any
// linearization barrier: local, immediate, and possibly stale (a lagging
// replica answers from whatever prefix it has applied). It remains available
// on a halted group — local state needs no consensus — but not after Close.
func (l *Log) StaleRead(p types.ProcID, query []byte) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, fmt.Errorf("smr stale read: %w", ErrClosed)
	}
	view, ok := l.replicas[p]
	if !ok {
		return nil, fmt.Errorf("smr stale read: unknown replica %s", p)
	}
	resp, err := querySM(view.sm, query)
	if err != nil {
		return nil, fmt.Errorf("smr stale read: %w", err)
	}
	return resp, nil
}

// LocalRead serves a local, possibly-stale query from the freshest replica
// view the group can vouch for: the lease holder's view while the lease is in
// force (the lease certifies the holder is alive and applying), otherwise the
// view with the highest applied index. It exists because "read from
// Cluster.Leader()" is wrong mid-takeover — a deposed or crashed holder's
// learner view is frozen, and routing stale reads to it returns state that
// stops advancing even though other replicas keep applying. Like StaleRead it
// involves no linearization barrier and stays available on a halted group.
func (l *Log) LocalRead(query []byte) ([]byte, error) {
	holder := types.NoProcess
	if l.leaseValid() {
		holder = l.cluster.LeaseHolder()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, fmt.Errorf("smr local read: %w", ErrClosed)
	}
	view, ok := l.replicas[holder]
	if !ok {
		// No valid lease (or an unknown holder): fall back to the
		// most-applied view, which by definition has observed at least as
		// much of the log as any other replica.
		for _, v := range l.replicas {
			if view == nil || v.nextIndex > view.nextIndex {
				view = v
			}
		}
		if view == nil {
			return nil, fmt.Errorf("smr local read: group has no replicas")
		}
	}
	resp, err := querySM(view.sm, query)
	if err != nil {
		return nil, fmt.Errorf("smr local read: %w", err)
	}
	return resp, nil
}

// Len returns the total number of committed commands, including those folded
// into snapshots.
func (l *Log) Len() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstIndex + uint64(len(l.entries))
}

// FirstIndex returns the index of the oldest retained entry; entries below it
// have been truncated into the latest snapshot.
func (l *Log) FirstIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstIndex
}

// Get returns the committed entry at index i. It reports false both for
// indexes not committed yet and for indexes already truncated into a snapshot
// (compare with FirstIndex to tell the cases apart).
func (l *Log) Get(i uint64) (Entry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < l.firstIndex || i >= l.firstIndex+uint64(len(l.entries)) {
		return Entry{}, false
	}
	return cloneEntry(l.entries[i-l.firstIndex]), true
}

// Entries returns a copy of the retained committed suffix starting at index
// from — the catch-up read used by learners that fell behind. It returns nil
// when from lies below FirstIndex: the prefix has been truncated, and
// silently serving a later suffix would hand the learner a gap. Such a
// learner must first restore from Snapshot and resume at lastIndex+1.
func (l *Log) Entries(from uint64) []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.firstIndex {
		return nil
	}
	if from >= l.firstIndex+uint64(len(l.entries)) {
		return nil
	}
	out := make([]Entry, 0, l.firstIndex+uint64(len(l.entries))-from)
	for _, e := range l.entries[from-l.firstIndex:] {
		out = append(out, cloneEntry(e))
	}
	return out
}

// Snapshot returns the latest committer snapshot and the log index of the
// last entry it covers, or ok=false if none has been taken yet. Together with
// Entries(lastIndex+1) it is the catch-up path for replicas that fell behind
// a truncated prefix.
func (l *Log) Snapshot() (data []byte, lastIndex uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.snap == nil {
		return nil, 0, false
	}
	return append([]byte(nil), l.snap.data...), l.snap.lastIndex, true
}

// Stats returns the group's recovery, lease and pipeline counters.
func (l *Log) Stats() Stats {
	takeovers := l.cluster.LeaseTakeovers()
	epoch := l.cluster.LeaseEpoch()
	l.mu.Lock()
	defer l.mu.Unlock()
	stats := l.stats
	stats.Epoch = epoch
	stats.Takeovers = takeovers
	return stats
}

// SlotDecider records who drove a slot's decision: the proposer whose
// proposal (regular or recovery) completed the slot, and the lease epoch the
// committer had adopted when it ran. Across a takeover, every slot completed
// from the fencing path onward carries the new epoch — a deposed holder
// never decides a slot under an epoch newer than its own.
type SlotDecider struct {
	Proposer types.ProcID
	Epoch    uint64
}

// DeciderOf reports who decided the given slot, for slots still inside the
// retained (un-truncated) window.
func (l *Log) DeciderOf(slot uint64) (SlotDecider, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if slot < l.firstSlot || slot-l.firstSlot >= uint64(len(l.deciders)) {
		return SlotDecider{}, false
	}
	return l.deciders[slot-l.firstSlot], true
}

// Snapshots returns how many snapshots the committer has taken.
func (l *Log) Snapshots() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapCount
}

// SnapshotFailures reports how many Snapshot() attempts the committer had to
// abandon and the most recent failure (nil after a subsequent success). While
// failures persist the log stays intact — and keeps growing: truncation
// cannot run without a snapshot, so a persistent failure deserves attention.
func (l *Log) SnapshotFailures() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapFailures, l.snapErr
}

// Restores returns how many times replica p's view was restored from a
// snapshot (because the slots it missed had been truncated) instead of
// replaying the log.
func (l *Log) Restores(p types.ProcID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	view, ok := l.replicas[p]
	if !ok {
		return 0
	}
	return view.restores
}

// ReplicaApplied returns the next log index replica p's view will apply —
// i.e. p has applied entries [0, n).
func (l *Log) ReplicaApplied(p types.ProcID) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	view, ok := l.replicas[p]
	if !ok {
		return 0, false
	}
	return view.nextIndex, true
}

func cloneEntry(e Entry) Entry {
	return Entry{Index: e.Index, Slot: e.Slot, Cmd: append([]byte(nil), e.Cmd...), Rejected: e.Rejected}
}

// Slots returns the number of decided slots, including truncated ones.
func (l *Log) Slots() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstSlot + uint64(len(l.deciders))
}

// ReplicaLog returns the command sequence process p has learned over the
// retained slot window (since the last truncation), by decoding the slot
// values recorded at p in slot order. The boolean reports whether p's view is
// gap-free through every retained decided slot; a lagging replica (one that
// missed a decide broadcast within the catch-up bound) yields false until a
// snapshot restore resets its window.
func (l *Log) ReplicaLog(p types.ProcID) ([][]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	view, ok := l.replicas[p]
	if !ok {
		return nil, false
	}
	var out [][]byte
	last := l.firstSlot + uint64(len(l.deciders))
	for slot := l.firstSlot; slot < last; slot++ {
		raw, ok := view.learned[slot]
		if !ok {
			return out, false
		}
		b, err := decodeBatch(raw)
		if err != nil {
			return out, false
		}
		for _, cmd := range b.Cmds {
			out = append(out, append([]byte(nil), cmd...))
		}
	}
	return out, true
}

// work is one dispatched batch plus its displacement history: how many
// slots it has already lost to a takeover's fencing no-op. Only
// fence-induced displacements count: a leadership change may displace a
// batch exactly once before its waiters are failed with the typed retryable
// ErrLeaseLost (a contended takeover must not starve them), while a batch
// displaced by plain timeout recovery — no leadership change to blame — is
// re-dispatched until it commits, exactly as before leases.
type work struct {
	batch        []queued
	displaced    int
	dispatchedAt time.Time // when the dispatcher last handed it to a worker (Agreement span)
}

// maxDisplacements bounds how many slots one batch may lose to takeover
// fences before its waiters are failed with ErrLeaseLost: the initial slot
// plus one retry.
const maxDisplacements = 2

// adaptiveRestoreStreak is how many consecutive clean (non-recovered) slot
// outcomes restore one step of adaptive pipeline depth.
const adaptiveRestoreStreak = 8

// slotOutcome is one pipeline worker's report: the slot it drove, the value
// the slot decided (possibly learned by a recovery round), who drove the
// deciding proposal under which lease epoch, whether recovery was needed —
// and whether the ambiguity came from an epoch fence (a takeover cancelling
// the attempt) rather than a slot timeout, which the adaptive pipeline must
// not mistake for fabric distress. A non-nil err is unrecoverable and halts
// the group.
type slotOutcome struct {
	slot      uint64
	decided   types.Value
	w         work
	by        SlotDecider
	recovered bool
	fenced    bool
	decidedAt time.Time // when the worker finished (CommitWait span starts here)
	err       error
}

// commitLoop is the committer's dispatcher: it drains the queue into batches
// (adaptively coalesced up to the byte/count budgets and the BatchWait
// horizon), keeps up to Options.Pipeline slots in flight — each driven end to
// end by its own worker goroutine over its own consensus instance — and
// forwards the decided slots in slot order, through a reorder buffer, to the
// group's applier goroutine. Commit order therefore stays gap-free even when
// slot agreements complete out of order, and every prefix-derived artifact
// (Propose responses, read barriers, snapshots, slot GC) is keyed to the
// contiguous applied prefix, never to the highest decided slot.
//
// The dispatcher/applier split is what makes apply work overlap agreement:
// while the applier grinds through a decided slot (or an O(state) snapshot),
// the dispatcher keeps cutting batches and driving consensus — and since
// every Log owns its own applier, one group's slow apply never stalls a
// sibling group's. Won/displaced is decided here, at result-receipt time, by
// peeking the decided value's origin tag: a displaced batch re-dispatches
// immediately instead of waiting for its losing slot to drain through the
// in-order apply path, so the re-proposals of multiple ambiguous slots run
// concurrently, bounded only by the pipeline depth.
func (l *Log) commitLoop(workers context.Context, cancelWorkers context.CancelFunc) {
	defer l.wg.Done()
	depth := l.opts.Pipeline // live adaptive depth, ≤ Options.Pipeline
	cleanStreak := 0         // consecutive clean outcomes since the last backoff
	defer cancelWorkers()
	// Each worker sends exactly one outcome and at most Options.Pipeline are
	// in flight, so the buffer guarantees workers never block on a departing
	// dispatcher.
	results := make(chan slotOutcome, l.opts.Pipeline)
	reorder := make(map[uint64]slotOutcome) // decided out of order, awaiting their turn
	var retry []work                        // displaced batches, re-dispatched before new work
	nextSlot := uint64(0)                   // next slot to hand to a worker
	nextApply := uint64(0)                  // next slot to forward (== firstSlot + len(deciders) eventually)
	inflight := 0
	var horizon *time.Timer // BatchWait: wakes the dispatcher when a held queue is due

	// The applier: decided slots arrive in slot order and are recorded,
	// applied and resolved there. The buffer lets agreement run ahead of a
	// slow apply by a few pipelines' worth before backpressure reaches the
	// dispatcher. applyFailed is buffered so a failing applier never blocks
	// reporting; it keeps draining applyCh (failing the batches) until the
	// channel closes.
	applyCh := make(chan slotOutcome, 4*l.opts.Pipeline+16)
	applyFailed := make(chan error, 1)
	applierDone := make(chan struct{})
	go l.applyLoop(applyCh, applyFailed, applierDone)

	// setDepth tracks the live adaptive depth in Stats.PipelineDepth.
	setDepth := func(d int) {
		depth = d
		l.mu.Lock()
		l.stats.PipelineDepth = d
		l.mu.Unlock()
	}
	// adapt backs the pipeline off while slots time out into recovery — a
	// struggling fabric gains nothing from more concurrent timeouts — and
	// restores it one step per streak of clean commits. Fence-induced
	// recoveries (a takeover cancelled the attempt; the fabric is fine) are
	// treated as clean: a failover on a healthy fabric must not throttle
	// the pipeline exactly when the new holder needs throughput.
	adapt := func(recovered bool) {
		if recovered {
			cleanStreak = 0
			if depth > 1 {
				setDepth((depth + 1) / 2)
				l.mu.Lock()
				l.stats.PipelineBackoffs++
				l.mu.Unlock()
			}
			return
		}
		cleanStreak++
		if cleanStreak >= adaptiveRestoreStreak && depth < l.opts.Pipeline {
			setDepth(depth + 1)
			cleanStreak = 0
		}
	}
	// receive settles won-vs-displaced at receipt time and parks the slot in
	// the reorder buffer. A batch that lost its slot to a competitor — a
	// recovery or fencing no-op, or a foreign batch — is re-dispatched (or
	// failed) HERE, before the losing slot reaches the applier: that is what
	// pipelines the recovery path, because the re-proposal no longer
	// serializes behind the in-order apply of the slot it lost. Only
	// fence-induced displacements count toward the ErrLeaseLost cap: a
	// takeover may displace a batch exactly once, while timeout-recovery
	// displacement keeps the retry-until-commit semantics (no leadership
	// change to blame). With draining set (the terminate path) a displaced
	// batch always lands on the retry list instead of being failed with
	// ErrLeaseLost: terminate owns those waiters and fails them with
	// ErrClosed/ErrHalted per its contract — telling them "safe to retry" on
	// a closing or halting group would be a lie. If the origin peek fails (a
	// decided value that does not decode), the batch rides to the applier
	// untouched: recordSlot will fail on the same bytes and the halt path
	// owns the waiters.
	receive := func(res slotOutcome, draining bool) {
		if origin, err := peekOrigin(res.decided); len(res.w.batch) > 0 && err == nil && origin != l.origin {
			if res.fenced {
				res.w.displaced++
			}
			if res.w.displaced >= maxDisplacements && !draining {
				failBatch(res.w.batch, fmt.Errorf("%w (displaced %d times)", ErrLeaseLost, res.w.displaced))
			} else {
				retry = append(retry, res.w)
			}
			res.w.batch = nil
		}
		reorder[res.slot] = res
		l.m.reorder.Add(1)
	}
	// forward hands the contiguous decided prefix to the applier in slot
	// order; slots decided ahead of a still-running predecessor wait in the
	// buffer. The reorder buffer is epoch-agnostic: slots decided under
	// different lease epochs interleave through it unchanged, which is what
	// carries the pipeline cleanly across a takeover.
	forward := func() {
		for {
			r, ok := reorder[nextApply]
			if !ok {
				return
			}
			delete(reorder, nextApply)
			l.m.reorder.Add(-1)
			nextApply++
			applyCh <- r
		}
	}

	// terminate ends the committer: on Close it is a clean shutdown and the
	// abandoned batches' waiters get ErrClosed, per Close's contract; on any
	// other cause the group halts permanently with ErrHalted wrapping it.
	// Every in-flight worker is cancelled and drained first, and the
	// decided slots that are contiguous with the applied prefix are still
	// forwarded to the applier on the way out: their values are durable and
	// the replica learner views have already observed them (recordReplica
	// runs in the workers), so discarding them would fork StaleRead/
	// ReplicaLog from the authoritative log and tell a durably-committed
	// command's waiter it never committed. Only after the applier has
	// drained and exited is everything beyond the failed slot's gap —
	// decided-but-unforwardable, displaced, still queued — told exactly
	// once.
	terminate := func(cause error, last []queued) {
		ended := l.end(cause)
		cancelWorkers()
		failed := [][]queued{last}
		for ; inflight > 0; inflight-- {
			res := <-results
			l.m.inflight.Add(-1)
			if res.err != nil {
				failed = append(failed, res.w.batch)
			} else {
				receive(res, true)
			}
		}
		forward()
		for _, res := range reorder {
			failed = append(failed, res.w.batch)
			l.m.reorder.Add(-1)
		}
		for _, w := range retry {
			failed = append(failed, w.batch)
		}
		close(applyCh)
		<-applierDone // batches forwarded above are resolved (or failed) by now
		// end refuses new submissions, so the queue drained here stays empty.
		l.mu.Lock()
		failed = append(failed, l.pending)
		l.m.queueDepth.Add(-int64(len(l.pending)))
		l.pending = nil
		l.mu.Unlock()
		for _, batch := range failed {
			failBatch(batch, ended)
		}
	}

	for {
		// Fill the pipeline: displaced batches first (their commands are the
		// oldest), then fresh batches from the queue.
		for inflight < depth {
			var w work
			if len(retry) > 0 {
				w = retry[0]
				retry = retry[1:]
			} else if batch, wait := l.takeBatch(); batch != nil {
				w = work{batch: batch}
			} else {
				if wait > 0 && horizon != nil {
					horizon.Reset(wait)
				} else if wait > 0 {
					horizon = time.AfterFunc(wait, l.wake)
				}
				break
			}
			slot := nextSlot
			nextSlot++
			inflight++
			w.dispatchedAt = time.Now() // Agreement opens per dispatch, re-dispatches included
			l.m.batches.Inc()
			l.m.inflight.Add(1)
			go l.driveSlot(workers, slot, w, results)
		}

		select {
		case <-workers.Done():
			// Only Close cancels workers while the loop runs: every other
			// path that cancels it goes through terminate.
			terminate(workers.Err(), nil)
			return
		case err := <-applyFailed:
			terminate(err, nil)
			return
		case <-l.notify:
			continue // fill the remaining pipeline slots
		case res := <-results:
			inflight--
			l.m.inflight.Add(-1)
			if res.err != nil {
				terminate(res.err, res.w.batch)
				return
			}
			l.m.agreement.Observe(res.decidedAt.Sub(res.w.dispatchedAt))
			adapt(res.recovered && !res.fenced)
			receive(res, false)
			forward()
		}
	}
}

// applyLoop is the group's applier: decided slots arrive strictly in slot
// order and are recorded into the log, applied to the authoritative machine
// and resolved to their waiters here, off the dispatcher's critical path. The
// applier is the sole writer of the authoritative machine and the sole
// snapshot/truncation driver, which is the safety argument maybeSnapshot
// leans on. If recordSlot fails — a decided value that does not decode, or an
// own batch decided without one of its commands — the applier ends the group,
// reports the cause to the dispatcher (which terminates) and fails every
// subsequent forwarded batch until the channel closes: once the in-order
// prefix has a gap, nothing behind it may apply.
func (l *Log) applyLoop(in <-chan slotOutcome, failedOut chan<- error, done chan<- struct{}) {
	defer close(done)
	var ended error
	for r := range in {
		if ended != nil {
			failBatch(r.w.batch, ended)
			continue
		}
		// CommitWait closes when the applier picks the slot up; Apply spans
		// the in-order commit step itself.
		l.m.commitWait.Observe(time.Since(r.decidedAt))
		applyStart := time.Now()
		won, err := l.recordSlot(r.slot, r.decided, r.w.batch, r.by)
		if err != nil {
			ended = l.end(err)
			failedOut <- err
			failBatch(r.w.batch, ended)
			continue
		}
		l.m.apply.Observe(time.Since(applyStart))
		l.m.slots.Inc()
		if won {
			l.resolveBarriers(r.w.batch)
		}
		l.maybeSnapshot()
	}
}

// batchBytes bounds the command payload bytes coalesced into one slot value;
// it splits batches but never rejects a command, so an oversized one ships alone.
const batchBytes = 256 << 10

// takeBatch is the adaptive group-commit drain: it absorbs the whole pending
// queue into one batch, up to MaxBatch commands or batchBytes payload bytes
// (whichever binds first), along with every read barrier queued among or
// immediately after them. Barriers contribute nothing to the slot value, so
// they do not count against either budget — a burst of Reads must not shrink
// or displace a write batch. Riding the same slot is also the cheapest
// correct place for them: the read index then covers the batch's own writes
// too, which only makes the reads fresher.
//
// When a BatchWait horizon is configured and neither budget is full, a young
// queue is held back: takeBatch returns (nil, wait) with wait > 0, telling
// the dispatcher how long until the oldest queued command has waited the
// full horizon — batch size then tracks offered load instead of whatever
// fragment the scheduler delivered between two dispatcher wakeups. A queued
// barrier always cuts immediately: reads never wait on the horizon.
func (l *Log) takeBatch() ([]queued, time.Duration) {
	l.mu.Lock()
	if len(l.pending) == 0 {
		l.mu.Unlock()
		return nil, 0
	}
	n, cmds, size := 0, 0, 0
	full, barrier := false, false
	for n < len(l.pending) {
		q := &l.pending[n]
		if !q.barrier {
			if cmds == l.opts.MaxBatch || (cmds > 0 && size+len(q.cmd) > batchBytes) {
				full = true
				break
			}
			cmds++
			size += len(q.cmd)
		} else {
			barrier = true
		}
		n++
	}
	if !full && !barrier && l.opts.BatchWait > 0 {
		if wait := l.opts.BatchWait - time.Since(l.pending[0].enqueuedAt); wait > 0 {
			l.mu.Unlock()
			return nil, wait
		}
	}
	batch := l.pending[:n:n]
	l.pending = append([]queued(nil), l.pending[n:]...)
	l.mu.Unlock()
	// BatchWait closes here — once per command, at its first (and only) trip
	// through the queue; a batch later displaced and re-dispatched does not
	// pass this way again, so the stage is never double-counted.
	now := time.Now()
	for _, q := range batch {
		if !q.barrier {
			l.m.batchWait.Observe(now.Sub(q.enqueuedAt))
		}
	}
	if cmds > 0 {
		// The chosen batch size, in commands, on the unit-valued histogram.
		l.m.batchSize.Observe(time.Duration(cmds))
	}
	l.m.queueDepth.Add(-int64(n))
	return batch, 0
}

// driveSlot is one pipeline worker: it owns slot end to end — agree on the
// batch's commands there from the current lease holder, learn the slot's
// fate through a recovery round if the attempt's outcome turns ambiguous
// (a timeout, or an epoch change fencing it mid-flight), wait for the
// replica learners — and reports exactly one outcome to the dispatcher. If a
// competing proposer's batch (or a recovery/fencing no-op) wins the slot,
// the dispatcher commits the winner at this slot and re-dispatches ours at a
// later one, preserving its internal order; the batch's read barriers, too,
// wait for our own slot, as only then is the read index known to cover every
// command decided before it. workers is the committer's worker context:
// cancelled by Close or by another slot's halt.
func (l *Log) driveSlot(workers context.Context, slot uint64, w work, results chan<- slotOutcome) {
	out := slotOutcome{slot: slot, w: w}
	// One flat, right-sized allocation per slot: the binary framing is built
	// straight from the batch, barriers skipped in place.
	blob := encodeBatchFrom(l.origin, w.batch)
	holder, epoch, epochCtx := l.leaseView()
	out.by = SlotDecider{Proposer: holder, Epoch: epoch}
	out.decided, out.err = l.attempt(epochCtx, slot, holder, false, blob)
	// A failure once workers has ended is a shutdown — Close or another
	// slot's halt — not an ambiguous outcome; the dispatcher owns the
	// waiters.
	if out.err != nil && workers.Err() == nil {
		// The slot timed out mid-agreement or was fenced by a takeover, so
		// its outcome is ambiguous: the batch may already be durable in the
		// slot's substrate (a phase-2 write can reach a quorum before the
		// timeout or fence fires), in which case retrying a different value
		// at the same slot could re-decide the old batch under a new batch's
		// name, and skipping the slot would commit a gap. Run a recovery
		// round to learn the slot's true fate instead of halting the group.
		out.fenced, out.recovered = epochCtx.Err() != nil, true
		out.decided, out.by, out.err = l.recoverSlot(workers, slot, blob, holder, out.err)
	}
	out.decidedAt = time.Now()
	results <- out
}

// attempt runs one proposal at slot from proposer and returns the decided
// value: it builds the slot's instance — laid out for the lease holder on a
// regular attempt, led by proposer on a recovery round — runs it, records
// the proposer's view, waits for the other replicas to learn and closes the
// instance. Every attempt, regular or recovery, runs under its epoch's
// context: a takeover cancels it mid-flight so a deposed holder's proposal
// cannot decide after its epoch ended — the recovery path then re-runs the
// slot from the new holder, whose phase-1 permission steal makes the fence
// durable in the memories. SlotTimeout bounds the proposal itself.
func (l *Log) attempt(epochCtx context.Context, slot uint64, proposer types.ProcID, recovery bool, blob types.Value) (types.Value, error) {
	var inst *core.Instance
	var err error
	if recovery {
		inst, err = l.cluster.NewRecoveryInstance(slot, proposer)
	} else {
		inst, err = l.cluster.NewInstance(slot)
	}
	if err != nil {
		return nil, fmt.Errorf("smr slot %d: %w", slot, err)
	}
	defer inst.Close()
	slotCtx, cancel := context.WithTimeout(epochCtx, l.opts.SlotTimeout)
	defer cancel()
	res, err := inst.Proposer(proposer).Propose(slotCtx, blob)
	if err != nil {
		return nil, fmt.Errorf("smr slot %d: %w", slot, err)
	}
	l.recordReplica(proposer, slot, res.Value)
	l.awaitLearners(epochCtx, inst, proposer)
	return res.Value, nil
}

// recoveryAttempts bounds how many recovery rounds a worker runs for one
// ambiguous slot before giving up and halting the group. Each round pays at
// most one SlotTimeout, so a transient stall (a rebooting memory, a brief
// partition) that outlives the original attempt still resolves, while a
// permanent fault halts after a bounded delay.
const recoveryAttempts = 3

// epochRetryBound separately bounds recovery re-runs caused by further lease
// takeovers: a round fenced mid-flight by yet another epoch change is
// restarted under the new holder without consuming a recovery attempt (the
// fabric did not fail, leadership moved), but only this many times — epoch
// churn must not spin a worker forever.
const epochRetryBound = 8

// recoverSlot learns the fate of a slot whose agreement attempt timed out.
// It re-runs the slot from a recovery proposer — a replica other than the
// regular leader — with a no-op value: the protocol's phase-1 adoption then
// yields the original batch if it persisted in the slot's state (the no-op
// is refused), and decides the no-op otherwise, proving the original batch
// lost the slot so the dispatcher can retry it later without double-commit
// risk.
//
// How much of the original attempt the recovery round can see is
// per-backend. Protected Memory Paxos keeps the slot's state in the shared
// memories, which the recovery instance reuses: a persisted original batch
// IS adopted, and the recovery proposer's permission acquisition fences any
// still-in-flight write of the original attempt. The Paxos backend keeps
// acceptor state inside the instance's nodes, which closing the failed
// instance discards — its recovery always decides the no-op and displaces
// the batch, never the refused fate. That
// is still exactly-once safe for every backend: a failed Propose never
// broadcast a decision (the protocols decide before disseminating), so no
// learner view can have observed the original attempt, and whatever the
// recovery round decides is the slot's first observable outcome.
//
// On a single-process group there is no other replica to propose from, so
// the original batch itself is re-proposed: re-deciding the identical value
// is always safe, and a success resolves the ambiguity just as well.
//
// Recovery is also the fencing path of a lease takeover: when the ambiguity
// came from an epoch change (rather than a plain timeout), the recovery
// proposer is the NEW lease holder, whose full phase 1 steals the write
// permission out from under the deposed holder's in-flight writes — after
// it, nothing can decide under the old epoch — and adopts the old batch if
// it had already persisted, so no committed entry is ever lost to a
// failover. Each attempt re-reads the lease, so a takeover mid-recovery
// moves the round to the newest holder. If recovery fails, its error also
// names cause, the original attempt's error.
func (l *Log) recoverSlot(workers context.Context, slot uint64, originalBlob types.Value, originalProposer types.ProcID, cause error) (types.Value, SlotDecider, error) {
	var err error
	epochRetries := 0
	for attempt := 0; attempt < recoveryAttempts; {
		holder, epoch, epochCtx := l.leaseView()
		proposer := l.recoveryProposer(holder, originalProposer)
		blob, noop := originalBlob, proposer != originalProposer
		if noop {
			blob = (wireBatch{}).encode()
		}
		var decided types.Value
		decided, err = l.attempt(epochCtx, slot, proposer, true, blob)
		if err == nil {
			refused := l.noteRecovery(decided, noop)
			l.traceEvent(proposer, trace.KindRecover,
				"slot %d recovered by %s under epoch %d (noop=%v)", slot, proposer, epoch, noop)
			if refused {
				l.traceEvent(proposer, trace.KindRefusedNoOp,
					"slot %d refused the recovery no-op: original batch had persisted", slot)
			}
			return decided, SlotDecider{Proposer: proposer, Epoch: epoch}, nil
		}
		if workers.Err() != nil {
			break
		}
		if epochCtx.Err() != nil && epochRetries < epochRetryBound {
			// Fenced by yet another takeover, not failed: re-run under the
			// new epoch's holder without consuming a recovery attempt.
			epochRetries++
			continue
		}
		attempt++
	}
	return nil, SlotDecider{}, fmt.Errorf("smr slot %d: ambiguous outcome (%v) and recovery failed: %w", slot, cause, err)
}

// recoveryProposer picks the process that re-runs an ambiguous slot: the
// current lease holder when it is not the proposer whose attempt went
// ambiguous (the post-takeover fencing case), else the first replica other
// than that proposer — either way the recovery proposal runs the full first
// phase (permission steal plus adoption of any durable value) instead of a
// skip-phase-1 fast path. A single-process group falls back to the original
// proposer.
func (l *Log) recoveryProposer(holder, original types.ProcID) types.ProcID {
	if holder != types.NoProcess && holder != original {
		return holder
	}
	for _, p := range l.cluster.Procs {
		if p != original {
			return p
		}
	}
	return original
}

// noteRecovery bumps the recovery counters: every recovered slot counts, and
// a no-op that lost to the (durable) original batch additionally counts as
// refused — which is also what it reports, so the caller can trace the
// refusal as its own event.
func (l *Log) noteRecovery(decided types.Value, noop bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Recovered++
	if !noop {
		return false // same-value re-propose: the fate was forced, not read
	}
	if origin, err := peekOrigin(decided); err == nil && origin == l.origin {
		l.stats.Refused++
		return true
	}
	return false
}

// resolveBarriers answers a won batch's Barriers with the read index its
// slot just established: every command enqueued before them has been applied
// to the authoritative machine by now. Only the applier advances the applied
// prefix, so the index cannot move while they are answered.
func (l *Log) resolveBarriers(batch []queued) {
	readIndex := l.Len()
	for _, q := range batch {
		if q.barrier {
			q.done <- proposeResult{index: readIndex}
		}
	}
}

// awaitLearners waits — in parallel, under one shared budget — for the
// non-proposing replicas to learn the slot's decision, so every replica's
// log advances in near lock step. A replica that misses its window (for
// example a crashed process) is marked lagging and never waited for again:
// otherwise a single crashed replica — the very fault the protocols tolerate
// — would cost the full catch-up timeout on EVERY subsequent slot. Lagging
// replicas show the gap in ReplicaLog and catch up off the hot path — from
// the next snapshot once their missed slots are truncated.
func (l *Log) awaitLearners(ctx context.Context, inst *core.Instance, proposer types.ProcID) {
	catchUp, cancel := context.WithTimeout(ctx, l.opts.ReplicaCatchUp)
	defer cancel()
	var wg sync.WaitGroup
	for _, p := range l.cluster.Procs {
		if p == proposer || l.isLagging(p) {
			continue
		}
		wg.Add(1)
		go func(p types.ProcID) {
			defer wg.Done()
			v, err := inst.Proposer(p).WaitDecision(catchUp)
			if err != nil {
				l.markLagging(p)
				return
			}
			l.recordReplica(p, inst.Slot, v)
		}(p)
	}
	wg.Wait()
}

func (l *Log) isLagging(p types.ProcID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lagging[p]
}

func (l *Log) markLagging(p types.ProcID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lagging[p] = true
}

// recordReplica stores the slot value replica p learned and advances p's
// state machine through every consecutively-learned slot. The decided value
// is retained as handed in — the protocol substrate returns a private copy
// per read — and the entries applied to the view alias it, per the
// StateMachine read-only contract on Entry.Cmd.
func (l *Log) recordReplica(p types.ProcID, slot uint64, v types.Value) {
	l.mu.Lock()
	defer l.mu.Unlock()
	view := l.replicas[p]
	view.learned[slot] = v
	b := borrowBatch()
	defer releaseBatch(b)
	for {
		raw, ok := view.learned[view.nextSlot]
		if !ok {
			return
		}
		if err := decodeBatchInto(b, raw); err != nil {
			return // a decided value must decode; leave the view stuck rather than skip
		}
		for _, cmd := range b.Cmds {
			// Application-level rejections are deterministic: every view
			// rejects the same entries the authoritative machine rejected.
			view.sm.Apply(Entry{Index: view.nextIndex, Slot: view.nextSlot, Cmd: cmd})
			view.nextIndex++
		}
		view.nextSlot++
		l.applied.Broadcast() // wake ReadFrom waiters on this view
	}
}

// recordSlot appends the decided batch to the committed log, applies it to
// the authoritative state machine, records who decided the slot under which
// epoch, and resolves the waiters whose commands it contains (batch is the
// dispatched batch when the slot is ours, empty or stripped otherwise;
// barriers in it are skipped here and resolved by the caller). It reports
// whether the proposed batch won the slot.
//
// Called only from the applier goroutine. The decided value is not copied —
// the protocol substrate hands back a private copy — and the log's entries
// alias subslices of it: decided values are immutable, the entries keep the
// backing array alive, and StateMachine.Apply/OnCommit must treat Entry.Cmd
// as read-only. Get/Entries still clone outward.
func (l *Log) recordSlot(slot uint64, decided types.Value, batch []queued, by SlotDecider) (bool, error) {
	b := borrowBatch()
	defer releaseBatch(b)
	if err := decodeBatchInto(b, decided); err != nil {
		return false, fmt.Errorf("smr slot %d: %w", slot, err)
	}

	l.mu.Lock()
	l.deciders = append(l.deciders, by)
	l.sinceSlots++
	first := len(l.entries)
	results := make([]proposeResult, 0, len(b.Cmds))
	for _, cmd := range b.Cmds {
		e := Entry{Index: l.firstIndex + uint64(len(l.entries)), Slot: slot, Cmd: cmd}
		resp, applyErr := l.sm.Apply(e)
		e.Rejected = applyErr != nil
		l.entries = append(l.entries, e)
		l.sinceSnap++
		results = append(results, proposeResult{index: e.Index, resp: resp, err: applyErr})
	}
	// The tail just appended is stable off-lock: only the applier (this
	// goroutine) appends or truncates entries, and truncation swaps the
	// slice header without touching the old array.
	committed := l.entries[first:]
	onCommit := l.opts.OnCommit
	l.mu.Unlock()
	l.m.committed.Add(uint64(len(b.Cmds)))

	if onCommit != nil {
		for _, e := range committed {
			onCommit(e)
		}
	}

	won := b.Origin == l.origin
	if won {
		if l.applyByID == nil {
			l.applyByID = make(map[uint64]int, len(b.IDs))
		}
		byID := l.applyByID // command id -> results offset; applier-only scratch
		clear(byID)
		for i, id := range b.IDs {
			byID[id] = i
		}
		// Validate the whole batch before resolving any waiter: each done
		// channel holds exactly one result, so a mid-loop error after some
		// sends would leave the terminate path double-sending into full
		// buffers (a committer deadlock). Either every command resolves
		// here or none does and the error path owns them all.
		resolved := make([]proposeResult, 0, len(batch))
		for _, q := range batch {
			if q.barrier {
				continue
			}
			ri, ok := byID[q.id]
			if !ok {
				return false, fmt.Errorf("smr slot %d: own batch decided without command %d", slot, q.id)
			}
			resolved = append(resolved, results[ri])
		}
		now := time.Now()
		i := 0
		for _, q := range batch {
			if q.barrier {
				continue
			}
			l.m.e2e.Observe(now.Sub(q.enqueuedAt))
			q.done <- resolved[i]
			i++
		}
	}
	return won, nil
}

// maybeSnapshot runs the committer's snapshot-and-truncate step once
// SnapshotInterval entries have been applied since the last one: serialize
// the authoritative machine, truncate the decided prefix, release every
// truncated slot's memory regions, and restore any replica view that had
// fallen behind the truncation point from the snapshot (it can never replay
// the released slots). A restored replica is also cleared from the lagging
// set: it is current again as of the snapshot, so the committer resumes
// waiting for its learner — a replica that is genuinely dead simply re-lags
// after one catch-up window, costing at most one window per interval.
//
// Called only from the committer's applier goroutine — and that it runs
// there, not on the dispatcher, is the point of the split: an O(state)
// snapshot no longer freezes batch cutting or slot dispatch, it only delays
// subsequent applies of this one group. The O(state) work — serializing the
// authoritative machine, deserializing replacement machines for lagging
// views, releasing the dead slots' regions — all runs OUTSIDE l.mu, so reads
// and submissions proceed during it; the lock covers only the truncation
// bookkeeping and the pointer swaps that install restored views. That is
// safe because the applier is the sole writer of the authoritative machine
// (and the sole appender/truncator of the committed log), and the pipeline
// workers that advance view progress concurrently (their learner goroutines
// record decisions of in-flight slots) can never move a behind view across
// the truncation point: its next slot's learned value was deleted by the
// truncation, workers only ever record slots above the applied prefix, and
// both the deletion and the restored-view swap happen under l.mu. Released
// regions are never read again once truncation is decided — every released
// slot is below the applied prefix, and in-flight slots are all above it.
func (l *Log) maybeSnapshot() {
	l.mu.Lock()
	interval := l.opts.SnapshotInterval
	// Slots count toward the interval too: a read-heavy group commits no-op
	// barrier slots that apply nothing, and without this trigger their
	// regions and recorded values would accumulate forever.
	due := interval >= 0 && (l.sinceSnap >= interval || l.sinceSlots >= interval) && len(l.deciders) > 0
	if due && len(l.entries) == 0 {
		// Every retained slot is a no-op: no state changed, so this is pure
		// bookkeeping truncation — no snapshot, no restores. Only views
		// inside this all-no-op window may fast-forward over it; a view
		// still behind an EARLIER truncation (a failed Restore left it
		// there) misses real commands and must keep waiting for a snapshot.
		windowStart := l.firstSlot
		releaseFrom, lastSlot := l.truncateLocked()
		for p, view := range l.replicas {
			if view.nextSlot >= windowStart && view.nextSlot < l.firstSlot {
				view.nextSlot = l.firstSlot
				delete(l.lagging, p)
				l.applied.Broadcast()
			}
		}
		l.mu.Unlock()
		l.releaseSlots(releaseFrom, lastSlot)
		return
	}
	l.mu.Unlock()
	if !due {
		return
	}
	data, err := l.sm.Snapshot()
	if err != nil {
		// Keep the log intact, surface the failure, and reset the counters
		// so the retry costs one O(state) attempt per interval, not one per
		// slot on the hot committer path.
		l.mu.Lock()
		l.snapFailures++
		l.snapErr = err
		l.sinceSnap = 0
		l.sinceSlots = 0
		l.mu.Unlock()
		return
	}

	// Truncation bookkeeping: slice/map surgery only.
	l.mu.Lock()
	holder := l.holder
	lastIndex := l.firstIndex + uint64(len(l.entries)) - 1
	releaseFrom, lastSlot := l.truncateLocked()
	l.snap = &snapState{data: data, lastIndex: lastIndex, lastSlot: lastSlot}
	l.snapCount++
	l.snapErr = nil
	var behind []types.ProcID
	for p, view := range l.replicas {
		if view.nextSlot < l.firstSlot {
			behind = append(behind, p)
		}
	}
	l.mu.Unlock()

	l.traceEvent(holder, trace.KindSnapshot,
		"snapshot through index %d; slots ≤ %d truncated", lastIndex, lastSlot)
	l.releaseSlots(releaseFrom, lastSlot)

	// Lagging views: build a restored machine off-lock, install it with a
	// pointer swap. StaleRead keeps serving the old (stale) machine until
	// the swap, which is exactly its contract.
	for _, p := range behind {
		fresh := l.opts.NewSM()
		if err := fresh.Restore(data, lastIndex); err != nil {
			continue // the view stays behind; the next snapshot retries
		}
		l.mu.Lock()
		view := l.replicas[p]
		view.sm = fresh
		view.nextSlot = l.firstSlot
		view.nextIndex = l.firstIndex
		view.restores++
		delete(l.lagging, p)
		l.applied.Broadcast() // a restore can satisfy ReadFrom waiters too
		l.mu.Unlock()
	}
}

// truncateLocked drops the retained log prefix — entries, slot deciders, the
// interval counters and every view's learned values for the dropped slots —
// and returns the released slot range for the caller to free off-lock via
// releaseSlots. View progress (nextSlot/nextIndex/machines) is NOT touched:
// each truncation path decides for itself how a behind view catches up.
// Callers must hold l.mu.
//
//smrlint:holds mu
func (l *Log) truncateLocked() (releaseFrom, lastSlot uint64) {
	releaseFrom = l.firstSlot
	lastSlot = l.firstSlot + uint64(len(l.deciders)) - 1
	l.sinceSnap = 0
	l.sinceSlots = 0
	l.firstIndex += uint64(len(l.entries))
	l.entries = nil
	l.firstSlot = lastSlot + 1
	l.deciders = nil
	for _, view := range l.replicas {
		for slot := range view.learned {
			if slot < l.firstSlot {
				delete(view.learned, slot)
			}
		}
	}
	return releaseFrom, lastSlot
}

// releaseSlots frees the truncated slots' memory regions. It runs without
// l.mu: truncation is already decided, the regions are never read again, and
// memsim has its own locking.
func (l *Log) releaseSlots(from, through uint64) {
	for slot := from; slot <= through; slot++ {
		l.cluster.ReleaseInstance(slot)
	}
}
