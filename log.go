package rdmaagreement

import (
	"rdmaagreement/internal/metrics"
	"rdmaagreement/internal/omega"
	"rdmaagreement/internal/shard"
	"rdmaagreement/internal/smr"
)

// Log is a replicated state-machine group: one long-lived cluster serving an
// unbounded sequence of consensus instances (slots), with command batching,
// pipelined slot commit (LogOptions.Pipeline slots in flight, applied
// gap-free in slot order), ambiguous-slot recovery, leader leases (the
// proposer role follows the cluster's lease, reads under a healthy lease
// serve locally with zero slots, and a stalled holder is replaced under a
// bumped, fenced epoch), a pluggable StateMachine, linearizable reads and
// snapshot-driven slot GC. See package smr for the semantics.
type Log = smr.Log

// LogOptions configure a Log.
type LogOptions = smr.Options

// LogEntry is one committed command of a Log.
type LogEntry = smr.Entry

// LogStats are a group's recovery, lease and pipeline counters (Log.Stats,
// ShardedKV.Stats): Recovered counts slots whose timed-out agreement was
// resolved by a no-op recovery round instead of halting the group, Refused
// the subset where the no-op lost because the original batch had persisted
// and was re-decided; Epoch/Takeovers report the lease view (current epoch,
// takeovers so far), LeaseReads/BarrierReads split the linearizable reads
// into lease-served (zero slots) and read-index-barrier ones, and
// PipelineDepth/PipelineBackoffs surface the adaptive slot pipeline.
type LogStats = smr.Stats

// LogMetrics is a point-in-time snapshot of a group's — or, via
// ShardedKV.Metrics, a whole store's — slot-lifecycle instrumentation:
// monotone commit counters, per-stage latency histograms decomposing a
// command's end-to-end latency (batch wait → agreement → commit wait →
// apply), and queue-depth gauges with high-water marks. Safe to snapshot
// from any goroutine mid-workload; the record path is lock- and
// allocation-free, so observing never stalls the committer.
type LogMetrics = smr.Metrics

// MetricsRegistry is the named-instrument registry behind LogMetrics
// (LogOptions.Metrics, Log.Registry, ShardedKV.Registry): counters, gauges and
// fixed-bucket latency histograms, snapshot-able as typed values
// (LogMetrics), as an expvar-friendly map (Snapshot), or as
// Prometheus-style text (WriteText). Groups sharing one registry aggregate.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry builds an empty registry, for callers that want several
// groups recording into one aggregated view (LogOptions.Metrics) or a
// custom exposition of the built-in instrumentation.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Lease is an epoch-stamped, time-bounded leadership grant of a cluster
// (Cluster.Lease): who may propose — and serve local linearizable reads —
// until when, under which fencing epoch. Enable leases with
// Options.LeaseDuration.
type Lease = omega.Lease

// StateMachine is the pluggable application contract of a replicated log
// group: Apply consumes committed entries and produces Propose responses,
// Snapshot/Restore power slot garbage collection and lagging-replica
// catch-up.
type StateMachine = smr.StateMachine

// Querier is optionally implemented by state machines that serve reads
// (Log.Read, Log.ReadFrom, Log.StaleRead).
type Querier = smr.Querier

// Lifecycle errors of the replication layer, matchable with errors.Is.
var (
	// ErrLogClosed is returned by Propose/Read/StaleRead after Close.
	ErrLogClosed = smr.ErrClosed
	// ErrLogHalted is returned once a group halted on an ambiguous slot.
	ErrLogHalted = smr.ErrHalted
	// ErrNotQueryable is returned by reads when the group's state machine
	// does not implement Querier.
	ErrNotQueryable = smr.ErrNotQueryable
	// ErrLeaseLost is the typed retryable error returned to waiters whose
	// command was displaced from its slots by a leadership change without
	// committing: the command provably did not commit and is safe to
	// resubmit.
	ErrLeaseLost = smr.ErrLeaseLost
)

// NewLog builds a replicated state-machine group over one long-lived cluster
// of the configured protocol (Protected Memory Paxos by default). Unlike
// NewCluster, which wires a single-shot deployment, a Log multiplexes any
// number of decisions over the same memories and network; LogOptions.NewSM
// plugs the application in.
func NewLog(opts LogOptions) (*Log, error) { return smr.NewLog(opts) }

// Ring is a deterministic consistent-hash ring used to route keys across
// independent replicated-log groups.
type Ring = shard.Ring

// NewRing builds a ring over the given shard names with vnodes virtual nodes
// per shard (≤ 0 means shard.DefaultVirtualNodes).
func NewRing(shards []string, vnodes int) *Ring { return shard.New(shards, vnodes) }
