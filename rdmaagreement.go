// Package rdmaagreement is the public API of this repository: a
// simulation-backed Go implementation of the agreement algorithms from
// "The Impact of RDMA on Agreement" (Aguilera, Ben-David, Guerraoui, Marathe,
// Zablotchi — PODC 2019).
//
// The package exposes four layers:
//
//   - Cluster construction (NewCluster): wire a complete deployment of any of
//     the implemented protocols — the paper's Fast & Robust and Protected
//     Memory Paxos, the Aligned Paxos extension, and the Disk Paxos / Paxos /
//     Fast Paxos baselines — over simulated RDMA memories and a simulated
//     network.
//   - Proposals (Cluster.Proposer(p).Propose): drive consensus instances and
//     observe decisions, causal delay counts and fast-path usage.
//   - Replication (NewLog, NewShardedKV): turn the single-shot
//     protocols into a replicated state machine — one long-lived cluster
//     multiplexing an unbounded sequence of slots, with command batching, a
//     pluggable StateMachine (Propose returns the machine's response),
//     linearizable reads via read-index barriers, and snapshot-driven slot GC
//     that bounds memory independent of log length — and shard keys across
//     independent groups on a consistent-hash ring for horizontal throughput,
//     with live rebalancing (AddShard/RemoveShard drain moved key ranges
//     through the logs they leave and enter, no downtime, no lost or forked
//     keys). A workload other than the key-value store plugs its
//     StateMachine in at NewLog.
//   - Experiments (Experiments, ExperimentIDs): regenerate the tables in
//     EXPERIMENTS.md that reproduce the paper's quantitative claims.
//
// The Example functions in example_test.go are runnable, output-checked
// walkthroughs (go test -run '^Example' -v .); see README.md for an
// architecture overview.
package rdmaagreement

import (
	"rdmaagreement/internal/core"
	"rdmaagreement/internal/harness"
	"rdmaagreement/internal/trace"
	"rdmaagreement/internal/types"
)

// Protocol identifies an agreement protocol.
type Protocol = core.Protocol

// The available protocols.
const (
	// ProtocolFastRobust is the paper's 2-deciding weak Byzantine agreement
	// algorithm (Cheap Quorum + Preferential Paxos, Theorem 4.9).
	ProtocolFastRobust = core.ProtocolFastRobust
	// ProtocolProtectedMemoryPaxos is the paper's 2-deciding crash consensus
	// with n ≥ f_P+1 processes (Theorem 5.1).
	ProtocolProtectedMemoryPaxos = core.ProtocolProtectedMemoryPaxos
	// ProtocolAlignedPaxos tolerates any minority of the combined
	// process+memory set (§5.2).
	ProtocolAlignedPaxos = core.ProtocolAlignedPaxos
	// ProtocolDiskPaxos is the shared-memory-only baseline (≥4 delays).
	ProtocolDiskPaxos = core.ProtocolDiskPaxos
	// ProtocolPaxos is the classic message-passing baseline.
	ProtocolPaxos = core.ProtocolPaxos
	// ProtocolFastPaxos is the fast message-passing baseline.
	ProtocolFastPaxos = core.ProtocolFastPaxos
)

// Options configure a cluster (topology, failure bounds, timing).
type Options = core.Options

// Cluster is a fully wired deployment of one protocol over simulated RDMA
// memories and a simulated network.
type Cluster = core.Cluster

// Result is the outcome of one proposal.
type Result = core.Result

// Proposer is the uniform per-process handle used to propose values.
type Proposer = core.Proposer

// Value is the opaque payload agreed upon.
type Value = types.Value

// ProcID identifies a process.
type ProcID = types.ProcID

// Recorder collects structured protocol events (proposals, permission
// changes, panics, decisions) for inspection.
type Recorder = trace.Recorder

// Table is a formatted experiment result.
type Table = harness.Table

// NewCluster builds a cluster running the given protocol.
func NewCluster(protocol Protocol, opts Options) (*Cluster, error) {
	return core.NewCluster(protocol, opts)
}

// Experiments returns the experiment runners keyed by identifier (e1, e2, …)
// that regenerate the tables recorded in EXPERIMENTS.md.
func Experiments() map[string]func() (Table, error) { return harness.Experiments() }

// ExperimentIDs lists the experiment identifiers in a stable order.
func ExperimentIDs() []string { return harness.ExperimentIDs() }
