package core

import (
	"context"
	"fmt"

	"rdmaagreement/internal/omega"
	"rdmaagreement/internal/paxos"
	"rdmaagreement/internal/pmpaxos"
	"rdmaagreement/internal/types"
)

// SlotProposer is the per-process handle of one multiplexed consensus
// instance. Beyond proposing, it exposes the learner side: WaitDecision
// blocks until this process learns the instance's decision (through its own
// proposal or a decide broadcast), which is what replicated-log replicas need
// to apply slots in order.
type SlotProposer interface {
	Proposer
	// WaitDecision blocks until this process learns the decision.
	WaitDecision(ctx context.Context) (types.Value, error)
}

// Instance is one consensus instance (log slot) multiplexed over a long-lived
// cluster. The instance shares the cluster's memories, network endpoints,
// routers, key ring and leader oracle; only the per-slot protocol state
// (memory regions, message kinds, proposer/acceptor nodes) is fresh. Closing
// an instance stops its nodes and removes its router subscriptions, so a
// cluster can serve an unbounded sequence of instances at constant cost.
type Instance struct {
	// Slot is the instance's identifier in the log.
	Slot uint64

	cluster  *Cluster
	handles  map[types.ProcID]SlotProposer
	cleanups []func()
	counted  bool // this instance is in the cluster's live-instance count
}

// NewInstance creates consensus instance slot over the cluster's long-lived
// substrates. Slots are independent: their memory regions and message kinds
// never collide, so any number of instances may run concurrently — the
// pipelined committer keeps several open at once, and the cluster tracks the
// live count (LiveInstances/PeakInstances).
//
// Instances are supported for the two slot-capable protocols: Protected
// Memory Paxos and classic Paxos (the 4-delay baseline). The remaining
// protocols are single-shot only — some hard-code their memory layout (Cheap
// Quorum's panic region, Disk Paxos's blocks) — and report an error.
//
// A new instance is laid out for the CURRENT lease holder: its region's
// initial write permission (and the skip-phase-1 fast path) go to the holder
// at creation time, so slots stay 2-deciding across lease takeovers — the
// post-failover holder proposes into fresh slots as cheaply as the initial
// leader did. A stale holder view only costs liveness, never safety: the
// real holder's first proposal runs the full phase 1 and steals the
// permission.
func (c *Cluster) NewInstance(slot uint64) (*Instance, error) {
	return c.newInstance(slot, c.Oracle, c.Oracle.Leader(), false)
}

// NewRecoveryInstance creates a consensus instance for slot whose nodes all
// treat proposer as the leader, regardless of the cluster's Ω oracle. It is
// the substrate of ambiguous-slot recovery: when the regular proposer's
// attempt at a slot times out mid-agreement, a recovery proposer must re-run
// the slot to learn its fate, and the oracle — which still points at the
// regular leader — would otherwise keep every other process from proposing.
//
// The oracle override is liveness-only (protocol safety never depends on Ω).
// For Protected Memory Paxos the instance shares the slot's durable state in
// the cluster's memories: the recovery proposer's phase 1 steals the write
// permission — fencing any still-in-flight write of the original attempt —
// and adopts the highest accepted value it reads, so a persisted original
// value is re-decided, never lost. Paxos keeps acceptor state inside an
// instance's nodes, so a recovery instance starts from scratch there; that is
// safe exactly because a timed-out proposal has never disseminated a decision
// (see smr's recovery for the argument), but callers must not expect value
// adoption from that backend.
func (c *Cluster) NewRecoveryInstance(slot uint64, proposer types.ProcID) (*Instance, error) {
	if proposer == types.NoProcess {
		return nil, fmt.Errorf("%w: recovery instance needs a proposer", types.ErrInvalidConfig)
	}
	// forcePhase1: the recovery proposer may BE the current lease holder
	// (post-takeover fencing re-runs a superseded epoch's slots from the new
	// holder), and a holder-laid-out instance would let it skip phase 1 —
	// bypassing exactly the permission steal and value adoption recovery
	// exists for.
	return c.newInstance(slot, omega.NewStatic(proposer), c.Opts.Leader, true)
}

func (c *Cluster) newInstance(slot uint64, oracle omega.Oracle, initialLeader types.ProcID, forcePhase1 bool) (*Instance, error) {
	inst := &Instance{
		Slot:    slot,
		cluster: c,
		handles: make(map[types.ProcID]SlotProposer, len(c.Procs)),
	}
	var build func(p types.ProcID) (SlotProposer, func(), error)
	switch c.Protocol {
	case ProtocolProtectedMemoryPaxos:
		// Lay the slot's region out on every memory. EnsureRegion is
		// idempotent, so concurrent instance creation for the same slot (for
		// example two sharded-log clients racing, or a recovery instance
		// rebuilt over a region the original attempt already wrote) is safe:
		// the permission and contents of an existing region are never reset.
		spec := pmpaxos.InstanceLayout(slot, c.Procs, initialLeader)
		for _, mem := range c.Pool.Memories() {
			mem.EnsureRegion(spec)
		}
		build = func(p types.ProcID) (SlotProposer, func(), error) {
			return c.buildPMPaxosSlot(slot, p, oracle, initialLeader, forcePhase1)
		}
	case ProtocolPaxos:
		build = func(p types.ProcID) (SlotProposer, func(), error) {
			return c.buildPaxosSlot(slot, p, oracle)
		}
	default:
		return nil, fmt.Errorf("%w: protocol %s does not support slot multiplexing (use %s or %s)",
			types.ErrInvalidConfig, c.Protocol, ProtocolProtectedMemoryPaxos, ProtocolPaxos)
	}
	for _, p := range c.Procs {
		handle, cleanup, err := build(p)
		if err != nil {
			inst.Close()
			return nil, fmt.Errorf("instance %d of %s: %w", slot, c.Protocol, err)
		}
		inst.handles[p] = handle
		if cleanup != nil {
			inst.cleanups = append(inst.cleanups, cleanup)
		}
	}
	c.instanceOpened(inst)
	return inst, nil
}

// Proposer returns the instance's handle at process p.
func (i *Instance) Proposer(p types.ProcID) SlotProposer { return i.handles[p] }

// Close stops the instance's nodes and removes its router subscriptions. The
// decided value, if any, stays recorded in the shared memories; Close only
// releases the live resources (goroutines, subscriptions). Close is
// idempotent.
func (i *Instance) Close() {
	for j := len(i.cleanups) - 1; j >= 0; j-- {
		i.cleanups[j]()
	}
	i.cleanups = nil
	i.cluster.instanceClosed(i)
}

// ReleaseInstance releases the durable per-slot resources of consensus
// instance slot across the cluster's memory pool, returning how many memories
// held its region. It is the substrate half of replicated-log slot GC: after
// the slot's decision has been captured in a state-machine snapshot, its
// region (for Protected Memory Paxos, pmpaxos/slot/<n> on every memory) is
// never read again and can be truncated. Paxos keeps no per-slot memory
// state — its live resources are already removed by Instance.Close's
// unsubscribes — so ReleaseInstance is a no-op for it.
//
// Releasing a slot that still has live proposers is the caller's bug: their
// reads and writes will fail with ErrUnknownRegion.
func (c *Cluster) ReleaseInstance(slot uint64) int {
	switch c.Protocol {
	case ProtocolProtectedMemoryPaxos:
		return c.Pool.ReleaseRegion(pmpaxos.RegionFor(slot))
	default:
		return 0
	}
}

// LiveRegions sums the live memory-region counts across the cluster's pool —
// the figure slot-GC bounds.
func (c *Cluster) LiveRegions() int { return c.Pool.LiveRegions() }

// --- per-protocol slot builders --------------------------------------------

// pmPaxosSlotHandle adapts a per-slot Protected Memory Paxos node.
type pmPaxosSlotHandle struct {
	pmPaxosProposer
}

func (h *pmPaxosSlotHandle) WaitDecision(ctx context.Context) (types.Value, error) {
	return h.node.WaitDecision(ctx)
}

func (c *Cluster) buildPMPaxosSlot(slot uint64, p types.ProcID, oracle omega.Oracle, initialLeader types.ProcID, forcePhase1 bool) (SlotProposer, func(), error) {
	router := c.router(p)
	decideKind := pmpaxos.DecideKindFor(slot)
	sub := router.Subscribe(decideKind, 0)
	node, err := pmpaxos.New(pmpaxos.Config{
		Self:           p,
		Procs:          c.Procs,
		InitialLeader:  initialLeader,
		ForcePhase1:    forcePhase1,
		FaultyMemories: c.Opts.FaultyMemories,
		Memories:       c.Pool.Memories(),
		Oracle:         oracle,
		Endpoint:       c.Network.Register(p),
		DecideSub:      sub,
		Region:         pmpaxos.RegionFor(slot),
		DecideKind:     decideKind,
		Recorder:       c.Opts.Recorder,
	})
	if err != nil {
		router.Unsubscribe(sub)
		return nil, nil, err
	}
	node.Start()
	cleanup := func() {
		node.Stop()
		router.Unsubscribe(sub)
	}
	return &pmPaxosSlotHandle{pmPaxosProposer{node: node}}, cleanup, nil
}

// paxosSlotHandle adapts a per-slot classic Paxos node.
type paxosSlotHandle struct {
	paxosProposer
}

func (h *paxosSlotHandle) WaitDecision(ctx context.Context) (types.Value, error) {
	return h.node.WaitDecision(ctx)
}

// paxosSlotKind is the message kind of classic-Paxos instance slot. The
// trailing path segment keeps slot prefixes unambiguous on the router.
func paxosSlotKind(slot uint64) string { return fmt.Sprintf("paxos/slot/%d/msg", slot) }

func (c *Cluster) buildPaxosSlot(slot uint64, p types.ProcID, oracle omega.Oracle) (SlotProposer, func(), error) {
	router := c.router(p)
	kind := paxosSlotKind(slot)
	sub := router.Subscribe(kind, 0)
	tr := paxos.NewNetTransport(c.Network.Register(p), sub, kind)
	node := paxos.NewNode(paxos.Config{
		Self:         p,
		Procs:        c.Procs,
		Oracle:       oracle,
		RoundTimeout: c.Opts.RoundTimeout,
		Recorder:     c.Opts.Recorder,
	}, tr)
	node.Start()
	cleanup := func() {
		node.Stop()
		router.Unsubscribe(sub)
	}
	return &paxosSlotHandle{paxosProposer{node: node}}, cleanup, nil
}
