// Package core wires complete clusters for every agreement protocol in the
// repository behind a single interface.
//
// A Cluster owns the simulated substrates (memory pool, network, key ring,
// leader oracle) and one protocol node per process. Callers pick a Protocol,
// describe the topology and failure bounds in Options, and then drive
// proposals through the uniform Proposer interface. The experiment harness,
// the benchmarks, the command-line tools and the examples are all built on
// this package.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rdmaagreement/internal/aligned"
	"rdmaagreement/internal/delayclock"
	"rdmaagreement/internal/diskpaxos"
	"rdmaagreement/internal/fastpaxos"
	"rdmaagreement/internal/fastrobust"
	"rdmaagreement/internal/memsim"
	"rdmaagreement/internal/netsim"
	"rdmaagreement/internal/omega"
	"rdmaagreement/internal/paxos"
	"rdmaagreement/internal/pmpaxos"
	"rdmaagreement/internal/sigs"
	"rdmaagreement/internal/trace"
	"rdmaagreement/internal/types"
)

// Protocol identifies an agreement protocol implemented in this repository.
type Protocol string

// The available protocols.
const (
	// ProtocolFastRobust is the paper's main Byzantine algorithm: Cheap
	// Quorum + Preferential Paxos (Theorem 4.9; 2-deciding, n ≥ 2f_P+1).
	ProtocolFastRobust Protocol = "fast-robust"
	// ProtocolProtectedMemoryPaxos is the paper's crash algorithm
	// (Theorem 5.1; 2-deciding, n ≥ f_P+1, m ≥ 2f_M+1).
	ProtocolProtectedMemoryPaxos Protocol = "protected-memory-paxos"
	// ProtocolAlignedPaxos tolerates a minority of the combined
	// process+memory set (§5.2).
	ProtocolAlignedPaxos Protocol = "aligned-paxos"
	// ProtocolDiskPaxos is the shared-memory-only baseline (≥4 delays).
	ProtocolDiskPaxos Protocol = "disk-paxos"
	// ProtocolPaxos is the classic message-passing baseline (4 delays,
	// n ≥ 2f_P+1).
	ProtocolPaxos Protocol = "paxos"
	// ProtocolFastPaxos is the message-passing fast baseline (2 delays in
	// the common case, process quorums only).
	ProtocolFastPaxos Protocol = "fast-paxos"
)

// Protocols lists every protocol in a stable order.
func Protocols() []Protocol {
	return []Protocol{
		ProtocolFastRobust,
		ProtocolProtectedMemoryPaxos,
		ProtocolAlignedPaxos,
		ProtocolDiskPaxos,
		ProtocolPaxos,
		ProtocolFastPaxos,
	}
}

// Options describe the topology and timing of a cluster.
type Options struct {
	// Processes is n. Zero means 3.
	Processes int
	// Memories is m. Zero means 3 (ignored by pure message-passing
	// protocols).
	Memories int
	// FaultyProcesses is f_P, the failure bound the protocol must be
	// configured for. Zero means the maximum the protocol supports for n.
	FaultyProcesses int
	// FaultyMemories is f_M. Zero means the maximum for m, that is ⌊(m−1)/2⌋.
	FaultyMemories int
	// Leader is the initial/fast-path leader: the process granted the
	// epoch-1 lease. Zero means process 1.
	Leader types.ProcID
	// LeaseDuration enables leader leases: the cluster runs a lease-granting
	// failure detector (heartbeats over the simulated network) whose holder
	// is renewed for LeaseDuration past each of its heartbeats and replaced —
	// under a bumped epoch — once it goes silent and the lease expires.
	// Cluster.Leader then follows the lease. Zero disables expiry: the
	// initial leader keeps an eternal epoch-1 lease and SetLeader is the
	// only takeover path (the pre-lease behavior).
	LeaseDuration time.Duration
	// NetworkDelay is the one-way message delay of the simulated network.
	NetworkDelay time.Duration
	// MemoryLatency is the per-operation latency of the simulated memories.
	MemoryLatency time.Duration
	// FastTimeout is the fast-path timeout (Cheap Quorum, Fast Paxos).
	FastTimeout time.Duration
	// RoundTimeout is the round timeout of retry-based protocols.
	RoundTimeout time.Duration
	// Recorder receives trace events from every node; may be nil.
	Recorder *trace.Recorder
	// InstancesOnly skips building the single-shot proposer nodes: the
	// cluster serves only multiplexed consensus instances (NewInstance).
	// The replicated-log layer sets it so that a log group does not carry a
	// full set of permanently idle base nodes. Cluster.Proposer returns nil
	// for every process when set.
	InstancesOnly bool
}

func (o *Options) applyDefaults(protocol Protocol) {
	if o.Processes <= 0 {
		o.Processes = 3
	}
	if o.Memories <= 0 {
		o.Memories = 3
	}
	if o.Leader == types.NoProcess {
		o.Leader = 1
	}
	if o.FaultyMemories <= 0 {
		o.FaultyMemories = (o.Memories - 1) / 2
	}
	if o.FaultyProcesses <= 0 {
		switch protocol {
		case ProtocolProtectedMemoryPaxos, ProtocolDiskPaxos:
			// These protocols tolerate n-1 process crashes.
			o.FaultyProcesses = o.Processes - 1
		case ProtocolAlignedPaxos:
			// A minority of the n+m agents may crash, f_M memories of them.
			o.FaultyProcesses = max((o.Processes+o.Memories-1)/2-o.FaultyMemories, 0)
		default:
			o.FaultyProcesses = (o.Processes - 1) / 2
		}
	}
}

// Result is the uniform outcome of one proposal.
type Result struct {
	// Value is the decided value.
	Value types.Value
	// DecisionDelays is the causal delay count of the decision along the
	// proposer's operation chain, when the protocol reports it (zero
	// otherwise).
	DecisionDelays int64
	// FastPath reports whether an optimistic fast path produced the
	// decision (Fast & Robust, Fast Paxos).
	FastPath bool
	// Elapsed is the wall-clock time of the proposal.
	Elapsed time.Duration
}

// Proposer is the uniform interface over every protocol node.
type Proposer interface {
	// Propose proposes a value and returns the decision.
	Propose(ctx context.Context, v types.Value) (Result, error)
	// Clock returns the node's causal delay clock.
	Clock() *delayclock.Clock
}

// Cluster is a fully wired simulation of one protocol deployment.
type Cluster struct {
	Protocol Protocol
	Opts     Options
	Procs    []types.ProcID
	Pool     *memsim.Pool
	Network  *netsim.Network
	Ring     *sigs.KeyRing
	// Oracle is the cluster's Ω implementation: a lease-granting failure
	// detector shared by every node. With Options.LeaseDuration zero it
	// degenerates to the old static oracle (an eternal epoch-1 lease moved
	// only by SetLeader); with a positive duration the cluster's lease
	// runtime renews and re-elects it automatically.
	Oracle *omega.LeaseDetector

	proposers map[types.ProcID]Proposer

	mu            sync.Mutex
	routers       map[types.ProcID]*netsim.Router
	stoppers      []func()
	liveInstances int // open (NewInstance'd, not yet Closed) consensus instances
	peakInstances int // high-water mark of liveInstances
}

// NewCluster builds a cluster running the given protocol.
func NewCluster(protocol Protocol, opts Options) (*Cluster, error) {
	opts.applyDefaults(protocol)
	procs := make([]types.ProcID, 0, opts.Processes)
	for i := 1; i <= opts.Processes; i++ {
		procs = append(procs, types.ProcID(i))
	}
	leaseOpts := omega.LeaseOptions{Duration: opts.LeaseDuration}
	if rec := opts.Recorder; rec != nil {
		leaseOpts.OnTakeover = func(l omega.Lease) {
			rec.Record(l.Holder, trace.KindLeaseTakeover, nil, l.Stamp,
				"lease takeover: epoch %d granted to %s", l.Epoch, l.Holder)
		}
	}
	c := &Cluster{
		Protocol:  protocol,
		Opts:      opts,
		Procs:     procs,
		Network:   netsim.New(netsim.Options{Delay: opts.NetworkDelay}),
		Ring:      sigs.NewKeyRing(procs),
		Oracle:    omega.NewLeaseDetector(procs, opts.Leader, leaseOpts),
		proposers: make(map[types.ProcID]Proposer, len(procs)),
		routers:   make(map[types.ProcID]*netsim.Router, len(procs)),
	}

	memOpts := memsim.Options{OperationLatency: opts.MemoryLatency}
	var build func(p types.ProcID) (Proposer, func(), error)
	switch protocol {
	case ProtocolFastRobust:
		memOpts.LegalChange = fastrobust.LegalChange()
		c.Pool = memsim.NewPool(opts.Memories, func(types.MemID) []memsim.RegionSpec {
			return fastrobust.Layout(procs, opts.Leader)
		}, memOpts)
		build = c.buildFastRobust
	case ProtocolProtectedMemoryPaxos:
		memOpts.LegalChange = pmpaxos.LegalChange(procs)
		c.Pool = memsim.NewPool(opts.Memories, func(types.MemID) []memsim.RegionSpec {
			return pmpaxos.Layout(procs, opts.Leader)
		}, memOpts)
		build = func(p types.ProcID) (Proposer, func(), error) {
			return c.buildPMPaxos(p, pmpaxos.Region, pmpaxos.DecideKind, c.Oracle, opts.Leader, false)
		}
	case ProtocolAlignedPaxos:
		c.Pool = memsim.NewPool(opts.Memories, func(types.MemID) []memsim.RegionSpec {
			return aligned.Layout(procs)
		}, memOpts)
		build = c.buildAlignedPaxos
	case ProtocolDiskPaxos:
		c.Pool = memsim.NewPool(opts.Memories, func(types.MemID) []memsim.RegionSpec {
			return diskpaxos.Layout(procs)
		}, memOpts)
		build = c.buildDiskPaxos
	case ProtocolPaxos:
		c.Pool = memsim.NewPool(opts.Memories, func(types.MemID) []memsim.RegionSpec { return nil }, memOpts)
		build = func(p types.ProcID) (Proposer, func(), error) { return c.buildPaxos(p, "paxos/msg", c.Oracle) }
	case ProtocolFastPaxos:
		c.Pool = memsim.NewPool(opts.Memories, func(types.MemID) []memsim.RegionSpec { return nil }, memOpts)
		build = c.buildFastPaxos
	default:
		c.Close()
		return nil, fmt.Errorf("%w: unknown protocol %q", types.ErrInvalidConfig, protocol)
	}

	if !opts.InstancesOnly {
		for _, p := range procs {
			proposer, stop, err := build(p)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("cluster %s: %w", protocol, err)
			}
			c.proposers[p] = proposer
			if stop != nil {
				c.stoppers = append(c.stoppers, stop)
			}
		}
	}
	if opts.LeaseDuration > 0 {
		c.startLeaseRuntime()
	}
	return c, nil
}

// startLeaseRuntime wires the lease detector to the simulated network: every
// process broadcasts heartbeats (stamped off the detector's delay clock, so
// successive rounds chain causally); every process's router feeds received
// heartbeats back into the shared detector — the followers' grant path,
// where self-deliveries do not count (see LeaseDetector.Heartbeat) — and a
// ticker runs the election step. Crashing a process on the network stops
// its renewals and its electability exactly like a stalled CPU while its
// memories stay reachable (the zombie-server failure mode), and a holder
// partitioned away from every follower loses its lease the same way: no
// follower hears it, so nobody keeps granting.
func (c *Cluster) startLeaseRuntime() {
	period := c.Opts.LeaseDuration / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, p := range c.Procs {
		ep := c.Network.Register(p)
		sub := c.router(p).Subscribe(omega.LeaseHeartbeatKind, 0)
		wg.Add(2)
		go func() { // heartbeat sender: errors just mean nobody hears us
			defer wg.Done()
			ticker := time.NewTicker(period)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					_ = ep.Broadcast(omega.LeaseHeartbeatKind, nil, c.Oracle.Now())
				}
			}
		}()
		go func() { // heartbeat receiver: process p's follower grants
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case msg := <-sub:
					c.Oracle.Heartbeat(msg.From, p, msg.Stamp)
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // election ticker
		defer wg.Done()
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				c.Oracle.Tick()
			}
		}
	}()
	c.stoppers = append(c.stoppers, func() {
		cancel()
		wg.Wait()
	})
}

// Close stops every node and the simulated network.
func (c *Cluster) Close() {
	c.mu.Lock()
	stoppers := c.stoppers
	c.stoppers = nil
	routers := c.routers
	c.routers = make(map[types.ProcID]*netsim.Router)
	c.mu.Unlock()
	for i := len(stoppers) - 1; i >= 0; i-- {
		stoppers[i]()
	}
	for _, r := range routers {
		r.Close()
	}
	if c.Network != nil {
		c.Network.Close()
	}
}

// Proposer returns the node of process p.
func (c *Cluster) Proposer(p types.ProcID) Proposer { return c.proposers[p] }

// LiveInstances returns how many consensus instances are currently open
// (created by NewInstance/NewRecoveryInstance and not yet Closed). A
// pipelined replicated log keeps up to its pipeline depth open per group.
func (c *Cluster) LiveInstances() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveInstances
}

// PeakInstances returns the high-water mark of LiveInstances over the
// cluster's lifetime — the observed slot-level concurrency.
func (c *Cluster) PeakInstances() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peakInstances
}

// instanceOpened and instanceClosed maintain the live-instance count. An
// instance is counted exactly once: Close is idempotent and an instance
// abandoned half-built (a builder failed) was never counted.
func (c *Cluster) instanceOpened(inst *Instance) {
	c.mu.Lock()
	defer c.mu.Unlock()
	inst.counted = true
	c.liveInstances++
	if c.liveInstances > c.peakInstances {
		c.peakInstances = c.liveInstances
	}
}

func (c *Cluster) instanceClosed(inst *Instance) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !inst.counted {
		return
	}
	inst.counted = false
	c.liveInstances--
}

// Leader returns the current lease holder. Before any takeover this is the
// configured initial leader; after an election or SetLeader it follows the
// lease. Callers that need the epoch-carrying view use Lease.
func (c *Cluster) Leader() types.ProcID { return c.Oracle.Leader() }

// SetLeader forces a lease takeover by p under the next epoch (simulating a
// leader change / planned handoff).
func (c *Cluster) SetLeader(p types.ProcID) { c.Oracle.Transfer(p) }

// Lease returns the cluster's current lease (holder, epoch, expiry).
func (c *Cluster) Lease() omega.Lease { return c.Oracle.Lease() }

// LeaseHolder returns the current lease holder (valid or expired).
func (c *Cluster) LeaseHolder() types.ProcID { return c.Oracle.Leader() }

// LeaseEpoch returns the current lease epoch. Epochs are strictly monotone
// and fence superseded leaders: a proposal driven under epoch e must not
// decide once a lease of epoch > e exists (the replication layer enforces
// this through the recovery instances' phase-1 permission steal).
func (c *Cluster) LeaseEpoch() uint64 { return c.Oracle.Epoch() }

// LeaseTakeovers returns how many lease takeovers (elections and forced
// transfers) the cluster has seen.
func (c *Cluster) LeaseTakeovers() uint64 { return c.Oracle.Takeovers() }

// CrashMemories crashes count memories (in identifier order) and returns
// their identifiers.
func (c *Cluster) CrashMemories(count int) []types.MemID { return c.Pool.CrashQuorumSafe(count) }

// ReviveMemories revives every crashed memory in the pool (the mirror of
// CrashMemories) and returns the identifiers that were in fact crashed.
func (c *Cluster) ReviveMemories() []types.MemID { return c.Pool.Revive() }

// CrashProcess crashes a process on the network (its messages stop flowing).
// Memory-based protocols treat a crashed process as one that simply stops
// taking steps.
func (c *Cluster) CrashProcess(p types.ProcID) { c.Network.CrashProcess(p) }

// ReviveProcess lets a crashed process's messages flow again. Its heartbeat
// sender never stopped ticking — the sends just failed — so a revived
// process resumes renewing (or granting) leases within a heartbeat period,
// and epoch fencing keeps anything it had in flight from the pre-crash era
// from deciding. This is the recovering half of the zombie-server scenario.
func (c *Cluster) ReviveProcess(p types.ProcID) { c.Network.ReviveProcess(p) }

// router returns the router of process p, creating and tracking it on first
// use. Each process has at most one router (the router owns the endpoint's
// receive loop); consensus instances multiplexed over a long-lived cluster
// add and remove subscriptions on the same router.
func (c *Cluster) router(p types.ProcID) *netsim.Router {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.routers[p]; ok {
		return r
	}
	r := netsim.NewRouter(c.Network.Register(p))
	c.routers[p] = r
	return r
}

// --- protocol adapters -----------------------------------------------------

type fastRobustProposer struct{ node *fastrobust.Node }

func (a *fastRobustProposer) Propose(ctx context.Context, v types.Value) (Result, error) {
	start := time.Now()
	out, err := a.node.Propose(ctx, v)
	if err != nil {
		return Result{}, err
	}
	return Result{Value: out.Value, DecisionDelays: out.DecisionDelays, FastPath: out.FastPath, Elapsed: time.Since(start)}, nil
}

func (a *fastRobustProposer) Clock() *delayclock.Clock { return a.node.Clock() }

func (c *Cluster) buildFastRobust(p types.ProcID) (Proposer, func(), error) {
	node, err := fastrobust.New(fastrobust.Config{
		Self:               p,
		Leader:             c.Opts.Leader,
		Procs:              c.Procs,
		FaultyProcesses:    c.Opts.FaultyProcesses,
		FaultyMemories:     c.Opts.FaultyMemories,
		Memories:           c.Pool.Memories(),
		Ring:               c.Ring,
		Oracle:             c.Oracle,
		FastTimeout:        c.Opts.FastTimeout,
		BackupRoundTimeout: c.Opts.RoundTimeout,
		Recorder:           c.Opts.Recorder,
	})
	if err != nil {
		return nil, nil, err
	}
	node.Start()
	return &fastRobustProposer{node: node}, node.Stop, nil
}

type pmPaxosProposer struct{ node *pmpaxos.Node }

func (a *pmPaxosProposer) Propose(ctx context.Context, v types.Value) (Result, error) {
	start := time.Now()
	out, err := a.node.Propose(ctx, v)
	if err != nil {
		return Result{}, err
	}
	return Result{Value: out.Value, DecisionDelays: out.DecisionDelays, Elapsed: time.Since(start)}, nil
}

func (a *pmPaxosProposer) Clock() *delayclock.Clock { return a.node.Clock() }

func (a *pmPaxosProposer) WaitDecision(ctx context.Context) (types.Value, error) {
	return a.node.WaitDecision(ctx)
}

// buildPMPaxos builds process p's Protected Memory Paxos node on region,
// broadcasting and learning decisions under decideKind: the stand-alone
// instance (pmpaxos.Region, pmpaxos.DecideKind) or one log slot
// (pmpaxos.RegionFor, pmpaxos.DecideKindFor). leader is the process the
// region's initial write permission was laid out for; it skips phase 1 on
// its first proposal unless forcePhase1 is set.
func (c *Cluster) buildPMPaxos(p types.ProcID, region types.RegionID, decideKind string, oracle omega.Oracle, leader types.ProcID, forcePhase1 bool) (SlotProposer, func(), error) {
	router := c.router(p)
	// Only a process that decides the instance broadcasts on decideKind, so
	// one message per process holds what the subscription receives; were it
	// ever full, Unsubscribe still releases the router.
	sub := router.Subscribe(decideKind, len(c.Procs))
	node, err := pmpaxos.New(pmpaxos.Config{
		Self:           p,
		Procs:          c.Procs,
		InitialLeader:  leader,
		ForcePhase1:    forcePhase1,
		FaultyMemories: c.Opts.FaultyMemories,
		Memories:       c.Pool.Memories(),
		Oracle:         oracle,
		Endpoint:       c.Network.Register(p),
		DecideSub:      sub,
		Region:         region,
		DecideKind:     decideKind,
		Recorder:       c.Opts.Recorder,
	})
	if err != nil {
		router.Unsubscribe(sub)
		return nil, nil, err
	}
	node.Start()
	return &pmPaxosProposer{node: node}, func() { node.Stop(); router.Unsubscribe(sub) }, nil
}

type alignedProposer struct{ node *aligned.Node }

func (a *alignedProposer) Propose(ctx context.Context, v types.Value) (Result, error) {
	start := time.Now()
	out, err := a.node.Propose(ctx, v)
	if err != nil {
		return Result{}, err
	}
	return Result{Value: out.Value, Elapsed: time.Since(start)}, nil
}

func (a *alignedProposer) Clock() *delayclock.Clock { return a.node.Clock() }

func (c *Cluster) buildAlignedPaxos(p types.ProcID) (Proposer, func(), error) {
	router := c.router(p)
	node, err := aligned.New(aligned.Config{
		Self:         p,
		Procs:        c.Procs,
		Memories:     c.Pool.Memories(),
		Endpoint:     c.Network.Register(p),
		Sub:          router.Subscribe("aligned/", 0),
		Oracle:       c.Oracle,
		RoundTimeout: c.Opts.RoundTimeout,
		Recorder:     c.Opts.Recorder,
	})
	if err != nil {
		return nil, nil, err
	}
	node.Start()
	return &alignedProposer{node: node}, node.Stop, nil
}

type diskPaxosProposer struct{ node *diskpaxos.Node }

func (a *diskPaxosProposer) Propose(ctx context.Context, v types.Value) (Result, error) {
	start := time.Now()
	out, err := a.node.Propose(ctx, v)
	if err != nil {
		return Result{}, err
	}
	return Result{Value: out.Value, DecisionDelays: out.DecisionDelays, Elapsed: time.Since(start)}, nil
}

func (a *diskPaxosProposer) Clock() *delayclock.Clock { return a.node.Clock() }

func (c *Cluster) buildDiskPaxos(p types.ProcID) (Proposer, func(), error) {
	node, err := diskpaxos.New(diskpaxos.Config{
		Self:           p,
		Procs:          c.Procs,
		InitialLeader:  c.Opts.Leader,
		FaultyMemories: c.Opts.FaultyMemories,
		Memories:       c.Pool.Memories(),
		Oracle:         c.Oracle,
		Recorder:       c.Opts.Recorder,
	})
	if err != nil {
		return nil, nil, err
	}
	return &diskPaxosProposer{node: node}, nil, nil
}

type paxosProposer struct{ node *paxos.Node }

func (a *paxosProposer) Propose(ctx context.Context, v types.Value) (Result, error) {
	start := time.Now()
	startClock := a.node.Clock().Now()
	value, err := a.node.Propose(ctx, v)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Value:          value,
		DecisionDelays: int64(a.node.Clock().Now() - startClock),
		Elapsed:        time.Since(start),
	}, nil
}

func (a *paxosProposer) Clock() *delayclock.Clock { return a.node.Clock() }

func (a *paxosProposer) WaitDecision(ctx context.Context) (types.Value, error) {
	return a.node.WaitDecision(ctx)
}

// buildPaxos builds process p's classic Paxos node exchanging messages of
// exactly kind: "paxos/msg" for the stand-alone instance, paxosSlotKind for a
// log slot. The subscription is to the exact kind, never the "paxos/" prefix,
// so one instance's messages never leak into another's acceptor state.
func (c *Cluster) buildPaxos(p types.ProcID, kind string, oracle omega.Oracle) (SlotProposer, func(), error) {
	router := c.router(p)
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
	return &paxosProposer{node: node}, func() { node.Stop(); router.Unsubscribe(sub) }, nil
}

type fastPaxosProposer struct{ node *fastpaxos.Node }

func (a *fastPaxosProposer) Propose(ctx context.Context, v types.Value) (Result, error) {
	start := time.Now()
	out, err := a.node.Propose(ctx, v)
	if err != nil {
		return Result{}, err
	}
	return Result{Value: out.Value, DecisionDelays: out.DecisionDelays, FastPath: out.FastPath, Elapsed: time.Since(start)}, nil
}

func (a *fastPaxosProposer) Clock() *delayclock.Clock { return a.node.Clock() }

func (c *Cluster) buildFastPaxos(p types.ProcID) (Proposer, func(), error) {
	router := c.router(p)
	node, err := fastpaxos.New(fastpaxos.Config{
		Self:            p,
		Procs:           c.Procs,
		FaultyProcesses: c.Opts.FaultyProcesses,
		Endpoint:        c.Network.Register(p),
		FastSub:         router.Subscribe("fastpaxos/", 0),
		ClassicSub:      router.Subscribe(fastpaxos.ClassicKind, 0),
		Oracle:          c.Oracle,
		FastTimeout:     c.Opts.FastTimeout,
		Recorder:        c.Opts.Recorder,
	})
	if err != nil {
		return nil, nil, err
	}
	node.Start()
	return &fastPaxosProposer{node: node}, node.Stop, nil
}
