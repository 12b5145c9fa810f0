// Package pmpaxos implements Protected Memory Paxos (Algorithm 7, §5.1): a
// crash-tolerant consensus algorithm for the message-and-memory model that
// needs only n ≥ f_P + 1 processes and m ≥ 2f_M + 1 memories and decides in
// two delays in the common case (Theorem 5.1).
//
// The algorithm keeps Disk Paxos's structure but uses dynamic permissions to
// skip Disk Paxos's final read: at any time exactly one process holds write
// permission on each memory, so a leader whose phase-2 write succeeds knows
// that no other leader has taken over (the other leader would have stolen the
// permission first), and can decide immediately. The initial leader holds the
// permission from the start and therefore decides after a single parallel
// write to the memories — two delays.
//
// Each memory holds one region with a slot per process; only the current
// permission holder can write (each process writes only its own slot), and
// every process can read every slot.
package pmpaxos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"rdmaagreement/internal/delayclock"
	"rdmaagreement/internal/memsim"
	"rdmaagreement/internal/netsim"
	"rdmaagreement/internal/omega"
	"rdmaagreement/internal/trace"
	"rdmaagreement/internal/types"
)

// Region is the single region each memory dedicates to the protocol when it
// runs as a stand-alone single-shot instance.
const Region = types.RegionID("pmpaxos")

// DecideKind is the message kind used to broadcast decisions to learners of
// the stand-alone instance.
const DecideKind = "pmpaxos/decide"

// instanceRegionPrefix scopes the regions of multiplexed consensus instances
// (log slots) so that an unbounded sequence of instances can share one memory
// pool without colliding.
const instanceRegionPrefix = "pmpaxos/slot/"

// RegionFor names the region of consensus instance slot.
func RegionFor(slot uint64) types.RegionID {
	return types.RegionID(fmt.Sprintf("%s%d", instanceRegionPrefix, slot))
}

// DecideKindFor names the decide-broadcast message kind of consensus instance
// slot. The trailing path segment keeps slot prefixes unambiguous (slot 3
// never matches a subscription for slot 30 and vice versa).
func DecideKindFor(slot uint64) string {
	return fmt.Sprintf("pmpaxos/slot/%d/decide", slot)
}

// slotRegister names the slot of process p.
func slotRegister(p types.ProcID) types.RegisterID {
	return types.RegisterID(fmt.Sprintf("slot/%d", int(p)))
}

// Layout returns the per-memory region layout: one region containing one slot
// per process, initially writable only by the initial leader and readable by
// everyone.
func Layout(procs []types.ProcID, initialLeader types.ProcID) []memsim.RegionSpec {
	return []memsim.RegionSpec{RegionSpecFor(Region, procs, initialLeader)}
}

// InstanceLayout returns the region layout of consensus instance slot. The
// replicated-log layer installs one such region per slot on the shared,
// long-lived memory pool (memsim.Memory.EnsureRegion).
func InstanceLayout(slot uint64, procs []types.ProcID, initialLeader types.ProcID) memsim.RegionSpec {
	return RegionSpecFor(RegionFor(slot), procs, initialLeader)
}

// RegionSpecFor builds the protocol's region layout under an arbitrary region
// identifier: one slot register per process, initially writable only by the
// initial leader and readable by everyone else.
func RegionSpecFor(region types.RegionID, procs []types.ProcID, initialLeader types.ProcID) memsim.RegionSpec {
	regs := make([]types.RegisterID, 0, len(procs))
	for _, p := range procs {
		regs = append(regs, slotRegister(p))
	}
	readers := types.NewProcSet()
	for _, p := range procs {
		if p != initialLeader {
			readers = readers.Add(p)
		}
	}
	return memsim.RegionSpec{
		ID:        region,
		Registers: regs,
		Perm:      memsim.NewPermission(readers, nil, types.NewProcSet(initialLeader)),
	}
}

// LegalChange returns the permission-change policy: a process may only make
// itself the exclusive writer while leaving every other process able to read
// (the "acquire write permission" step of Algorithm 7). The policy covers the
// stand-alone region and every per-slot instance region, so one long-lived
// memory pool can serve an unbounded log of instances.
func LegalChange(procs []types.ProcID) memsim.LegalChangeFunc {
	exclusive := memsim.ExclusiveWriterPolicy(procs)
	return func(p types.ProcID, region types.RegionID, old, new memsim.Permission) bool {
		if region == Region || strings.HasPrefix(string(region), instanceRegionPrefix) {
			return exclusive(p, region, old, new)
		}
		return memsim.StaticPermissions(p, region, old, new)
	}
}

// slot is the content of slot[i, p].
type slot struct {
	MinProposal types.ProposalNumber `json:"min_proposal"`
	AccProposal types.ProposalNumber `json:"acc_proposal"`
	Value       types.Value          `json:"value,omitempty"`
}

func (s slot) encode() (types.Value, error) {
	out, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("encode slot: %w", err)
	}
	return out, nil
}

func decodeSlot(raw types.Value) (slot, bool) {
	if raw.Bottom() {
		return slot{}, false
	}
	var s slot
	if err := json.Unmarshal(raw, &s); err != nil {
		return slot{}, false
	}
	return s, true
}

// Config configures a Protected Memory Paxos participant.
type Config struct {
	// Self is this process.
	Self types.ProcID
	// Procs is the full process set. Protected Memory Paxos requires only
	// n ≥ f_P + 1: consensus is reached as long as at least one process is
	// alive, because processes never need to hear from each other.
	Procs []types.ProcID
	// InitialLeader is the process holding write permission at start (p1).
	InitialLeader types.ProcID
	// ForcePhase1 makes this node run the full first phase even on its first
	// proposal as the initial leader. Recovery and fencing proposers set it:
	// their phase 1 must steal the write permission — fencing any
	// still-in-flight write of a superseded attempt — and adopt the highest
	// accepted value, both of which the initial leader's skip-phase-1 fast
	// path would bypass.
	ForcePhase1 bool
	// FaultyMemories is f_M; m ≥ 2f_M+1.
	FaultyMemories int
	// Memories is the memory pool laid out with Layout/LegalChange.
	Memories []*memsim.Memory
	// Oracle is the Ω leader oracle (liveness only). Nil means the process
	// always considers itself leader.
	Oracle omega.Oracle
	// Endpoint and DecideSub, if set, are used to broadcast and learn
	// decisions so that all correct processes terminate, as suggested in the
	// paper's termination proof. They are optional: Propose works without
	// them.
	Endpoint  *netsim.Endpoint
	DecideSub <-chan netsim.Message
	// Region is the memory region this node operates on. Empty means the
	// stand-alone Region; the replicated-log layer sets RegionFor(slot) so
	// that many instances multiplex one memory pool.
	Region types.RegionID
	// DecideKind is the message kind of decide broadcasts. Empty means the
	// stand-alone DecideKind; instances use DecideKindFor(slot).
	DecideKind string
	// RetryDelay is the pause before retrying a preempted proposal. Zero
	// means 10ms.
	RetryDelay time.Duration
	// Clock is the causal delay clock; nil allocates a private one.
	Clock *delayclock.Clock
	// Recorder receives trace events; may be nil.
	Recorder *trace.Recorder
}

// Validate checks the resilience bounds.
func (c *Config) Validate() error {
	if len(c.Procs) < 1 {
		return fmt.Errorf("%w: at least one process is required", types.ErrInvalidConfig)
	}
	if len(c.Memories) < 2*c.FaultyMemories+1 {
		return fmt.Errorf("%w: m=%d cannot tolerate f_M=%d (need m ≥ 2f_M+1)",
			types.ErrInvalidConfig, len(c.Memories), c.FaultyMemories)
	}
	if c.InitialLeader == types.NoProcess {
		return fmt.Errorf("%w: an initial leader is required", types.ErrInvalidConfig)
	}
	return nil
}

func (c *Config) applyDefaults() {
	if c.Region == "" {
		c.Region = Region
	}
	if c.DecideKind == "" {
		c.DecideKind = DecideKind
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 10 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = &delayclock.Clock{}
	}
}

// Outcome reports a Protected Memory Paxos decision.
type Outcome struct {
	// Value is the decided value.
	Value types.Value
	// DecisionDelays is the causal delay count along the decider's own
	// operation chain (2 for the initial leader in the common case).
	DecisionDelays int64
	// Rounds is the number of proposal rounds the decider needed.
	Rounds int
}

// Node is one Protected Memory Paxos participant.
type Node struct {
	cfg Config

	mu          sync.Mutex
	highestSeen types.ProposalNumber
	firstTry    bool

	decision types.Decision
	wg       sync.WaitGroup
	cancel   context.CancelFunc
}

// New creates a Protected Memory Paxos participant.
func New(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("protected memory paxos: %w", err)
	}
	cfg.applyDefaults()
	return &Node{cfg: cfg, firstTry: true}, nil
}

// Start launches the decision-learning loop when an endpoint was configured.
// It is a no-op otherwise. Stop terminates it.
func (n *Node) Start() {
	if n.cfg.DecideSub == nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case msg := <-n.cfg.DecideSub:
				n.cfg.Clock.MergeAfterMessage(msg.Stamp)
				n.learn(types.Value(msg.Payload))
			}
		}
	}()
}

// Stop terminates the learning loop, if any.
func (n *Node) Stop() {
	if n.cancel != nil {
		n.cancel()
	}
	n.wg.Wait()
}

// Clock returns the node's delay clock.
func (n *Node) Clock() *delayclock.Clock { return n.cfg.Clock }

// Decided returns the learned decision, if any.
func (n *Node) Decided() (types.Value, bool) { return n.decision.Decided() }

// WaitDecision blocks until this process learns a decision (through its own
// proposal or a decide broadcast).
func (n *Node) WaitDecision(ctx context.Context) (types.Value, error) {
	v, err := n.decision.Wait(ctx)
	if err != nil {
		return nil, fmt.Errorf("wait decision at %s: %w", n.cfg.Self, err)
	}
	return v, nil
}

func (n *Node) learn(v types.Value) {
	if n.decision.Learn(v) {
		n.cfg.Recorder.Record(n.cfg.Self, trace.KindDecide, v, n.cfg.Clock.Now(), "protected memory paxos learn")
	}
}

func (n *Node) isLeader() bool {
	if n.cfg.Oracle == nil {
		return true
	}
	return n.cfg.Oracle.Leader() == n.cfg.Self
}

// exclusivePermission is the permission a takeover installs: the acquiring
// process becomes the only writer, everyone else keeps read access.
func (n *Node) exclusivePermission() memsim.Permission {
	readers := types.NewProcSet()
	for _, p := range n.cfg.Procs {
		if p != n.cfg.Self {
			readers = readers.Add(p)
		}
	}
	return memsim.NewPermission(readers, nil, types.NewProcSet(n.cfg.Self))
}

// memoryPhaseResult is the outcome of one memory's participation in a phase.
type memoryPhaseResult struct {
	mem     types.MemID
	ok      bool // write permission held and operations acknowledged
	preempt bool // a slot with a higher minProposal was observed
	slots   []slot
	stamp   delayclock.Stamp
	err     error
}

// Propose runs the proposer until it decides, and returns the decision. Any
// process may propose; resilience to process crashes is total (n ≥ f_P + 1)
// because proposers never wait for other processes.
func (n *Node) Propose(ctx context.Context, v types.Value) (Outcome, error) {
	n.cfg.Recorder.Record(n.cfg.Self, trace.KindPropose, v, n.cfg.Clock.Now(), "protected memory paxos propose")
	rounds := 0
	for {
		if value, ok := n.Decided(); ok {
			return Outcome{Value: value, Rounds: rounds}, nil
		}
		if err := ctx.Err(); err != nil {
			return Outcome{}, fmt.Errorf("propose at %s: %w", n.cfg.Self, err)
		}
		if !n.isLeader() {
			select {
			case <-n.decision.Done():
				continue
			case <-time.After(n.cfg.RetryDelay):
				continue
			case <-ctx.Done():
				return Outcome{}, fmt.Errorf("propose at %s: %w", n.cfg.Self, ctx.Err())
			}
		}
		rounds++
		out, decided, err := n.runRound(ctx, v)
		if err != nil {
			return Outcome{}, err
		}
		if decided {
			out.Rounds = rounds
			return out, nil
		}
		select {
		case <-time.After(n.cfg.RetryDelay):
		case <-ctx.Done():
			return Outcome{}, fmt.Errorf("propose at %s: %w", n.cfg.Self, ctx.Err())
		}
	}
}

// runRound executes one proposal round (Algorithm 7's repeat body).
func (n *Node) runRound(ctx context.Context, v types.Value) (Outcome, bool, error) {
	start := n.cfg.Clock.Now()

	n.mu.Lock()
	ballot := n.highestSeen.Next(n.cfg.Self, n.highestSeen)
	n.highestSeen = ballot
	skipPhase1 := n.firstTry && n.cfg.Self == n.cfg.InitialLeader && !n.cfg.ForcePhase1
	n.firstTry = false
	n.mu.Unlock()

	myValue := v.Clone()
	phase2Start := start

	if !skipPhase1 {
		results, err := n.runPhase1(ctx, ballot, start)
		if err != nil {
			return Outcome{}, false, err
		}
		adopt := types.Value(nil)
		var adoptBallot types.ProposalNumber
		latest := start
		preempted := false
		for _, res := range results {
			if !res.ok || res.preempt {
				preempted = true
			}
			if res.stamp > latest {
				latest = res.stamp
			}
			for _, s := range res.slots {
				// Remember higher proposal numbers so the next round picks a
				// larger one and eventually wins.
				n.mu.Lock()
				if n.highestSeen.Less(s.MinProposal) {
					n.highestSeen = s.MinProposal
				}
				n.mu.Unlock()
				if !s.AccProposal.IsZero() && !s.Value.Bottom() && adoptBallot.Less(s.AccProposal) {
					adoptBallot = s.AccProposal
					adopt = s.Value.Clone()
				}
			}
		}
		if preempted {
			return Outcome{}, false, nil // write permission lost, nak, or a higher proposal observed
		}
		if !adopt.Bottom() {
			myValue = adopt
		}
		phase2Start = latest
	}

	completed, ok, err := n.runPhase2(ctx, ballot, myValue, phase2Start)
	if err != nil {
		return Outcome{}, false, err
	}
	if !ok {
		return Outcome{}, false, nil
	}

	delays := int64(completed - start)
	n.cfg.Recorder.Record(n.cfg.Self, trace.KindDecide, myValue, n.cfg.Clock.Now(),
		"protected memory paxos decision in %d delays (ballot %s)", delays, ballot)
	n.learn(myValue)
	n.broadcastDecision(myValue)
	return Outcome{Value: myValue, DecisionDelays: delays}, true, nil
}

// runPhase1 acquires exclusive write permission on each memory, publishes the
// new proposal number in the proposer's slot and reads every slot. It waits
// for m − f_M memories to complete and returns their results.
func (n *Node) runPhase1(ctx context.Context, ballot types.ProposalNumber, invoked delayclock.Stamp) ([]memoryPhaseResult, error) {
	opCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan memoryPhaseResult, len(n.cfg.Memories))
	for _, mem := range n.cfg.Memories {
		go func(mem *memsim.Memory) {
			results <- n.phase1OnMemory(opCtx, mem, ballot, invoked)
		}(mem)
	}
	return n.collect(ctx, results)
}

func (n *Node) phase1OnMemory(ctx context.Context, mem *memsim.Memory, ballot types.ProposalNumber, invoked delayclock.Stamp) memoryPhaseResult {
	res := memoryPhaseResult{mem: mem.ID()}

	stamp, err := mem.ChangePermission(ctx, n.cfg.Self, n.cfg.Region, n.exclusivePermission(), invoked)
	if err != nil {
		res.err = err
		return res
	}
	n.cfg.Clock.Merge(stamp)
	n.cfg.Recorder.Record(n.cfg.Self, trace.KindPermissionChange, nil, stamp, "acquired write permission on %s", mem.ID())

	blob, err := (slot{MinProposal: ballot}).encode()
	if err != nil {
		res.err = err
		return res
	}
	stamp, err = mem.Write(ctx, n.cfg.Self, n.cfg.Region, slotRegister(n.cfg.Self), blob, stamp)
	if err != nil {
		if errors.Is(err, types.ErrNak) {
			res.err = nil // permission already stolen again: treated as preemption
			return res
		}
		res.err = err
		return res
	}
	n.cfg.Clock.Merge(stamp)

	// Read every process's slot on this memory, in parallel (one round trip).
	type readResult struct {
		s     slot
		ok    bool
		stamp delayclock.Stamp
		err   error
	}
	reads := make(chan readResult, len(n.cfg.Procs))
	// Snapshot the post-write stamp: the collector below keeps advancing
	// `stamp`, and the read goroutines must not observe those writes (they
	// are all invoked at the same causal point, right after the write).
	readStamp := stamp
	for _, q := range n.cfg.Procs {
		go func(q types.ProcID) {
			raw, rstamp, rerr := mem.Read(ctx, n.cfg.Self, n.cfg.Region, slotRegister(q), readStamp)
			if rerr != nil {
				reads <- readResult{err: rerr}
				return
			}
			s, ok := decodeSlot(raw)
			reads <- readResult{s: s, ok: ok, stamp: rstamp}
		}(q)
	}
	for range n.cfg.Procs {
		r := <-reads
		if r.err != nil {
			res.err = r.err
			return res
		}
		n.cfg.Clock.Merge(r.stamp)
		if r.stamp > stamp {
			stamp = r.stamp
		}
		if !r.ok {
			continue
		}
		if ballot.Less(r.s.MinProposal) {
			res.preempt = true
		}
		res.slots = append(res.slots, r.s)
	}
	res.ok = true
	res.stamp = stamp
	return res
}

// runPhase2 writes the accepted proposal to the proposer's slot on every
// memory and waits for m − f_M acknowledgements. A nak on any completed
// memory means another leader took the permission, so the round is preempted.
func (n *Node) runPhase2(ctx context.Context, ballot types.ProposalNumber, value types.Value, invoked delayclock.Stamp) (delayclock.Stamp, bool, error) {
	blob, err := (slot{MinProposal: ballot, AccProposal: ballot, Value: value}).encode()
	if err != nil {
		return invoked, false, err
	}
	opCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan memoryPhaseResult, len(n.cfg.Memories))
	for _, mem := range n.cfg.Memories {
		go func(mem *memsim.Memory) {
			stamp, werr := mem.Write(opCtx, n.cfg.Self, n.cfg.Region, slotRegister(n.cfg.Self), blob, invoked)
			res := memoryPhaseResult{mem: mem.ID(), stamp: stamp}
			switch {
			case werr == nil:
				res.ok = true
				n.cfg.Clock.Merge(stamp)
			case errors.Is(werr, types.ErrNak):
				res.ok = false
			default:
				res.err = werr
			}
			results <- res
		}(mem)
	}
	collected, err := n.collect(ctx, results)
	if err != nil {
		return invoked, false, err
	}
	completed := invoked
	for _, res := range collected {
		if !res.ok {
			return invoked, false, nil
		}
		if res.stamp > completed {
			completed = res.stamp
		}
	}
	return completed, true, nil
}

// collect waits for m − f_M phase results (errors other than naks, such as a
// crashed memory hanging, do not count toward the quorum).
func (n *Node) collect(ctx context.Context, results <-chan memoryPhaseResult) ([]memoryPhaseResult, error) {
	quorum := len(n.cfg.Memories) - n.cfg.FaultyMemories
	collected := make([]memoryPhaseResult, 0, quorum)
	received := 0
	for received < len(n.cfg.Memories) {
		select {
		case res := <-results:
			received++
			if res.err != nil {
				continue
			}
			collected = append(collected, res)
			if len(collected) >= quorum {
				return collected, nil
			}
		case <-ctx.Done():
			return nil, fmt.Errorf("protected memory paxos at %s: %w", n.cfg.Self, ctx.Err())
		}
	}
	return nil, fmt.Errorf("protected memory paxos at %s: only %d of %d memories responded (need %d): %w",
		n.cfg.Self, len(collected), len(n.cfg.Memories), quorum, types.ErrMemoryCrashed)
}

// broadcastDecision tells the other processes about the decision, if a
// network endpoint was configured.
func (n *Node) broadcastDecision(v types.Value) {
	if n.cfg.Endpoint == nil {
		return
	}
	_ = n.cfg.Endpoint.Broadcast(n.cfg.DecideKind, v, n.cfg.Clock.Now())
}
