// Package aligned implements Aligned Paxos (§5.2, Algorithms 9–15): a
// crash-tolerant consensus algorithm that treats processes and memories as a
// single set of acceptors ("agents") and tolerates the crash of any minority
// of the combined set.
//
// The proposer runs two phases. In each phase it communicates with every
// agent — by sending a message to a process acceptor, or by writing/reading
// slots on a memory — waits for responses from a majority of all agents, and
// analyzes them with the usual Paxos rules (adopt the value with the highest
// accepted ballot, restart if a higher ballot is observed). Because any
// majority of the combined set suffices, the algorithm keeps deciding as long
// as fewer than half of the processes-plus-memories have crashed, which is
// strictly stronger than requiring both a process majority and a memory
// majority.
package aligned

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"rdmaagreement/internal/delayclock"
	"rdmaagreement/internal/memsim"
	"rdmaagreement/internal/netsim"
	"rdmaagreement/internal/omega"
	"rdmaagreement/internal/trace"
	"rdmaagreement/internal/types"
)

// Region is the per-memory region holding one slot per process.
const Region = types.RegionID("aligned")

// Message kinds used between the proposer and process acceptors.
const (
	KindPrepare  = "aligned/prepare"
	KindPromise  = "aligned/promise"
	KindAccept   = "aligned/accept"
	KindAccepted = "aligned/accepted"
	KindNack     = "aligned/nack"
	KindDecide   = "aligned/decide"
)

// slotRegister names the slot of process p on a memory.
func slotRegister(p types.ProcID) types.RegisterID {
	return types.RegisterID(fmt.Sprintf("slot/%d", int(p)))
}

// Layout returns the per-memory region layout: one open region with a slot
// per process. Aligned Paxos does not rely on permissions (see the paper's
// footnote 4); correctness against crashes comes from the combined quorums.
func Layout(procs []types.ProcID) []memsim.RegionSpec {
	regs := make([]types.RegisterID, 0, len(procs))
	for _, p := range procs {
		regs = append(regs, slotRegister(p))
	}
	return []memsim.RegionSpec{{
		ID:        Region,
		Registers: regs,
		Perm:      memsim.OpenPermission(procs),
	}}
}

// slot is the value stored in a memory slot.
type slot struct {
	MinProposal types.ProposalNumber `json:"min_proposal"`
	AccProposal types.ProposalNumber `json:"acc_proposal"`
	Value       types.Value          `json:"value,omitempty"`
}

// message is the wire format between proposer and process acceptors.
type message struct {
	Kind      string               `json:"kind"`
	Ballot    types.ProposalNumber `json:"ballot"`
	AccBallot types.ProposalNumber `json:"acc_ballot"`
	Value     types.Value          `json:"value,omitempty"`
}

func encode(v any) []byte {
	out, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return out
}

// Config configures an Aligned Paxos participant.
type Config struct {
	// Self is this process.
	Self types.ProcID
	// Procs is the full process set (each process is also an acceptor
	// agent).
	Procs []types.ProcID
	// Memories is the memory pool (each memory is an acceptor agent).
	Memories []*memsim.Memory
	// Endpoint is this process's network endpoint.
	Endpoint *netsim.Endpoint
	// Sub receives every "aligned/" message for this process.
	Sub <-chan netsim.Message
	// Oracle is the Ω oracle (liveness only).
	Oracle omega.Oracle
	// RoundTimeout bounds how long the proposer waits for a majority of
	// agents in each phase. Zero means 100ms.
	RoundTimeout time.Duration
	// RetryDelay is the pause before retrying a preempted round. Zero means
	// 10ms.
	RetryDelay time.Duration
	// Clock is the causal delay clock; nil allocates a private one.
	Clock *delayclock.Clock
	// Recorder receives trace events; may be nil.
	Recorder *trace.Recorder
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if len(c.Procs) == 0 || len(c.Memories) == 0 {
		return fmt.Errorf("%w: aligned paxos needs at least one process and one memory", types.ErrInvalidConfig)
	}
	if c.Endpoint == nil || c.Sub == nil {
		return fmt.Errorf("%w: endpoint and subscription are required", types.ErrInvalidConfig)
	}
	return nil
}

func (c *Config) applyDefaults() {
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 100 * time.Millisecond
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 10 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = &delayclock.Clock{}
	}
}

// Outcome reports an Aligned Paxos decision.
type Outcome struct {
	// Value is the decided value.
	Value types.Value
	// Rounds is the number of ballots the decider tried.
	Rounds int
}

// Node is one Aligned Paxos participant: proposer (when leader) and process
// acceptor.
type Node struct {
	cfg Config

	mu           sync.Mutex
	minProposal  types.ProposalNumber
	acceptedProp types.ProposalNumber
	acceptedVal  types.Value
	highestSeen  types.ProposalNumber

	decision  types.Decision
	responses chan response

	wg     sync.WaitGroup
	cancel context.CancelFunc
}

// response is a phase response from either kind of agent, translated to the
// common language of Algorithm 9's analyze steps.
type response struct {
	ballot    types.ProposalNumber
	ok        bool // promise/accepted or successful memory operation
	accBallot types.ProposalNumber
	value     types.Value
}

// New creates an Aligned Paxos participant.
func New(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("aligned paxos: %w", err)
	}
	cfg.applyDefaults()
	return &Node{
		cfg:       cfg,
		responses: make(chan response, 4*(len(cfg.Procs)+len(cfg.Memories))+16),
	}, nil
}

// Start launches the acceptor/learner loop. Stop terminates it.
func (n *Node) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.wg.Add(1)
	go n.acceptorLoop(ctx)
}

// Stop terminates background goroutines.
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

// WaitDecision blocks until a decision is learned.
func (n *Node) WaitDecision(ctx context.Context) (types.Value, error) {
	v, err := n.decision.Wait(ctx)
	if err != nil {
		return nil, fmt.Errorf("wait decision at %s: %w", n.cfg.Self, err)
	}
	return v, nil
}

func (n *Node) learn(v types.Value) {
	if n.decision.Learn(v) {
		n.cfg.Recorder.Record(n.cfg.Self, trace.KindDecide, v, n.cfg.Clock.Now(), "aligned paxos learn")
	}
}

func (n *Node) isLeader() bool {
	if n.cfg.Oracle == nil {
		return true
	}
	return n.cfg.Oracle.Leader() == n.cfg.Self
}

// totalAgents is the size of the combined acceptor set.
func (n *Node) totalAgents() int { return len(n.cfg.Procs) + len(n.cfg.Memories) }

// quorum is a majority of the combined acceptor set.
func (n *Node) quorum() int { return types.Majority(n.totalAgents()) }

// acceptorLoop implements the process-acceptor role and routes proposer
// responses.
func (n *Node) acceptorLoop(ctx context.Context) {
	defer n.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case raw := <-n.cfg.Sub:
			if raw.From == n.cfg.Self {
				n.cfg.Clock.Merge(raw.Stamp)
			} else {
				n.cfg.Clock.MergeAfterMessage(raw.Stamp)
			}
			var msg message
			if err := json.Unmarshal(raw.Payload, &msg); err != nil {
				continue
			}
			n.handle(raw.From, msg)
		}
	}
}

func (n *Node) handle(from types.ProcID, msg message) {
	switch msg.Kind {
	case KindPrepare:
		n.mu.Lock()
		reply := message{Ballot: msg.Ballot}
		if n.minProposal.Less(msg.Ballot) {
			n.minProposal = msg.Ballot
			reply.Kind = KindPromise
			reply.AccBallot = n.acceptedProp
			reply.Value = n.acceptedVal.Clone()
		} else {
			reply.Kind = KindNack
			reply.AccBallot = n.minProposal
		}
		n.mu.Unlock()
		_ = n.cfg.Endpoint.Send(from, reply.Kind, encode(reply), n.cfg.Clock.Now())
	case KindAccept:
		n.mu.Lock()
		reply := message{Ballot: msg.Ballot}
		if !msg.Ballot.Less(n.minProposal) {
			n.minProposal = msg.Ballot
			n.acceptedProp = msg.Ballot
			n.acceptedVal = msg.Value.Clone()
			reply.Kind = KindAccepted
		} else {
			reply.Kind = KindNack
			reply.AccBallot = n.minProposal
		}
		n.mu.Unlock()
		_ = n.cfg.Endpoint.Send(from, reply.Kind, encode(reply), n.cfg.Clock.Now())
	case KindDecide:
		n.learn(msg.Value)
	case KindPromise, KindAccepted, KindNack:
		resp := response{ballot: msg.Ballot, ok: msg.Kind != KindNack, accBallot: msg.AccBallot, value: msg.Value}
		if msg.Kind == KindNack {
			n.observe(msg.AccBallot)
		}
		select {
		case n.responses <- resp:
		default:
		}
	}
}

func (n *Node) observe(b types.ProposalNumber) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.highestSeen.Less(b) {
		n.highestSeen = b
	}
}

// Propose runs the proposer until a decision is learned and returns it.
func (n *Node) Propose(ctx context.Context, v types.Value) (Outcome, error) {
	n.cfg.Recorder.Record(n.cfg.Self, trace.KindPropose, v, n.cfg.Clock.Now(), "aligned paxos propose")
	rounds := 0
	for {
		if value, ok := n.Decided(); ok {
			return Outcome{Value: value, Rounds: rounds}, nil
		}
		if err := ctx.Err(); err != nil {
			return Outcome{}, fmt.Errorf("aligned propose at %s: %w", n.cfg.Self, err)
		}
		if !n.isLeader() {
			select {
			case <-n.decision.Done():
				continue
			case <-time.After(n.cfg.RetryDelay):
				continue
			case <-ctx.Done():
				return Outcome{}, fmt.Errorf("aligned propose at %s: %w", n.cfg.Self, ctx.Err())
			}
		}
		rounds++
		decided, value, err := n.runRound(ctx, v)
		if err != nil {
			return Outcome{}, err
		}
		if decided {
			return Outcome{Value: value, Rounds: rounds}, nil
		}
		select {
		case <-time.After(n.cfg.RetryDelay):
		case <-ctx.Done():
			return Outcome{}, fmt.Errorf("aligned propose at %s: %w", n.cfg.Self, ctx.Err())
		}
	}
}

// runRound executes one ballot across the combined agent set.
func (n *Node) runRound(ctx context.Context, v types.Value) (bool, types.Value, error) {
	n.mu.Lock()
	ballot := n.highestSeen.Next(n.cfg.Self, n.minProposal)
	n.highestSeen = ballot
	n.mu.Unlock()

	// Phase 1: communicate the ballot to every agent and analyze a majority
	// of responses.
	n.drainResponses()
	okResponses, preempted, err := n.phase(ctx, ballot, nil, true)
	if err != nil {
		return false, nil, err
	}
	if preempted || len(okResponses) < n.quorum() {
		return false, nil, nil
	}
	myValue := v.Clone()
	var adoptBallot types.ProposalNumber
	for _, r := range okResponses {
		if !r.accBallot.IsZero() && !r.value.Bottom() && adoptBallot.Less(r.accBallot) {
			adoptBallot = r.accBallot
			myValue = r.value.Clone()
		}
	}

	// Phase 2: communicate the chosen value and analyze a majority.
	n.drainResponses()
	okResponses, preempted, err = n.phase(ctx, ballot, myValue, false)
	if err != nil {
		return false, nil, err
	}
	if preempted || len(okResponses) < n.quorum() {
		return false, nil, nil
	}

	n.cfg.Recorder.Record(n.cfg.Self, trace.KindDecide, myValue, n.cfg.Clock.Now(), "aligned paxos decision (ballot %s)", ballot)
	_ = n.cfg.Endpoint.Broadcast(KindDecide, encode(message{Kind: KindDecide, Ballot: ballot, Value: myValue}), n.cfg.Clock.Now())
	n.learn(myValue)
	return true, myValue, nil
}

// phase communicates with every agent (phase 1 when value is nil, phase 2
// otherwise), waits for a majority of responses and returns the successful
// ones and whether any agent reported a higher ballot.
func (n *Node) phase(ctx context.Context, ballot types.ProposalNumber, value types.Value, isPhase1 bool) ([]response, bool, error) {
	phaseCtx, cancel := context.WithTimeout(ctx, n.cfg.RoundTimeout)
	defer cancel()

	// Process agents: send prepare or accept; replies arrive through the
	// acceptor loop into n.responses.
	for _, p := range n.cfg.Procs {
		var msg message
		if isPhase1 {
			msg = message{Kind: KindPrepare, Ballot: ballot}
		} else {
			msg = message{Kind: KindAccept, Ballot: ballot, Value: value}
		}
		_ = n.cfg.Endpoint.Send(p, msg.Kind, encode(msg), n.cfg.Clock.Now())
	}

	// Memory agents: write our slot and (in phase 1) read every slot.
	memResponses := make(chan response, len(n.cfg.Memories))
	for _, mem := range n.cfg.Memories {
		go func(mem *memsim.Memory) {
			memResponses <- n.memoryAgent(phaseCtx, mem, ballot, value, isPhase1)
		}(mem)
	}

	collected := make([]response, 0, n.totalAgents())
	preempted := false
	received := 0
	for received < n.totalAgents() && len(collected) < n.quorum() {
		select {
		case r := <-n.responses:
			if !r.ballot.Equal(ballot) {
				continue
			}
			received++
			if !r.ok {
				preempted = true
				continue
			}
			collected = append(collected, r)
		case r := <-memResponses:
			received++
			if !r.ok {
				if !r.accBallot.IsZero() {
					preempted = true
					n.observe(r.accBallot)
				}
				continue
			}
			collected = append(collected, r)
		case <-phaseCtx.Done():
			return collected, preempted, nil
		case <-ctx.Done():
			return nil, false, fmt.Errorf("aligned phase at %s: %w", n.cfg.Self, ctx.Err())
		}
	}
	return collected, preempted, nil
}

// memoryAgent performs one memory's share of a phase: write our slot with the
// ballot (and value in phase 2), and in phase 1 read every slot to learn
// previously accepted values and detect higher ballots.
func (n *Node) memoryAgent(ctx context.Context, mem *memsim.Memory, ballot types.ProposalNumber, value types.Value, isPhase1 bool) response {
	invoked := n.cfg.Clock.Now()
	s := slot{MinProposal: ballot}
	if !isPhase1 {
		s.AccProposal = ballot
		s.Value = value
	}
	stamp, err := mem.Write(ctx, n.cfg.Self, Region, slotRegister(n.cfg.Self), encode(s), invoked)
	if err != nil {
		if errors.Is(err, types.ErrNak) {
			return response{ballot: ballot, ok: false}
		}
		return response{ballot: ballot, ok: false}
	}
	n.cfg.Clock.Merge(stamp)
	if !isPhase1 {
		return response{ballot: ballot, ok: true}
	}

	best := response{ballot: ballot, ok: true}
	for _, q := range n.cfg.Procs {
		raw, rstamp, rerr := mem.Read(ctx, n.cfg.Self, Region, slotRegister(q), stamp)
		if rerr != nil {
			return response{ballot: ballot, ok: false}
		}
		n.cfg.Clock.Merge(rstamp)
		if raw.Bottom() {
			continue
		}
		var other slot
		if err := json.Unmarshal(raw, &other); err != nil {
			continue
		}
		if ballot.Less(other.MinProposal) {
			return response{ballot: ballot, ok: false, accBallot: other.MinProposal}
		}
		if !other.AccProposal.IsZero() && best.accBallot.Less(other.AccProposal) {
			best.accBallot = other.AccProposal
			best.value = other.Value.Clone()
		}
	}
	return best
}

// drainResponses discards stale responses from previous rounds.
func (n *Node) drainResponses() {
	for {
		select {
		case <-n.responses:
		default:
			return
		}
	}
}
