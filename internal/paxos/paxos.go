// Package paxos implements single-decree Paxos for the crash-failure model
// with a pluggable message transport.
//
// The same implementation serves three roles in the repository:
//
//   - over the simulated network (NetTransport) it is the classic
//     message-passing baseline (4 delays, n ≥ 2f_P+1);
//   - over the trusted T-send/T-receive transport (package robust) it becomes
//     the crash-tolerant algorithm "A" that the Robust Backup construction
//     hardens against Byzantine failures;
//   - wrapped by Preferential Paxos it is the backup path of Fast & Robust.
//
// The protocol is leader based: a process proposes only while the Ω oracle
// reports it as leader. Safety (agreement, validity) holds regardless of the
// oracle's output; the oracle is only needed for liveness, as usual.
package paxos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"rdmaagreement/internal/delayclock"
	"rdmaagreement/internal/omega"
	"rdmaagreement/internal/trace"
	"rdmaagreement/internal/types"
)

// Kind identifies a Paxos message type.
type Kind string

// Paxos message kinds.
const (
	KindPrepare  Kind = "prepare"
	KindPromise  Kind = "promise"
	KindAccept   Kind = "accept"
	KindAccepted Kind = "accepted"
	KindNack     Kind = "nack"
	KindDecide   Kind = "decide"
)

// Message is the wire format of every Paxos message.
type Message struct {
	Kind           Kind                 `json:"kind"`
	From           types.ProcID         `json:"from"`
	Ballot         types.ProposalNumber `json:"ballot"`
	AcceptedBallot types.ProposalNumber `json:"accepted_ballot,omitempty"`
	Value          types.Value          `json:"value,omitempty"`
}

// Encode serializes a message.
func (m Message) Encode() ([]byte, error) {
	out, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("encode paxos message: %w", err)
	}
	return out, nil
}

// DecodeMessage parses a message.
func DecodeMessage(payload []byte) (Message, error) {
	var m Message
	if err := json.Unmarshal(payload, &m); err != nil {
		return Message{}, fmt.Errorf("decode paxos message: %w", err)
	}
	return m, nil
}

// Transport abstracts how Paxos messages travel between processes. Both the
// plain network transport and the Byzantine-hardened trusted transport
// implement it.
type Transport interface {
	// Send delivers payload to one process.
	Send(ctx context.Context, to types.ProcID, payload []byte, stamp delayclock.Stamp) error
	// Broadcast delivers payload to every process (including the sender).
	Broadcast(ctx context.Context, payload []byte, stamp delayclock.Stamp) error
	// Receive blocks for the next incoming payload.
	Receive(ctx context.Context) (from types.ProcID, payload []byte, stamp delayclock.Stamp, err error)
}

// Config configures a Node.
type Config struct {
	// Self is this process.
	Self types.ProcID
	// Procs is the full process set.
	Procs []types.ProcID
	// Oracle is the Ω leader oracle used for liveness. Nil means the process
	// considers itself leader whenever it proposes.
	Oracle omega.Oracle
	// RoundTimeout bounds how long a proposer waits for a quorum of
	// responses before retrying with a higher ballot. Zero means 50ms.
	RoundTimeout time.Duration
	// Clock is the causal delay clock; nil allocates a private one.
	Clock *delayclock.Clock
	// Recorder receives trace events; may be nil.
	Recorder *trace.Recorder
}

func (c *Config) applyDefaults() {
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 50 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = &delayclock.Clock{}
	}
}

// Node is one Paxos participant: proposer (when leader), acceptor and
// learner.
type Node struct {
	cfg Config
	tr  Transport

	mu           sync.Mutex
	minProposal  types.ProposalNumber
	acceptedProp types.ProposalNumber
	acceptedVal  types.Value
	highestSeen  types.ProposalNumber

	decision  types.Decision
	responses chan Message

	wg     sync.WaitGroup
	cancel context.CancelFunc
}

// NewNode creates a Paxos node over the given transport.
func NewNode(cfg Config, tr Transport) *Node {
	cfg.applyDefaults()
	return &Node{
		cfg:       cfg,
		tr:        tr,
		responses: make(chan Message, 4*len(cfg.Procs)+16),
	}
}

// Start launches the node's message loop. Stop terminates it.
func (n *Node) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.wg.Add(1)
	go n.run(ctx)
}

// Stop terminates the message loop and waits for it to exit.
func (n *Node) Stop() {
	if n.cancel != nil {
		n.cancel()
	}
	n.wg.Wait()
}

// Clock returns the node's delay clock.
func (n *Node) Clock() *delayclock.Clock { return n.cfg.Clock }

// Decided returns the decided value, if any.
func (n *Node) Decided() (types.Value, bool) { return n.decision.Decided() }

// WaitDecision blocks until the node learns a decision or ctx is cancelled.
func (n *Node) WaitDecision(ctx context.Context) (types.Value, error) {
	v, err := n.decision.Wait(ctx)
	if err != nil {
		return nil, fmt.Errorf("wait decision at %s: %w", n.cfg.Self, err)
	}
	return v, nil
}

// quorum is the number of responses a proposer waits for: a majority of the
// process set.
func (n *Node) quorum() int { return types.Majority(len(n.cfg.Procs)) }

// run processes incoming messages until the context is cancelled.
func (n *Node) run(ctx context.Context) {
	defer n.wg.Done()
	for {
		from, payload, stamp, err := n.tr.Receive(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return
			}
			if ctx.Err() != nil {
				return
			}
			continue
		}
		// A message from the process to itself is a local computation and
		// costs no network delay; only remote messages cost one delay.
		if from == n.cfg.Self {
			n.cfg.Clock.Merge(stamp)
		} else {
			n.cfg.Clock.MergeAfterMessage(stamp)
		}
		msg, err := DecodeMessage(payload)
		if err != nil {
			continue
		}
		msg.From = from
		n.handle(ctx, msg)
	}
}

func (n *Node) handle(ctx context.Context, msg Message) {
	switch msg.Kind {
	case KindPrepare:
		n.handlePrepare(ctx, msg)
	case KindAccept:
		n.handleAccept(ctx, msg)
	case KindDecide:
		n.learn(msg.Value)
	case KindPromise, KindAccepted, KindNack:
		// Route responses to the proposer loop; drop them if no proposal is
		// in progress (stale responses).
		select {
		case n.responses <- msg:
		default:
		}
	}
}

func (n *Node) handlePrepare(ctx context.Context, msg Message) {
	n.mu.Lock()
	reply := Message{From: n.cfg.Self, Ballot: msg.Ballot}
	if n.minProposal.Less(msg.Ballot) {
		n.minProposal = msg.Ballot
		reply.Kind = KindPromise
		reply.AcceptedBallot = n.acceptedProp
		reply.Value = n.acceptedVal.Clone()
	} else {
		reply.Kind = KindNack
		reply.AcceptedBallot = n.minProposal
	}
	n.mu.Unlock()
	n.send(ctx, msg.From, reply)
}

func (n *Node) handleAccept(ctx context.Context, msg Message) {
	n.mu.Lock()
	reply := Message{From: n.cfg.Self, Ballot: msg.Ballot}
	if !msg.Ballot.Less(n.minProposal) {
		n.minProposal = msg.Ballot
		n.acceptedProp = msg.Ballot
		n.acceptedVal = msg.Value.Clone()
		reply.Kind = KindAccepted
	} else {
		reply.Kind = KindNack
		reply.AcceptedBallot = n.minProposal
	}
	n.mu.Unlock()
	n.send(ctx, msg.From, reply)
}

func (n *Node) learn(v types.Value) {
	if n.decision.Learn(v) {
		n.cfg.Recorder.Record(n.cfg.Self, trace.KindDecide, v, n.cfg.Clock.Now(), "paxos learn")
	}
}

func (n *Node) send(ctx context.Context, to types.ProcID, msg Message) {
	payload, err := msg.Encode()
	if err != nil {
		return
	}
	// Send errors (for example, the process was crashed by the fault
	// injector) are not actionable here; the proposer's timeout handles them.
	_ = n.tr.Send(ctx, to, payload, n.cfg.Clock.Now())
}

func (n *Node) broadcast(ctx context.Context, msg Message) {
	payload, err := msg.Encode()
	if err != nil {
		return
	}
	_ = n.tr.Broadcast(ctx, payload, n.cfg.Clock.Now())
}

// isLeader reports whether this node currently believes it is the leader.
func (n *Node) isLeader() bool {
	if n.cfg.Oracle == nil {
		return true
	}
	return n.cfg.Oracle.Leader() == n.cfg.Self
}

// Propose runs the proposer role with initial value v until a decision is
// learned (by this proposal or any other) and returns the decided value.
func (n *Node) Propose(ctx context.Context, v types.Value) (types.Value, error) {
	n.cfg.Recorder.Record(n.cfg.Self, trace.KindPropose, v, n.cfg.Clock.Now(), "paxos propose")
	for {
		if value, ok := n.Decided(); ok {
			return value, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("propose at %s: %w", n.cfg.Self, err)
		}
		if !n.isLeader() {
			// Wait for leadership or for someone else's decision.
			select {
			case <-n.decision.Done():
				continue
			case <-time.After(n.cfg.RoundTimeout):
				continue
			case <-ctx.Done():
				return nil, fmt.Errorf("propose at %s: %w", n.cfg.Self, ctx.Err())
			}
		}
		decided, done, err := n.runRound(ctx, v)
		if err != nil {
			return nil, err
		}
		if done {
			return decided, nil
		}
	}
}

// runRound executes one prepare/accept round. It returns done=false when the
// round was preempted and should be retried with a higher ballot.
func (n *Node) runRound(ctx context.Context, v types.Value) (types.Value, bool, error) {
	n.mu.Lock()
	ballot := n.highestSeen.Next(n.cfg.Self, n.minProposal)
	n.highestSeen = ballot
	n.mu.Unlock()
	decided := n.decision.Done()

	// Phase 1: prepare / promise.
	n.drainResponses()
	n.broadcast(ctx, Message{Kind: KindPrepare, From: n.cfg.Self, Ballot: ballot})
	promises := 0
	var adoptBallot types.ProposalNumber
	adoptValue := v.Clone()
	deadline := time.After(n.cfg.RoundTimeout)
	for promises < n.quorum() {
		select {
		case resp := <-n.responses:
			if !resp.Ballot.Equal(ballot) {
				continue
			}
			switch resp.Kind {
			case KindNack:
				n.observe(resp.AcceptedBallot)
				return nil, false, nil
			case KindPromise:
				promises++
				if !resp.AcceptedBallot.IsZero() && adoptBallot.Less(resp.AcceptedBallot) {
					adoptBallot = resp.AcceptedBallot
					adoptValue = resp.Value.Clone()
				}
			}
		case <-deadline:
			return nil, false, nil
		case <-decided:
			value, _ := n.Decided()
			return value, true, nil
		case <-ctx.Done():
			return nil, false, fmt.Errorf("propose at %s: %w", n.cfg.Self, ctx.Err())
		}
	}

	// Phase 2: accept / accepted.
	n.broadcast(ctx, Message{Kind: KindAccept, From: n.cfg.Self, Ballot: ballot, Value: adoptValue})
	accepted := 0
	deadline = time.After(n.cfg.RoundTimeout)
	for accepted < n.quorum() {
		select {
		case resp := <-n.responses:
			if !resp.Ballot.Equal(ballot) {
				continue
			}
			switch resp.Kind {
			case KindNack:
				n.observe(resp.AcceptedBallot)
				return nil, false, nil
			case KindAccepted:
				accepted++
			}
		case <-deadline:
			return nil, false, nil
		case <-decided:
			value, _ := n.Decided()
			return value, true, nil
		case <-ctx.Done():
			return nil, false, fmt.Errorf("propose at %s: %w", n.cfg.Self, ctx.Err())
		}
	}

	// The value is chosen; tell every learner (including ourselves).
	n.broadcast(ctx, Message{Kind: KindDecide, From: n.cfg.Self, Ballot: ballot, Value: adoptValue})
	n.learn(adoptValue)
	return adoptValue, true, nil
}

// observe records a higher ballot seen in a nack so the next round picks a
// larger one.
func (n *Node) observe(b types.ProposalNumber) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.highestSeen.Less(b) {
		n.highestSeen = b
	}
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
