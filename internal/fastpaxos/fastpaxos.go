// Package fastpaxos implements a single-decree Fast Paxos variant, the
// message-passing baseline the paper cites for the performance side of the
// resilience/performance trade-off: it decides in two delays in common
// executions but relies on message-passing quorums of processes, so it cannot
// match the n ≥ f_P + 1 resilience of Protected Memory Paxos.
//
// The fast round works as follows: the proposer broadcasts its value;
// every acceptor that has not yet accepted a value in the fast round accepts
// the first proposal it sees and broadcasts an acknowledgement; a proposer
// that observes a fast quorum of acknowledgements for its value decides — two
// delays after proposing. If acceptors accept conflicting values (several
// concurrent proposers) or acknowledgements do not arrive in time, the
// proposer falls back to classic Paxos (package paxos) over the same network,
// which preserves safety.
package fastpaxos

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"rdmaagreement/internal/delayclock"
	"rdmaagreement/internal/netsim"
	"rdmaagreement/internal/omega"
	"rdmaagreement/internal/paxos"
	"rdmaagreement/internal/trace"
	"rdmaagreement/internal/types"
)

// Message kinds of a Fast Paxos instance. They share the "fastpaxos/" prefix:
// a router subscription to that prefix carries the fast round, and the
// longer ClassicKind subscription takes the fallback.
const (
	KindFastPropose = "fastpaxos/propose"
	KindFastAck     = "fastpaxos/ack"
	// ClassicKind is the message kind used by the embedded classic Paxos
	// fallback; routers must route this prefix to the transport passed to
	// New.
	ClassicKind = "fastpaxos/classic"
)

// ack is the payload of a fast-round acknowledgement.
type ack struct {
	Value types.Value `json:"value"`
}

// Config configures a Fast Paxos participant.
type Config struct {
	// Self is this process.
	Self types.ProcID
	// Procs is the full process set; classic-Paxos safety requires
	// n ≥ 2f_P+1.
	Procs []types.ProcID
	// FaultyProcesses is f_P; the fast quorum is n − f_P.
	FaultyProcesses int
	// Endpoint is this process's network endpoint.
	Endpoint *netsim.Endpoint
	// FastSub receives the fast-round messages (kinds KindFastPropose and
	// KindFastAck).
	FastSub <-chan netsim.Message
	// ClassicSub receives the classic-round messages (kind ClassicKind).
	ClassicSub <-chan netsim.Message
	// Oracle is the Ω oracle used by the classic fallback.
	Oracle omega.Oracle
	// FastTimeout bounds how long the proposer waits for a fast quorum
	// before falling back. Zero means 50ms.
	FastTimeout time.Duration
	// Clock is the causal delay clock; nil allocates a private one.
	Clock *delayclock.Clock
	// Recorder receives trace events; may be nil.
	Recorder *trace.Recorder
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if len(c.Procs) < 2*c.FaultyProcesses+1 {
		return fmt.Errorf("%w: n=%d cannot tolerate f_P=%d (need n ≥ 2f_P+1)", types.ErrInvalidConfig, len(c.Procs), c.FaultyProcesses)
	}
	if c.Endpoint == nil || c.FastSub == nil || c.ClassicSub == nil {
		return fmt.Errorf("%w: endpoint and subscriptions are required", types.ErrInvalidConfig)
	}
	return nil
}

func (c *Config) applyDefaults() {
	if c.FastTimeout <= 0 {
		c.FastTimeout = 50 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = &delayclock.Clock{}
	}
}

// Outcome reports a Fast Paxos decision.
type Outcome struct {
	// Value is the decided value.
	Value types.Value
	// FastPath reports whether the fast round succeeded.
	FastPath bool
	// DecisionDelays is the causal delay count of the decision (2 on the
	// fast path).
	DecisionDelays int64
}

// Node is one Fast Paxos participant (acceptor and, on demand, proposer).
type Node struct {
	cfg     Config
	classic *paxos.Node

	mu       sync.Mutex
	accepted types.Value // value accepted in the fast round, if any
	acks     map[types.ProcID]types.Value
	ackCh    chan struct{}

	wg     sync.WaitGroup
	cancel context.CancelFunc
}

// New creates a Fast Paxos participant.
func New(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("fast paxos: %w", err)
	}
	cfg.applyDefaults()
	classic := paxos.NewNode(paxos.Config{
		Self:     cfg.Self,
		Procs:    cfg.Procs,
		Oracle:   cfg.Oracle,
		Clock:    cfg.Clock,
		Recorder: cfg.Recorder,
	}, paxos.NewNetTransport(cfg.Endpoint, cfg.ClassicSub, ClassicKind))
	return &Node{
		cfg:     cfg,
		classic: classic,
		acks:    make(map[types.ProcID]types.Value),
		ackCh:   make(chan struct{}, 1),
	}, nil
}

// Start launches the acceptor loop and the classic fallback node.
func (n *Node) Start() {
	n.classic.Start()
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.wg.Add(1)
	go n.acceptorLoop(ctx)
}

// Stop terminates all background goroutines.
func (n *Node) Stop() {
	if n.cancel != nil {
		n.cancel()
	}
	n.wg.Wait()
	n.classic.Stop()
}

// Clock returns the node's delay clock.
func (n *Node) Clock() *delayclock.Clock { return n.cfg.Clock }

// fastQuorum is the number of matching acknowledgements needed to decide in
// the fast round. This variant uses unanimous fast quorums: with n = 2f_P+1
// processes, a smaller fast quorum would require the coordinated recovery
// protocol of full Fast Paxos to stay safe; unanimity keeps the fallback
// simple (every fallback proposer necessarily re-proposes the fast value)
// while preserving the two-delay common case that the comparison needs.
func (n *Node) fastQuorum() int { return len(n.cfg.Procs) }

// acceptorLoop handles fast-round messages: proposals are accepted (first
// writer wins) and acknowledged to everyone; acknowledgements are tallied for
// the proposer role.
func (n *Node) acceptorLoop(ctx context.Context) {
	defer n.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case msg := <-n.cfg.FastSub:
			if msg.From == n.cfg.Self {
				n.cfg.Clock.Merge(msg.Stamp)
			} else {
				n.cfg.Clock.MergeAfterMessage(msg.Stamp)
			}
			switch msg.Kind {
			case KindFastPropose:
				n.handlePropose(msg)
			case KindFastAck:
				n.handleAck(msg)
			}
		}
	}
}

func (n *Node) handlePropose(msg netsim.Message) {
	n.mu.Lock()
	if n.accepted != nil {
		n.mu.Unlock()
		return // first proposal wins the fast round at this acceptor
	}
	n.accepted = types.Value(msg.Payload).Clone()
	n.mu.Unlock()

	payload, err := json.Marshal(ack{Value: types.Value(msg.Payload)})
	if err != nil {
		return
	}
	// Stamp the acknowledgement with the causal chain of the proposal it
	// answers (receipt of the proposal), not with the acceptor's merged
	// clock, which unrelated concurrent traffic may have advanced further.
	stamp := msg.Stamp
	if msg.From != n.cfg.Self {
		stamp = stamp.AfterMessage()
	}
	_ = n.cfg.Endpoint.Broadcast(KindFastAck, payload, stamp)
}

func (n *Node) handleAck(msg netsim.Message) {
	var a ack
	if err := json.Unmarshal(msg.Payload, &a); err != nil {
		return
	}
	n.mu.Lock()
	n.acks[msg.From] = a.Value.Clone()
	n.mu.Unlock()
	select {
	case n.ackCh <- struct{}{}:
	default:
	}
}

// Propose runs Fast Paxos with input v: a fast round first, then the classic
// fallback if the fast round does not reach a quorum in time.
func (n *Node) Propose(ctx context.Context, v types.Value) (Outcome, error) {
	n.cfg.Recorder.Record(n.cfg.Self, trace.KindPropose, v, n.cfg.Clock.Now(), "fast paxos propose")
	start := n.cfg.Clock.Now()
	if err := n.cfg.Endpoint.Broadcast(KindFastPropose, v, start); err != nil {
		return Outcome{}, fmt.Errorf("fast paxos propose: %w", err)
	}

	deadline := time.NewTimer(n.cfg.FastTimeout)
	defer deadline.Stop()
	for {
		if count := n.countAcksFor(v); count >= n.fastQuorum() {
			delays := int64(n.cfg.Clock.Now() - start)
			n.cfg.Recorder.Record(n.cfg.Self, trace.KindDecide, v, n.cfg.Clock.Now(), "fast paxos fast-path decision in %d delays", delays)
			n.disseminate(v)
			return Outcome{Value: v.Clone(), FastPath: true, DecisionDelays: delays}, nil
		}
		select {
		case <-n.ackCh:
		case <-deadline.C:
			return n.fallback(ctx, v, start)
		case <-ctx.Done():
			return Outcome{}, fmt.Errorf("fast paxos propose: %w", ctx.Err())
		}
	}
}

// countAcksFor returns how many distinct acceptors acknowledged value v.
func (n *Node) countAcksFor(v types.Value) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	count := 0
	for _, av := range n.acks {
		if av.Equal(v) {
			count++
		}
	}
	return count
}

// fallback runs the classic Paxos round. To preserve safety it proposes the
// value this acceptor accepted in the fast round (a value that might have
// reached a fast quorum somewhere), falling back to v otherwise.
func (n *Node) fallback(ctx context.Context, v types.Value, start delayclock.Stamp) (Outcome, error) {
	n.mu.Lock()
	input := n.accepted.Clone()
	n.mu.Unlock()
	if input.Bottom() {
		input = v
	}
	n.cfg.Recorder.Record(n.cfg.Self, trace.KindInfo, input, n.cfg.Clock.Now(), "fast paxos falling back to classic round")
	decided, err := n.classic.Propose(ctx, input)
	if err != nil {
		return Outcome{}, fmt.Errorf("fast paxos fallback: %w", err)
	}
	return Outcome{
		Value:          decided,
		FastPath:       false,
		DecisionDelays: int64(n.cfg.Clock.Now() - start),
	}, nil
}

// disseminate tells every node's classic fallback about a fast-path decision
// by broadcasting a classic decide message. The fast round itself only
// informs the winning proposer. A concurrent proposer whose fast round failed
// falls back to classic Paxos, where a non-leader waits for someone else's
// decision; if the Ω leader decided on the fast path, this broadcast is the
// only decision it will ever see (netsim guarantees no loss, so every correct
// node learns).
func (n *Node) disseminate(v types.Value) {
	payload, err := (paxos.Message{Kind: paxos.KindDecide, From: n.cfg.Self, Value: v}).Encode()
	if err != nil {
		return
	}
	_ = n.cfg.Endpoint.Broadcast(ClassicKind, payload, n.cfg.Clock.Now())
}
