// Package netsim simulates the message-passing side of the message-and-memory
// model: a fully connected set of directed links with integrity and no-loss.
//
// Each registered process owns an Endpoint with an inbox. Sending a message
// enqueues it on a per-link FIFO queue; a forwarder goroutine delivers it to
// the destination inbox once the configured one-way delay has passed since
// it was sent, so a link is a pipe that carries many messages at once.
// Messages carry the sender's delay-clock stamp so that receivers can
// account the one-delay cost causally.
//
// The network also provides the fault hooks the experiments and the chaos
// harness need: crashing a process (its sends fail and deliveries to it are
// dropped) and reviving it, partitioning the process set and healing it, a
// message tap that can drop messages, and a per-message jitter that delays
// deliveries to simulate asynchrony and cross-link reordering.
package netsim

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rdmaagreement/internal/delayclock"
	"rdmaagreement/internal/simtime"
	"rdmaagreement/internal/types"
)

// Message is a network message. Payload encoding is protocol-specific (the
// protocols in this repository use encoding/json).
type Message struct {
	Seq     uint64
	From    types.ProcID
	To      types.ProcID
	Kind    string
	Payload []byte
	Stamp   delayclock.Stamp
	SentAt  time.Time
}

// Tap inspects a message before delivery. It returns false to drop the
// message. Taps are used by tests to simulate message loss windows and
// asynchrony (the model itself guarantees no-loss; experiments that use taps
// are exercising the protocols' abort/backup paths).
type Tap func(Message) bool

// Jitter computes an extra delivery delay for one message, on top of the
// link's configured one-way delay: the message arrives at its send time plus
// both. Because each link delivers FIFO, a jittered message also holds back
// the messages queued behind it on the same link until its own arrival time,
// while other links run at full speed — so a varying Jitter reorders
// deliveries across links exactly the way real network asynchrony does,
// without ever violating per-link FIFO. Jitter functions run concurrently on
// every link forwarder and must be safe for concurrent use; deriving the
// delay from Message.Seq keeps them lock-free.
type Jitter func(Message) time.Duration

// Options configure a Network.
type Options struct {
	// Delay is the one-way message delay of every link: a message arrives
	// at its send time plus Delay, however many others the link carries.
	// The wait is sub-millisecond precise on Linux and millisecond-granular
	// elsewhere (see simtime).
	Delay time.Duration
}

const (
	inboxCapacity = 4096 // per-process inbox buffer
	linkCapacity  = 4096 // per-link queue
)

// Counters tallies network activity for experiment metrics.
type Counters struct {
	Sent      atomic.Int64
	Delivered atomic.Int64
	Dropped   atomic.Int64
}

// Snapshot returns an immutable copy of the counters.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{Sent: c.Sent.Load(), Delivered: c.Delivered.Load(), Dropped: c.Dropped.Load()}
}

// CounterSnapshot is a plain-struct copy of Counters.
type CounterSnapshot struct {
	Sent      int64
	Delivered int64
	Dropped   int64
}

// Endpoint is a process's attachment to the network.
type Endpoint struct {
	id    types.ProcID
	inbox chan Message
	net   *Network
}

// ID returns the process identifier this endpoint belongs to.
func (e *Endpoint) ID() types.ProcID { return e.id }

// Receive blocks until a message is delivered or ctx is cancelled.
func (e *Endpoint) Receive(ctx context.Context) (Message, error) {
	select {
	case m := <-e.inbox:
		return m, nil
	case <-ctx.Done():
		return Message{}, fmt.Errorf("receive at %s: %w", e.id, ctx.Err())
	}
}

// TryReceive returns a pending message without blocking. The boolean reports
// whether a message was available.
func (e *Endpoint) TryReceive() (Message, bool) {
	select {
	case m := <-e.inbox:
		return m, true
	default:
		return Message{}, false
	}
}

// Send sends a message from this endpoint's process.
func (e *Endpoint) Send(to types.ProcID, kind string, payload []byte, stamp delayclock.Stamp) error {
	return e.net.Send(e.id, to, kind, payload, stamp)
}

// Broadcast sends the message to every registered process, including the
// sender itself (self-delivery is cheap and simplifies protocol code).
func (e *Endpoint) Broadcast(kind string, payload []byte, stamp delayclock.Stamp) error {
	return e.net.Broadcast(e.id, kind, payload, stamp)
}

type linkKey struct {
	from, to types.ProcID
}

type link struct {
	queue chan Message
}

// Network is the simulated network. It is safe for concurrent use. Close must
// be called to stop the forwarder goroutines.
type Network struct {
	opts Options

	mu        sync.RWMutex
	endpoints map[types.ProcID]*Endpoint
	procs     []types.ProcID // the endpoints' IDs, sorted; replaced, never mutated
	links     map[linkKey]*link
	crashed   types.ProcSet
	partition map[types.ProcID]int // partition group per process; all zero = connected
	tap       Tap
	jitter    Jitter

	counters Counters
	seq      atomic.Uint64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed bool
}

// New creates a network with the given options.
func New(opts Options) *Network {
	ctx, cancel := context.WithCancel(context.Background())
	return &Network{
		opts:      opts,
		endpoints: make(map[types.ProcID]*Endpoint),
		links:     make(map[linkKey]*link),
		crashed:   types.NewProcSet(),
		partition: make(map[types.ProcID]int),
		ctx:       ctx,
		cancel:    cancel,
	}
}

// Close stops all forwarder goroutines and waits for them to exit. After
// Close, sends return an error.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	n.cancel()
	n.wg.Wait()
}

// Counters returns the network's activity counters.
func (n *Network) Counters() *Counters { return &n.counters }

// Register attaches a process to the network and returns its endpoint.
// Registering the same process twice returns the existing endpoint.
func (n *Network) Register(p types.ProcID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[p]; ok {
		return ep
	}
	ep := &Endpoint{id: p, inbox: make(chan Message, inboxCapacity), net: n}
	n.endpoints[p] = ep
	procs := append(slices.Clone(n.procs), p)
	slices.Sort(procs)
	n.procs = procs
	return ep
}

// Processes returns the identifiers of all registered processes in sorted
// order. The slice is shared with the network and later calls: callers must
// not modify it.
func (n *Network) Processes() []types.ProcID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.procs
}

// SetTap installs a message tap (nil removes it).
func (n *Network) SetTap(tap Tap) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tap = tap
}

// SetJitter installs an extra per-message delivery delay (nil removes it).
// A link samples the jitter when its forwarder takes a message off the
// queue, so messages already waiting for their arrival time keep the delay
// they were given: installation and removal take effect within one link
// delay. See Jitter for the reordering semantics.
func (n *Network) SetJitter(j Jitter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.jitter = j
}

// CrashProcess marks a process as crashed: its subsequent sends fail and
// messages destined to it are dropped.
func (n *Network) CrashProcess(p types.ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed = n.crashed.Add(p)
}

// ReviveProcess clears a process's crashed mark: its sends succeed and
// deliveries to it resume. Messages dropped while it was crashed stay
// dropped — a stalled process simply missed them — which is exactly the
// zombie-server model: the CPU stalls, the world moves on, and when the
// process wakes it must catch up through whatever the protocol provides
// (lease epochs fence its stale in-flight work out).
func (n *Network) ReviveProcess(p types.ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed = n.crashed.Remove(p)
}

// ProcessCrashed reports whether p has been crashed.
func (n *Network) ProcessCrashed(p types.ProcID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.crashed.Contains(p)
}

// Partition splits the processes into groups; messages crossing group
// boundaries are dropped until Heal is called. Processes not mentioned stay
// in group 0.
func (n *Network) Partition(groups ...[]types.ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[types.ProcID]int)
	for i, group := range groups {
		for _, p := range group {
			n.partition[p] = i + 1
		}
	}
}

// Heal removes any partition.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[types.ProcID]int)
}

func (n *Network) sameSide(a, b types.ProcID) bool {
	return n.partition[a] == n.partition[b]
}

// Send sends a message from one process to another. It returns an error if
// the sender is unknown or crashed, or the destination is unknown; it never
// blocks on delivery.
func (n *Network) Send(from, to types.ProcID, kind string, payload []byte, stamp delayclock.Stamp) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("send %s->%s: network closed", from, to)
	}
	if _, ok := n.endpoints[from]; !ok {
		n.mu.Unlock()
		return fmt.Errorf("send from %s: %w", from, types.ErrUnknownProcess)
	}
	if _, ok := n.endpoints[to]; !ok {
		n.mu.Unlock()
		return fmt.Errorf("send to %s: %w", to, types.ErrUnknownProcess)
	}
	if n.crashed.Contains(from) {
		n.mu.Unlock()
		return fmt.Errorf("send from %s: %w", from, types.ErrProcessCrashed)
	}
	msg := Message{
		Seq:     n.seq.Add(1),
		From:    from,
		To:      to,
		Kind:    kind,
		Payload: append([]byte(nil), payload...),
		Stamp:   stamp,
		SentAt:  time.Now(),
	}
	lk := n.ensureLinkLocked(from, to)
	n.mu.Unlock()

	n.counters.Sent.Add(1)
	select {
	case lk.queue <- msg:
		return nil
	case <-n.ctx.Done():
		return fmt.Errorf("send %s->%s: network closed", from, to)
	}
}

// Broadcast sends a message from one process to every registered process
// (including itself). Errors sending to individual destinations are collected
// into a single error; delivery to the remaining destinations still happens.
func (n *Network) Broadcast(from types.ProcID, kind string, payload []byte, stamp delayclock.Stamp) error {
	var firstErr error
	for _, to := range n.Processes() {
		if err := n.Send(from, to, kind, payload, stamp); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ensureLinkLocked returns the link from->to, creating its forwarder if
// needed. Callers must hold n.mu.
func (n *Network) ensureLinkLocked(from, to types.ProcID) *link {
	key := linkKey{from: from, to: to}
	if lk, ok := n.links[key]; ok {
		return lk
	}
	lk := &link{queue: make(chan Message, linkCapacity)}
	n.links[key] = lk
	n.wg.Add(1)
	go n.forward(lk)
	return lk
}

// forward delivers messages of one link in FIFO order, each at its send
// time plus the link delay and jitter, applying the partition, the crash set
// and the tap.
func (n *Network) forward(lk *link) {
	defer n.wg.Done()
	for {
		select {
		case <-n.ctx.Done():
			return
		case msg := <-lk.queue:
			delay := n.opts.Delay
			n.mu.RLock()
			jitter := n.jitter
			n.mu.RUnlock()
			if jitter != nil {
				delay += max(jitter(msg), 0)
			}
			if delay > 0 && simtime.Until(n.ctx, msg.SentAt.Add(delay)) != nil {
				return
			}
			n.deliver(msg)
		}
	}
}

func (n *Network) deliver(msg Message) {
	n.mu.RLock()
	ep, ok := n.endpoints[msg.To]
	crashed := n.crashed.Contains(msg.To) || n.crashed.Contains(msg.From)
	sameSide := n.sameSide(msg.From, msg.To)
	tap := n.tap
	n.mu.RUnlock()

	if !ok || crashed || !sameSide {
		n.counters.Dropped.Add(1)
		return
	}
	if tap != nil && !tap(msg) {
		n.counters.Dropped.Add(1)
		return
	}
	// Count the delivery before the hand-off, so a receiver that holds the
	// message never reads a counter that lacks it; a shutdown that abandons
	// the message takes the count back.
	n.counters.Delivered.Add(1)
	select {
	case ep.inbox <- msg:
	case <-n.ctx.Done():
		n.counters.Delivered.Add(-1)
	}
}
