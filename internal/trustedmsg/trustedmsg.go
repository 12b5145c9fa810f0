// Package trustedmsg implements the trusted message-passing primitives
// T-send and T-receive of Clement et al. (Algorithm 3 in the paper), built on
// non-equivocating broadcast and signatures.
//
// A process T-sends a message by broadcasting it, together with its signed
// communication history, through non-equivocating broadcast. A receiver
// T-receives the message only after checking that the attached history is
// properly signed and consistent; this restricts Byzantine senders to
// behaviours that are indistinguishable from crashes, which is what lets the
// Robust Backup protocol run a crash-tolerant consensus algorithm (Paxos)
// among up to f Byzantine processes with only n ≥ 2f+1.
//
// History verification here checks that every history entry is correctly
// signed by the sender and that the sender's own sent-sequence numbers are
// consecutive. Full protocol-conformance checking of the embedded history is
// protocol specific (see DESIGN.md); the Validator hook lets a protocol
// install stricter checks.
package trustedmsg

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"

	"rdmaagreement/internal/delayclock"
	"rdmaagreement/internal/neb"
	"rdmaagreement/internal/sigs"
	"rdmaagreement/internal/types"
)

// BroadcastTo is the destination value meaning "every process".
const BroadcastTo types.ProcID = 0

// historyRecord is one entry of a process's communication history. Records
// are signed by the process that appends them.
type historyRecord struct {
	Direction string       `json:"direction"` // "sent" or "received"
	Seq       uint64       `json:"seq"`
	Peer      types.ProcID `json:"peer"`
	Digest    []byte       `json:"digest"`
}

// envelope is the payload carried by each non-equivocating broadcast.
type envelope struct {
	To      types.ProcID  `json:"to"`
	Msg     []byte        `json:"msg"`
	History []sigs.Signed `json:"history"`
}

// Received is a message accepted by T-receive.
type Received struct {
	From  types.ProcID
	To    types.ProcID
	Seq   uint64
	Msg   []byte
	Stamp delayclock.Stamp
}

// Validator allows protocols to install additional history checks. It
// receives the sender, the decoded history records (already signature
// checked) and the message, and returns false to reject.
type Validator func(from types.ProcID, history []historyRecord, msg []byte) bool

// Options configure an Endpoint.
type Options struct {
	// Validator is the extra history check; nil accepts any
	// signature-consistent history.
	Validator Validator
}

// receiveBuffer sizes the channel of accepted messages.
const receiveBuffer = 1024

// Endpoint is one process's T-send/T-receive endpoint.
type Endpoint struct {
	self   types.ProcID
	bcast  *neb.Broadcaster
	signer *sigs.Signer
	opts   Options

	mu      sync.Mutex
	history []sigs.Signed
	sentSeq uint64

	received chan Received

	wg     sync.WaitGroup
	cancel context.CancelFunc
}

// New creates an endpoint for process self over the given non-equivocating
// broadcaster.
func New(self types.ProcID, bcast *neb.Broadcaster, signer *sigs.Signer, opts Options) *Endpoint {
	return &Endpoint{
		self:     self,
		bcast:    bcast,
		signer:   signer,
		opts:     opts,
		received: make(chan Received, receiveBuffer),
	}
}

// Self returns the endpoint's process identifier.
func (e *Endpoint) Self() types.ProcID { return e.self }

// Clock returns the delay clock of the underlying replicated-register store
// (shared through the broadcaster), which accounts the memory round trips
// performed by T-send and T-receive.
func (e *Endpoint) Clock() *delayclock.Clock { return e.bcast.Clock() }

// TSend sends msg to the destination process (or to every process when to is
// BroadcastTo) through non-equivocating broadcast, attaching the sender's
// signed history.
func (e *Endpoint) TSend(ctx context.Context, to types.ProcID, msg []byte) error {
	e.mu.Lock()
	e.sentSeq++
	seq := e.sentSeq
	hist := make([]sigs.Signed, len(e.history))
	copy(hist, e.history)
	e.mu.Unlock()

	env := envelope{To: to, Msg: msg, History: hist}
	payload, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("t-send: encode: %w", err)
	}
	if _, err := e.bcast.Broadcast(ctx, payload); err != nil {
		return fmt.Errorf("t-send: %w", err)
	}
	if err := e.appendHistory("sent", seq, to, msg); err != nil {
		return fmt.Errorf("t-send: %w", err)
	}
	return nil
}

// appendHistory signs and appends a record to the endpoint's history.
func (e *Endpoint) appendHistory(direction string, seq uint64, peer types.ProcID, msg []byte) error {
	digest := sha256.Sum256(msg)
	rec := historyRecord{Direction: direction, Seq: seq, Peer: peer, Digest: digest[:]}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("history record: encode: %w", err)
	}
	signed, err := e.signer.Sign(payload)
	if err != nil {
		return fmt.Errorf("history record: sign: %w", err)
	}
	e.mu.Lock()
	e.history = append(e.history, signed)
	e.mu.Unlock()
	return nil
}

// Receive returns the next accepted message, blocking until one is available
// or ctx is cancelled. Start must have been called.
func (e *Endpoint) Receive(ctx context.Context) (Received, error) {
	select {
	case r := <-e.received:
		return r, nil
	case <-ctx.Done():
		return Received{}, fmt.Errorf("t-receive at %s: %w", e.self, ctx.Err())
	}
}

// Start launches the delivery pump: it starts the underlying broadcaster's
// delivery loop and validates every delivered broadcast, pushing accepted
// messages to Receive.
func (e *Endpoint) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	e.bcast.Start()
	e.wg.Add(1)
	go e.pump(ctx)
}

// Stop terminates the delivery pump and the underlying broadcaster.
func (e *Endpoint) Stop() {
	if e.cancel != nil {
		e.cancel()
	}
	e.bcast.Stop()
	e.wg.Wait()
}

func (e *Endpoint) pump(ctx context.Context) {
	defer e.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case d := <-e.bcast.Deliveries():
			if rec, ok := e.validate(d); ok {
				select {
				case e.received <- rec:
				case <-ctx.Done():
					return
				}
			}
		}
	}
}

// validate applies the T-receive checks to a delivered broadcast: the
// attached history must be signed by the sender and its sent-sequence numbers
// consecutive, and the protocol validator (if any) must accept it. Messages
// addressed to another process are ignored (they are still part of the
// sender's non-equivocation record).
func (e *Endpoint) validate(d neb.Delivery) (Received, bool) {
	var env envelope
	if err := json.Unmarshal(d.Msg, &env); err != nil {
		return Received{}, false
	}
	records := make([]historyRecord, 0, len(env.History))
	var sentCount uint64
	for _, signed := range env.History {
		if !e.signer.Valid(d.From, signed) {
			return Received{}, false
		}
		var rec historyRecord
		if err := json.Unmarshal(signed.Payload, &rec); err != nil {
			return Received{}, false
		}
		records = append(records, rec)
		if rec.Direction == "sent" {
			sentCount++
			if rec.Seq != sentCount {
				return Received{}, false
			}
		}
	}
	// The history attached to the k-th broadcast must contain exactly k-1
	// sent records (every earlier T-send, in order).
	if sentCount != d.Seq-1 {
		return Received{}, false
	}
	if e.opts.Validator != nil && !e.opts.Validator(d.From, records, env.Msg) {
		return Received{}, false
	}
	if env.To != BroadcastTo && env.To != e.self {
		return Received{}, false
	}
	if err := e.appendHistory("received", d.Seq, d.From, env.Msg); err != nil {
		return Received{}, false
	}
	return Received{
		From:  d.From,
		To:    env.To,
		Seq:   d.Seq,
		Msg:   env.Msg,
		Stamp: e.Clock().Now(),
	}, true
}
