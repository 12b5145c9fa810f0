// Package neb implements the paper's non-equivocating broadcast (Algorithm 2)
// on top of replicated SWMR regular registers.
//
// Non-equivocating broadcast is defined by two primitives, broadcast(k, m)
// and deliver(k, m, q), with three properties:
//
//  1. If a correct process broadcasts (k, m), every correct process
//     eventually delivers (k, m) from it.
//  2. If two correct processes deliver (k, m) and (k, m') from the same
//     sender, then m = m'.
//  3. If a correct process delivers (k, m) from a correct process p, then p
//     broadcast (k, m).
//
// The implementation uses a virtual slot array slots[p, k, q]: process p owns
// the registers slots[p, *, *] (an SWMR region per process, replicated across
// the memories by regreg). To broadcast its k-th message, p writes a signed
// (k, m) into slots[p, k, p]. To deliver the k-th message of q, a process
// first reads slots[q, k, q]; if it finds a correctly signed value it copies
// it into its own slot slots[self, k, q] and then reads slots[r, k, q] for
// every other process r: if some other process copied a different correctly
// signed value for the same (q, k), the sender equivocated and nothing is
// delivered; otherwise the message is delivered.
package neb

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"rdmaagreement/internal/delayclock"
	"rdmaagreement/internal/regreg"
	"rdmaagreement/internal/sigs"
	"rdmaagreement/internal/trace"
	"rdmaagreement/internal/types"
)

// slotRegister names the register slots[owner, k, sender] inside owner's SWMR
// region. The owner is implied by the region, so only (k, sender) appear in
// the name.
func slotRegister(k uint64, sender types.ProcID) types.RegisterID {
	return types.RegisterID(fmt.Sprintf("neb/%d/%d", k, int(sender)))
}

// envelope is the signed payload stored in broadcast slots.
type envelope struct {
	Seq uint64 `json:"seq"`
	Msg []byte `json:"msg"`
}

// Delivery is a delivered broadcast message.
type Delivery struct {
	From types.ProcID
	Seq  uint64
	Msg  []byte
}

// deliveryBuffer sizes the Deliveries channel.
const deliveryBuffer = 1024

// Options configure a Broadcaster.
type Options struct {
	// PollInterval is the pause between delivery attempts when no new
	// message is available. Zero means 1ms.
	PollInterval time.Duration
	// Recorder, if non-nil, receives broadcast/deliver trace events.
	Recorder *trace.Recorder
}

// Broadcaster is one process's handle on non-equivocating broadcast.
// Broadcast and TryDeliver may be called concurrently; the background Run
// loop (optional) pushes deliveries from every sender into Deliveries.
type Broadcaster struct {
	self   types.ProcID
	procs  []types.ProcID
	store  *regreg.Store
	signer *sigs.Signer
	opts   Options

	mu      sync.Mutex
	nextSeq uint64                  // sequence number of our next broadcast
	last    map[types.ProcID]uint64 // next sequence number to deliver per sender

	deliveries chan Delivery

	wg     sync.WaitGroup
	cancel context.CancelFunc
}

// New creates a broadcaster for process self among procs.
func New(self types.ProcID, procs []types.ProcID, store *regreg.Store, signer *sigs.Signer, opts Options) *Broadcaster {
	if opts.PollInterval <= 0 {
		opts.PollInterval = time.Millisecond
	}
	b := &Broadcaster{
		self:       self,
		procs:      append([]types.ProcID(nil), procs...),
		store:      store,
		signer:     signer,
		opts:       opts,
		nextSeq:    1,
		last:       make(map[types.ProcID]uint64, len(procs)),
		deliveries: make(chan Delivery, deliveryBuffer),
	}
	for _, p := range procs {
		b.last[p] = 1
	}
	return b
}

// Self returns the broadcaster's process identifier.
func (b *Broadcaster) Self() types.ProcID { return b.self }

// Clock returns the delay clock of the underlying replicated-register store;
// it accounts the memory round trips performed by broadcasts and deliveries.
func (b *Broadcaster) Clock() *delayclock.Clock { return b.store.Clock() }

// Deliveries returns the channel on which Run publishes deliveries.
func (b *Broadcaster) Deliveries() <-chan Delivery { return b.deliveries }

// Broadcast signs msg and writes it to the next slot of this process. The
// sequence number used is returned.
func (b *Broadcaster) Broadcast(ctx context.Context, msg []byte) (uint64, error) {
	b.mu.Lock()
	seq := b.nextSeq
	b.nextSeq++
	b.mu.Unlock()

	if err := b.broadcastAt(ctx, seq, msg); err != nil {
		return 0, err
	}
	return seq, nil
}

// broadcastAt writes the signed envelope for the given sequence number. It is
// split out so tests can exercise out-of-order and duplicate broadcasts by a
// Byzantine sender.
func (b *Broadcaster) broadcastAt(ctx context.Context, seq uint64, msg []byte) error {
	payload, err := json.Marshal(envelope{Seq: seq, Msg: msg})
	if err != nil {
		return fmt.Errorf("broadcast %d: encode: %w", seq, err)
	}
	signed, err := b.signer.Sign(payload)
	if err != nil {
		return fmt.Errorf("broadcast %d: sign: %w", seq, err)
	}
	blob, err := json.Marshal(signed)
	if err != nil {
		return fmt.Errorf("broadcast %d: encode signed: %w", seq, err)
	}
	if err := b.store.Write(ctx, slotRegister(seq, b.self), blob); err != nil {
		return fmt.Errorf("broadcast %d: %w", seq, err)
	}
	b.opts.Recorder.Record(b.self, trace.KindBroadcast, types.Value(msg), b.store.Clock().Now(), "seq=%d", seq)
	return nil
}

// decodeSlot parses a slot value into the signed envelope it carries. It
// returns ok=false for ⊥, malformed or incorrectly signed values.
func (b *Broadcaster) decodeSlot(raw types.Value, claimedSender types.ProcID) (envelope, sigs.Signed, bool) {
	if raw.Bottom() {
		return envelope{}, sigs.Signed{}, false
	}
	var signed sigs.Signed
	if err := json.Unmarshal(raw, &signed); err != nil {
		return envelope{}, sigs.Signed{}, false
	}
	if !b.signer.Valid(claimedSender, signed) {
		return envelope{}, sigs.Signed{}, false
	}
	var env envelope
	if err := json.Unmarshal(signed.Payload, &env); err != nil {
		return envelope{}, sigs.Signed{}, false
	}
	return env, signed, true
}

// TryDeliver attempts to deliver the next message from sender q. It returns
// (nil, nil) when no new message is deliverable yet (either q has not
// broadcast it, or evidence of equivocation blocks delivery).
func (b *Broadcaster) TryDeliver(ctx context.Context, q types.ProcID) (*Delivery, error) {
	b.mu.Lock()
	k := b.last[q]
	b.mu.Unlock()

	// Step 1: read the sender's own slot.
	raw, err := b.store.Read(ctx, q, slotRegister(k, q))
	if err != nil {
		return nil, fmt.Errorf("try_deliver from %s seq %d: %w", q, k, err)
	}
	env, signed, ok := b.decodeSlot(raw, q)
	if !ok || env.Seq != k {
		// Nothing broadcast yet, or a malformed/forged value: retry later.
		return nil, nil
	}

	// Step 2: copy the value into our own slot for this (sender, seq).
	blob, err := json.Marshal(signed)
	if err != nil {
		return nil, fmt.Errorf("try_deliver from %s seq %d: encode copy: %w", q, k, err)
	}
	if err := b.store.Write(ctx, slotRegister(k, q), blob); err != nil {
		return nil, fmt.Errorf("try_deliver from %s seq %d: copy: %w", q, k, err)
	}

	// Step 3: check every other process's copy for a conflicting value.
	for _, r := range b.procs {
		if r == b.self {
			continue
		}
		otherRaw, err := b.store.Read(ctx, r, slotRegister(k, q))
		if err != nil {
			return nil, fmt.Errorf("try_deliver from %s seq %d: read copy at %s: %w", q, k, r, err)
		}
		otherEnv, otherSigned, otherOK := b.decodeSlot(otherRaw, q)
		if !otherOK {
			continue // ⊥ or not correctly signed by q: ignore.
		}
		if otherEnv.Seq == k && !otherSigned.Equal(signed) && !bytesEqual(otherEnv.Msg, env.Msg) {
			// q equivocated: some process saw a different signed value for
			// the same sequence number. Do not deliver.
			return nil, nil
		}
	}

	b.mu.Lock()
	b.last[q] = k + 1
	b.mu.Unlock()
	b.opts.Recorder.Record(b.self, trace.KindDeliver, types.Value(env.Msg), b.store.Clock().Now(), "from=%s seq=%d", q, k)
	return &Delivery{From: q, Seq: k, Msg: env.Msg}, nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Start launches the background delivery loop, which repeatedly attempts to
// deliver the next message from every process and publishes deliveries on the
// Deliveries channel. Stop terminates it.
func (b *Broadcaster) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	b.cancel = cancel
	b.wg.Add(1)
	go b.run(ctx)
}

// Stop terminates the background delivery loop and waits for it to exit.
func (b *Broadcaster) Stop() {
	if b.cancel != nil {
		b.cancel()
	}
	b.wg.Wait()
}

func (b *Broadcaster) run(ctx context.Context) {
	defer b.wg.Done()
	ticker := time.NewTicker(b.opts.PollInterval)
	defer ticker.Stop()
	for {
		progressed := false
		for _, q := range b.procs {
			if ctx.Err() != nil {
				return
			}
			d, err := b.TryDeliver(ctx, q)
			if err != nil || d == nil {
				continue
			}
			progressed = true
			select {
			case b.deliveries <- *d:
			case <-ctx.Done():
				return
			}
		}
		if progressed {
			continue
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}
