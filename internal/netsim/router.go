package netsim

import (
	"context"
	"strings"
	"sync"
)

// Router demultiplexes the messages arriving at an Endpoint to subscribers by
// message-kind prefix. Protocol stacks (for example Fast & Robust, which runs
// Cheap Quorum, Preferential Paxos and a failure detector over the same
// process endpoint) use a Router so that each layer only sees its own
// messages.
//
// A Router owns the endpoint's receive loop: once a Router is attached,
// callers must not call Receive on the endpoint directly.
type Router struct {
	ep *Endpoint

	mu   sync.Mutex
	subs []subscription

	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed bool
}

type subscription struct {
	prefix string
	ch     chan Message
	gone   chan struct{} // made by a dispatch that finds ch full; Unsubscribe closes it
}

// NewRouter attaches a router to the endpoint and starts its dispatch loop.
func NewRouter(ep *Endpoint) *Router {
	ctx, cancel := context.WithCancel(context.Background())
	r := &Router{ep: ep, cancel: cancel}
	r.wg.Add(1)
	go r.loop(ctx)
	return r
}

// Endpoint returns the underlying endpoint (for sending).
func (r *Router) Endpoint() *Endpoint { return r.ep }

// Subscribe returns a channel that receives every message whose Kind starts
// with prefix; longer prefixes win, and unmatched messages are dropped. The
// buffer (zero means 1024) bounds throughput, not liveness: a full channel
// stalls the router's dispatch until the subscriber reads or Unsubscribe
// releases the send, so a channel that receives a few messages needs only
// room for those.
func (r *Router) Subscribe(prefix string, buffer int) <-chan Message {
	if buffer <= 0 {
		buffer = 1024
	}
	ch := make(chan Message, buffer)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.subs = append(r.subs, subscription{prefix: prefix, ch: ch})
	return ch
}

// Unsubscribe removes the subscription whose channel is ch and releases a
// dispatch blocked on it, dropping that message. Messages already delivered
// to the channel stay readable; new messages matching its prefix fall
// through to shorter-prefix subscriptions. Long-lived clusters that
// multiplex many short-lived consensus instances over one router must
// unsubscribe finished instances so dispatch stays O(live instances), not
// O(all instances ever).
func (r *Router) Unsubscribe(ch <-chan Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.subs {
		if r.subs[i].ch == ch {
			if r.subs[i].gone != nil {
				close(r.subs[i].gone)
			}
			r.subs = append(r.subs[:i], r.subs[i+1:]...)
			return
		}
	}
}

// Close stops the dispatch loop. Subscriber channels are not closed (late
// messages are simply no longer delivered), so receivers should select on
// their own contexts.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	r.cancel()
	r.wg.Wait()
}

func (r *Router) loop(ctx context.Context) {
	defer r.wg.Done()
	for {
		msg, err := r.ep.Receive(ctx)
		if err != nil {
			return
		}
		r.dispatch(ctx, msg)
	}
}

func (r *Router) dispatch(ctx context.Context, msg Message) {
	// Resolve the target and try it while holding the lock: Unsubscribe
	// compacts r.subs in place, so a pointer into the slice must not be
	// dereferenced after unlocking (it could alias a different
	// subscription by then).
	r.mu.Lock()
	var s *subscription
	for i := range r.subs {
		if strings.HasPrefix(msg.Kind, r.subs[i].prefix) && (s == nil || len(r.subs[i].prefix) > len(s.prefix)) {
			s = &r.subs[i]
		}
	}
	if s == nil {
		r.mu.Unlock()
		return
	}
	select {
	case s.ch <- msg:
		r.mu.Unlock()
		return
	default:
	}
	// The channel is full: wait for room, Close or Unsubscribe.
	if s.gone == nil {
		s.gone = make(chan struct{})
	}
	ch, gone := s.ch, s.gone
	r.mu.Unlock()
	select {
	case ch <- msg:
	case <-gone:
	case <-ctx.Done():
	}
}
