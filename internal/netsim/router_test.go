package netsim

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func TestRouterDispatchByPrefix(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a := n.Register(1)
	b := n.Register(2)
	router := NewRouter(b)
	t.Cleanup(router.Close)

	paxosCh := router.Subscribe("paxos/", 0)
	cheapCh := router.Subscribe("cheap/", 0)

	if err := a.Send(2, "paxos/prepare", []byte("p"), 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := a.Send(2, "cheap/panic", []byte("c"), 0); err != nil {
		t.Fatalf("Send: %v", err)
	}

	select {
	case msg := <-paxosCh:
		if msg.Kind != "paxos/prepare" {
			t.Fatalf("paxos channel got %q", msg.Kind)
		}
	case <-time.After(time.Second):
		t.Fatalf("paxos message not routed")
	}
	select {
	case msg := <-cheapCh:
		if msg.Kind != "cheap/panic" {
			t.Fatalf("cheap channel got %q", msg.Kind)
		}
	case <-time.After(time.Second):
		t.Fatalf("cheap message not routed")
	}
}

func TestRouterLongestPrefixWins(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a := n.Register(1)
	b := n.Register(2)
	router := NewRouter(b)
	t.Cleanup(router.Close)

	generic := router.Subscribe("proto/", 0)
	specific := router.Subscribe("proto/special/", 0)

	if err := a.Send(2, "proto/special/x", nil, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case <-specific:
	case <-generic:
		t.Fatalf("message routed to generic subscription instead of the most specific one")
	case <-time.After(time.Second):
		t.Fatalf("message not routed at all")
	}
}

func TestRouterUnmatchedWithoutDefaultIsDropped(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a := n.Register(1)
	b := n.Register(2)
	router := NewRouter(b)
	t.Cleanup(router.Close)

	known := router.Subscribe("known/", 0)
	if err := a.Send(2, "other/kind", nil, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := a.Send(2, "known/kind", nil, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case msg := <-known:
		if msg.Kind != "known/kind" {
			t.Fatalf("known channel got %q", msg.Kind)
		}
	case <-time.After(time.Second):
		t.Fatalf("known message lost")
	}
}

func TestRouterCloseIdempotent(t *testing.T) {
	n := newTestNetwork(t, Options{})
	b := n.Register(2)
	router := NewRouter(b)
	router.Close()
	router.Close()
}

func TestRouterEndpointAccessor(t *testing.T) {
	n := newTestNetwork(t, Options{})
	b := n.Register(2)
	router := NewRouter(b)
	t.Cleanup(router.Close)
	if router.Endpoint() != b {
		t.Fatalf("Endpoint() should return the attached endpoint")
	}
	// Router must not interfere with sending through the endpoint.
	n.Register(3)
	if err := router.Endpoint().Send(3, "x", nil, 0); err != nil {
		t.Fatalf("Send through routed endpoint: %v", err)
	}
	// Receive on the other endpoint still works (no router attached there).
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := n.Register(3).Receive(ctx); err != nil {
		t.Fatalf("Receive: %v", err)
	}
}

// TestRouterUnsubscribeConcurrentDispatch churns subscriptions while traffic
// flows, the pattern of a replicated log opening and closing one consensus
// instance per slot over a long-lived router. It guards the dispatch path
// against reading subscription state outside the lock (a misdelivery and a
// race-detector hit before dispatch resolved the target under the mutex).
func TestRouterUnsubscribeConcurrentDispatch(t *testing.T) {
	n := newTestNetwork(t, Options{})
	sender := n.Register(1)
	router := NewRouter(n.Register(2))
	t.Cleanup(router.Close)

	keep := router.Subscribe("keep/", 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			if err := sender.Send(2, "keep/msg", nil, 0); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
		}
	}()

	// Churn short-lived subscriptions under the sender's feet.
	for i := 0; i < 500; i++ {
		ch := router.Subscribe(fmt.Sprintf("slot/%d/", i), 0)
		router.Unsubscribe(ch)
	}

	received := 0
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for received < 2000 {
		select {
		case msg := <-keep:
			if msg.Kind != "keep/msg" {
				t.Fatalf("misdelivered message of kind %q", msg.Kind)
			}
			received++
		case <-ctx.Done():
			t.Fatalf("received %d of 2000 messages: %v", received, ctx.Err())
		}
	}
	<-done
}

// TestUnsubscribeReleasesBlockedDispatch wedges the router on a full
// subscription that is never read, the state of a slot whose node has
// stopped but is not yet unsubscribed. Unsubscribe must release the blocked
// send, so the router's other subscriptions (lease heartbeats, say) flow
// again.
func TestUnsubscribeReleasesBlockedDispatch(t *testing.T) {
	n := newTestNetwork(t, Options{})
	sender := n.Register(1)
	router := NewRouter(n.Register(2))
	t.Cleanup(router.Close)

	stuck := router.Subscribe("stuck/", 1)
	other := router.Subscribe("other/", 0)
	for i := 0; i < 3; i++ {
		if err := sender.Send(2, "stuck/msg", nil, 0); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	// Links are FIFO, so this message queues behind the blocked dispatch.
	if err := sender.Send(2, "other/msg", nil, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case <-other:
		t.Fatal("message delivered past a full subscription; the router never blocked")
	case <-time.After(50 * time.Millisecond):
	}

	router.Unsubscribe(stuck)
	select {
	case msg := <-other:
		if msg.Kind != "other/msg" {
			t.Fatalf("other channel got %q", msg.Kind)
		}
	case <-time.After(time.Second):
		t.Fatal("Unsubscribe did not release the dispatch blocked on its full channel")
	}
	if got := len(stuck); got != 1 {
		t.Fatalf("unsubscribed channel holds %d messages, want the 1 delivered before it filled", got)
	}
}
