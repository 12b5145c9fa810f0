package paxos

import (
	"context"
	"testing"
	"time"

	"rdmaagreement/internal/netsim"
	"rdmaagreement/internal/omega"
	"rdmaagreement/internal/trace"
	"rdmaagreement/internal/types"
)

type cluster struct {
	procs   []types.ProcID
	net     *netsim.Network
	routers map[types.ProcID]*netsim.Router
	nodes   map[types.ProcID]*Node
	oracle  *omega.Static
	rec     *trace.Recorder
}

func newCluster(t *testing.T, n int, netOpts netsim.Options) *cluster {
	t.Helper()
	procs := make([]types.ProcID, 0, n)
	for i := 1; i <= n; i++ {
		procs = append(procs, types.ProcID(i))
	}
	c := &cluster{
		procs:   procs,
		net:     netsim.New(netOpts),
		routers: make(map[types.ProcID]*netsim.Router),
		nodes:   make(map[types.ProcID]*Node),
		oracle:  omega.NewStatic(1),
		rec:     &trace.Recorder{},
	}
	t.Cleanup(c.net.Close)
	for _, p := range procs {
		ep := c.net.Register(p)
		router := netsim.NewRouter(ep)
		c.routers[p] = router
		tr := NewNetTransport(ep, router.Subscribe("paxos/", 0), "paxos/msg")
		node := NewNode(Config{
			Self:     p,
			Procs:    procs,
			Oracle:   c.oracle,
			Recorder: c.rec,
		}, tr)
		node.Start()
		c.nodes[p] = node
	}
	t.Cleanup(func() {
		for _, node := range c.nodes {
			node.Stop()
		}
		for _, r := range c.routers {
			r.Close()
		}
	})
	return c
}

func TestSingleProposerDecides(t *testing.T) {
	c := newCluster(t, 3, netsim.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	got, err := c.nodes[1].Propose(ctx, types.Value("alpha"))
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if !got.Equal(types.Value("alpha")) {
		t.Fatalf("decided %v, want alpha", got)
	}
	// Every node eventually learns the decision.
	for _, p := range c.procs {
		v, err := c.nodes[p].WaitDecision(ctx)
		if err != nil {
			t.Fatalf("WaitDecision at %v: %v", p, err)
		}
		if !v.Equal(types.Value("alpha")) {
			t.Fatalf("node %v learned %v", p, v)
		}
	}
}

func TestValidityDecidesAProposedValue(t *testing.T) {
	c := newCluster(t, 3, netsim.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := c.nodes[1].Propose(ctx, types.Value("only-input"))
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if !got.Equal(types.Value("only-input")) {
		t.Fatalf("decision %v is not the proposed value", got)
	}
}

func TestToleratesMinorityCrash(t *testing.T) {
	c := newCluster(t, 3, netsim.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Crash one follower (minority for n=3): the leader must still decide.
	c.net.CrashProcess(3)
	got, err := c.nodes[1].Propose(ctx, types.Value("survives-crash"))
	if err != nil {
		t.Fatalf("Propose with crashed follower: %v", err)
	}
	if !got.Equal(types.Value("survives-crash")) {
		t.Fatalf("decided %v", got)
	}
}

func TestBlocksWithoutMajority(t *testing.T) {
	c := newCluster(t, 3, netsim.Options{})
	// Crash a majority of acceptors; the proposer cannot decide.
	c.net.CrashProcess(2)
	c.net.CrashProcess(3)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := c.nodes[1].Propose(ctx, types.Value("stuck")); err == nil {
		t.Fatalf("proposal should not complete without a majority (n ≥ 2f+1 bound)")
	}
}

func TestLeaderFailoverDecides(t *testing.T) {
	c := newCluster(t, 3, netsim.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// The initial leader crashes before proposing; p2 takes over.
	c.net.CrashProcess(1)
	c.oracle.SetLeader(2)
	got, err := c.nodes[2].Propose(ctx, types.Value("failover"))
	if err != nil {
		t.Fatalf("Propose after failover: %v", err)
	}
	if !got.Equal(types.Value("failover")) {
		t.Fatalf("decided %v", got)
	}
	if v, err := c.nodes[3].WaitDecision(ctx); err != nil || !v.Equal(types.Value("failover")) {
		t.Fatalf("follower did not learn failover decision: %v %v", v, err)
	}
}

func TestCommonCaseDelayCount(t *testing.T) {
	c := newCluster(t, 3, netsim.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	start := c.nodes[1].Clock().Now()
	if _, err := c.nodes[1].Propose(ctx, types.Value("count-delays")); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	delays := int64(c.nodes[1].Clock().Now() - start)
	// Classic Paxos needs two round trips: prepare/promise + accept/accepted
	// = 4 delays at the proposer in the common case.
	if delays != 4 {
		t.Fatalf("common-case Paxos decision took %d delays, want 4", delays)
	}
}

func TestSecondProposerAdoptsChosenValue(t *testing.T) {
	c := newCluster(t, 3, netsim.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if _, err := c.nodes[1].Propose(ctx, types.Value("first")); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	// A later proposer with a different input must decide the already chosen
	// value.
	c.oracle.SetLeader(2)
	got, err := c.nodes[2].Propose(ctx, types.Value("second"))
	if err != nil {
		t.Fatalf("second Propose: %v", err)
	}
	if !got.Equal(types.Value("first")) {
		t.Fatalf("second proposer decided %v, want the already chosen value", got)
	}
}

func TestDecidedBeforeAnyProposal(t *testing.T) {
	c := newCluster(t, 3, netsim.Options{})
	if _, ok := c.nodes[2].Decided(); ok {
		t.Fatalf("node reports a decision before any proposal")
	}
}

func TestMessageEncodeDecode(t *testing.T) {
	msg := Message{
		Kind:           KindAccept,
		From:           2,
		Ballot:         types.ProposalNumber{Round: 3, Proposer: 2},
		AcceptedBallot: types.ProposalNumber{Round: 1, Proposer: 1},
		Value:          types.Value("payload"),
	}
	enc, err := msg.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := DecodeMessage(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dec.Kind != msg.Kind || !dec.Ballot.Equal(msg.Ballot) || !dec.Value.Equal(msg.Value) {
		t.Fatalf("round trip mismatch: %+v vs %+v", dec, msg)
	}
	if _, err := DecodeMessage([]byte("not json")); err == nil {
		t.Fatalf("decoding garbage should fail")
	}
}
