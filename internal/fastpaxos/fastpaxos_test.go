package fastpaxos

import (
	"context"
	"testing"
	"time"

	"rdmaagreement/internal/netsim"
	"rdmaagreement/internal/omega"
	"rdmaagreement/internal/types"
)

type fixture struct {
	procs   []types.ProcID
	net     *netsim.Network
	routers map[types.ProcID]*netsim.Router
	oracle  *omega.Static
	nodes   map[types.ProcID]*Node
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Self: 1, Procs: []types.ProcID{1, 2, 3}, FaultyProcesses: 2}); err == nil {
		t.Fatalf("n=3 with f=2 should be rejected")
	}
	if _, err := New(Config{Self: 1, Procs: []types.ProcID{1, 2, 3}, FaultyProcesses: 1}); err == nil {
		t.Fatalf("missing endpoint should be rejected")
	}
}

func TestFastPathDecidesInTwoDelays(t *testing.T) {
	f := newFixture(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	out, err := f.nodes[1].Propose(ctx, types.Value("fast"))
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if !out.FastPath {
		t.Fatalf("expected a fast-path decision in the failure-free case")
	}
	if !out.Value.Equal(types.Value("fast")) {
		t.Fatalf("decided %v", out.Value)
	}
	if out.DecisionDelays != 2 {
		t.Fatalf("fast-path decision took %d delays, want 2", out.DecisionDelays)
	}
}

func TestFallbackWhenAcceptorSilent(t *testing.T) {
	f := newFixture(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// One acceptor crashes: the unanimous fast quorum is unreachable, so the
	// proposer falls back to classic Paxos, which needs only a majority.
	f.net.CrashProcess(3)
	out, err := f.nodes[1].Propose(ctx, types.Value("fallback"))
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if out.FastPath {
		t.Fatalf("fast path should not succeed with a crashed acceptor")
	}
	if !out.Value.Equal(types.Value("fallback")) {
		t.Fatalf("decided %v", out.Value)
	}
}

// newFixture builds the fixture with a single subscription
// covering both fast-round message kinds (propose and ack).
func newFixture(t *testing.T, n int) *fixture {
	t.Helper()
	procs := make([]types.ProcID, 0, n)
	for i := 1; i <= n; i++ {
		procs = append(procs, types.ProcID(i))
	}
	f := &fixture{
		procs:   procs,
		net:     netsim.New(netsim.Options{}),
		routers: make(map[types.ProcID]*netsim.Router),
		oracle:  omega.NewStatic(1),
		nodes:   make(map[types.ProcID]*Node),
	}
	t.Cleanup(f.net.Close)
	for _, p := range procs {
		ep := f.net.Register(p)
		router := netsim.NewRouter(ep)
		f.routers[p] = router
		node, err := New(Config{
			Self:            p,
			Procs:           procs,
			FaultyProcesses: (n - 1) / 2,
			Endpoint:        ep,
			FastSub:         router.Subscribe("fastpaxos/", 0),
			ClassicSub:      router.Subscribe(ClassicKind, 0),
			Oracle:          f.oracle,
		})
		if err != nil {
			t.Fatalf("New(%v): %v", p, err)
		}
		node.Start()
		f.nodes[p] = node
	}
	t.Cleanup(func() {
		for _, node := range f.nodes {
			node.Stop()
		}
		for _, r := range f.routers {
			r.Close()
		}
	})
	return f
}
