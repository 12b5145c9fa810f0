package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"rdmaagreement/internal/types"
)

func runLeaderProposal(t *testing.T, protocol Protocol, opts Options) Result {
	t.Helper()
	cluster, err := NewCluster(protocol, opts)
	if err != nil {
		t.Fatalf("NewCluster(%s): %v", protocol, err)
	}
	t.Cleanup(cluster.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := cluster.Proposer(cluster.Leader()).Propose(ctx, types.Value("integration"))
	if err != nil {
		t.Fatalf("Propose(%s): %v", protocol, err)
	}
	return res
}

func TestEveryProtocolDecidesInCommonCase(t *testing.T) {
	for _, protocol := range Protocols() {
		protocol := protocol
		t.Run(string(protocol), func(t *testing.T) {
			res := runLeaderProposal(t, protocol, Options{Processes: 3, Memories: 3})
			if !res.Value.Equal(types.Value("integration")) {
				t.Fatalf("%s decided %v", protocol, res.Value)
			}
		})
	}
}

func TestCommonCaseDelaysMatchThePaper(t *testing.T) {
	want := map[Protocol]int64{
		ProtocolFastRobust:           2, // Theorem 4.9
		ProtocolProtectedMemoryPaxos: 2, // Theorem 5.1
		ProtocolDiskPaxos:            4, // §1 and Theorem 6.1
		ProtocolPaxos:                4, // two message round trips
		ProtocolFastPaxos:            2, // fast round
	}
	for protocol, delays := range want {
		protocol, delays := protocol, delays
		t.Run(string(protocol), func(t *testing.T) {
			res := runLeaderProposal(t, protocol, Options{Processes: 3, Memories: 3})
			if res.DecisionDelays != delays {
				t.Fatalf("%s decided in %d delays, paper says %d", protocol, res.DecisionDelays, delays)
			}
		})
	}
}

func TestUnknownProtocolRejected(t *testing.T) {
	if _, err := NewCluster(Protocol("nonsense"), Options{}); err == nil {
		t.Fatalf("unknown protocol accepted")
	}
}

func TestCrashHelpers(t *testing.T) {
	cluster, err := NewCluster(ProtocolProtectedMemoryPaxos, Options{Processes: 2, Memories: 3})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(cluster.Close)
	crashed := cluster.CrashMemories(1)
	if len(crashed) != 1 {
		t.Fatalf("CrashMemories returned %v", crashed)
	}
	cluster.CrashProcess(2)
	if !cluster.Network.ProcessCrashed(2) {
		t.Fatalf("CrashProcess did not mark the process crashed")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	res, err := cluster.Proposer(1).Propose(ctx, types.Value("despite-crashes"))
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if !res.Value.Equal(types.Value("despite-crashes")) {
		t.Fatalf("decided %v", res.Value)
	}
}

func TestLeaderChange(t *testing.T) {
	cluster, err := NewCluster(ProtocolProtectedMemoryPaxos, Options{Processes: 3, Memories: 3})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(cluster.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	first, err := cluster.Proposer(1).Propose(ctx, types.Value("v1"))
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	cluster.SetLeader(2)
	second, err := cluster.Proposer(2).Propose(ctx, types.Value("v2"))
	if err != nil {
		t.Fatalf("Propose after leader change: %v", err)
	}
	if !second.Value.Equal(first.Value) {
		t.Fatalf("agreement violated across leader change: %v vs %v", first.Value, second.Value)
	}
}

func TestOptionsDefaults(t *testing.T) {
	opts := Options{}
	opts.applyDefaults(ProtocolFastRobust)
	if opts.Processes != 3 || opts.Memories != 3 || opts.Leader != 1 {
		t.Fatalf("unexpected defaults: %+v", opts)
	}
	if opts.FaultyProcesses != 1 || opts.FaultyMemories != 1 {
		t.Fatalf("unexpected failure bounds: %+v", opts)
	}
	crash := Options{Processes: 4, Memories: 5}
	crash.applyDefaults(ProtocolProtectedMemoryPaxos)
	if crash.FaultyProcesses != 3 || crash.FaultyMemories != 2 {
		t.Fatalf("crash-protocol defaults wrong: %+v", crash)
	}
	// Aligned Paxos tolerates a minority of the n+m agents, f_M of them
	// memories: ⌊(5+3−1)/2⌋ − 1 = 2 processes.
	agents := Options{Processes: 5, Memories: 3}
	agents.applyDefaults(ProtocolAlignedPaxos)
	if agents.FaultyProcesses != 2 || agents.FaultyMemories != 1 {
		t.Fatalf("aligned-paxos defaults wrong: %+v", agents)
	}
}

func TestReleaseInstanceFreesSlotRegions(t *testing.T) {
	cluster, err := NewCluster(ProtocolProtectedMemoryPaxos, Options{Processes: 3, Memories: 3, InstancesOnly: true})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cluster.Close()

	base := cluster.LiveRegions()
	inst, err := cluster.NewInstance(7)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	if got := cluster.LiveRegions(); got != base+3 {
		t.Fatalf("LiveRegions() = %d after NewInstance, want %d (one slot region per memory)", got, base+3)
	}
	inst.Close() // stops nodes and subscriptions; the durable region stays
	if got := cluster.LiveRegions(); got != base+3 {
		t.Fatalf("LiveRegions() = %d after Close, want %d (Close must not drop the decided slot)", got, base+3)
	}
	if released := cluster.ReleaseInstance(7); released != 3 {
		t.Fatalf("ReleaseInstance released %d regions, want 3", released)
	}
	if got := cluster.LiveRegions(); got != base {
		t.Fatalf("LiveRegions() = %d after ReleaseInstance, want %d", got, base)
	}
	if released := cluster.ReleaseInstance(7); released != 0 {
		t.Fatalf("second ReleaseInstance released %d regions, want 0", released)
	}
}

func TestReleaseInstanceNoOpForMessagePassing(t *testing.T) {
	cluster, err := NewCluster(ProtocolPaxos, Options{Processes: 3, Memories: 3, InstancesOnly: true})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cluster.Close()
	if released := cluster.ReleaseInstance(0); released != 0 {
		t.Fatalf("ReleaseInstance on paxos released %d regions, want 0", released)
	}
}

func TestLiveInstanceBookkeeping(t *testing.T) {
	cluster, err := NewCluster(ProtocolProtectedMemoryPaxos, Options{Processes: 3, Memories: 3, InstancesOnly: true})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cluster.Close()
	if live := cluster.LiveInstances(); live != 0 {
		t.Fatalf("LiveInstances() = %d at start, want 0", live)
	}
	a, err := cluster.NewInstance(1)
	if err != nil {
		t.Fatalf("NewInstance(1): %v", err)
	}
	b, err := cluster.NewRecoveryInstance(1, 2)
	if err != nil {
		t.Fatalf("NewRecoveryInstance(1, 2): %v", err)
	}
	if live, peak := cluster.LiveInstances(), cluster.PeakInstances(); live != 2 || peak != 2 {
		t.Fatalf("LiveInstances()/PeakInstances() = %d/%d with two open instances, want 2/2", live, peak)
	}
	a.Close()
	a.Close() // idempotent: must not double-decrement
	if live := cluster.LiveInstances(); live != 1 {
		t.Fatalf("LiveInstances() = %d after one Close, want 1", live)
	}
	b.Close()
	if live, peak := cluster.LiveInstances(), cluster.PeakInstances(); live != 0 || peak != 2 {
		t.Fatalf("LiveInstances()/PeakInstances() = %d/%d after closing all, want 0/2", live, peak)
	}
}

// TestInstanceDecisionBytes pins what one log slot's decision allocates:
// instance setup, the leader's proposal, every other process learning the
// decision, then Close and ReleaseInstance — the bench's core.decision_bytes
// probe. A decision costs ≈ 10 KB; a decide subscription sized at 1,024
// messages per process instead of a few broadcasts costs ≈ 300 KB and fails.
func TestInstanceDecisionBytes(t *testing.T) {
	const warmup, slots, maxBytes = 50, 500, 32 << 10
	cluster, err := NewCluster(ProtocolProtectedMemoryPaxos, Options{InstancesOnly: true})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	leader, value := cluster.Leader(), make(types.Value, 128)
	decide := func(slot uint64) {
		inst, err := cluster.NewInstance(slot)
		if err != nil {
			t.Fatalf("NewInstance(%d): %v", slot, err)
		}
		defer cluster.ReleaseInstance(slot)
		defer inst.Close()
		if _, err := inst.Proposer(leader).Propose(ctx, value); err != nil {
			t.Fatalf("slot %d: Propose: %v", slot, err)
		}
		for _, p := range cluster.Procs {
			if p == leader {
				continue
			}
			if _, err := inst.Proposer(p).WaitDecision(ctx); err != nil {
				t.Fatalf("slot %d: WaitDecision at %s: %v", slot, p, err)
			}
		}
	}
	for slot := uint64(0); slot < warmup; slot++ {
		decide(slot)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for slot := uint64(warmup); slot < warmup+slots; slot++ {
		decide(slot)
	}
	runtime.ReadMemStats(&after)
	perSlot := (after.TotalAlloc - before.TotalAlloc) / slots
	t.Logf("one decision allocates %d B", perSlot)
	if perSlot > maxBytes {
		t.Fatalf("one decision allocates %d B, want ≤ %d B", perSlot, maxBytes)
	}
}

func TestRecoveryInstanceRequiresProposer(t *testing.T) {
	cluster, err := NewCluster(ProtocolProtectedMemoryPaxos, Options{Processes: 3, Memories: 3, InstancesOnly: true})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cluster.Close()
	if _, err := cluster.NewRecoveryInstance(1, 0); err == nil {
		t.Fatalf("NewRecoveryInstance with no proposer succeeded, want error")
	}
}

// TestLeaseRuntimeElectsOnCrash wires a lease-enabled cluster and crashes the
// lease holder's process on the network: its heartbeats stop, the lease
// expires, and the runtime must elect the smallest surviving process under a
// bumped epoch — while a healthy holder is never deposed.
func TestLeaseRuntimeElectsOnCrash(t *testing.T) {
	cluster, err := NewCluster(ProtocolProtectedMemoryPaxos, Options{
		Processes: 3, Memories: 3, InstancesOnly: true, LeaseDuration: 120 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(cluster.Close)

	if holder, epoch := cluster.LeaseHolder(), cluster.LeaseEpoch(); holder != 1 || epoch != 1 {
		t.Fatalf("initial lease = holder %v epoch %d, want holder 1 epoch 1", holder, epoch)
	}
	// A healthy holder keeps renewing: no takeover across several lease
	// lengths.
	time.Sleep(4 * cluster.Opts.LeaseDuration)
	if got := cluster.LeaseTakeovers(); got != 0 {
		t.Fatalf("healthy holder was deposed %d times", got)
	}

	cluster.CrashProcess(1)
	deadline := time.Now().Add(10 * time.Second)
	for cluster.LeaseEpoch() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no takeover %v after crashing the holder (lease %+v)", 10*time.Second, cluster.Lease())
		}
		time.Sleep(10 * time.Millisecond)
	}
	lease := cluster.Lease()
	if lease.Holder != 2 {
		t.Fatalf("takeover elected %v, want the smallest survivor 2 (lease %+v)", lease.Holder, lease)
	}
	if !lease.Valid(time.Now()) && cluster.LeaseEpoch() == lease.Epoch {
		t.Fatalf("takeover lease not renewed by the new holder: %+v", lease)
	}
	if cluster.Leader() != lease.Holder {
		t.Fatalf("Leader() = %v does not follow the lease holder %v", cluster.Leader(), lease.Holder)
	}
}

// TestLeaseRuntimePartitionedHolderDeposed partitions the lease holder away
// from every follower: its heartbeats reach only itself, which is not a
// grant, so the lease must expire and a follower on the majority side must
// take over.
func TestLeaseRuntimePartitionedHolderDeposed(t *testing.T) {
	cluster, err := NewCluster(ProtocolProtectedMemoryPaxos, Options{
		Processes: 3, Memories: 3, InstancesOnly: true, LeaseDuration: 120 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(cluster.Close)

	cluster.Network.Partition([]types.ProcID{1})
	deadline := time.Now().Add(10 * time.Second)
	for cluster.LeaseEpoch() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("partitioned holder never deposed (lease %+v)", cluster.Lease())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if holder := cluster.LeaseHolder(); holder == 1 {
		t.Fatalf("takeover kept the partitioned holder %v", holder)
	}
}

// TestWaitDecisionPrefersLearnedValue decides a single-shot instance of each
// protocol with a decide-once learner, then polls the decider's WaitDecision
// with an already-cancelled context: a value the node has learned must be
// returned every time, never the context's error.
func TestWaitDecisionPrefersLearnedValue(t *testing.T) {
	type waiter interface {
		WaitDecision(ctx context.Context) (types.Value, error)
	}
	nodeOf := func(p Proposer) waiter {
		switch a := p.(type) {
		case *pmPaxosProposer:
			return a.node
		case *paxosProposer:
			return a.node
		case *alignedProposer:
			return a.node
		}
		t.Fatalf("no decide-once node behind %T", p)
		return nil
	}
	for _, protocol := range []Protocol{ProtocolProtectedMemoryPaxos, ProtocolPaxos, ProtocolAlignedPaxos} {
		t.Run(string(protocol), func(t *testing.T) {
			cluster, err := NewCluster(protocol, Options{Processes: 3, Memories: 3})
			if err != nil {
				t.Fatalf("NewCluster(%s): %v", protocol, err)
			}
			t.Cleanup(cluster.Close)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			leader := cluster.Proposer(cluster.Leader())
			if _, err := leader.Propose(ctx, types.Value("decided")); err != nil {
				t.Fatalf("Propose(%s): %v", protocol, err)
			}
			node := nodeOf(leader)
			done, stop := context.WithCancel(context.Background())
			stop()
			for i := 0; i < 200; i++ {
				v, err := node.WaitDecision(done)
				if err != nil || !v.Equal(types.Value("decided")) {
					t.Fatalf("WaitDecision %d with a cancelled context = %v, %v; want the decided value", i, v, err)
				}
			}
		})
	}
}
