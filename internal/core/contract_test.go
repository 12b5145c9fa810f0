package core_test

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"rdmaagreement/internal/core"
	"rdmaagreement/internal/types"
)

// contract is what the paper claims of one protocol, in the terms the suite
// checks. The failure bound itself is not here: every case reads f_P and f_M
// from the built cluster's Opts.
type contract struct {
	// topologies are the cluster shapes the seeded cases cycle through; the
	// first is also the shape of the adoption, delay and blocking cases.
	topologies []core.Options
	// delays is the fault-free decision delay count of a lone leader; 0
	// means the protocol reports none.
	delays int64
	// fast is whether that decision takes the protocol's fast path.
	fast bool
	// block names the failure that, one past the bound, blocks the protocol.
	block failure
	// leaderOnly marks a protocol without a decide broadcast: a process
	// learns the decision only by leading a ballot, so termination is owed
	// to the settled leader alone.
	leaderOnly bool
	// fastDecidersLeave marks Fast & Robust, where a process that decides on
	// the fast path stops (ROADMAP item 17): a process that aborts then
	// waits forever in the backup path for partners. So only the leader may
	// crash, and the fast-deciders-leave case pins the gap.
	fastDecidersLeave bool
}

type failure int

const (
	memoryFailure   failure = iota // f_M+1 memories
	processFailure                 // f_P+1 processes
	combinedFailure                // f_P processes and f_M+1 memories: no majority of all agents is left
)

var contracts = map[core.Protocol]contract{
	// Theorem 4.9: n ≥ 2f_P+1. Its leader decides on the fast path with
	// f_P+1 processes crashed, so it blocks on memories.
	core.ProtocolFastRobust: {topologies: []core.Options{{Processes: 3}}, delays: 2, fast: true, block: memoryFailure, fastDecidersLeave: true},
	// Theorem 5.1: n ≥ f_P+1 and m ≥ 2f_M+1.
	core.ProtocolProtectedMemoryPaxos: {topologies: []core.Options{{Processes: 3}, {Processes: 5}, {Processes: 2, Memories: 5}}, delays: 2, block: memoryFailure},
	// §5.2: any minority of all processes and memories, a majority of the
	// processes (5+2) or of the memories (3+3, f_M = 2) among them. Aligned
	// Paxos reports no delay count (ROADMAP item 16), so it has no delay
	// case.
	core.ProtocolAlignedPaxos: {topologies: []core.Options{{Processes: 3}, {Processes: 5, Memories: 2}, {Processes: 3, FaultyMemories: 2}}, block: combinedFailure},
	// Theorem 6.1: two memory round trips even in the best case.
	core.ProtocolDiskPaxos: {topologies: []core.Options{{Processes: 3}, {Processes: 1}, {Processes: 2, Memories: 5}}, delays: 4, block: memoryFailure, leaderOnly: true},
	core.ProtocolPaxos:     {topologies: []core.Options{{Processes: 3}, {Processes: 5}}, delays: 4, block: processFailure},
	core.ProtocolFastPaxos: {topologies: []core.Options{{Processes: 3}, {Processes: 5}}, delays: 2, fast: true, block: processFailure},
}

// seeds are the fixed schedules of the agreement case.
var seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// TestConsensusContract checks every protocol of core.Protocols against the
// paper's claims: agreement and termination within the failure bound on
// seeded schedules, adoption of a chosen value by a later leader, a
// takeover in the middle of a ballot, the fault-free delay count, and
// blocking one failure past the bound. Every case checks validity and
// agreement over whatever was decided, and that every live proposer decided
// within the budget. Every live process proposes, because Fast & Robust
// owes termination only when all correct processes do.
func TestConsensusContract(t *testing.T) {
	for _, protocol := range core.Protocols() {
		c, ok := contracts[protocol]
		if !ok {
			t.Errorf("protocol %s has no contract", protocol)
			continue
		}
		t.Run(string(protocol), func(t *testing.T) {
			t.Parallel()
			t.Run("validity", func(t *testing.T) {
				// Fault-free, every process with its own input.
				for _, topo := range c.topologies {
					r := newRun(t, protocol, c, topo, 0)
					for _, p := range r.c.Procs {
						r.propose(p, time.Duration(p)*time.Millisecond)
					}
					r.check(t)
				}
			})
			t.Run("agreement", func(t *testing.T) {
				for _, seed := range seeds {
					t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
						// Odd seeds run on a slow network and slow memories, so
						// that ballots overlap for milliseconds.
						topo := c.topologies[int(seed)%len(c.topologies)]
						topo.NetworkDelay = time.Duration(seed%2) * time.Millisecond
						topo.MemoryLatency = topo.NetworkDelay
						r := newRun(t, protocol, c, topo, seed)
						r.seeded(20 * time.Millisecond)
						r.check(t)
					})
				}
			})
			t.Run("adoption", func(t *testing.T) {
				// The second leader is off the network while the first
				// decides, so it can learn the chosen value only through
				// the protocol's recovery, not from a decide broadcast.
				r := newRun(t, protocol, c, c.topologies[0], 0)
				first, second := r.c.Procs[0], r.c.Procs[1]
				r.c.CrashProcess(second)
				r.propose(first, 0)
				if !r.await(t, first) {
					return
				}
				r.quiesce(t)
				r.c.ReviveProcess(second)
				r.mu.Lock()
				r.settle = second
				r.settleOnLive()
				r.mu.Unlock()
				for _, p := range r.c.Procs[1:] {
					r.propose(p, 0)
				}
				r.check(t)
			})
			t.Run("takeover", func(t *testing.T) {
				// Leadership moves while the first leader is mid-ballot on a
				// slow network and slow memories, and the first leader
				// crashes as soon as anyone decides, so its decide broadcast
				// is lost: a stale ballot that still decides must have
				// decided what the new leader decides.
				const d = 5 * time.Millisecond
				topo := c.topologies[0]
				topo.NetworkDelay, topo.MemoryLatency = d, d
				r := newRun(t, protocol, c, topo, 0)
				first, second := r.c.Opts.Leader, r.c.Procs[1]
				r.propose(first, 0)
				time.Sleep(d / 2)
				r.mu.Lock()
				r.settle = second
				r.settleOnLive()
				r.mu.Unlock()
				for _, p := range r.c.Procs[1:] {
					r.propose(p, d/2)
				}
				for deadline := time.Now().Add(r.budget); r.decisions() == 0 && time.Now().Before(deadline); {
					time.Sleep(d / 50)
				}
				r.crashProcess(first)
				r.check(t)
			})
			t.Run("termination", func(t *testing.T) {
				// f_P processes and f_M memories crash before anyone
				// proposes, on every topology.
				for i, topo := range c.topologies {
					r := newRun(t, protocol, c, topo, int64(i+1))
					r.crash(r.c.Opts.FaultyProcesses, r.c.Opts.FaultyMemories)
					for _, p := range r.c.Procs {
						r.propose(p, 0)
					}
					r.check(t)
				}
			})
			if c.delays > 0 {
				t.Run("delay", func(t *testing.T) {
					// The leader alone, then with f_M memories crashed,
					// decides in the paper's count; with everyone proposing
					// its input, every decision takes the fast path if the
					// protocol has one. (Concurrent proposals of one value
					// shift the leader's clock, so only the first two
					// count.)
					for _, tc := range []struct{ everyone, crashMemories bool }{{}, {crashMemories: true}, {everyone: true}} {
						r := newRun(t, protocol, c, c.topologies[0], 0)
						if tc.crashMemories {
							r.crash(0, r.c.Opts.FaultyMemories)
						}
						r.common = types.Value("common-input")
						for _, p := range r.c.Procs {
							if tc.everyone || p == r.c.Opts.Leader {
								r.propose(p, 0)
							}
						}
						r.check(t)
						if res := r.results[r.c.Opts.Leader]; !tc.everyone && res.DecisionDelays != c.delays {
							t.Errorf("%+v: leader decided in %d delays, want %d", tc, res.DecisionDelays, c.delays)
						}
						for p, res := range r.results {
							if res.FastPath != c.fast {
								t.Errorf("%+v: %s decided with fast path %v, want %v", tc, p, res.FastPath, c.fast)
							}
						}
					}
				})
			}
			t.Run("blocking", func(t *testing.T) {
				r := newRun(t, protocol, c, c.topologies[0], 0)
				fP, fM := r.c.Opts.FaultyProcesses, r.c.Opts.FaultyMemories
				switch c.block {
				case memoryFailure:
					r.crash(0, fM+1)
				case processFailure:
					r.crash(fP+1, 0)
				case combinedFailure:
					r.crash(fP, fM+1)
				}
				r.proposeFor(300 * time.Millisecond)
				for p, res := range r.results {
					t.Errorf("%s decided %q one failure past the bound", p, res.Value)
				}
			})
			if c.fastDecidersLeave {
				t.Run("fast-deciders-leave", func(t *testing.T) {
					// A liveness gap within the bound: with one follower
					// crashed, the leader decides on the fast path and
					// stops, and the other follower aborts after 5 ms into
					// a backup path that needs two processes. When the gap
					// closes it decides; then drop this case and
					// fastDecidersLeave.
					r := newRun(t, protocol, c, core.Options{Processes: 3, FastTimeout: 5 * time.Millisecond}, 0)
					r.crashProcess(r.c.Procs[2])
					r.proposeFor(300 * time.Millisecond)
					if _, ok := r.results[r.c.Procs[1]]; ok || len(r.results) != 1 {
						t.Errorf("decided %v: the fast-deciders-leave gap is closed", r.results)
					}
				})
			}
		})
	}
}

// run drives one schedule on one cluster and records every outcome.
type run struct {
	c        *core.Cluster
	contract contract
	rng      *rand.Rand // nil: crash the highest identifiers, sparing the leader
	budget   time.Duration
	ctx      context.Context
	stop     context.CancelFunc
	wg       sync.WaitGroup

	mu      sync.Mutex
	settle  types.ProcID // the leader from the end of the schedule on
	common  types.Value  // every process's input, when set
	inputs  map[types.ProcID]types.Value
	cancel  map[types.ProcID]context.CancelFunc
	done    map[types.ProcID]chan struct{}
	crashed map[types.ProcID]bool
	results map[types.ProcID]core.Result
	errs    map[types.ProcID]error
}

func newRun(t *testing.T, protocol core.Protocol, c contract, opts core.Options, seed int64) *run {
	t.Helper()
	cluster, err := core.NewCluster(protocol, opts)
	if err != nil {
		t.Fatalf("NewCluster(%s, %+v): %v", protocol, opts, err)
	}
	ctx, stop := context.WithCancel(context.Background())
	r := &run{
		c: cluster, contract: c, budget: 10 * time.Second, ctx: ctx, stop: stop, settle: cluster.Leader(),
		inputs: map[types.ProcID]types.Value{}, cancel: map[types.ProcID]context.CancelFunc{},
		done: map[types.ProcID]chan struct{}{}, crashed: map[types.ProcID]bool{},
		results: map[types.ProcID]core.Result{}, errs: map[types.ProcID]error{},
	}
	if seed != 0 {
		r.rng = rand.New(rand.NewSource(seed))
	}
	t.Cleanup(func() { stop(); r.wg.Wait(); cluster.Close() })
	return r
}

// propose starts p's proposal of its own input after the given delay,
// unless p crashes first.
func (r *run) propose(p types.ProcID, after time.Duration) {
	ctx, cancel := context.WithCancel(r.ctx)
	done := make(chan struct{})
	r.mu.Lock()
	input := r.common
	if input == nil {
		input = types.Value("input-of-" + p.String())
	}
	r.inputs[p], r.cancel[p], r.done[p] = input, cancel, done
	if r.crashed[p] {
		cancel()
	}
	r.mu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(done)
		select {
		case <-time.After(after):
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			return
		}
		res, err := r.c.Proposer(p).Propose(ctx, input)
		r.mu.Lock()
		defer r.mu.Unlock()
		if err != nil {
			r.errs[p] = err
		} else {
			r.results[p] = res
		}
	}()
}

// proposeFor has every process propose and stops every proposal after d.
func (r *run) proposeFor(d time.Duration) {
	for _, p := range r.c.Procs {
		r.propose(p, 0)
	}
	time.AfterFunc(d, r.stop)
	r.wg.Wait()
}

// crash crashes procs processes and mems memories now and settles
// leadership on a live process.
func (r *run) crash(procs, mems int) {
	for _, p := range pick(r, r.crashable(), procs) {
		r.crashProcess(p)
	}
	for _, m := range pick(r, r.memories(), mems) {
		r.c.Pool.Memory(m).Crash()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.settleOnLive()
}

// crashProcess takes p off the network and cancels its proposal:
// CrashProcess alone only silences netsim, and a crashed process takes no
// more steps.
func (r *run) crashProcess(p types.ProcID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.crashed[p] = true
	r.c.CrashProcess(p)
	if cancel := r.cancel[p]; cancel != nil {
		cancel()
	}
}

// settleOnLive moves leadership to the settled leader, or to the first live
// process if that one crashed. r.mu is held.
func (r *run) settleOnLive() {
	for i := 0; r.crashed[r.settle]; i++ {
		r.settle = r.c.Procs[i]
	}
	r.c.SetLeader(r.settle)
}

// crashable lists the processes the contract lets crash, leader last.
func (r *run) crashable() []types.ProcID {
	if r.contract.fastDecidersLeave {
		return []types.ProcID{r.c.Opts.Leader}
	}
	out := slices.Clone(r.c.Procs)
	slices.Reverse(out)
	return out
}

func (r *run) memories() []types.MemID {
	out := make([]types.MemID, r.c.Pool.Size())
	for i := range out {
		out[i] = types.MemID(i + 1)
	}
	return out
}

// pick returns k of from (all of them if fewer): the first k on an
// unseeded run, k chosen by the seed otherwise.
func pick[T any](r *run, from []T, k int) []T {
	if r.rng != nil {
		r.rng.Shuffle(len(from), func(i, j int) { from[i], from[j] = from[j], from[i] })
	}
	return from[:min(k, len(from))]
}

// seeded plays a random schedule over window: every process proposes at a
// random instant, up to f_P processes and up to f_M memories crash at
// random instants, and leadership moves up to three times before it settles
// on a live process at the end. Events run in order, on this goroutine.
func (r *run) seeded(window time.Duration) {
	at := func() time.Duration { return time.Duration(r.rng.Int63n(int64(window))) }
	for _, p := range r.c.Procs {
		r.propose(p, at())
	}
	type event struct {
		at time.Duration
		do func()
	}
	var events []event
	for _, p := range pick(r, r.crashable(), r.rng.Intn(r.c.Opts.FaultyProcesses+1)) {
		events = append(events, event{at(), func() { r.crashProcess(p) }})
	}
	for _, m := range pick(r, r.memories(), r.rng.Intn(r.c.Opts.FaultyMemories+1)) {
		events = append(events, event{at(), r.c.Pool.Memory(m).Crash})
	}
	for i := r.rng.Intn(4); i > 0; i-- {
		p := r.c.Procs[r.rng.Intn(len(r.c.Procs))]
		events = append(events, event{at(), func() { r.c.SetLeader(p) }})
	}
	settle := r.c.Procs[r.rng.Intn(len(r.c.Procs))]
	events = append(events, event{window, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.settle = settle
		r.settleOnLive()
	}})
	slices.SortStableFunc(events, func(a, b event) int { return cmp.Compare(a.at, b.at) })
	start := time.Now()
	for _, e := range events {
		time.Sleep(time.Until(start.Add(e.at)))
		e.do()
	}
}

// quiesce waits until no message is in flight, so that a message to a
// crashed process has been dropped, not delivered after it revives.
func (r *run) quiesce(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(r.budget); ; time.Sleep(time.Millisecond) {
		s := r.c.Network.Counters().Snapshot()
		if s.Sent == s.Delivered+s.Dropped {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("network still busy after %v: %+v", r.budget, s)
		}
	}
}

func (r *run) decisions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.results)
}

// await waits for p's proposal and reports whether it decided.
func (r *run) await(t *testing.T, p types.ProcID) bool {
	t.Helper()
	r.mu.Lock()
	done := r.done[p]
	r.mu.Unlock()
	select {
	case <-done:
	case <-time.After(r.budget):
		t.Errorf("%s did not decide within %v", p, r.budget)
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.results[p]; !ok {
		t.Errorf("%s did not decide: %v", p, r.errs[p])
		return false
	}
	return true
}

// check waits for every live proposer to decide, then checks validity and
// agreement over every decision, a crashed process's included.
//
// Termination is owed to the settled leader, and to every other live
// proposer unless the protocol is leaderOnly or a process crashed after it
// decided: the decide broadcast is sent once and not relayed, so a crash
// can cut it short and leave a waiting process with no one to tell it
// (ROADMAP item 28).
func (r *run) check(t *testing.T) {
	t.Helper()
	r.mu.Lock()
	crashed := maps.Clone(r.crashed)
	var cancelled []chan struct{}
	for p := range crashed {
		cancelled = append(cancelled, r.done[p])
	}
	r.mu.Unlock()
	for _, done := range cancelled {
		if done != nil {
			<-done
		}
	}
	r.mu.Lock()
	owed := []types.ProcID{r.settle}
	if !r.contract.leaderOnly && !slices.ContainsFunc(r.c.Procs, func(p types.ProcID) bool {
		_, decided := r.results[p]
		return decided && crashed[p]
	}) {
		owed = owed[:0]
		for _, p := range r.c.Procs {
			if _, ok := r.inputs[p]; ok && !crashed[p] {
				owed = append(owed, p)
			}
		}
	}
	r.mu.Unlock()
	for _, p := range owed {
		r.await(t, p)
	}
	r.stop()
	r.wg.Wait()
	var agreed types.Value
	for _, p := range r.c.Procs {
		res, ok := r.results[p]
		if !ok {
			continue
		}
		if !slices.ContainsFunc(r.c.Procs, func(q types.ProcID) bool { return res.Value.Equal(r.inputs[q]) }) {
			t.Errorf("%s decided %q, which nobody proposed", p, res.Value)
		}
		if agreed == nil {
			agreed = res.Value
		} else if !res.Value.Equal(agreed) {
			t.Errorf("%s decided %q, another process %q", p, res.Value, agreed)
		}
	}
}
