// Package harness runs the experiments that reproduce the paper's
// quantitative claims (see DESIGN.md §4 and EXPERIMENTS.md) and formats their
// results as tables. The cmd/agreementbench table printer and the public
// Experiments registry are thin wrappers around this package.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"rdmaagreement/internal/core"
	"rdmaagreement/internal/types"
)

// Table is one experiment's result.
type Table struct {
	Name        string
	Description string
	Columns     []string
	Rows        [][]string
}

// String renders the table as aligned text.
func (t Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.Name, t.Description)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		widths[i] = w
		b.WriteString(strings.Repeat("-", w) + "  ")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// defaultTimeout bounds each individual scenario in an experiment.
const defaultTimeout = 60 * time.Second

// runOnce builds a cluster, lets the leader propose, and returns the result.
func runOnce(protocol core.Protocol, opts core.Options, mutate func(*core.Cluster)) (core.Result, error) {
	cluster, err := core.NewCluster(protocol, opts)
	if err != nil {
		return core.Result{}, err
	}
	defer cluster.Close()
	if mutate != nil {
		mutate(cluster)
	}
	ctx, cancel := context.WithTimeout(context.Background(), defaultTimeout)
	defer cancel()
	return cluster.Proposer(cluster.Leader()).Propose(ctx, types.Value("experiment"))
}

// proposeMany runs concurrent proposals at the given processes and returns
// the result observed at the first listed process. Backup-path scenarios need
// several correct processes to participate (the set-up phase of Preferential
// Paxos waits for n − f_P inputs).
func proposeMany(cluster *core.Cluster, procs []types.ProcID) (core.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), defaultTimeout)
	defer cancel()
	type outcome struct {
		p   types.ProcID
		res core.Result
		err error
	}
	results := make(chan outcome, len(procs))
	for _, p := range procs {
		go func(p types.ProcID) {
			res, err := cluster.Proposer(p).Propose(ctx, types.Value("experiment"))
			results <- outcome{p: p, res: res, err: err}
		}(p)
	}
	byProc := make(map[types.ProcID]core.Result, len(procs))
	for range procs {
		out := <-results
		if out.err != nil {
			return core.Result{}, out.err
		}
		byProc[out.p] = out.res
	}
	return byProc[procs[0]], nil
}

// Experiments returns every experiment in DESIGN.md order.
func Experiments() map[string]func() (Table, error) {
	return map[string]func() (Table, error){
		"e1": E1DecisionDelays,
		"e2": E2ByzantineResilience,
		"e3": E3CrashResilience,
		"e4": E4AlignedMajority,
		"e5": E5StaticPermissionLowerBound,
		"e6": E6SignatureCost,
		"e8": E8LatencySweep,
		"e9": E9MemoryFailures,
	}
}

// ExperimentIDs lists the experiment identifiers in a stable order.
func ExperimentIDs() []string { return []string{"e1", "e2", "e3", "e4", "e5", "e6", "e8", "e9"} }

// E1DecisionDelays measures common-case decision delays for every protocol
// (paper: Theorems 4.9 and 5.1, Table 1 row "This paper", §1 comparison with
// Disk Paxos / Fast Paxos).
func E1DecisionDelays() (Table, error) {
	table := Table{
		Name:        "E1",
		Description: "common-case decision delays (failure-free, synchronous)",
		Columns:     []string{"protocol", "n", "m", "delays", "paper"},
	}
	expected := map[core.Protocol]string{
		core.ProtocolFastRobust:           "2 (Thm 4.9)",
		core.ProtocolProtectedMemoryPaxos: "2 (Thm 5.1)",
		core.ProtocolAlignedPaxos:         "n/a (resilience result)",
		core.ProtocolDiskPaxos:            "≥4 (§1, Thm 6.1)",
		core.ProtocolPaxos:                "4",
		core.ProtocolFastPaxos:            "2",
	}
	for _, n := range []int{3, 5} {
		for _, protocol := range core.Protocols() {
			res, err := runOnce(protocol, core.Options{Processes: n, Memories: 3}, nil)
			if err != nil {
				return Table{}, fmt.Errorf("e1 %s n=%d: %w", protocol, n, err)
			}
			table.Rows = append(table.Rows, []string{
				string(protocol), fmt.Sprint(n), "3", fmt.Sprint(res.DecisionDelays), expected[protocol],
			})
		}
	}
	return table, nil
}

// E2ByzantineResilience exercises Fast & Robust with n = 2f_P+1 and a faulty
// fast-path leader (paper: Table 1, §4).
func E2ByzantineResilience() (Table, error) {
	table := Table{
		Name:        "E2",
		Description: "weak Byzantine agreement with n = 2f_P+1 (Fast & Robust)",
		Columns:     []string{"n", "f_P", "scenario", "decided", "fast path", "delays"},
	}
	for _, f := range []int{1, 2} {
		n := 2*f + 1
		// Failure-free: the fast path decides in two delays.
		res, err := runOnce(core.ProtocolFastRobust, core.Options{Processes: n, Memories: 3, FaultyProcesses: f}, nil)
		if err != nil {
			return Table{}, fmt.Errorf("e2 common case f=%d: %w", f, err)
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(f), "failure-free", "yes", fmt.Sprint(res.FastPath), fmt.Sprint(res.DecisionDelays),
		})

		// Byzantine-silent leader: the followers abort and the backup decides.
		cluster, err := core.NewCluster(core.ProtocolFastRobust, core.Options{
			Processes: n, Memories: 3, FaultyProcesses: f, FastTimeout: 50 * time.Millisecond,
		})
		if err != nil {
			return Table{}, fmt.Errorf("e2 silent leader f=%d: %w", f, err)
		}
		followers := cluster.Procs[1:] // everyone but the silent fast-path leader
		cluster.SetLeader(followers[0])
		res, err = proposeMany(cluster, followers)
		cluster.Close()
		if err != nil {
			return Table{}, fmt.Errorf("e2 silent leader f=%d propose: %w", f, err)
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(f), "silent Byzantine leader", "yes", fmt.Sprint(res.FastPath), fmt.Sprint(res.DecisionDelays),
		})
	}
	return table, nil
}

// E3CrashResilience exercises Protected Memory Paxos with n ≥ f_P+1 (all but
// one process crash) and f_M memory crashes (paper: Theorem 5.1).
func E3CrashResilience() (Table, error) {
	table := Table{
		Name:        "E3",
		Description: "crash consensus with n ≥ f_P+1 and m ≥ 2f_M+1 (Protected Memory Paxos)",
		Columns:     []string{"n", "crashed procs", "m", "crashed mems", "decided", "delays"},
	}
	for _, n := range []int{2, 3, 5} {
		res, err := runOnce(core.ProtocolProtectedMemoryPaxos, core.Options{Processes: n, Memories: 3}, func(c *core.Cluster) {
			// Crash every process except the leader: n ≥ f_P + 1 still decides.
			for _, p := range c.Procs {
				if p != c.Leader() {
					c.CrashProcess(p)
				}
			}
			c.CrashMemories(1)
		})
		if err != nil {
			return Table{}, fmt.Errorf("e3 n=%d: %w", n, err)
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(n - 1), "3", "1", "yes", fmt.Sprint(res.DecisionDelays),
		})
	}
	return table, nil
}

// E4AlignedMajority exercises Aligned Paxos with crashes of different
// minorities of the combined process+memory set (paper: §5.2).
func E4AlignedMajority() (Table, error) {
	table := Table{
		Name:        "E4",
		Description: "Aligned Paxos tolerates any minority of the combined process+memory set",
		Columns:     []string{"n", "m", "crashed procs", "crashed mems", "live agents", "decided"},
	}
	cases := []struct{ n, m, crashP, crashM int }{
		{3, 4, 0, 3}, // memory-heavy minority
		{4, 3, 3, 0}, // process-heavy minority
		{3, 3, 1, 1}, // balanced minority
	}
	for _, tc := range cases {
		res, err := runOnce(core.ProtocolAlignedPaxos, core.Options{Processes: tc.n, Memories: tc.m}, func(c *core.Cluster) {
			crashed := 0
			for _, p := range c.Procs {
				if crashed == tc.crashP {
					break
				}
				if p != c.Leader() {
					c.CrashProcess(p)
					crashed++
				}
			}
			c.CrashMemories(tc.crashM)
		})
		if err != nil {
			return Table{}, fmt.Errorf("e4 n=%d m=%d: %w", tc.n, tc.m, err)
		}
		live := tc.n + tc.m - tc.crashP - tc.crashM
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(tc.n), fmt.Sprint(tc.m), fmt.Sprint(tc.crashP), fmt.Sprint(tc.crashM),
			fmt.Sprintf("%d/%d", live, tc.n+tc.m), boolCell(!res.Value.Bottom()),
		})
	}
	return table, nil
}

// E5StaticPermissionLowerBound contrasts Disk Paxos (static permissions, ≥4
// delays) with Protected Memory Paxos (dynamic permissions, 2 delays) on the
// same topology (paper: Theorem 6.1).
func E5StaticPermissionLowerBound() (Table, error) {
	table := Table{
		Name:        "E5",
		Description: "dynamic permissions are necessary for 2-deciding consensus (Theorem 6.1)",
		Columns:     []string{"protocol", "permissions", "delays"},
	}
	disk, err := runOnce(core.ProtocolDiskPaxos, core.Options{Processes: 3, Memories: 3}, nil)
	if err != nil {
		return Table{}, fmt.Errorf("e5 disk paxos: %w", err)
	}
	pm, err := runOnce(core.ProtocolProtectedMemoryPaxos, core.Options{Processes: 3, Memories: 3}, nil)
	if err != nil {
		return Table{}, fmt.Errorf("e5 protected memory paxos: %w", err)
	}
	table.Rows = append(table.Rows,
		[]string{"disk-paxos", "static", fmt.Sprint(disk.DecisionDelays)},
		[]string{"protected-memory-paxos", "dynamic", fmt.Sprint(pm.DecisionDelays)},
	)
	return table, nil
}

// E6SignatureCost counts signature operations on the Fast & Robust fast path
// versus the Robust Backup path (paper §4.2: one signature suffices for a
// fast decision).
func E6SignatureCost() (Table, error) {
	table := Table{
		Name:        "E6",
		Description: "signature operations per decision: fast path vs backup path (leader side)",
		Columns:     []string{"path", "sign ops", "decided in delays"},
	}

	// Fast path: count signatures the leader creates before it decides.
	cluster, err := core.NewCluster(core.ProtocolFastRobust, core.Options{Processes: 3, Memories: 3})
	if err != nil {
		return Table{}, fmt.Errorf("e6 fast path: %w", err)
	}
	cluster.Ring.Counters().Reset()
	ctx, cancel := context.WithTimeout(context.Background(), defaultTimeout)
	res, err := cluster.Proposer(cluster.Leader()).Propose(ctx, types.Value("experiment"))
	cancel()
	fastSigns := cluster.Ring.Counters().Signs()
	cluster.Close()
	if err != nil {
		return Table{}, fmt.Errorf("e6 fast path propose: %w", err)
	}
	table.Rows = append(table.Rows, []string{"fast (Cheap Quorum leader)", fmt.Sprint(fastSigns), fmt.Sprint(res.DecisionDelays)})

	// Backup path: silent fast-path leader forces the backup, which signs
	// every non-equivocating broadcast it performs.
	cluster, err = core.NewCluster(core.ProtocolFastRobust, core.Options{
		Processes: 3, Memories: 3, FastTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		return Table{}, fmt.Errorf("e6 backup path: %w", err)
	}
	cluster.Ring.Counters().Reset()
	cluster.SetLeader(2)
	res, err = proposeMany(cluster, []types.ProcID{2, 3})
	backupSigns := cluster.Ring.Counters().Signs()
	cluster.Close()
	if err != nil {
		return Table{}, fmt.Errorf("e6 backup path propose: %w", err)
	}
	table.Rows = append(table.Rows, []string{"backup (Preferential Paxos)", fmt.Sprint(backupSigns), fmt.Sprint(res.DecisionDelays)})
	return table, nil
}

// E8LatencySweep sweeps the simulated one-way network/memory latency and
// reports wall-clock decision latency for a 2-delay protocol and a 4-delay
// protocol, showing the ≈2δ vs ≈4δ shape. Each cell is the median of e8Runs
// fresh clusters.
func E8LatencySweep() (Table, error) {
	table := Table{
		Name:        "E8",
		Description: "wall-clock decision latency vs per-operation latency δ (shape: 2δ vs 4δ)",
		Columns:     []string{"δ", "protected-memory-paxos (2Δ)", "disk-paxos (4Δ)"},
	}
	for _, delta := range []time.Duration{100 * time.Microsecond, time.Millisecond, 5 * time.Millisecond} {
		row := []string{delta.String()}
		for _, protocol := range []core.Protocol{core.ProtocolProtectedMemoryPaxos, core.ProtocolDiskPaxos} {
			// A memory operation is a round trip, so its latency is 2δ.
			elapsed, err := medianDecision(protocol, core.Options{Processes: 3, Memories: 3, MemoryLatency: 2 * delta})
			if err != nil {
				return Table{}, fmt.Errorf("e8 %s δ=%v: %w", protocol, delta, err)
			}
			row = append(row, elapsed.Round(10*time.Microsecond).String())
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}

// e8Runs is how many fresh clusters an E8 cell takes the median of.
const e8Runs = 5

// medianDecision times the leader's proposal on e8Runs fresh clusters and
// returns the median. The clock should time the decision, not set-up, so each
// cluster first sends one message over every link, because netsim sets a link
// up (a 4,096-message queue and a forwarder) on its first Send, and then
// collects the garbage of building it, so that no GC cycle overlaps the
// timed proposal.
func medianDecision(protocol core.Protocol, opts core.Options) (time.Duration, error) {
	runs := make([]time.Duration, 0, e8Runs)
	for range e8Runs {
		res, err := runOnce(protocol, opts, func(c *core.Cluster) {
			for _, p := range c.Network.Processes() {
				// A fresh cluster has no crashed process and is open, so
				// the broadcast cannot fail; no router subscribes to its kind.
				_ = c.Network.Broadcast(p, "e8/connect", nil, 0)
			}
			runtime.GC()
		})
		if err != nil {
			return 0, err
		}
		runs = append(runs, res.Elapsed)
	}
	slices.Sort(runs)
	return runs[len(runs)/2], nil
}

// E9MemoryFailures exercises memory crashes and the zombie-server scenario:
// the fast-path leader's process crashes right after deciding while its
// memory stays up, and a new leader finishes the agreement (paper §7).
func E9MemoryFailures() (Table, error) {
	table := Table{
		Name:        "E9",
		Description: "memory crashes and zombie servers (process dead, memory alive)",
		Columns:     []string{"scenario", "protocol", "decided", "delays"},
	}

	// Minority of memories crash before the run.
	res, err := runOnce(core.ProtocolFastRobust, core.Options{Processes: 3, Memories: 3}, func(c *core.Cluster) {
		c.CrashMemories(1)
	})
	if err != nil {
		return Table{}, fmt.Errorf("e9 memory crash: %w", err)
	}
	table.Rows = append(table.Rows, []string{"f_M memory crashes", "fast-robust", "yes", fmt.Sprint(res.DecisionDelays)})

	// Zombie server: the initial leader decides, then its process crashes
	// while its memory stays up; a second leader must reach the same
	// decision from the surviving memories.
	cluster, err := core.NewCluster(core.ProtocolProtectedMemoryPaxos, core.Options{Processes: 3, Memories: 3})
	if err != nil {
		return Table{}, fmt.Errorf("e9 zombie: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), defaultTimeout)
	first, err := cluster.Proposer(1).Propose(ctx, types.Value("experiment"))
	if err != nil {
		cancel()
		cluster.Close()
		return Table{}, fmt.Errorf("e9 zombie first propose: %w", err)
	}
	cluster.CrashProcess(1)
	cluster.SetLeader(2)
	second, err := cluster.Proposer(2).Propose(ctx, types.Value("other"))
	cancel()
	cluster.Close()
	if err != nil {
		return Table{}, fmt.Errorf("e9 zombie second propose: %w", err)
	}
	agreed := second.Value.Equal(first.Value)
	table.Rows = append(table.Rows, []string{"zombie leader (process dead, memory alive)", "protected-memory-paxos", boolCell(agreed), fmt.Sprint(second.DecisionDelays)})
	return table, nil
}

func boolCell(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
