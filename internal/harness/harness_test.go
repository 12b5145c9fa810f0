package harness

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"rdmaagreement/internal/core"
)

func TestTableRendering(t *testing.T) {
	table := Table{
		Name:        "T",
		Description: "demo",
		Columns:     []string{"a", "long-column"},
		Rows:        [][]string{{"1", "2"}, {"wide-cell", "3"}},
	}
	out := table.String()
	if !strings.Contains(out, "long-column") || !strings.Contains(out, "wide-cell") {
		t.Fatalf("rendered table missing cells:\n%s", out)
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	exps := Experiments()
	for _, id := range ExperimentIDs() {
		if _, ok := exps[id]; !ok {
			t.Fatalf("experiment %s missing from registry", id)
		}
	}
	if len(exps) != len(ExperimentIDs()) {
		t.Fatalf("registry and id list out of sync")
	}
}

func TestE1ReproducesPaperDelays(t *testing.T) {
	table, err := E1DecisionDelays()
	if err != nil {
		t.Fatalf("E1: %v", err)
	}
	want := map[string]string{
		string(core.ProtocolFastRobust):           "2",
		string(core.ProtocolProtectedMemoryPaxos): "2",
		string(core.ProtocolDiskPaxos):            "4",
		string(core.ProtocolPaxos):                "4",
		string(core.ProtocolFastPaxos):            "2",
	}
	for _, row := range table.Rows {
		protocol, delays := row[0], row[3]
		expected, ok := want[protocol]
		if !ok {
			continue
		}
		if delays != expected {
			t.Fatalf("E1: %s decided in %s delays, paper says %s\n%s", protocol, delays, expected, table)
		}
	}
}

func TestE5LowerBoundShape(t *testing.T) {
	table, err := E5StaticPermissionLowerBound()
	if err != nil {
		t.Fatalf("E5: %v", err)
	}
	var disk, pm int
	for _, row := range table.Rows {
		v, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatalf("E5: bad delay cell %q", row[2])
		}
		switch row[0] {
		case "disk-paxos":
			disk = v
		case "protected-memory-paxos":
			pm = v
		}
	}
	if pm != 2 {
		t.Fatalf("E5: protected memory paxos should be 2-deciding, got %d", pm)
	}
	if disk < 4 {
		t.Fatalf("E5: disk paxos (static permissions) should need at least 4 delays, got %d", disk)
	}
}

func TestE3CrashResilience(t *testing.T) {
	table, err := E3CrashResilience()
	if err != nil {
		t.Fatalf("E3: %v", err)
	}
	for _, row := range table.Rows {
		if row[4] != "yes" {
			t.Fatalf("E3: run %v did not decide", row)
		}
	}
}

func TestE4AlignedMajorityDecides(t *testing.T) {
	table, err := E4AlignedMajority()
	if err != nil {
		t.Fatalf("E4: %v", err)
	}
	for _, row := range table.Rows {
		if row[5] != "yes" {
			t.Fatalf("E4: run %v did not decide\n%s", row, table)
		}
	}
}

// The zombie row's delay count varies from run to run (8 or 0 have both been
// seen), so only its decision is pinned.
func TestE9MemoryFailuresDecide(t *testing.T) {
	table, err := E9MemoryFailures()
	if err != nil {
		t.Fatalf("E9: %v", err)
	}
	for _, row := range table.Rows {
		if row[2] != "yes" {
			t.Fatalf("E9: run %v did not decide\n%s", row, table)
		}
	}
	if delays := table.Rows[0][3]; delays != "2" {
		t.Fatalf("E9: fast & robust with f_M memory crashes decided in %s delays, want 2\n%s", delays, table)
	}
}

func TestE6FastPathUsesSingleSignature(t *testing.T) {
	table, err := E6SignatureCost()
	if err != nil {
		t.Fatalf("E6: %v", err)
	}
	for _, row := range table.Rows {
		if !strings.HasPrefix(row[0], "fast") {
			continue
		}
		signs, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatalf("E6: bad sign count %q", row[1])
		}
		if signs != 1 {
			t.Fatalf("E6: the fast-path leader should need exactly one signature, used %d\n%s", signs, table)
		}
	}
}

// E8 keeps the paper's shape, 2δ against 4δ, at every δ, and at the δ that
// resembles RDMA it times the algorithm, not the simulator's timers. E8
// reads the wall clock, so a host busy with other work can slow one sweep;
// the shape must hold in one of e8Sweeps. With sub-millisecond waits rounded
// up to a millisecond, none does.
func TestE8Shape(t *testing.T) {
	const e8Sweeps = 5
	var failed []string
	for range e8Sweeps {
		table, err := E8LatencySweep()
		if err != nil {
			t.Fatalf("E8: %v", err)
		}
		problems := e8ShapeProblems(table)
		if len(problems) == 0 {
			return
		}
		failed = append(failed, strings.Join(problems, "\n")+"\n"+table.String())
	}
	t.Fatalf("E8 lost its shape in all %d sweeps:\n%s", e8Sweeps, strings.Join(failed, "\n"))
}

// e8ShapeProblems checks disk/pm ≥ 1.5 at every δ and pm ≤ 3 × 2δ at
// δ = 100 µs.
func e8ShapeProblems(table Table) []string {
	var problems []string
	for _, row := range table.Rows {
		var cells [3]time.Duration
		for i := range cells {
			d, err := time.ParseDuration(row[i])
			if err != nil {
				return []string{fmt.Sprintf("bad latency cell %q", row[i])}
			}
			cells[i] = d
		}
		delta, pm, disk := cells[0], cells[1], cells[2]
		if ratio := float64(disk) / float64(pm); ratio < 1.5 {
			problems = append(problems, fmt.Sprintf("δ=%v: disk/pm = %.2f, want ≥ 1.5", delta, ratio))
		}
		if delta == 100*time.Microsecond && pm > 3*2*delta {
			problems = append(problems, fmt.Sprintf("δ=%v: pmpaxos took %v, want ≤ 3 × 2δ = %v", delta, pm, 3*2*delta))
		}
	}
	return problems
}
