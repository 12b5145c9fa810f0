package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContract holds BENCHMARK.json and the tables in spec.go equal, and
// both inside the limits the benchmark driver enforces.
func TestContract(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", b.Paths, b.RunSeconds)
	}
	seen := make(map[string]bool)
	name := func(kind, n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("%s name %q is malformed or used twice", kind, n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q differs from spec.go or is too long", i, w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer", len(b.EndToEnd), len(endToEnd), len(b.PerLayer), len(perLayer))
	}
	setup := false
	for i, m := range b.EndToEnd {
		name("end-to-end", m.Name)
		if (metricSpec{m.Name, m.Unit, m.Better, m.Bound}) != endToEnd[i] {
			t.Errorf("end-to-end %d: %+v differs from spec.go %+v", i, m, endToEnd[i])
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: unit, bound or direction out of range: %+v", m.Name, m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range b.PerLayer {
		name("per-layer", m.Name)
		if (metricSpec{m.Name, m.Unit, m.Better, 0}) != perLayer[i] {
			t.Errorf("per-layer %d: %+v differs from spec.go %+v", i, m, perLayer[i])
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit or direction out of range: %+v", m.Name, m)
		}
	}
}

// TestSmoke runs every workload small — few keys, short warm-up and window,
// one stall with ReplicaCatchUp shortened here only — traced, and checks that
// the audit passes and that the driver's line carries every metric of
// BENCHMARK.json once, finite and with its unit, in both trace modes.
func TestSmoke(t *testing.T) {
	probes := make(map[string]float64)
	if err := layerProbes(probes); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := w // a copy the subtest may change
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			w.keys = 256
			if w.openLoop {
				w.stallEvery = time.Second
				w.log.ReplicaCatchUp = 100 * time.Millisecond
			}
			res, err := runOnce(&w, runConfig{
				seed: 1, seconds: 1.5, traced: true, outDir: t.TempDir(),
				start: time.Now(), warmUp: 200 * time.Millisecond, setUps: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("correct=%v attempted=%d failed=%d findings=%v", res.Correct, res.Attempted, res.Failed, res.Findings)
			}
			for k, v := range probes {
				res.PerLayer[k] = v
			}
			if w.openLoop && res.PerLayer["omega.takeovers"] != 1 {
				t.Errorf("omega.takeovers = %v, want the one stall", res.PerLayer["omega.takeovers"])
			}
			for _, traced := range []bool{false, true} {
				var line struct {
					Metrics map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(driverLine(res, traced)), &line); err != nil {
					t.Fatal(err)
				}
				specs := endToEnd
				if traced {
					specs = perLayer
				}
				if len(line.Metrics) != len(specs) {
					t.Errorf("traced=%v: %d metrics on the line, %d specified", traced, len(line.Metrics), len(specs))
				}
				for _, m := range specs {
					got, ok := line.Metrics[m.Name]
					switch {
					case !ok || got.Value == nil:
						t.Errorf("traced=%v: %s missing", traced, m.Name)
					case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0) || got.Unit != m.Unit:
						t.Errorf("traced=%v: %s = %v %q", traced, m.Name, *got.Value, got.Unit)
					case !traced && *got.Value <= 0:
						t.Errorf("%s = %v: an end-to-end metric is never zero", m.Name, *got.Value)
					}
				}
			}
		})
	}
}
