// Command bench is the repository's benchmark: four workloads over the whole
// stack (pmpaxos → smr → ShardedKV → kvserver/client), thirteen
// client-observed metrics, a per-layer ledger from a traced second run and
// isolated layer probes, and a correctness audit after every workload.
//
//	bench                                  all workloads, untraced then traced
//	bench -workload put-lowload -trace 0   one run, end-to-end metrics only
//	bench -selfcheck                       two sets, compared against the bounds
//
// Every metric is printed as "workload metric value unit"; with one workload
// and one trace mode the last line of standard output is the JSON object the
// benchmark driver reads. See README.md for what each number means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

var processStart = time.Now()

func main() {
	os.Exit(run(os.Args[1:]))
}

// report is results.json: one set of runs.
type report struct {
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Nproc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go"`
	Commit     string             `json:"commit"`
	Workloads  map[string]*result `json:"workloads"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Uint64("seed", 1, "fixes the key and op sequence")
	seconds := fs.Float64("seconds", 25, "length of the measured window")
	trace := fs.String("trace", "", `"0": untraced run, end-to-end metrics; "1": traced run, per-layer metrics; default: both`)
	selfcheck := fs.Bool("selfcheck", false, "run the set twice, in opposite workload order, and fail if an end-to-end metric differs by more than its bound")
	out := fs.String("out", "out", "directory for results.json and trace-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if *name != "" {
		if findWorkload(*name) == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *name, names)
			return 2
		}
		names = []string{*name}
	}
	if *trace != "" && *trace != "0" && *trace != "1" || fs.NArg() != 0 || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}

	first, err := runSet(names, *seed, *seconds, *trace, *out, processStart)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	code := first.print()
	if *selfcheck {
		slices.Reverse(names)
		second, err := runSet(names, *seed, *seconds, *trace, *out, time.Now())
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		code = max(code, second.print(), compare(first, second))
	}
	if len(names) == 1 && *trace != "" {
		fmt.Println(driverLine(first.Workloads[names[0]], *trace == "1"))
	}
	return code
}

// runSet runs the named workloads in order — untraced, then traced, or only
// the one asked for — and writes results.json. A workload's result is the
// untraced run's end-to-end metrics beside the traced run's per-layer ones.
// start is when set-up time starts counting for the first run.
func runSet(names []string, seed uint64, seconds float64, trace, out string, start time.Time) (*report, error) {
	rep := &report{
		Seed: seed, Seconds: seconds, Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), Workloads: make(map[string]*result),
	}
	for _, name := range names {
		w := findWorkload(name)
		var res *result
		for _, traced := range []bool{false, true} {
			if trace == "0" && traced || trace == "1" && !traced {
				continue
			}
			got, err := runOnce(w, runConfig{seed: seed, seconds: seconds, traced: traced, outDir: out, start: start, warmUp: warmUp, setUps: setUps})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			start = time.Now()
			if res == nil {
				res = got
				continue
			}
			// Both ran: keep the untraced end-to-end numbers, take the traced
			// run's layers, and charge tracing with the difference.
			res.PerLayer = got.PerLayer
			res.PerLayer["bench.trace_overhead_frac"] = 1 - got.EndToEnd["ops_per_s"].Value/res.EndToEnd["ops_per_s"].Value
			res.Correct = res.Correct && got.Correct
			res.Findings = append(res.Findings, got.Findings...)
		}
		rep.Workloads[name] = res
	}
	if trace != "0" {
		probes := make(map[string]float64)
		if err := layerProbes(probes); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		for _, res := range rep.Workloads {
			for k, v := range probes {
				res.PerLayer[k] = v
			}
		}
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return rep, os.WriteFile(filepath.Join(out, "results.json"), append(blob, '\n'), 0o644)
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// print writes every metric as "workload metric value unit" and returns 1 if
// any workload failed its audit.
func (r *report) print() int {
	code := 0
	fmt.Printf("# seed %d, %g s windows, nproc %d, GOMAXPROCS %d, %s, commit %s\n", r.Seed, r.Seconds, r.Nproc, r.GOMAXPROCS, r.GoVersion, r.Commit)
	for _, w := range workloads {
		res := r.Workloads[w.name]
		if res == nil {
			continue
		}
		for _, m := range append(slices.Clone(endToEnd), unbounded...) {
			st := res.EndToEnd[m.Name]
			if st.N == 0 {
				fmt.Printf("%s %s null %s\n", w.name, m.Name, m.Unit)
				continue
			}
			fmt.Printf("%s %s %.6g %s  (slices %.6g to %.6g, %d samples)\n", w.name, m.Name, st.Value, m.Unit, st.Min, st.Max, st.N)
		}
		for _, m := range layers {
			if v, ok := res.PerLayer[m.Name]; ok {
				fmt.Printf("%s %s %.6g %s\n", w.name, m.Name, v, m.Unit)
			}
		}
		fmt.Printf("%s audit: correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
		for _, f := range res.Findings {
			fmt.Printf("%s   %s\n", w.name, f)
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// compare prints both sets' end-to-end metrics with their relative
// difference and returns 1 if any exceeds the metric's bound.
func compare(a, b *report) int {
	code := 0
	fmt.Println("# selfcheck: workload metric first second relative-difference bound")
	for _, w := range workloads {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range endToEnd {
			x, y := ra.EndToEnd[m.Name].Value, rb.EndToEnd[m.Name].Value
			diff := math.Abs(y-x) / math.Abs(x)
			verdict := "ok"
			if !(diff <= m.Bound) {
				verdict, code = "MISS", 1
			}
			fmt.Printf("%s %s %.6g %.6g %.4f %.2f %s\n", w.name, m.Name, x, y, diff, m.Bound, verdict)
		}
	}
	return code
}

// driverLine is the one JSON object the benchmark driver reads: every
// end-to-end metric of an untraced run, or every per-layer metric of a
// traced one.
func driverLine(res *result, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value)}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	for _, m := range specs {
		v, ok := res.PerLayer[m.Name]
		if !ok {
			v = res.EndToEnd[m.Name].Value
		}
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		panic(err) // a struct of numbers and strings always encodes
	}
	return string(blob)
}
