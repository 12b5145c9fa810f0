// Command agreementbench regenerates the experiment tables recorded in
// EXPERIMENTS.md: the delay, resilience and signature-cost measurements that
// reproduce the quantitative claims of "The Impact of RDMA on Agreement".
// The replicated-log stack built on those protocols is measured by the bench/
// module (bash bench/run.sh), not here.
//
// Usage:
//
//	agreementbench                   # run every experiment table
//	agreementbench -table e1         # run a single experiment (e1..e6, e8, e9)
//
// Diagnostics and usage go to stderr; only tables go to stdout. Exit codes:
//
//	0  success
//	1  an experiment failed to run, or -table named none
//	2  usage error (stray arguments; flag.ExitOnError also exits 2 on a bad flag)
package main

import (
	"flag"
	"fmt"
	"os"

	"rdmaagreement"
)

const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
)

func main() {
	os.Exit(run())
}

func run() int {
	flag.CommandLine.SetOutput(os.Stderr)
	table := flag.String("table", "all", "experiment to run (e1..e9, or 'all')")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "agreementbench: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		return exitUsage
	}
	if err := runTables(*table); err != nil {
		fmt.Fprintf(os.Stderr, "agreementbench: %v\n", err)
		return exitRuntime
	}
	return exitOK
}

func runTables(which string) error {
	experiments := rdmaagreement.Experiments()
	ids := rdmaagreement.ExperimentIDs()
	if which != "all" {
		runner, ok := experiments[which]
		if !ok {
			return fmt.Errorf("unknown experiment %q (available: %v)", which, ids)
		}
		return runOne(which, runner)
	}
	for _, id := range ids {
		if err := runOne(id, experiments[id]); err != nil {
			return err
		}
	}
	return nil
}

func runOne(id string, runner func() (rdmaagreement.Table, error)) error {
	table, err := runner()
	if err != nil {
		return fmt.Errorf("experiment %s: %w", id, err)
	}
	fmt.Println(table.String())
	return nil
}
