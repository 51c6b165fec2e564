// Command mcbench runs the repository's performance harness: engine
// microbenchmarks plus a fixed figure-workload suite, emitting a
// BENCH_sim.json report (ns/op, allocs/op, events/sec, wall-clock).
//
//	mcbench                     # full run, writes BENCH_sim.json
//	mcbench -quick              # quick-scale workloads (CI smoke)
//	mcbench -only 'engine/'     # filter by regexp
//	mcbench -micro / -workloads # run only one half
//	mcbench -baseline old.json  # print deltas against a recorded run
//
// Every report records a fixed host-speed probe (host_probe_s); -baseline
// prints both reports' probes and labels the ns/op deltas "host drift?"
// when the probes differ by more than 10 %.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"

	"mcsquare/internal/bench"
)

func main() {
	var (
		out       = flag.String("out", "BENCH_sim.json", "output JSON path (empty to skip)")
		quick     = flag.Bool("quick", false, "run workloads at quick scale")
		only      = flag.String("only", "", "regexp filter on benchmark names")
		microOnly = flag.Bool("micro", false, "run only the engine microbenchmarks")
		wlOnly    = flag.Bool("workloads", false, "run only the figure-workload suite")
		baseline  = flag.String("baseline", "", "compare against a previously recorded BENCH_sim.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mcbench: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}

	var filter *regexp.Regexp
	if *only != "" {
		re, err := regexp.Compile(*only)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: bad -only regexp: %v\n", err)
			os.Exit(2)
		}
		filter = re
	}

	probe := bench.HostProbe()
	fmt.Printf("# host probe %.3f s\n", probe)
	var results []bench.Result
	if !*wlOnly {
		fmt.Println("# engine microbenchmarks")
		results = append(results, bench.EngineMicro(filter, os.Stdout)...)
	}
	if !*microOnly {
		fmt.Println("# figure-workload suite")
		results = append(results, bench.Workloads(*quick, filter, os.Stdout)...)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "mcbench: no benchmarks matched")
		os.Exit(1)
	}

	report := bench.NewReport(*quick, results)
	report.HostProbeS = probe
	if *out != "" {
		if err := bench.WriteJSON(*out, report); err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d results)\n", *out, len(results))
	}

	if *baseline != "" {
		base, err := bench.ReadJSON(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: read baseline: %v\n", err)
			os.Exit(1)
		}
		bench.WriteDeltas(os.Stdout, base, report)
	}
}
