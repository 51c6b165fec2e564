// Command simbench is the simulator's end-to-end benchmark. It runs one
// seeded workload (copy-sweep, apps or fleet-sweep) serially on one
// goroutine, checks every simulated output, and prints one JSON report
// line: the end-to-end metrics of the untraced run, or with -trace the
// per-layer metrics of a traced run. run.py builds it and drives it; see
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"mcsquare/internal/sim"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{sz: full, setups: setups}
	fs.StringVar(&o.workload, "workload", "", "workload to run: copy-sweep, apps or fleet-sweep")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.StringVar(&o.repo, "repo", ".", "repository root (fleet-sweep reads examples/configs from it)")
	fs.StringVar(&o.traceDir, "trace", "", "traced run: write spans and a CPU profile to this directory and report per-layer metrics")
	recordPath := fs.String("record", "", "store this run's per-operation digests in this digest table file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	table, err := loadDigests()
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	if *recordPath == "" {
		o.recorded = table.lookup(o.workload, o.seed)
	}
	var ok bool
	if o.rounds, ok = rounds[o.workload]; !ok {
		fmt.Fprintf(stderr, "simbench: unknown workload %q (have %v)\n", o.workload, workloads)
		return 2
	}
	if o.traceDir != "" {
		o.rounds = 1
	}
	rep, err := bench(o)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	if *recordPath != "" {
		if rep.Failed > 0 {
			fmt.Fprintln(stderr, "simbench: not recording digests of a run with failed operations")
			return 1
		}
		digests := make([]string, len(rep.Ops))
		for i, r := range rep.Ops {
			digests[i] = r.Digest
		}
		if err := record(*recordPath, o.workload, o.seed, digests); err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// options configures one benchmark process.
type options struct {
	workload string
	seed     int64
	repo     string
	setups   int
	sz       sizes
	rounds   int
	traceDir string
	recorded []string // per-operation digests recorded for this seed, if any
	// tamper, when set, edits each outcome before it is checked; the
	// benchmark's tests use it to prove that bad outputs are caught.
	tamper func(op int, out *outcome)
}

// report is one process's result. Metrics holds the end-to-end metrics,
// Layers the per-layer metrics of a traced run.
type report struct {
	Workload      string            `json:"workload"`
	Seed          int64             `json:"seed"`
	HostProbeS    float64           `json:"host_probe_s"`
	SetupS        []float64         `json:"setup_runs_s"`
	Attempted     int               `json:"attempted"`
	Failed        int               `json:"failed"`
	DigestChecked bool              `json:"digest_checked"`
	Metrics       map[string]metric `json:"metrics"`
	Layers        map[string]metric `json:"layers,omitempty"`
	Ops           []opReport        `json:"ops"`
}

// opReport is one operation over every round: its wall time per round,
// its largest peak RSS, its digest and its first error.
type opReport struct {
	Name      string    `json:"name"`
	WallS     []float64 `json:"wall_s"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	Digest    string    `json:"digest"`
	Error     string    `json:"error,omitempty"`
}

// bench runs one workload: the host probe, o.setups set-ups (the last
// one's operations are used), then the timed phase.
func bench(o options) (*report, error) {
	if o.setups < 1 || o.rounds < 1 {
		return nil, fmt.Errorf("need at least one set-up and one round, have %d and %d", o.setups, o.rounds)
	}
	rep := &report{Workload: o.workload, Seed: o.seed, HostProbeS: probe(), Metrics: map[string]metric{}}

	var ops []op
	for i := 0; i < o.setups; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if ops, err = setup(o); err != nil {
			return nil, err
		}
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
	}
	if o.recorded != nil && len(o.recorded) != len(ops) {
		return nil, fmt.Errorf("%d recorded digests for %d operations", len(o.recorded), len(ops))
	}
	rep.DigestChecked = o.recorded != nil

	var tr *tracer
	if o.traceDir != "" {
		tr = newTracer()
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return nil, err
		}
		f, err := os.Create(filepath.Join(o.traceDir, "cpu.prof"))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
	}

	// The timed phase: every operation in order, o.rounds times.
	// Memory is returned to the OS before each operation (outside the
	// timed windows) so every operation starts from the same heap state
	// whatever ran before it; peak RSS is the largest high-water mark of
	// any operation's window. run_s and the allocation metrics sum each
	// operation's median over the rounds, which damps host noise that hits
	// one execution of one operation.
	events0, faults0 := sim.SimulatedEvents(), minorFaults()
	var rt runtimeReading
	walls := make([][]float64, len(ops))
	bytes := make([][]float64, len(ops))
	objects := make([][]float64, len(ops))
	rep.Ops = make([]opReport, len(ops))
	peakRSS := 0.0
	for round := 0; round < o.rounds; round++ {
		for i, op := range ops {
			debug.FreeOSMemory()
			if err := resetPeakRSS(); err != nil {
				return nil, err
			}
			r0, t0 := readRuntime(), time.Now()
			out, err := runOp(i, op, tr)
			wall := time.Since(t0).Seconds()
			d := readRuntime().sub(r0)
			rss, rerr := peakRSSMB()
			if rerr != nil {
				return nil, rerr
			}
			rt = rt.add(d)
			walls[i] = append(walls[i], wall)
			bytes[i] = append(bytes[i], float64(d.allocBytes))
			objects[i] = append(objects[i], float64(d.allocObjects))
			peakRSS = max(peakRSS, rss)

			if err == nil && o.tamper != nil {
				o.tamper(i, &out)
			}
			r := &rep.Ops[i]
			if err == nil {
				want := ""
				if o.recorded != nil {
					want = o.recorded[i]
				} else if round > 0 {
					want = r.Digest // a re-run must simulate exactly the same
				}
				err = verify(out, want)
			}
			if round == 0 {
				r.Name, r.Digest = op.name, out.digest
			}
			r.WallS = append(r.WallS, wall)
			r.PeakRSSMB = max(r.PeakRSSMB, rss)
			rep.Attempted++
			if err != nil {
				rep.Failed++
				if r.Error == "" {
					r.Error = err.Error()
				}
			}
		}
	}
	events := float64(sim.SimulatedEvents() - events0)
	faults := minorFaults() - faults0

	rep.Metrics["run_s"] = metric{sumMedians(walls), "s"}
	rep.Metrics["setup_s"] = metric{median(rep.SetupS), "s"}
	rep.Metrics["peak_rss_mb"] = metric{peakRSS, "MB"}
	rep.Metrics["alloc_mb"] = metric{sumMedians(bytes) / 1e6, "MB"}
	rep.Metrics["allocs_m"] = metric{sumMedians(objects) / 1e6, "M"}

	if tr != nil {
		pprof.StopCPUProfile()
		if err := finishTrace(o.traceDir, tr, rep, events, faults, rt); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// setup is one set-up: load, validate and lower every spec, generate the
// seeded inputs, build the fleets, and build and run one warm-up machine
// that is then discarded.
func setup(o options) ([]op, error) {
	ops, err := newPlan(o.workload, o.seed, o.repo, o.sz)
	if err != nil {
		return nil, err
	}
	if err := warmUp(o.seed); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return ops, nil
}

// warmUp runs one small mc2 copy point, with a source overwrite, on a
// machine that is then discarded, so the first timed operation does not
// pay for first-use costs.
func warmUp(seed int64) error {
	sz := tiny
	sz.copySizes = []uint64{64 << 10}
	ops, err := copySweep(seed, sz)
	if err != nil {
		return err
	}
	for _, o := range ops {
		if o.name == "copy/mc2/srcwrite/65536" {
			out, err := o.run(nil)
			if err != nil {
				return err
			}
			return verify(out, "")
		}
	}
	return fmt.Errorf("no mc2 srcwrite point")
}

// runOp runs one operation, turning a panic into an error. Unless the
// operation binds collectors itself, the traced run binds one for it.
func runOp(i int, o op, tr *tracer) (out outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if tr == nil {
		return o.run(nil)
	}
	tr.op = i
	if o.collects {
		end := tr.span(o.name)
		defer end()
		return o.run(tr)
	}
	tr.collect(o.name, func() { out, err = o.run(tr) })
	return out, err
}

// finishTrace writes the spans, rolls the CPU profile up per module and
// fills the report's per-layer metrics.
func finishTrace(dir string, tr *tracer, rep *report, events, faults float64, rt runtimeReading) error {
	spans, err := json.MarshalIndent(tr.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), append(spans, '\n'), 0o644); err != nil {
		return err
	}
	bin, err := os.Executable()
	if err != nil {
		return err
	}
	shares, err := rollup(bin, filepath.Join(dir, "cpu.prof"))
	if err != nil {
		return err
	}
	rep.Layers = tr.layers(events)
	rep.Layers["host.minor_faults"] = metric{faults, "count"}
	rep.Layers["runtime.gc_cycles"] = metric{float64(rt.gcCycles), "count"}
	rep.Layers["runtime.gc_cpu_s"] = metric{rt.gcCPU, "s"}
	for _, m := range selfModules {
		rep.Layers["host.self_frac."+m] = metric{shares[m], "ratio"}
	}
	return nil
}

func sumMedians(xss [][]float64) float64 {
	total := 0.0
	for _, xs := range xss {
		total += median(xs)
	}
	return total
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
