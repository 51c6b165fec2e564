package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// tinyRun runs a workload at the tests' scale from the repository root.
func tinyRun(t *testing.T, o options) *report {
	t.Helper()
	o.seed, o.repo, o.setups, o.sz = 1, "..", 1, tiny
	if o.rounds == 0 {
		o.rounds = 1
	}
	rep, err := bench(o)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	return rep
}

func failures(rep *report) []string {
	var errs []string
	for _, op := range rep.Ops {
		if op.Error != "" {
			errs = append(errs, op.Name+": "+op.Error)
		}
	}
	return errs
}

func TestWorkloadsCompleteAtTinyScale(t *testing.T) {
	for _, wl := range workloads {
		// Two rounds: the second must simulate exactly what the first did.
		rep := tinyRun(t, options{workload: wl, rounds: 2})
		if rep.Attempted == 0 || rep.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", wl, rep.Failed, rep.Attempted, failures(rep))
		}
		for _, name := range []string{"run_s", "setup_s", "peak_rss_mb", "alloc_mb", "allocs_m"} {
			if m, ok := rep.Metrics[name]; !ok || !(m.Value > 0) {
				t.Errorf("%s: metric %s = %+v, want a positive value", wl, name, m)
			}
		}
	}
}

func TestWrongRecordedDigestFails(t *testing.T) {
	first := tinyRun(t, options{workload: "copy-sweep"})
	recorded := make([]string, len(first.Ops))
	for i, op := range first.Ops {
		recorded[i] = op.Digest
	}
	if rep := tinyRun(t, options{workload: "copy-sweep", recorded: recorded}); rep.Failed != 0 {
		t.Fatalf("replay against its own digests failed: %v", failures(rep))
	}
	recorded[2] = strings.Repeat("0", len(recorded[2]))
	rep := tinyRun(t, options{workload: "copy-sweep", recorded: recorded})
	if rep.Failed != 1 || !strings.Contains(rep.Ops[2].Error, "digest") {
		t.Fatalf("wrong digest: %d failed (%v), want operation 2 to fail on its digest", rep.Failed, failures(rep))
	}
}

func TestCopyMismatchFails(t *testing.T) {
	rep := tinyRun(t, options{workload: "copy-sweep", tamper: func(op int, out *outcome) {
		if op == 0 {
			out.copies[0].got[len(out.copies[0].got)-1] ^= 1
		}
	}})
	if rep.Failed != 1 || !strings.Contains(rep.Ops[0].Error, "differs from source") {
		t.Fatalf("copy mismatch: %d failed (%v), want operation 0 to fail", rep.Failed, failures(rep))
	}
}

func TestBrokenConservationFails(t *testing.T) {
	rep := tinyRun(t, options{workload: "fleet-sweep", tamper: func(op int, out *outcome) {
		if op == 2 {
			out.fleet[1].Completed++
		}
	}})
	if rep.Failed != 1 || !strings.Contains(rep.Ops[2].Error, "offered") {
		t.Fatalf("broken conservation: %d failed (%v), want operation 2 to fail", rep.Failed, failures(rep))
	}
}

func TestPanicIsAFailedOperation(t *testing.T) {
	boom := op{name: "boom", run: func(*tracer) (outcome, error) { panic("boom") }}
	for _, tr := range []*tracer{nil, newTracer()} {
		if _, err := runOp(0, boom, tr); err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("traced=%v: runOp of a panicking operation returned %v", tr != nil, err)
		}
	}
}

// TestTracedRunReportsEveryLayer pins the traced run's metric names to the
// per_layer list in BENCHMARK.json (run.py adds trace.overhead).
func TestTracedRunReportsEveryLayer(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range bench.PerLayer {
		if m.Name != "trace.overhead" {
			want = append(want, m.Name+" "+m.Unit)
		}
	}
	sort.Strings(want)

	apps := tinyRun(t, options{workload: "apps", traceDir: t.TempDir()})
	var got []string
	for name, m := range apps.Layers {
		got = append(got, name+" "+m.Unit)
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("traced run reports\n%s\nBENCHMARK.json per_layer lists\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, name := range []string{"sim.events", "cpu.loads", "mc.writes", "engine.lazy_ops", "oskern.cow_faults", "machine.builds"} {
		if apps.Layers[name].Value <= 0 {
			t.Errorf("apps traced run: %s = %v, want > 0", name, apps.Layers[name].Value)
		}
	}

	// Tiny fleets have 2 machines and a 3-workload mix: each cell
	// calibrates 2 mechanisms x 6 machines and simulates 2 x 100 requests.
	fl := tinyRun(t, options{workload: "fleet-sweep", traceDir: t.TempDir()})
	for name, want := range map[string]float64{"fleet.calibration_machines": 36, "machine.builds": 36, "fleet.requests": 600} {
		if got := fl.Layers[name].Value; got != want {
			t.Errorf("fleet-sweep traced run: %s = %v, want %v", name, got, want)
		}
	}
}
