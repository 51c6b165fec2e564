package bench

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mcsquare/internal/sim"
	"mcsquare/internal/timeline"
)

func TestReportJSONRoundTrip(t *testing.T) {
	rep := NewReport(true, []Result{
		{Name: "engine/heap-churn", NsPerOp: 812.5, Iterations: 1000000},
		{Name: "workload/fig10", WallSeconds: 1.25, SimEvents: 123456, SimCycles: 654321, EventsPerSec: 98765.4},
	})
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteJSON(path, rep); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(path)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if len(got.Results) != len(rep.Results) {
		t.Fatalf("round trip lost results: %d != %d", len(got.Results), len(rep.Results))
	}
	for i := range rep.Results {
		if got.Results[i] != rep.Results[i] {
			t.Fatalf("result %d mismatch: %+v != %+v", i, got.Results[i], rep.Results[i])
		}
	}
	if got.GoVersion == "" || got.NumCPU == 0 || !got.Quick {
		t.Fatal("report metadata missing after round trip")
	}
}

// TestWriteDeltasHostDrift pins how -baseline reads host probes: deltas
// between reports whose probes agree within 10 % are printed plainly, and
// otherwise (or when a probe is missing) carry the "host drift?" label.
func TestWriteDeltasHostDrift(t *testing.T) {
	base := NewReport(true, []Result{{Name: "ctt/lookup-90pct", NsPerOp: 100, AllocsPerOp: 1}})
	for _, tc := range []struct {
		baseProbe, curProbe float64
		drift               bool
	}{
		{0.40, 0.42, false},
		{0.40, 0.37, false},
		{0.40, 0.50, true},
		{0.40, 0.30, true},
		{0, 0.40, true},
	} {
		base.HostProbeS = tc.baseProbe
		cur := NewReport(true, []Result{
			{Name: "ctt/lookup-90pct", NsPerOp: 150, AllocsPerOp: 1},
			{Name: "ctt/insert-trim", NsPerOp: 10},
		})
		cur.HostProbeS = tc.curProbe
		var sb strings.Builder
		WriteDeltas(&sb, base, cur)
		out := sb.String()
		if !strings.Contains(out, "ns/op   +50.0%  allocs/op    +0.0%") || !strings.Contains(out, "ctt/insert-trim              (new)") {
			t.Fatalf("probes %v/%v: deltas missing:\n%s", tc.baseProbe, tc.curProbe, out)
		}
		if got := strings.Contains(out, "host drift?"); got != tc.drift {
			t.Errorf("probes %v/%v: host drift label = %v, want %v:\n%s", tc.baseProbe, tc.curProbe, got, tc.drift, out)
		}
	}
}

// TestEngineMicroSmoke runs one microbench so CI exercises the harness
// itself (benchmark construction, result conversion) without paying for a
// full measurement run.
func TestEngineMicroSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke skipped in -short")
	}
	res := EngineMicro(regexp.MustCompile("same-cycle-chain"), nil)
	if len(res) != 1 {
		t.Fatalf("filter matched %d benchmarks, want 1", len(res))
	}
	if res[0].NsPerOp <= 0 || res[0].Iterations == 0 {
		t.Fatalf("degenerate result: %+v", res[0])
	}
}

// TestTraceOffAllocatesNothing pins the tracer's disabled-path cost: the
// trace/off microbenchmark — the per-memory-op span pattern against a nil
// tracer — must report zero allocations per op, so an untraced simulation
// pays only dead branches for the instrumentation.
func TestTraceOffAllocatesNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		traceOp(nil, 7)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestInvariantsOffAllocatesNothing pins the oracles' disabled-path cost:
// the invariants/off microbenchmark — the per-memory-op oracle
// consultation pattern against nil oracles — must report zero allocations
// per op, so an unchecked simulation pays only nil checks for the
// instrumentation.
func TestInvariantsOffAllocatesNothing(t *testing.T) {
	buf := make([]byte, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		invariantOp(nil, buf, 7)
	})
	if allocs != 0 {
		t.Fatalf("disabled oracle path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestTimelineOffAllocatesNothing pins the timeline plane's disabled-path
// cost: with no recorder installed, one future event through the engine —
// the schedule + dispatch that now also passes the nil advance-hook check
// on every time move — must report zero allocations per op, so an
// unsampled simulation pays only a nil check for the instrumentation.
func TestTimelineOffAllocatesNothing(t *testing.T) {
	e := sim.NewEngine()
	rec := timeline.NewCollector(timeline.Config{}).NewRecorder(nil, e) // nil: disabled
	for i := 0; i < 64; i++ {                                           // warm the event pool
		e.After(1, func() {})
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(1, func() {})
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("disabled timeline path allocates %.1f allocs/op, want 0", allocs)
	}
	rec.Finalize() // nil-safe
}
