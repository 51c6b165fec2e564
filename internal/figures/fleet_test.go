package figures

import (
	"strings"
	"testing"

	"mcsquare/internal/config"
	"mcsquare/internal/faultinject"
	"mcsquare/internal/fleet"
	"mcsquare/internal/runner"
	"mcsquare/internal/stats"
)

// smallFleetSpec trims the default fleet to two machines over the two
// cheapest workload families, so determinism tests stay fast. Race builds
// and -short shrink to one machine on one workload: the merge-order
// guarantee under test doesn't need fleet width.
func smallFleetSpec() *config.MachineSpec {
	spec := config.Default()
	spec.Fleet = &config.FleetSpec{
		Machines: 2,
		Requests: 400,
		Mix: []config.MixEntry{
			{Workload: "mvcc", Weight: 0.6},
			{Workload: "protobuf", Weight: 0.4},
		},
	}
	if testing.Short() || raceEnabled {
		spec.Fleet.Machines = 1
		spec.Fleet.Requests = 200
		spec.Fleet.Mix = spec.Fleet.Mix[:1]
	}
	return &spec
}

// TestFleetParallelDeterminism is the -jobs guarantee for figureFleet: one
// worker and a saturated pool must merge to byte-identical output, and both
// must equal the serial Run.
func TestFleetParallelDeterminism(t *testing.T) {
	g, ok := ByID("fleet")
	if !ok {
		t.Fatal("fleet figure missing")
	}
	o := Options{Quick: true, Spec: smallFleetSpec()}
	fleet.ForgetCalibrations()
	serial := renderFigure(t, g, 1, o)
	fleet.ForgetCalibrations() // the saturated pool calibrates afresh too
	parallel := renderFigure(t, g, 4, o)
	if serial != parallel {
		t.Fatalf("fleet output differs between 1 and 4 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	var b strings.Builder
	for _, tb := range g.Run(o) {
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	if direct := b.String(); direct != serial {
		t.Fatalf("fleet Run() differs from merged jobs:\n--- Run ---\n%s\n--- jobs ---\n%s", direct, serial)
	}
	if !strings.Contains(serial, "base_p99_ms") || len(strings.Split(strings.TrimSpace(serial), "\n")) < 3 {
		t.Fatalf("fleet figure degenerate:\n%s", serial)
	}
}

// TestFleetChaosReplay: a seeded fault schedule injected through the runner
// replays byte-identically across worker counts — fleet machines pin their
// fault-plane identity, so plane creation order cannot leak into output.
func TestFleetChaosReplay(t *testing.T) {
	if raceEnabled {
		t.Skip("chaos replay is covered un-raced (CI fleet job) and by internal/fleet's order-independence test")
	}
	g, ok := ByID("fleet")
	if !ok {
		t.Fatal("fleet figure missing")
	}
	o := Options{Quick: true, Spec: smallFleetSpec()}
	sched := faultinject.FromSeed(3)
	render := func(workers int) string {
		fleet.ForgetCalibrations() // replay must recalibrate, not reuse
		set := g.Jobs(o)
		results := runner.Run(runner.Config{
			Workers: workers,
			Options: runner.Options{Quick: true},
			Faults:  &sched,
		}, set.Jobs)
		parts := make([][]*stats.Table, len(results))
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("job %s failed under chaos: %v", r.ID, r.Err)
			}
			parts[i] = r.Tables
		}
		var b strings.Builder
		for _, tb := range set.Merge(parts) {
			b.WriteString(tb.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	serial := render(1)
	parallel := render(4)
	if serial != parallel {
		t.Fatalf("chaos fleet output differs between 1 and 4 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestFleetCalibrationRuns pins what the calibration memo saves: quick
// figureFleet simulates each (mechanism, machine, mix entry) once across
// all its load points, at one worker and at two, and figureResilience
// adds one more set for all its storm intensities (its storm-free control
// reuses figureFleet's).
func TestFleetCalibrationRuns(t *testing.T) {
	o := Options{Quick: true, Spec: smallFleetSpec()}
	fl := o.Spec.Fleet
	perFigure := uint64(2 * fl.Machines * len(fl.Mix))
	runs := func(id string, workers int) uint64 {
		g, ok := ByID(id)
		if !ok {
			t.Fatalf("%s figure missing", id)
		}
		n := fleet.CalibrationRuns()
		renderFigure(t, g, workers, o)
		return fleet.CalibrationRuns() - n
	}
	for _, workers := range []int{1, 2} {
		fleet.ForgetCalibrations()
		if got := runs("fleet", workers); got != perFigure {
			t.Fatalf("figureFleet at %d workers ran %d calibrations, want %d", workers, got, perFigure)
		}
	}
	if got := runs("resilience", 2); got != perFigure {
		t.Fatalf("figureResilience after figureFleet ran %d calibrations, want %d", got, perFigure)
	}
}

// TestFleetPartialResults: when one fleet job dies, the runner reports a
// structured *JobError for it and the surviving jobs' rows still merge —
// the figure loses one operating point, not the whole curve.
func TestFleetPartialResults(t *testing.T) {
	g, ok := ByID("fleet")
	if !ok {
		t.Fatal("fleet figure missing")
	}
	set := g.Jobs(Options{Quick: true, Spec: smallFleetSpec()})
	if len(set.Jobs) < 3 {
		t.Fatalf("fleet decomposed into %d jobs", len(set.Jobs))
	}
	// Sabotage the second job with a deterministic panic.
	set.Jobs[1].Run = func(runner.Options) []*stats.Table {
		panic("synthetic fleet machine loss")
	}
	results := runner.Run(runner.Config{Workers: 2}, set.Jobs)
	je, ok := results[1].Err.(*runner.JobError)
	if !ok {
		t.Fatalf("dead job error = %v (%T), want *runner.JobError", results[1].Err, results[1].Err)
	}
	if je.Value != "synthetic fleet machine loss" {
		t.Fatalf("JobError value = %v", je.Value)
	}
	var parts [][]*stats.Table
	for i, r := range results {
		if i == 1 {
			continue
		}
		if r.Err != nil {
			t.Fatalf("surviving job %s failed: %v", r.ID, r.Err)
		}
		parts = append(parts, r.Tables)
	}
	merged := set.Merge(parts)
	if len(merged) != 1 || merged[0].NumRows() != len(set.Jobs)-1 {
		t.Fatalf("survivors merged to %d tables / %d rows, want 1 table with %d rows",
			len(merged), merged[0].NumRows(), len(set.Jobs)-1)
	}
}
