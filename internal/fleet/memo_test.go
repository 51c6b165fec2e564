package fleet

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mcsquare/internal/config"
	"mcsquare/internal/faultinject"
	"mcsquare/internal/metrics"
	"mcsquare/internal/sim"
	"mcsquare/internal/timeline"
)

// calibrated is one Calibrate call's observable output: the service model
// and the metrics JSON a runner job collecting it would report.
type calibrated struct {
	cal  *Calibration
	json string
	runs uint64 // fresh calibration runs the call simulated
}

// collect runs f.Calibrate(mech) under a fresh metrics collector, as a
// runner job does, with whatever fault collector the caller bound.
func collect(f *Fleet, mech string) (calibrated, error) {
	col := metrics.NewCollector()
	release := col.Bind()
	runs := CalibrationRuns()
	cal, err := f.Calibrate(mech)
	release()
	if err != nil {
		return calibrated{}, err
	}
	var b bytes.Buffer
	err = col.Snapshot().WriteJSON(&b)
	return calibrated{cal: cal, json: b.String(), runs: CalibrationRuns() - runs}, err
}

func calibrate(t *testing.T, f *Fleet, mech string) calibrated {
	t.Helper()
	c, err := collect(f, mech)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newFleet(t *testing.T, spec config.MachineSpec) *Fleet {
	t.Helper()
	f, err := New(spec, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// sameCalibration fails unless a and b are the same service model with
// the same per-job metrics.
func sameCalibration(t *testing.T, what string, a, b calibrated) {
	t.Helper()
	if !reflect.DeepEqual(a.cal, b.cal) {
		t.Fatalf("%s: calibrations differ:\n%+v\n%+v", what, a.cal, b.cal)
	}
	if a.json != b.json {
		t.Fatalf("%s: metrics JSON differs:\n--- a ---\n%s--- b ---\n%s", what, a.json, b.json)
	}
}

// TestCalibrationMemoTransparent: a memo hit gives the same samples,
// means and per-job metrics snapshot as the fresh run it replays, and
// both equal an unmemoized run whose machines register live (a bound
// timeline collector bypasses the memo).
func TestCalibrationMemoTransparent(t *testing.T) {
	f := newFleet(t, testSpec())
	keys := uint64(len(f.Specs) * len(f.Block.Mix))

	ForgetCalibrations()
	fresh := calibrate(t, f, "mc2")
	hit := calibrate(t, f, "mc2")
	if fresh.runs != keys || hit.runs != 0 {
		t.Fatalf("fresh calibration ran %d, hit ran %d; want %d and 0", fresh.runs, hit.runs, keys)
	}
	sameCalibration(t, "fresh vs hit", fresh, hit)

	release := timeline.NewCollector(timeline.Config{Enabled: true}).Bind()
	live := calibrate(t, f, "mc2")
	release()
	if live.runs != keys {
		t.Fatalf("bypassed calibration ran %d, want %d", live.runs, keys)
	}
	sameCalibration(t, "memoized vs live registries", fresh, live)
	if len(fresh.json) < 100 {
		t.Fatalf("calibration collected almost no metrics:\n%s", fresh.json)
	}
}

// TestCalibrationMemoKey: the key holds what a run reads and nothing
// else. A different micro-kind schedule or seed misses; a change to the
// fleet storm alone hits, since calibration machines read only the micro
// kinds and the seed.
func TestCalibrationMemoKey(t *testing.T) {
	spec := testSpec()
	f := newFleet(t, spec)
	keys := uint64(len(f.Specs) * len(f.Block.Mix))
	under := func(f *Fleet, sched *faultinject.Schedule) calibrated {
		defer faultinject.NewCollector(sched).Bind()()
		return calibrate(t, f, "mc2")
	}
	storm := faultinject.FromSeed(11)

	ForgetCalibrations()
	base := under(f, &storm)
	if base.runs != keys {
		t.Fatalf("first calibration ran %d, want %d", base.runs, keys)
	}
	for _, x := range []float64{0.5, 2} {
		scaled := storm.ScaleFleet(x)
		if got := under(f, &scaled); got.runs != 0 {
			t.Fatalf("storm scaled x%.1f ran %d calibrations, want a hit", x, got.runs)
		} else {
			sameCalibration(t, "storm-only change", base, got)
		}
	}

	micro := storm
	micro.WPQRejectEvery++
	if got := under(f, &micro); got.runs != keys {
		t.Fatalf("micro-kind change ran %d, want %d (a miss)", got.runs, keys)
	}
	reseeded := spec
	fl := *spec.Fleet
	fl.Seed = f.Block.Seed + 100
	reseeded.Fleet = &fl
	if got := under(newFleet(t, reseeded), &storm); got.runs != keys {
		t.Fatalf("fleet seed change ran %d, want %d (a miss)", got.runs, keys)
	}
	if got := under(f, nil); got.runs != keys {
		t.Fatalf("no fault collector ran %d, want %d (a miss)", got.runs, keys)
	}
	// A storm-only schedule with seed 0 zeroes to the zero schedule, yet
	// its machines carry planes that publish faultinject.* metrics, so it
	// must not reuse the plane-less runs.
	stormOnly := faultinject.FleetStormFromSeed(0)
	if got := under(f, &stormOnly); got.runs != keys || !strings.Contains(got.json, "faultinject.") {
		t.Fatalf("storm-only schedule ran %d, want %d (a miss) with faultinject metrics", got.runs, keys)
	}
}

// TestCalibrationIgnoresStorm pins why the key may drop the storm: a
// fresh calibration under a full chaos schedule and one under the same
// schedule with its fleet storm zeroed are identical.
func TestCalibrationIgnoresStorm(t *testing.T) {
	f := newFleet(t, testSpec())
	storm := faultinject.FromSeed(5)
	quiet := storm.ScaleFleet(0)
	var out [2]calibrated
	for i, s := range []*faultinject.Schedule{&storm, &quiet} {
		ForgetCalibrations()
		release := faultinject.NewCollector(s).Bind()
		out[i] = calibrate(t, f, "mc2")
		release()
	}
	sameCalibration(t, "storm vs no storm", out[0], out[1])
}

// TestCalibrationPanicNotCached: a run that panics (here, an exhausted
// cycle budget) stores nothing, so the next caller simulates it again;
// concurrent callers of the failing key all fail rather than hang.
func TestCalibrationPanicNotCached(t *testing.T) {
	f := newFleet(t, testSpec())
	ForgetCalibrations()
	attempt := func() (panicked bool) {
		trk := sim.NewTracker()
		trk.SetCycleLimit(10)
		release := trk.Bind()
		defer func() {
			release()
			trk.CloseAll()
			if p := recover(); p != nil {
				if _, ok := p.(*sim.CycleLimitError); !ok {
					panic(p)
				}
				panicked = true
			}
		}()
		_, _ = f.Calibrate("mc2")
		return false
	}
	for i := 0; i < 2; i++ {
		runs := CalibrationRuns()
		if !attempt() {
			t.Fatalf("attempt %d: calibration under a 10-cycle budget did not panic", i)
		}
		if CalibrationRuns() == runs {
			t.Fatalf("attempt %d: failed run was served from the memo", i)
		}
	}
	calibMemo.Lock()
	n := len(calibMemo.runs)
	calibMemo.Unlock()
	if n != 0 {
		t.Fatalf("memo holds %d entries after failed runs", n)
	}

	var wg sync.WaitGroup
	failed := make([]bool, 3)
	for i := range failed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			failed[i] = attempt()
		}()
	}
	wg.Wait()
	for i, ok := range failed {
		if !ok {
			t.Fatalf("concurrent caller %d did not fail", i)
		}
	}
}

// TestCalibrationMemoConcurrent: parallel callers of one key share a
// single simulation and all see its result.
func TestCalibrationMemoConcurrent(t *testing.T) {
	f := newFleet(t, testSpec())
	keys := uint64(len(f.Specs) * len(f.Block.Mix))
	ForgetCalibrations()
	runs := CalibrationRuns()
	out := make([]calibrated, 3)
	errs := make([]error, len(out))
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = collect(f, "baseline")
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := CalibrationRuns() - runs; got != keys {
		t.Fatalf("3 concurrent calibrations ran %d, want %d", got, keys)
	}
	for i := 1; i < len(out); i++ {
		sameCalibration(t, "concurrent callers", out[0], out[i])
	}
}
