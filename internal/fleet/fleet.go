// Package fleet scales the single-machine simulator out to a serving
// fleet: N machines instantiated from one config.MachineSpec (or
// heterogeneous groups layering spec overrides), driven by a deterministic
// open-loop request generator through a pluggable load balancer, with
// per-request end-to-end latency accounted into SLO histograms.
//
// The layer is deliberately two-phase. Calibration runs the real
// cycle-accurate simulator — one small run per (machine, workload family)
// with the machine's own lowered params, seed, and fault plane — and keeps
// each run's per-request latency histogram as that machine's service-time
// distribution. Simulation then replays an arrival stream against those
// distributions with an event-driven queueing model, which is cheap enough
// to sweep offered load across a dozen operating points. Calibration runs
// are memoized per process (calibMemo), so the cells of a sweep share
// them instead of repeating identical simulations. Both phases are
// seeded and single-threaded, so a fleet run is byte-identical across
// hosts, -jobs values, and machine instantiation orders (fault planes are
// pinned to the machine's stable index, not creation order).
package fleet

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"mcsquare/internal/config"
	"mcsquare/internal/copykit"
	"mcsquare/internal/faultinject"
	"mcsquare/internal/invariant"
	"mcsquare/internal/machine"
	"mcsquare/internal/metrics"
	"mcsquare/internal/sim"
	"mcsquare/internal/stats"
	"mcsquare/internal/timeline"
	"mcsquare/internal/txtrace"
	"mcsquare/internal/workloads/kvsnap"
	"mcsquare/internal/workloads/mongo"
	"mcsquare/internal/workloads/mvcc"
	"mcsquare/internal/workloads/protobuf"
)

// Options scales a fleet run.
type Options struct {
	// Quick shrinks calibration runs and the arrival stream so tests and
	// smoke runs finish fast; the curve shapes survive.
	Quick bool
}

// Fleet is a spec expanded into per-machine specs plus the normalized
// fleet block, ready to calibrate and simulate.
type Fleet struct {
	Spec  config.MachineSpec   // the base spec (fleet block intact)
	Block config.FleetSpec     // normalized fleet block
	Specs []config.MachineSpec // one lowered-ready spec per machine
	Clock stats.Clock
	Quick bool
}

// New expands spec into a fleet. A spec without a fleet block gets
// config.DefaultFleet().
func New(spec config.MachineSpec, o Options) (*Fleet, error) {
	var block config.FleetSpec
	if spec.Fleet != nil {
		block = *spec.Fleet
	} else {
		block = config.DefaultFleet()
	}
	block = block.Normalized()

	f := &Fleet{Spec: spec, Block: block, Clock: stats.Clock(spec.ClockGHz), Quick: o.Quick}
	base := spec
	base.Fleet = nil // member machines are ordinary single machines
	if len(block.Groups) == 0 {
		for i := 0; i < block.Machines; i++ {
			f.Specs = append(f.Specs, base)
		}
		return f, nil
	}
	for gi, g := range block.Groups {
		member := base
		for _, a := range g.Set {
			ov, err := config.ParseAssignment(a)
			if err != nil {
				return nil, fmt.Errorf("fleet group %d: %w", gi, err)
			}
			if err := member.Apply(config.Overrides{ov}); err != nil {
				return nil, fmt.Errorf("fleet group %d: %w", gi, err)
			}
		}
		if err := member.Validate(); err != nil {
			return nil, fmt.Errorf("fleet group %d: %w", gi, err)
		}
		for i := 0; i < g.Count; i++ {
			f.Specs = append(f.Specs, member)
		}
	}
	return f, nil
}

// machineCalib is one machine's calibrated service model: a per-request
// service-time sample vector (cycles) per workload family in the mix.
type machineCalib struct {
	samples [][]float64 // [mixEntry][request] cycles
	means   []float64   // [mixEntry] mean service cycles
	servers int
}

// Calibration is a fleet-wide service model for one mechanism.
type Calibration struct {
	Mechanism string
	machines  []machineCalib
	weights   []float64 // normalized mix weights
}

// CapacityReqPerCycle is the fleet's saturation throughput under this
// calibration: each machine serves its mixed-mean request every
// mean-service cycles per server.
func (c *Calibration) CapacityReqPerCycle() float64 {
	total := 0.0
	for _, m := range c.machines {
		mixed := 0.0
		for i, w := range c.weights {
			mixed += w * m.means[i]
		}
		if mixed > 0 {
			total += float64(m.servers) / mixed
		}
	}
	return total
}

// CapacityKOps converts the calibrated capacity to thousands of requests
// per second at the fleet's clock.
func (f *Fleet) CapacityKOps(c *Calibration) float64 {
	return c.CapacityReqPerCycle() * f.Clock.CyclesPerSecond() / 1e3
}

// Calibrate runs one small cycle-accurate simulation per (machine, mix
// workload) under the named mechanism ("" uses the spec's own) and returns
// the fleet's service model. Machine i's runs use seed Block.Seed+i and
// pin fault-plane identity i, so a chaos schedule replays byte-identically
// no matter what order machines are calibrated in.
func (f *Fleet) Calibrate(mech string) (*Calibration, error) {
	if mech == "" {
		mech = f.Spec.Mechanism.Name
	}
	cal := &Calibration{Mechanism: mech}
	total := 0.0
	for _, mx := range f.Block.Mix {
		cal.weights = append(cal.weights, mx.Weight)
		total += mx.Weight
	}
	for i := range cal.weights {
		cal.weights[i] /= total
	}

	for i, spec := range f.Specs {
		mc, err := f.calibrateMachine(i, spec, mech)
		if err != nil {
			return nil, fmt.Errorf("fleet machine %d: %w", i, err)
		}
		cal.machines = append(cal.machines, mc)
	}
	return cal, nil
}

// calibrateMachine runs each mix workload once on machine i's spec.
func (f *Fleet) calibrateMachine(i int, spec config.MachineSpec, mech string) (machineCalib, error) {
	release := faultinject.PinPlaneID(i)
	defer release()

	spec.Mechanism.Name = mech
	params, err := spec.Params()
	if err != nil {
		return machineCalib{}, err
	}
	seed := f.Block.Seed + int64(i)
	key, memo, err := f.memoKey(i, spec, seed)
	if err != nil {
		return machineCalib{}, err
	}

	mc := machineCalib{servers: f.Block.ServersPerMachine}
	if mc.servers == 0 {
		mc.servers = params.Cores
	}
	for _, mx := range f.Block.Mix {
		var r *calibRun
		if memo {
			key.workload = mx.Workload
			r, err = f.memoRun(key, spec, params)
		} else {
			r, err = f.serviceRun(mx.Workload, spec, params, seed)
		}
		if err != nil {
			return machineCalib{}, err
		}
		mc.samples = append(mc.samples, r.samples)
		mc.means = append(mc.means, r.mean)
	}
	return mc, nil
}

// serviceRun executes one calibration run and returns its per-request
// service-time samples. Sizes are modest — the point is a service-time
// distribution, not the paper's headline numbers — and shrink further in
// quick mode. The machines it builds register with whatever collectors
// are bound, as every machine does.
func (f *Fleet) serviceRun(workload string, spec config.MachineSpec, params machine.Params, seed int64) (*calibRun, error) {
	freshRuns.Add(1)
	lazy := spec.Mechanism.Name != "baseline"
	copier := func(m *machine.Machine) (copykit.Copier, error) {
		sp := spec
		return config.BuildCopier(&sp, m)
	}
	var h *stats.Histogram
	switch workload {
	case "mongo":
		m := mongo.NewMachineFrom(params)
		cp, err := copier(m)
		if err != nil {
			return nil, err
		}
		cfg := mongo.Config{Seed: seed, Copier: cp, Inserts: 10, Fields: 6, FieldSize: 32 << 10}
		if f.Quick {
			cfg.Inserts, cfg.Fields, cfg.FieldSize = 4, 4, 16<<10
		}
		h = mongo.Run(m, cfg).Latencies
	case "mvcc":
		cfg := mvcc.Config{Seed: seed, Lazy: lazy, Threads: 1, Rows: 128, OpsPerThread: 100}
		if f.Quick {
			cfg.OpsPerThread = 40
		}
		h = mvcc.Run(mvcc.NewMachineFrom(params), cfg).Latencies
	case "protobuf":
		m := protobuf.NewMachineFrom(params)
		cp, err := copier(m)
		if err != nil {
			return nil, err
		}
		cfg := protobuf.Config{Seed: seed, Copier: cp, Ops: 128, Burst: 64}
		if f.Quick {
			cfg.Ops, cfg.Burst = 48, 24
		}
		h = protobuf.Run(m, cfg).Latencies
	case "kvsnap":
		hw := params
		hw.LazyEnabled = true // the kernel flag decides whether laziness is used
		cfg := kvsnap.Config{Seed: seed, Machine: &hw, LazyCOW: lazy,
			StoreBytes: 8 << 20, Ops: 150, SnapshotEach: 50}
		if f.Quick {
			cfg.StoreBytes, cfg.Ops, cfg.SnapshotEach = 4<<20, 60, 30
		}
		h = kvsnap.Run(cfg).Latencies
	default:
		return nil, fmt.Errorf("unknown fleet workload %q", workload)
	}
	if h.N() == 0 {
		return nil, fmt.Errorf("workload %s: calibration produced no samples", workload)
	}
	return &calibRun{samples: h.Samples(), mean: h.Mean()}, nil
}

// calibRun is one calibration run's outcome: the service-time samples
// and their mean, plus — for a memoized run — one frozen registry per
// machine the run built, in registration order. It holds no machine. The
// samples are shared read-only by every Calibration built from the run.
type calibRun struct {
	samples []float64
	mean    float64
	regs    []*metrics.Registry
}

// calibKey is everything one calibration run reads, so two runs with
// equal keys simulate exactly the same thing.
type calibKey struct {
	spec     string // canonical MachineSpec.Marshal of the member, mechanism set
	workload string
	seed     int64
	quick    bool
	plane    int // the pinned fault-plane identity
	// faults records whether a fault collector is bound (machines then
	// carry a plane, which publishes faultinject.* metrics even when no
	// micro kind fires); sched is its schedule with the fleet storm
	// zeroed, since a machine's plane reads only the micro kinds and the
	// seed.
	faults     bool
	sched      faultinject.Schedule
	cycleLimit sim.Cycle // the bound tracker's engine budget
}

// memoEntry is one key's slot in the calibration memo. done closes once
// the owner has stored run or given up; run stays nil if it failed.
type memoEntry struct {
	done chan struct{}
	run  *calibRun
}

// calibMemo is the process-wide calibration memo. Calibration is a pure
// function of its key, and figure cells recalibrate the same fleet many
// times (figureFleet once per load point, figureResilience once per
// storm intensity), so each key is simulated once per process. Runner
// jobs calibrating the same key concurrently wait for the first instead
// of repeating it.
var calibMemo = struct {
	sync.Mutex
	runs map[calibKey]*memoEntry
}{runs: map[calibKey]*memoEntry{}}

// freshRuns counts calibration runs actually simulated in this process.
var freshRuns atomic.Uint64

// CalibrationRuns returns how many calibration runs this process has
// simulated; memo hits do not count. Which job of a parallel run pays
// for a shared key depends on scheduling, so the count is process-level
// and never enters a job's metrics.
func CalibrationRuns() uint64 { return freshRuns.Load() }

// ForgetCalibrations empties the calibration memo, so every key is
// simulated afresh on its next use. Tests call it to exercise fresh
// calibration; runs already in flight finish unaffected.
func ForgetCalibrations() {
	calibMemo.Lock()
	calibMemo.runs = map[calibKey]*memoEntry{}
	calibMemo.Unlock()
}

// memoKey builds machine i's calibration key (workload left empty). It
// reports false when the memo must be bypassed: a bound transaction
// trace, invariant or timeline collector needs the machines themselves.
func (f *Fleet) memoKey(i int, spec config.MachineSpec, seed int64) (calibKey, bool, error) {
	if txtrace.AmbientCollector() != nil || invariant.AmbientCollector() != nil || timeline.AmbientCollector() != nil {
		return calibKey{}, false, nil
	}
	b, err := spec.Marshal()
	if err != nil {
		return calibKey{}, false, err
	}
	fc := faultinject.AmbientCollector()
	return calibKey{
		spec:       string(b),
		seed:       seed,
		quick:      f.Quick,
		plane:      i,
		faults:     fc != nil,
		sched:      fc.Schedule().ScaleFleet(0),
		cycleLimit: sim.AmbientCycleLimit(),
	}, true, nil
}

// memoRun returns key's calibration run, simulating it only if no earlier
// call stored it, and replays the run's frozen registries into the
// ambient metrics collector either way. A failed or panicking run is
// never stored; a caller that waited on one runs the key itself.
func (f *Fleet) memoRun(key calibKey, spec config.MachineSpec, params machine.Params) (*calibRun, error) {
	calibMemo.Lock()
	e, hit := calibMemo.runs[key]
	if !hit {
		e = &memoEntry{done: make(chan struct{})}
		calibMemo.runs[key] = e
	}
	calibMemo.Unlock()

	var r *calibRun
	owned := e
	if hit {
		<-e.done
		r, owned = e.run, nil
	}
	if r == nil {
		var err error
		if r, err = f.frozenRun(key, spec, params, owned); err != nil {
			return nil, err
		}
	}
	if col := metrics.AmbientCollector(); col != nil {
		for _, reg := range r.regs {
			col.Add(reg)
		}
	}
	return r, nil
}

// frozenRun simulates key's run under a private metrics collector and
// freezes the registries it built. With a non-nil owned entry it stores
// a successful run there and releases the entry's waiters however the
// run ends. A failed run hands its live registries to the ambient
// collector, as an unmemoized run would have left them.
func (f *Fleet) frozenRun(key calibKey, spec config.MachineSpec, params machine.Params, owned *memoEntry) (r *calibRun, err error) {
	ambient := metrics.AmbientCollector()
	col := metrics.NewCollector()
	release := col.Bind()
	defer func() {
		release()
		if r == nil && ambient != nil {
			for _, reg := range col.Registries() {
				ambient.Add(reg)
			}
		}
		if owned != nil {
			calibMemo.Lock()
			if r != nil {
				owned.run = r
			} else if calibMemo.runs[key] == owned {
				delete(calibMemo.runs, key)
			}
			calibMemo.Unlock()
			close(owned.done)
		}
	}()
	run, err := f.serviceRun(key.workload, spec, params, key.seed)
	if err != nil {
		return nil, err
	}
	for _, reg := range col.Registries() {
		run.regs = append(run.regs, metrics.Frozen(reg.Snapshot()))
	}
	return run, nil
}

// OfferedReqPerCycle resolves the fleet block's arrival rate against a
// reference calibration (normally the baseline mechanism's, so every
// mechanism column of a figure faces the same offered load).
func (f *Fleet) OfferedReqPerCycle(ref *Calibration) float64 {
	if k := f.Block.Arrival.RateKOps; k > 0 {
		return k * 1e3 / f.Clock.CyclesPerSecond()
	}
	return f.Block.Arrival.RateFraction * ref.CapacityReqPerCycle()
}

// Run is the convenience entry point (cmd/mcsim -fleet): calibrate the
// spec's own mechanism, derive the offered rate from a baseline
// calibration (reusing the mechanism's own when it is the baseline), and
// simulate.
func Run(spec config.MachineSpec, o Options) (*Result, error) {
	f, err := New(spec, o)
	if err != nil {
		return nil, err
	}
	mech := f.Spec.Mechanism.Name
	cal, err := f.Calibrate(mech)
	if err != nil {
		return nil, err
	}
	ref := cal
	if mech != "baseline" && f.Block.Arrival.RateKOps == 0 {
		if ref, err = f.Calibrate("baseline"); err != nil {
			return nil, err
		}
	}
	return f.Simulate(cal, f.OfferedReqPerCycle(ref)), nil
}

// rng returns the fleet's seeded generator; every random choice of the
// simulation phase draws from one stream in one deterministic order.
func (f *Fleet) rng() *rand.Rand {
	return rand.New(rand.NewSource(f.Block.Seed))
}
