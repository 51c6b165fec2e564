package main

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"mcsquare/internal/config"
	"mcsquare/internal/cpu"
	"mcsquare/internal/faultinject"
	"mcsquare/internal/fleet"
	"mcsquare/internal/machine"
	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
	"mcsquare/internal/workloads/mvcc"
	"mcsquare/internal/workloads/oswl"
	"mcsquare/internal/workloads/protobuf"
	_ "mcsquare/internal/zio" // registers the zio mechanism
)

// workloads are the benchmark's workloads, in the order the doc lists them.
var workloads = []string{"copy-sweep", "apps", "fleet-sweep"}

// setups is how many set-ups a run makes; setup_s is their median.
const setups = 5

// rounds is how many times the untraced timed phase runs each workload's
// operations. A second round checks that a re-run simulates exactly what
// the first did and damps a hiccup in one operation; more rounds did not
// narrow the spread over runs, which comes from the host drifting over
// minutes. fleet-sweep's one round already takes about 20 s.
var rounds = map[string]int{"copy-sweep": 2, "apps": 2, "fleet-sweep": 1}

// op is one operation: a sweep point, an app run or a fleet cell. run
// returns the simulated outputs the checks and the digest are taken from.
type op struct {
	name string
	run  func(tr *tracer) (outcome, error)
	// collects: run binds metrics collectors around its own calls (fleet
	// cells, whose calibrations build many machines), so the traced run
	// must not bind one around the whole operation.
	collects bool
}

// sizes scales the workloads. full is the measured benchmark; tiny is the scale
// the benchmark's own tests run at.
type sizes struct {
	copySizes     []uint64 // copy-sweep size ladder
	protobufOps   int
	mvccOps       int // transactions per thread of the 8-thread RMW runs
	mvccNTOps     int // transactions of the 1-thread write-only run
	pipeTransfers int
	cowRegion     uint64
	cowAccesses   int
	fleetRequests int // Fleet.Requests of the default-fleet cells; quick mode simulates a quarter
	// Fleet.Requests of the resilience cell; 0 keeps the example config's.
	resilienceRequests int
	fleetMachines      int // Fleet.Machines; 0 keeps the spec's
}

var full = sizes{
	copySizes:     []uint64{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20},
	protobufOps:   768,
	mvccOps:       160,
	mvccNTOps:     400,
	pipeTransfers: 64,
	cowRegion:     64 << 20,
	cowAccesses:   100,
	fleetRequests: 4_000_000,
}

var tiny = sizes{
	copySizes:          []uint64{4 << 10},
	protobufOps:        16,
	mvccOps:            4,
	mvccNTOps:          8,
	pipeTransfers:      2,
	cowRegion:          4 << 20,
	cowAccesses:        4,
	fleetRequests:      400,
	resilienceRequests: 400,
	fleetMachines:      2,
}

// newPlan prepares a workload's operations from its seed. repo is the
// repository root (fleet-sweep reads an example config from it). Every
// spec is loaded, validated and lowered here, so set-up pays for the
// config layer and the timed phase starts at machine construction.
func newPlan(workload string, seed int64, repo string, sz sizes) ([]op, error) {
	var ops []op
	var err error
	switch workload {
	case "copy-sweep":
		ops, err = copySweep(seed, sz)
	case "apps":
		ops, err = apps(seed, sz)
	case "fleet-sweep":
		ops, err = fleetSweep(seed, repo, sz)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloads)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return ops, nil
}

// lower validates a default spec running mech and lowers it to machine
// params: the config layer's spec → Params path every tool takes.
func lower(mech string) (config.MachineSpec, machine.Params, error) {
	spec := config.Default()
	spec.Mechanism.Name = mech
	p, err := spec.Params()
	return spec, p, err
}

// ---------------------------------------------------------------------------
// copy-sweep
// ---------------------------------------------------------------------------

// copyPoint is one copy-sweep point: a fresh default machine copies size
// bytes under one mechanism, then reads the destination back in one of
// three shapes (Figs 12, 13 and 21).
type copyPoint struct {
	spec   config.MachineSpec
	params machine.Params
	mech   string
	shape  string // "seq", "rand" or "srcwrite"
	size   uint64
	offset uint64 // source misalignment inside its page
	src    []byte // source contents as of the copy
	want   []byte // expected destination contents
	order  []int  // destination lines in read order
}

var (
	copyMechs  = []string{"baseline", "zio", "mc2"}
	copyShapes = []string{"seq", "rand", "srcwrite"}
)

// copySweep builds every (size, mechanism, shape) point once, so the
// amount of work is the same for every seed. The seed picks the point
// order, the source bytes, the source misalignment and the random read
// order.
func copySweep(seed int64, sz sizes) ([]op, error) {
	rnd := rand.New(rand.NewSource(seed))
	specs := map[string]config.MachineSpec{}
	params := map[string]machine.Params{}
	for _, mech := range copyMechs {
		s, p, err := lower(mech)
		if err != nil {
			return nil, err
		}
		specs[mech], params[mech] = s, p
	}
	var pts []*copyPoint
	for _, size := range sz.copySizes {
		for _, mech := range copyMechs {
			for _, shape := range copyShapes {
				pts = append(pts, &copyPoint{spec: specs[mech], params: params[mech], mech: mech, shape: shape, size: size})
			}
		}
	}
	rnd.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	ops := make([]op, len(pts))
	for i, pt := range pts {
		pt.offset = uint64(rnd.Intn(memdata.LineSize))
		pt.src = make([]byte, pt.size)
		rnd.Read(pt.src)
		pt.want = pt.src
		lines := int(pt.size / memdata.LineSize)
		if pt.shape == "rand" {
			pt.order = rnd.Perm(lines)
		} else {
			pt.order = make([]int, lines)
			for l := range pt.order {
				pt.order[l] = l
			}
		}
		ops[i] = op{name: fmt.Sprintf("copy/%s/%s/%d", pt.mech, pt.shape, pt.size), run: pt.run}
	}
	return ops, nil
}

func (pt *copyPoint) run(tr *tracer) (outcome, error) {
	end := tr.span("machine.build")
	m := machine.New(pt.params)
	cp, err := config.BuildCopier(&pt.spec, m)
	end()
	if err != nil {
		return outcome{}, err
	}
	src := m.AllocPage(pt.size+memdata.PageSize) + memdata.Addr(pt.offset)
	dst := m.AllocPage(pt.size + memdata.PageSize)
	m.Phys.Write(src, pt.src)

	got := make([]byte, pt.size)
	var copyCycles sim.Cycle
	end = tr.span("machine.run")
	last := m.Run(func(c *cpu.Core) {
		t0 := c.Now()
		cp.Memcpy(c, dst, src, pt.size)
		copyCycles = c.Now() - t0
		if pt.shape == "srcwrite" {
			// Overwrite the source and flush it, so every lazily copied
			// line is bounced (mc2) or materialized (zio) first.
			junk := make([]byte, memdata.LineSize)
			for off := uint64(0); off < pt.size; off += memdata.LineSize {
				junk[0] = byte(off >> 6)
				cp.Write(c, src+memdata.Addr(off), junk)
			}
			for l := memdata.LineAlign(src); l < src+memdata.Addr(pt.size); l += memdata.LineSize {
				c.CLWB(l)
			}
			c.Fence()
		}
		for _, l := range pt.order {
			off := uint64(l) * memdata.LineSize
			copy(got[off:], cp.Read(c, dst+memdata.Addr(off), memdata.LineSize))
		}
	})
	end()

	d := newDigest()
	d.add(pt.mech, pt.shape, pt.size, pt.offset, uint64(copyCycles), uint64(last))
	snap := m.Metrics.Snapshot()
	for _, name := range []string{"l1.misses", "l2.misses", "engine.bounces", "engine.lazy_ops", "ctt.inserts", "zio.faults"} {
		d.add(name, snap.Counter(name))
	}
	d.add(got)
	return outcome{digest: d.sum(), copies: []copyCheck{{got: got, want: pt.want}}}, nil
}

// ---------------------------------------------------------------------------
// apps
// ---------------------------------------------------------------------------

// apps is the fixed application list of Figs 14 and 16–19. The seed only
// feeds each workload's own generator, so the work per run is the same
// for every seed up to the workloads' random choices.
func apps(seed int64, sz sizes) ([]op, error) {
	rnd := rand.New(rand.NewSource(seed))
	var ops []op
	for _, mech := range []string{"baseline", "mc2"} {
		spec, p, err := lower(mech)
		if err != nil {
			return nil, err
		}
		s := rnd.Int63()
		ops = append(ops, op{name: "protobuf/" + mech, run: func(tr *tracer) (outcome, error) {
			end := tr.span("machine.build")
			m := protobuf.NewMachineFrom(p)
			cp, err := config.BuildCopier(&spec, m)
			end()
			if err != nil {
				return outcome{}, err
			}
			end = tr.span("protobuf.Run")
			r := protobuf.Run(m, protobuf.Config{Seed: s, Copier: cp, Ops: sz.protobufOps})
			end()
			d := newDigest()
			d.add(uint64(r.Cycles), r.CopyCycles, r.Copies, r.CopiedByte, r.CopyAccesses, r.CopyL1Misses, r.CopyWindowStl, r.CopyIssue)
			d.add(r.Sizes.Samples(), r.Latencies.Samples())
			return outcome{digest: d.sum()}, nil
		}})
	}
	type mvccRun struct {
		name    string
		mech    string
		threads int
		mode    mvcc.Mode
		ops     int
	}
	for _, r := range []mvccRun{
		{"mvcc/rmw8/eager", "baseline", 8, mvcc.RMW, sz.mvccOps},
		{"mvcc/rmw8/lazy", "mc2", 8, mvcc.RMW, sz.mvccOps},
		{"mvcc/wont1/lazy", "mc2", 1, mvcc.WriteOnlyNT, sz.mvccNTOps},
	} {
		_, p, err := lower(r.mech)
		if err != nil {
			return nil, err
		}
		cfg := mvcc.Config{Threads: r.threads, Mode: r.mode, Lazy: r.mech == "mc2", OpsPerThread: r.ops, Seed: rnd.Int63()}
		ops = append(ops, op{name: r.name, run: func(tr *tracer) (outcome, error) {
			end := tr.span("machine.build")
			m := mvcc.NewMachineFrom(p)
			end()
			end = tr.span("mvcc.Run")
			res := mvcc.Run(m, cfg)
			end()
			d := newDigest()
			d.add(uint64(res.Cycles), res.Ops, res.Latencies.Samples())
			if want := cfg.Threads * cfg.OpsPerThread; res.Ops != want {
				return outcome{}, fmt.Errorf("committed %d transactions, want %d", res.Ops, want)
			}
			return outcome{digest: d.sum()}, nil
		}})
	}
	for _, mech := range []string{"baseline", "mc2"} {
		_, p, err := lower(mech)
		if err != nil {
			return nil, err
		}
		cfg := oswl.PipeConfig{TransferSize: 64 << 10, Transfers: sz.pipeTransfers, Lazy: mech == "mc2", Seed: rnd.Int63(), Machine: &p}
		ops = append(ops, op{name: "pipe64k/" + mech, run: func(tr *tracer) (outcome, error) {
			end := tr.span("oswl.PipeThroughput")
			bpk := oswl.PipeThroughput(cfg)
			end()
			d := newDigest()
			d.add(bpk)
			if !(bpk > 0) {
				return outcome{}, fmt.Errorf("pipe throughput %g bytes/kcycle", bpk)
			}
			return outcome{digest: d.sum()}, nil
		}})
	}
	_, p, err := lower("mc2")
	if err != nil {
		return nil, err
	}
	cow := oswl.HugeCOWConfig{RegionBytes: sz.cowRegion, Accesses: sz.cowAccesses, Lazy: true, Seed: rnd.Int63(), Machine: &p}
	ops = append(ops, op{name: "hugecow/mc2", run: func(tr *tracer) (outcome, error) {
		end := tr.span("oswl.HugeCOW")
		lat := oswl.HugeCOW(cow)
		end()
		d := newDigest()
		d.add(lat)
		if len(lat) != cow.Accesses {
			return outcome{}, fmt.Errorf("%d latencies for %d accesses", len(lat), cow.Accesses)
		}
		return outcome{digest: d.sum()}, nil
	}})
	return ops, nil
}

// ---------------------------------------------------------------------------
// fleet-sweep
// ---------------------------------------------------------------------------

// fleetCell is one figureFleet/figureResilience cell: calibrate both
// mechanisms, then simulate both at the baseline-derived rate.
type fleetCell struct {
	f     *fleet.Fleet
	storm *faultinject.Schedule // nil: no fleet storm bound
}

// fleetSweep builds two default-fleet cells (the legacy queueing loop) and
// one cell of the resilience example config (the fault-tolerance event
// machine). The workload seed is every fleet's seed, so it picks the
// calibration machines' seeds and the arrivals, and it picks the
// resilience cell's fault storm.
//
// The default-fleet cells run 4 M requests, so queueing is a fair share
// of the run. The resilience cell keeps the example config's 4000, the
// length figureResilience runs: under a storm the share of failed
// requests grows with the run's length, and a longer cell would measure
// the event machine in a regime no figure shows.
func fleetSweep(seed int64, repo string, sz sizes) ([]op, error) {
	var ops []op
	for _, load := range []float64{0.7, 1.05} {
		spec := config.Default()
		fl := config.DefaultFleet()
		fl.Arrival.RateFraction = load
		fl.Requests = sz.fleetRequests
		fl.Seed = seed
		spec.Fleet = &fl
		c, err := newFleetCell(spec, sz, nil)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op{name: fmt.Sprintf("fleet/default/%.2f", load), run: c.run, collects: true})
	}
	spec, err := config.Load(filepath.Join(repo, "examples", "configs", "fleet-resilience.json"))
	if err != nil {
		return nil, err
	}
	spec.Fleet.Arrival.RateFraction = 0.85
	spec.Fleet.Seed = seed
	if sz.resilienceRequests != 0 {
		spec.Fleet.Requests = sz.resilienceRequests
	}
	storm := faultinject.FleetStormFromSeed(uint64(seed))
	c, err := newFleetCell(spec, sz, &storm)
	if err != nil {
		return nil, err
	}
	return append(ops, op{name: "fleet/resilience/0.85", run: c.run, collects: true}), nil
}

func newFleetCell(spec config.MachineSpec, sz sizes, storm *faultinject.Schedule) (*fleetCell, error) {
	if sz.fleetMachines != 0 {
		spec.Fleet.Machines = sz.fleetMachines
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	f, err := fleet.New(spec, fleet.Options{Quick: true})
	if err != nil {
		return nil, err
	}
	return &fleetCell{f: f, storm: storm}, nil
}

func (c *fleetCell) run(tr *tracer) (outcome, error) {
	if c.storm != nil {
		defer faultinject.NewCollector(c.storm).Bind()()
	}
	var cals [2]*fleet.Calibration
	for i, mech := range []string{"baseline", "mc2"} {
		var err error
		tr.calibrate(func() { cals[i], err = c.f.Calibrate(mech) })
		if err != nil {
			return outcome{}, fmt.Errorf("calibrate %s: %w", mech, err)
		}
	}
	rate := c.f.OfferedReqPerCycle(cals[0])
	d := newDigest()
	var out outcome
	for _, cal := range cals {
		var r *fleet.Result
		tr.collect("fleet.Simulate", func() { r = c.f.Simulate(cal, rate) })
		out.fleet = append(out.fleet, r)
		rs := r.Resilience
		d.add(cal.Mechanism, c.f.CapacityKOps(cal), r.Offered, r.Completed, r.Dropped,
			rs.TimedOut, rs.Shed, rs.Failed, rs.Retries, rs.Hedges, rs.Crashes, rs.Brownouts,
			r.DurationCycles, r.MeanQueueDepth, r.MaxQueueDepth, r.Served, r.Latencies.Samples())
	}
	out.digest = d.sum()
	return out, nil
}
