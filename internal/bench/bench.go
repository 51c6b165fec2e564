// Package bench is the repository's performance harness. It measures two
// things and emits them as one JSON report (BENCH_sim.json):
//
//   - engine microbenchmarks: host-side cost of the discrete-event core's
//     hot operations (heap churn, the same-cycle fast path, process
//     wakeups), via testing.Benchmark, with ns/op and allocs/op;
//   - a fixed figure-workload suite: wall-clock, simulated events/sec and
//     cycles/sec for a subset of the paper's figure generators.
//
// The report is the baseline future optimization PRs regress against:
// results/BENCH_sim_pre.json pins the numbers recorded before the event-
// core overhaul, and CI runs a quick sweep on every push. Host-absolute
// numbers vary by machine; the allocs/op columns and the relative deltas
// between runs on one machine are the signal, and each report's host probe
// says when a delta may be the host's.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"

	"mcsquare/internal/core"
	"mcsquare/internal/figures"
	"mcsquare/internal/invariant"
	"mcsquare/internal/memdata"
	"mcsquare/internal/metrics"
	"mcsquare/internal/sim"
	"mcsquare/internal/stats"
	"mcsquare/internal/timeline"
	"mcsquare/internal/txtrace"
)

// Result is one benchmark measurement. Microbenchmarks fill the per-op
// fields; workload runs are one-shot (Iterations == 1) and additionally
// report simulator throughput.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	WallSeconds float64 `json:"wall_seconds"`

	SimEvents    uint64  `json:"sim_events,omitempty"`
	SimCycles    uint64  `json:"sim_cycles,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
}

// Report is the BENCH_sim.json document.
type Report struct {
	Schema    int    `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	Quick     bool   `json:"quick"`
	// HostProbeS is the wall time of HostProbe on the recording host; two
	// reports' ns/op compare only when their probes roughly agree.
	HostProbeS float64  `json:"host_probe_s,omitempty"`
	Results    []Result `json:"results"`
}

// WriteJSON writes the report, indented, to path.
func WriteJSON(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadJSON loads a report written by WriteJSON.
func ReadJSON(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// probeSink keeps the probe's result live so its loop is not removed.
var probeSink uint64

// HostProbe times a fixed CPU loop plus memsets of a 64 MB buffer (the
// same probe simbench records), 0.37–0.57 s on a shared 2-CPU, 8 GB box. A
// slower host shows as a slower probe, so the ratio of two reports' probes
// says whether their ns/op differences can be the host's.
func HostProbe() float64 {
	t0 := time.Now()
	buf := make([]byte, 64<<20)
	x := uint64(0x9e3779b97f4a7c15)
	for round := 0; round < 4; round++ {
		for i := range buf {
			buf[i] = byte(round)
		}
		for i := 0; i < 10_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		x += uint64(buf[len(buf)/2])
	}
	probeSink = x
	return time.Since(t0).Seconds()
}

// driftLimit is how far apart two host probes may be before ns/op deltas
// between their reports are labelled as possible host drift.
const driftLimit = 0.10

// WriteDeltas reports per-benchmark changes of cur versus a recorded
// baseline to w. It prints both reports' host probes and their ratio; when
// the probes differ by more than driftLimit (or either is missing) the
// ns/op deltas are labelled "host drift?". Nothing is gated on the deltas.
func WriteDeltas(w io.Writer, base, cur *Report) {
	byName := map[string]Result{}
	for _, r := range base.Results {
		byName[r.Name] = r
	}
	fmt.Fprintf(w, "# vs baseline (%s/%s, %s, %d CPU)\n", base.GOOS, base.GOARCH, base.GoVersion, base.NumCPU)
	drift := ""
	if base.HostProbeS > 0 && cur.HostProbeS > 0 {
		ratio := cur.HostProbeS / base.HostProbeS
		fmt.Fprintf(w, "# host probe: baseline %.3f s, this run %.3f s, ratio %.2f\n", base.HostProbeS, cur.HostProbeS, ratio)
		if ratio > 1+driftLimit || ratio < 1-driftLimit {
			drift = "  host drift?"
		}
	} else {
		fmt.Fprintln(w, "# host probe missing from a report: ns/op deltas may be host drift")
		drift = "  host drift?"
	}
	for _, r := range cur.Results {
		b, ok := byName[r.Name]
		if !ok {
			fmt.Fprintf(w, "%-28s (new)\n", r.Name)
			continue
		}
		fmt.Fprintf(w, "%-28s ns/op %+7.1f%%  allocs/op %+7.1f%%%s\n",
			r.Name, pct(r.NsPerOp, b.NsPerOp), pct(r.AllocsPerOp, b.AllocsPerOp), drift)
	}
}

func pct(cur, base float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return 100
	}
	return 100 * (cur - base) / base
}

// ---------------------------------------------------------------------------
// Engine microbenchmarks
// ---------------------------------------------------------------------------

func nop() {}

// benchHeapChurn measures raw queue throughput: push b.N events at
// pseudorandom future offsets, then pop them all. One op = one event
// through the queue.
func benchHeapChurn(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	rng := uint64(0x9e3779b97f4a7c15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		e.After(sim.Cycle(rng>>52), nop) // offsets in [0, 4096)
	}
	for e.Step() {
	}
}

// benchSameCycle measures the After(0, …) pattern used by Proc.Resume,
// controller queue handoffs, and hook completions: a chain of same-cycle
// events, each scheduling the next. One op = one schedule + dispatch.
func benchSameCycle(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(0, step)
		}
	}
	b.ResetTimer()
	e.After(0, step)
	for e.Step() {
	}
}

// benchMixedQueue interleaves same-cycle and future events the way the
// memory-system models do: every third event reschedules at a future
// cycle, the rest complete same-cycle.
func benchMixedQueue(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n >= b.N {
			return
		}
		if n%3 == 0 {
			e.After(7, step)
		} else {
			e.After(0, step)
		}
	}
	b.ResetTimer()
	e.After(0, step)
	for e.Step() {
	}
}

// benchProcWait measures the process wakeup path: one op = one
// Wait(1) park + resume round trip (event schedule, two channel
// handoffs, closure or pooled resume).
func benchProcWait(b *testing.B) {
	b.ReportAllocs()
	n := b.N
	e := sim.NewEngine()
	b.ResetTimer()
	e.Go("w", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Wait(1)
		}
	})
	e.Drain()
}

// benchSuspendResume measures the Suspend/Resume handoff between two
// processes: one op = one Resume of a suspended peer.
func benchSuspendResume(b *testing.B) {
	b.ReportAllocs()
	n := b.N
	e := sim.NewEngine()
	var worker *sim.Proc
	b.ResetTimer()
	worker = e.Go("worker", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Suspend()
		}
	})
	e.Go("driver", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			worker.Resume()
			p.Wait(1)
		}
	})
	e.Drain()
}

// traceOp replays the span pattern one traced memory operation costs the
// simulator — a root (cpu.load), a child per cache level, and the DRAM
// leaf — against the given tracer. With tr nil (tracing disabled) every
// call is a nil-receiver no-op and must not allocate.
func traceOp(tr *txtrace.Tracer, i int) {
	addr := uint64(i) * 64
	now := uint64(i)
	root := tr.BeginRoot(txtrace.StageCPULoad, 0, addr, now)
	miss := tr.Begin(root, txtrace.StageL1Miss, addr, now+4)
	tr.Complete(miss, txtrace.StageDRAMRead, addr, now+30, now+80, txtrace.FlagRowHit)
	tr.End(miss, now+90)
	tr.End(root, now+94)
}

// benchTraceOff measures the tracer's disabled path: the exact call
// pattern of benchTraceOn against a nil tracer. This is the overhead every
// untraced simulation pays, and it must stay at 0 allocs/op.
func benchTraceOff(b *testing.B) {
	b.ReportAllocs()
	var tr *txtrace.Tracer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traceOp(tr, i)
	}
}

// benchTraceOn measures tracing at 1% sampling — the recommended setting
// for long runs. 99 of 100 ops take the tx==0 early-out; the sampled op
// pays the ring-buffer writes and histogram updates.
func benchTraceOn(b *testing.B) {
	b.ReportAllocs()
	tr := txtrace.New(txtrace.Config{Enabled: true, SampleEvery: 100})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traceOp(tr, i)
	}
}

// invariantOp replays the oracle consultations one hooked read/write pair
// costs the memory system — a watchdog registration, two queue-occupancy
// checks, a shadow read comparison, and a shadow write observation. With o
// nil (oracles off) every call is a nil-receiver no-op and must not
// allocate.
func invariantOp(o *invariant.Oracles, buf []byte, i int) {
	a := memdata.Addr(i&1023) * memdata.LineSize
	id := o.TxBegin(uint64(a))
	o.CheckQueue("rpq", i&15, 16)
	o.CheckRead(a, buf, sim.Cycle(i))
	o.ObserveWrite(a, buf)
	o.CheckQueue("rpq", i&15, 16)
	o.TxEnd(id)
}

// benchInvariantsOff measures the oracles' disabled path: the exact call
// pattern of benchInvariantsOn against nil oracles. This is the overhead
// every unchecked simulation pays, and it must stay at 0 allocs/op.
func benchInvariantsOff(b *testing.B) {
	b.ReportAllocs()
	var o *invariant.Oracles
	buf := make([]byte, memdata.LineSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		invariantOp(o, buf, i)
	}
}

// benchInvariantsOn measures the full oracle set (shadow byte-compare,
// watchdog bookkeeping, queue checks) per memory op — the cost of running
// a chaos/-invariants sweep.
func benchInvariantsOn(b *testing.B) {
	b.ReportAllocs()
	col := invariant.NewCollector(invariant.All())
	o := col.NewOracles(sim.NewEngine(), nil)
	buf := make([]byte, memdata.LineSize)
	for i := 0; i < 1024; i++ { // pre-populate the shadow: steady-state cost
		invariantOp(o, buf, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		invariantOp(o, buf, i)
	}
}

// timelineRegistry populates reg with a machine-shaped metric set — two
// dozen counters across the engine/ctt/mc scopes, a cycle CounterFunc, and
// a few gauges — and returns the counter cells for the benchmark to bump.
func timelineRegistry(reg *metrics.Registry, e *sim.Engine) []uint64 {
	cells := make([]uint64, 24)
	i := 0
	next := func() *uint64 { c := &cells[i]; i++; return c }
	en := reg.Scope("engine")
	for _, n := range []string{"lazy_ops", "lazy_bytes", "bounces", "bounce_src_reads",
		"eager_fallbacks", "eager_fallback_bytes", "frees", "mem_fills"} {
		en.Counter(n, next())
	}
	ct := reg.Scope("ctt")
	for _, n := range []string{"inserts", "pieces", "merges", "trims", "removed", "deferred_bytes"} {
		ct.Counter(n, next())
	}
	for mc := 0; mc < 2; mc++ {
		s := reg.Scope(fmt.Sprintf("mc%d", mc))
		for _, n := range []string{"reads", "writes", "read_stalls", "forwards", "rejected_writes"} {
			s.Counter(n, next())
		}
	}
	reg.CounterFunc("sim.cycles", func() uint64 { return uint64(e.Now()) })
	reg.Scope("ctt").Gauge("entries", func() float64 { return float64(cells[8]) })
	reg.Scope("ctt").Gauge("high_water", func() float64 { return float64(cells[9]) })
	reg.Scope("mc0").Gauge("wpq_occupancy", func() float64 { return float64(cells[14]) })
	reg.Scope("mc1").Gauge("wpq_occupancy", func() float64 { return float64(cells[19]) })
	return cells
}

// timelineChain drives an engine through b.N one-cycle events, bumping a
// rotating counter each event — the workload both timeline benches share,
// so their delta isolates the recorder's sampling cost.
func timelineChain(b *testing.B, e *sim.Engine, cells []uint64) {
	n := 0
	var step func()
	step = func() {
		cells[n%len(cells)]++
		n++
		if n < b.N {
			e.After(1, step)
		}
	}
	b.ResetTimer()
	e.After(1, step)
	for e.Step() {
	}
}

// benchTimelineOff measures the timeline plane's disabled path: the same
// metric-bumping event chain with no recorder installed, so every time
// advance pays only the engine's nil-hook check (plus the nil-collector
// constructor surface). This is the overhead every unsampled simulation
// pays, and it must stay at 0 allocs/op.
func benchTimelineOff(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	reg := metrics.NewRegistry()
	cells := timelineRegistry(reg, e)
	col := timeline.NewCollector(timeline.Config{}) // disabled → nil
	rec := col.NewRecorder(reg, e)                  // nil recorder, inert
	defer rec.Finalize()
	timelineChain(b, e, cells)
}

// benchTimelineOn measures sampling at a deliberately hostile cadence —
// one window per 32 simulated cycles, far denser than the 100k default —
// so the per-window snapshot/delta cost is visible per op rather than
// vanishing into the window length.
func benchTimelineOn(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	reg := metrics.NewRegistry()
	cells := timelineRegistry(reg, e)
	col := timeline.NewCollector(timeline.Config{Enabled: true, WindowCycles: 32})
	rec := col.NewRecorder(reg, e)
	defer rec.Finalize()
	timelineChain(b, e, cells)
}

// cttCapacity is the paper's CTT size (§III-A1).
const cttCapacity = 2048

// cttTable returns a paper-sized CTT filled to pct percent with 4 KB
// entries on every other 4 KB page (sources scattered so nothing merges),
// and the end of the destination span the entries cover.
func cttTable(pct int) (*core.CTT, memdata.Addr) {
	c := core.NewCTT(cttCapacity)
	n := cttCapacity * pct / 100
	for i := 0; i < n; i++ {
		c.Insert(memdata.Range{Start: memdata.Addr(i) * 8192, Size: 4096}, memdata.Addr(0x40000000+i*12288))
	}
	return c, memdata.Addr(n) * 8192
}

// cttCover and cttHit keep the CTT query results live so the benchmark
// loops are not optimized away.
var (
	cttCover []*core.Entry
	cttHit   *core.Entry
)

// benchCTTLookup measures the probe the Engine makes on every controller
// access at pct percent occupancy: a one-line DestCover plus a LookupDest.
// One op = both queries for one line; the lines walk the table's span in
// 4160 B (65-line) steps, so hits and misses alternate.
func benchCTTLookup(pct int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		c, span := cttTable(pct)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := memdata.Addr(i) * 4160 % span
			cttCover = c.DestCover(memdata.Range{Start: a, Size: memdata.LineSize})
			cttHit = c.LookupDest(a)
		}
	}
}

// benchCTTInsertTrim measures an MCLAZY that overwrites a tracked
// destination in a 90 %-full table: the insert trims the old entry away and
// registers its replacement, so occupancy holds steady. One op = one
// Insert, on entries scattered over the table.
func benchCTTInsertTrim(b *testing.B) {
	b.ReportAllocs()
	c, span := cttTable(90)
	n := int(span / 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i * 7919 % n
		if !c.Insert(memdata.Range{Start: memdata.Addr(k) * 8192, Size: 4096}, memdata.Addr(0x80000000+i%4096*4096)) {
			b.Fatal("ctt/insert-trim: replacement insert refused")
		}
	}
}

type microBench struct {
	name string
	fn   func(b *testing.B)
}

var microBenches = []microBench{
	{"engine/heap-churn", benchHeapChurn},
	{"engine/same-cycle-chain", benchSameCycle},
	{"engine/mixed-queue", benchMixedQueue},
	{"proc/wait-wakeup", benchProcWait},
	{"proc/suspend-resume", benchSuspendResume},
	{"trace/off", benchTraceOff},
	{"trace/on-1pct", benchTraceOn},
	{"invariants/off", benchInvariantsOff},
	{"invariants/on", benchInvariantsOn},
	{"timeline/off", benchTimelineOff},
	{"timeline/on-32cyc", benchTimelineOn},
	{"ctt/lookup-50pct", benchCTTLookup(50)},
	{"ctt/lookup-90pct", benchCTTLookup(90)},
	{"ctt/insert-trim", benchCTTInsertTrim},
}

// EngineMicro runs the engine microbenchmark suite, filtered by the
// optional regexp, logging one line per result to log (if non-nil).
func EngineMicro(filter *regexp.Regexp, log io.Writer) []Result {
	var out []Result
	for _, mb := range microBenches {
		if filter != nil && !filter.MatchString(mb.name) {
			continue
		}
		start := time.Now()
		br := testing.Benchmark(mb.fn)
		r := Result{
			Name:        mb.name,
			Iterations:  br.N,
			NsPerOp:     float64(br.NsPerOp()),
			AllocsPerOp: float64(br.AllocsPerOp()),
			BytesPerOp:  float64(br.AllocedBytesPerOp()),
			WallSeconds: time.Since(start).Seconds(),
		}
		logResult(log, r)
		out = append(out, r)
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure-workload suite
// ---------------------------------------------------------------------------

type workloadBench struct {
	name string
	gen  func(figures.Options) []*stats.Table
}

// The fixed suite: one bandwidth-bound microbenchmark figure, one
// sequential-access sweep, and two application workloads — a spread of
// event mixes without re-running the whole evaluation.
var workloadBenches = []workloadBench{
	{"fig10/copy-latency", figures.Figure10},
	{"fig12/seq-access", figures.Figure12},
	{"fig14/protobuf", figures.Figure14},
	{"fig19/pipe", figures.Figure19},
}

// Workloads runs the figure-workload suite once each (they are full
// simulations; wall-clock and simulated events/sec are the metrics, not
// ns/op), filtered by the optional regexp.
func Workloads(quick bool, filter *regexp.Regexp, log io.Writer) []Result {
	o := figures.Options{Quick: quick}
	var out []Result
	for _, wb := range workloadBenches {
		if filter != nil && !filter.MatchString(wb.name) {
			continue
		}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		ev0, cy0 := sim.SimulatedEvents(), sim.SimulatedCycles()
		start := time.Now()
		wb.gen(o)
		wall := time.Since(start)
		runtime.ReadMemStats(&ms1)
		ev, cy := sim.SimulatedEvents()-ev0, sim.SimulatedCycles()-cy0
		r := Result{
			Name:        wb.name,
			Iterations:  1,
			NsPerOp:     float64(wall.Nanoseconds()),
			AllocsPerOp: float64(ms1.Mallocs - ms0.Mallocs),
			BytesPerOp:  float64(ms1.TotalAlloc - ms0.TotalAlloc),
			WallSeconds: wall.Seconds(),
			SimEvents:   ev,
			SimCycles:   cy,
		}
		if s := wall.Seconds(); s > 0 {
			r.EventsPerSec = float64(ev) / s
			r.CyclesPerSec = float64(cy) / s
		}
		logResult(log, r)
		out = append(out, r)
	}
	return out
}

func logResult(w io.Writer, r Result) {
	if w == nil {
		return
	}
	line := fmt.Sprintf("%-28s %12.1f ns/op %10.1f allocs/op %12.0f B/op",
		r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	if r.EventsPerSec > 0 {
		line += fmt.Sprintf("  %8.2f Mev/s  %8.2f Mcyc/s", r.EventsPerSec/1e6, r.CyclesPerSec/1e6)
	}
	fmt.Fprintln(w, line)
}

// NewReport assembles a report with host metadata filled in.
func NewReport(quick bool, results []Result) *Report {
	return &Report{
		Schema:    1,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Quick:     quick,
		Results:   results,
	}
}
