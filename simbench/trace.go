package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"

	"mcsquare/internal/faultinject"
	"mcsquare/internal/metrics"
)

// tracer records the traced run's spans and per-layer counts from outside
// the program: spans around the benchmark's calls into each layer's public
// functions, and counters from a metrics.Collector bound for one operation
// (or one fleet call) at a time. A nil tracer is the untraced run; its
// methods then do nothing.
//
// A collector holds every registry added to it, and each machine's
// registry holds the machine (through its sim.cycles CounterFunc), so a
// collector kept for a whole run would keep every machine alive. Each
// collector is therefore read and dropped as soon as its operation ends.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int // indices of open spans, innermost last

	counts    map[string]float64 // counters summed over collected registries
	highWater float64            // largest ctt.high_water of any machine
	machines  float64            // machines built: registries carrying sim.cycles, plus calibMach
	calibMach float64            // machines built by fleet.Calibrate calls
}

// span is one timed call. Parent is the index of the enclosing span, -1
// for an operation's root.
type span struct {
	Name         string  `json:"name"`
	Op           int     `json:"op"`
	Parent       int     `json:"parent"`
	Start        float64 `json:"start_s"`
	End          float64 `json:"end_s"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	AllocObjects uint64  `json:"alloc_objects"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

func noop() {}

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return noop
	}
	i := len(t.spans)
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	r0 := readRuntime()
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, i)
	return func() {
		d := readRuntime().sub(r0)
		s := &t.spans[i]
		s.End = time.Since(t.t0).Seconds()
		s.AllocBytes, s.AllocObjects = d.allocBytes, d.allocObjects
		t.open = t.open[:len(t.open)-1]
	}
}

// collect runs fn inside a span with a fresh metrics collector bound, then
// folds the collected registries into the run's counts and drops them.
func (t *tracer) collect(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	col := metrics.NewCollector()
	end := t.span(name)
	func() {
		defer col.Bind()()
		fn()
	}()
	end()
	for _, reg := range col.Registries() {
		snap := reg.Snapshot()
		for n, v := range snap.Values {
			if v.Kind == metrics.KindCounter {
				t.counts[n] += float64(v.Count)
			}
		}
		if _, ok := snap.Get("sim.cycles"); ok {
			t.machines++
		}
		if hw := snap.Gauge("ctt.high_water"); hw > t.highWater {
			t.highWater = hw
		}
	}
}

// machineCounter is a fault schedule whose one kind fires once in 2^64-1
// offers, at a phase hashed from the plane's index: in practice never, and
// the traced run's digests, which must equal the untraced run's, confirm
// it. Binding it hands every machine built a fault plane, which counts the
// machines a call builds without keeping them alive (a metrics collector
// would keep every one).
var machineCounter = faultinject.Schedule{DRAMCorruptEvery: math.MaxUint64}

// calibrate runs one fleet.Calibrate call in a span and counts the
// machines it builds. The counting collector shadows a storm collector
// for the duration of the call; calibration reads no storm fields.
func (t *tracer) calibrate(fn func()) {
	if t == nil {
		fn()
		return
	}
	counter := faultinject.NewCollector(&machineCounter)
	end := t.span("fleet.Calibrate")
	func() {
		defer counter.Bind()()
		fn()
	}()
	end()
	n := float64(len(counter.Planes()))
	t.machines += n
	t.calibMach += n
}

// sum adds the counters named <prefix><index>.<field> over every index
// (cpu0.loads + cpu1.loads + ...), or the single counter prefix.field when
// the prefix carries no index.
func (t *tracer) sum(prefix string, fields ...string) float64 {
	re := regexp.MustCompile("^" + regexp.QuoteMeta(prefix) + `[0-9]*\.(` + strings.Join(fields, "|") + `)$`)
	total := 0.0
	for n, v := range t.counts {
		if re.MatchString(n) {
			total += v
		}
	}
	return total
}

// spanSeconds totals the duration of every span with one of the names.
func (t *tracer) spanSeconds(names ...string) float64 {
	total := 0.0
	for _, s := range t.spans {
		for _, n := range names {
			if s.Name == n {
				total += s.End - s.Start
			}
		}
	}
	return total
}

// runSpans are the calls that drive simulation engines.
var runSpans = []string{"machine.run", "protobuf.Run", "mvcc.Run", "oswl.PipeThroughput", "oswl.HugeCOW", "fleet.Calibrate"}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layers derives the per-layer metrics of a traced run. events is the
// number of simulated events executed in the timed phase.
func (t *tracer) layers(events float64) map[string]metric {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var newS, newB float64
	for _, s := range t.spans {
		if s.Name == "machine.build" {
			newS += s.End - s.Start
			newB += float64(s.AllocBytes)
		}
	}
	rowHits := t.sum("dram", "row_hits")
	simulate := t.spanSeconds("fleet.Simulate")
	requests := t.counts["fleet.offered"]
	c := func(name string) float64 { return t.counts[name] }
	return map[string]metric{
		"machine.builds":             {t.machines, "count"},
		"machine.new_s":              {newS, "s"},
		"machine.new_mb":             {newB / 1e6, "MB"},
		"sim.events":                 {events, "count"},
		"sim.cycles":                 {c("sim.cycles"), "cycles"},
		"sim.ns_per_event":           {ratio(t.spanSeconds(runSpans...)*1e9, events), "ns"},
		"cpu.loads":                  {t.sum("cpu", "loads"), "count"},
		"cpu.stores":                 {t.sum("cpu", "stores"), "count"},
		"cpu.stall_cycles":           {t.sum("cpu", "window_stall", "dep_stall", "fence_stall"), "cycles"},
		"l1.hits":                    {c("l1.hits"), "count"},
		"l1.misses":                  {c("l1.misses"), "count"},
		"l2.hits":                    {c("l2.hits"), "count"},
		"l2.misses":                  {c("l2.misses"), "count"},
		"l1.mshr_stalls":             {c("l1.mshr_stalls"), "count"},
		"xcon.messages":              {c("xcon.messages"), "count"},
		"xcon.queue_cycles":          {c("xcon.queue_cycles"), "cycles"},
		"mc.reads":                   {t.sum("mc", "reads"), "count"},
		"mc.writes":                  {t.sum("mc", "writes"), "count"},
		"mc.read_stalls":             {t.sum("mc", "read_stalls"), "count"},
		"mc.write_stalls":            {t.sum("mc", "write_stalls"), "count"},
		"mc.rejected_writes":         {t.sum("mc", "rejected_writes"), "count"},
		"dram.row_hit_ratio":         {ratio(rowHits, rowHits+t.sum("dram", "row_misses")), "ratio"},
		"engine.lazy_ops":            {c("engine.lazy_ops"), "count"},
		"engine.bounces":             {c("engine.bounces"), "count"},
		"engine.bpq_holds":           {c("engine.bpq_holds"), "count"},
		"engine.bpq_stalls_full":     {c("engine.bpq_stalls_full"), "count"},
		"engine.lazy_stall_cycles":   {c("engine.lazy_stall_cycles"), "cycles"},
		"engine.eager_fallbacks":     {c("engine.eager_fallbacks"), "count"},
		"engine.materialized_ratio":  {ratio(c("engine.materialized_bytes"), c("engine.lazy_bytes")), "ratio"},
		"ctt.inserts":                {c("ctt.inserts"), "count"},
		"ctt.high_water":             {t.highWater, "entries"},
		"isa.mclazies":               {c("isa.mclazies"), "count"},
		"zio.faults":                 {c("zio.faults"), "count"},
		"oskern.cow_faults":          {c("oskern.cow_faults") + c("oskern.huge_cow_faults"), "count"},
		"fleet.calibrate_s":          {t.spanSeconds("fleet.Calibrate"), "s"},
		"fleet.calibration_machines": {t.calibMach, "count"},
		"fleet.simulate_s":           {simulate, "s"},
		"fleet.requests":             {requests, "count"},
		"fleet.ns_per_request":       {ratio(simulate*1e9, requests), "ns"},
		"fleet.completed":            {c("fleet.completed"), "count"},
		"fleet.dropped":              {c("fleet.dropped"), "count"},
		"fleet.timed_out":            {c("fleet.resilience.timed_out"), "count"},
		"fleet.shed":                 {c("fleet.resilience.shed"), "count"},
		"fleet.failed":               {c("fleet.resilience.failed"), "count"},
		"fleet.retries":              {c("fleet.resilience.retries"), "count"},
		"fleet.hedges":               {c("fleet.resilience.hedges"), "count"},
	}
}

// selfModules are the buckets CPU self time is rolled up into: the
// simulator's modules (workload packages share one bucket), six runtime
// buckets, and "other" for everything else. runtime.sched is goroutine
// hand-off, which every simulated process switch pays; runtime.map is map
// lookups.
var selfModules = []string{"sim", "cpu", "cache", "interconnect", "memctrl", "dram", "memdata", "core", "isa",
	"softmc", "zio", "oskern", "machine", "fleet", "stats", "workloads",
	"runtime.malloc", "runtime.gc", "runtime.memclr", "runtime.sched", "runtime.map", "runtime.other", "other"}

// runtimeBuckets split runtime functions, matched in order against the
// function names of a pprof report; the first match wins.
var runtimeBuckets = []struct {
	name string
	re   *regexp.Regexp
}{
	{"runtime.malloc", regexp.MustCompile(`^runtime\.(mallocgc|nextFreeFast|newobject|makeslice|growslice|newarray|heapSetType|\(\*mcache\)|\(\*mcentral\)|\(\*mheap\)\.(alloc|grow|allocSpan|allocNeedsZero)|\(\*mspan\)\.(nextFree|init|initHeapBits))`)},
	{"runtime.gc", regexp.MustCompile(`^runtime\.(gc|scanobject|scanblock|scanstack|greyobject|findObject|markroot|markBits|wbBuf|bulkBarrier|typePointers|sweep|spanOf|pageIndexOf|heapBitsForAddr|\(\*gcWork\)|\(\*gcBits\)|\(\*sweepLocked\)|\(\*mspan\)\.(sweep|typePointers|markBits))`)},
	{"runtime.memclr", regexp.MustCompile(`^runtime\.memclr`)},
	{"runtime.sched", regexp.MustCompile(`^runtime\.(chan|select|gopark|goready|ready|park_m|schedule|findRunnable|futex|lock2|unlock2|casgstatus|mcall|gogo|procyield|osyield|runq|steal|wakep|startm|stopm|note|execute|goexit|newproc|gfget|gfput|nanotime|checkTimers|mPark|resetspinning|recv|send|acquirep|releasep|\(\*timers\)|\(\*guintptr\))`)},
	{"runtime.map", regexp.MustCompile(`^(runtime\.(map|memhash|aeshash)|internal/runtime/maps\.)`)},
	{"runtime.other", regexp.MustCompile(`^runtime\.`)},
}

// moduleOf maps a function name to its selfModules bucket.
func moduleOf(fn string) string {
	for _, b := range runtimeBuckets {
		if b.re.MatchString(fn) {
			return b.name
		}
	}
	rest, ok := strings.CutPrefix(fn, "mcsquare/internal/")
	if !ok {
		return "other"
	}
	if strings.HasPrefix(rest, "workloads/") {
		return "workloads"
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range selfModules {
		if m == rest {
			return m
		}
	}
	return "other"
}

// rollup reads a CPU profile with go tool pprof and returns each module's
// share of the profile's self (flat) time.
func rollup(bin, profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ms", bin, profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	// Rows look like "  120ms  4.00%  60.00%   300ms 10.00%  pkg.fn".
	row := regexp.MustCompile(`^\s*([0-9.]+)ms\s+[0-9.]+%\s+[0-9.]+%\s+[0-9.]+ms\s+[0-9.]+%\s+(.+)$`)
	shares := map[string]float64{}
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		m := row.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ms, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return nil, err
		}
		shares[moduleOf(m[2])] += ms
		total += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %s", profile)
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}
