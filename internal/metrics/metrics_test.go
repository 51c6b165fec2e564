package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"mcsquare/internal/stats"
)

func TestRegistryKindsAndLiveReads(t *testing.T) {
	r := NewRegistry()
	var c uint64 = 7
	cycles := uint64(100)
	var h stats.Histogram
	h.Add(2)
	h.Add(3)

	r.Counter("mc0.reads", &c)
	r.CounterFunc("sim.cycles", func() uint64 { return cycles })
	r.Gauge("mc0.wpq_occupancy", func() float64 { return 0.5 })
	r.Histogram("oskern.fault_latency", &h)

	if got := r.CounterValue("mc0.reads"); got != 7 {
		t.Fatalf("CounterValue = %d, want 7", got)
	}
	c = 9 // the registry is a view: component increments show up live
	if got := r.CounterValue("mc0.reads"); got != 9 {
		t.Fatalf("CounterValue after increment = %d, want 9", got)
	}
	if got := r.CounterValue("sim.cycles"); got != 100 {
		t.Fatalf("CounterFunc value = %d, want 100", got)
	}
	if got := r.GaugeValue("mc0.wpq_occupancy"); got != 0.5 {
		t.Fatalf("GaugeValue = %v, want 0.5", got)
	}

	want := []string{"mc0.reads", "mc0.wpq_occupancy", "oskern.fault_latency", "sim.cycles"}
	if got := r.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}

	s := r.Snapshot()
	if v := s.Values["oskern.fault_latency"]; v.Kind != KindHistogram || v.Count != 2 || v.Value != 5 {
		t.Fatalf("histogram snapshot = %+v", v)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	var a, b uint64
	r.Counter("l1.misses", &a)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("l1.misses", &b)
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	for _, bad := range []string{"", "L1.misses", "l1..misses", ".misses", "misses.", "l1 misses", "l1-misses"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			var v uint64
			NewRegistry().Counter(bad, &v)
		}()
	}
}

func TestScopeNesting(t *testing.T) {
	r := NewRegistry()
	var v uint64
	r.Scope("").Counter("cycles", &v) // root scope: no leading dot
	r.Scope("mc0").Scope("ctt").Counter("bounces", &v)
	want := []string{"cycles", "mc0.ctt.bounces"}
	if got := r.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	var c uint64 = 10
	g := 1.0
	var h stats.Histogram
	h.Add(4)
	r.Counter("c", &c)
	r.Gauge("g", func() float64 { return g })
	r.Histogram("h", &h)

	before := r.Snapshot()
	c += 5
	g = 3.0
	h.Add(6)
	after := r.Snapshot()

	d := after.Delta(before)
	if got := d.Counter("c"); got != 5 {
		t.Fatalf("counter delta = %d, want 5", got)
	}
	if got := d.Gauge("g"); got != 3.0 {
		t.Fatalf("gauge in delta = %v, want current value 3", got)
	}
	if v := d.Values["h"]; v.Count != 1 || v.Value != 6 {
		t.Fatalf("histogram delta = %+v, want 1 sample summing 6", v)
	}
	// Delta must not disturb the inputs (snapshot immutability).
	if before.Counter("c") != 10 || after.Counter("c") != 15 {
		t.Fatalf("inputs mutated: before=%d after=%d", before.Counter("c"), after.Counter("c"))
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewSnapshot()
	a.Values["cpu0.loads"] = Value{Kind: KindCounter, Count: 3}
	a.Values["only_a"] = Value{Kind: KindCounter, Count: 1}
	b := NewSnapshot()
	b.Values["cpu0.loads"] = Value{Kind: KindCounter, Count: 4}
	b.Values["only_b"] = Value{Kind: KindGauge, Value: 2.5}
	a.Merge(b)
	if a.Counter("cpu0.loads") != 7 || a.Counter("only_a") != 1 || a.Gauge("only_b") != 2.5 {
		t.Fatalf("merge result = %+v", a.Values)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	var c uint64 = 42
	var h stats.Histogram
	h.Add(1.5)
	r.Counter("engine.bounces", &c)
	r.Gauge("ctt.high_water", func() float64 { return 12 })
	r.Histogram("oskern.fault_latency", &h)
	s := r.Snapshot()

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(back.Values, s.Values) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back.Values, s.Values)
	}
	// Kinds must serialize as names, not numbers.
	if !bytes.Contains(buf.Bytes(), []byte(`"kind": "histogram"`)) {
		t.Fatalf("kind not rendered by name:\n%s", buf.String())
	}
}

func TestCollectorAmbientBinding(t *testing.T) {
	if AmbientCollector() != nil {
		t.Fatal("unexpected ambient collector on test goroutine")
	}
	col := NewCollector()
	release := col.Bind()
	if AmbientCollector() != col {
		t.Fatal("bound collector not visible on same goroutine")
	}

	// Other goroutines must not see this binding.
	var wg sync.WaitGroup
	wg.Add(1)
	var other *Collector
	go func() {
		defer wg.Done()
		other = AmbientCollector()
	}()
	wg.Wait()
	if other != nil {
		t.Fatal("binding leaked to another goroutine")
	}

	// Nested bind restores the outer one on release.
	inner := NewCollector()
	release2 := inner.Bind()
	if AmbientCollector() != inner {
		t.Fatal("inner bind not visible")
	}
	release2()
	if AmbientCollector() != col {
		t.Fatal("outer binding not restored")
	}
	release()
	if AmbientCollector() != nil {
		t.Fatal("binding not cleared after release")
	}
}

func TestCollectorSnapshotMergesRegistries(t *testing.T) {
	col := NewCollector()
	for i := 0; i < 2; i++ {
		r := NewRegistry()
		v := uint64(10 * (i + 1))
		v2 := v // capture per-registry storage
		r.Counter("sim.cycles", &v2)
		col.Add(r)
	}
	s := col.Snapshot()
	if got := s.Counter("sim.cycles"); got != 30 {
		t.Fatalf("merged sim.cycles = %d, want 30", got)
	}
}

// TestFrozenReplaysSnapshot: a Frozen registry reads exactly the snapshot
// it was built from — through Snapshot, the live-read accessors and a
// Collector merge — so replaying frozen registries in registration order
// gives byte-identical merged JSON to collecting the live ones.
func TestFrozenReplaysSnapshot(t *testing.T) {
	live := NewCollector()
	frozen := NewCollector()
	for i := 0; i < 3; i++ {
		r := NewRegistry()
		n := uint64(7 * (i + 1))
		r.Counter("mc0.reads", &n)
		r.CounterFunc("sim.cycles", func() uint64 { return 1000 + n })
		g := 0.1 * float64(i+1) // inexact sums: merge order must be kept
		r.Gauge("ctt.high_water", func() float64 { return g })
		h := new(stats.Histogram)
		h.Add(0.3)
		h.Add(float64(i))
		r.Histogram("mc0.rpq_wait", h)
		live.Add(r)

		f := Frozen(r.Snapshot())
		if !reflect.DeepEqual(f.Snapshot().Values, r.Snapshot().Values) {
			t.Fatalf("registry %d: frozen snapshot %v, live %v", i, f.Snapshot().Values, r.Snapshot().Values)
		}
		if f.CounterValue("sim.cycles") != 1000+n || f.GaugeValue("ctt.high_water") != g {
			t.Fatalf("registry %d: frozen live reads differ", i)
		}
		if !reflect.DeepEqual(f.Names(), r.Names()) {
			t.Fatalf("registry %d: names %v, want %v", i, f.Names(), r.Names())
		}
		frozen.Add(f)
	}
	var a, b bytes.Buffer
	if err := live.Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := frozen.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("merged JSON differs:\n--- live ---\n%s--- frozen ---\n%s", a.String(), b.String())
	}
}
