package fleet

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEventHeapOrder: pops come out in (at, seq) order, ties in time
// broken by scheduling order, whatever the push order.
func TestEventHeapOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	var h eventHeap
	var want []event
	for seq := uint64(0); seq < 500; seq++ {
		ev := event{at: float64(rnd.Intn(50)), seq: seq, m: int(seq)}
		want = append(want, ev)
		h.push(ev)
		if seq%7 == 0 { // interleave pops with pushes
			h.pop()
			sort.Slice(want, func(i, j int) bool { return want[i].before(&want[j]) })
			want = want[1:]
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].before(&want[j]) })
	for i, w := range want {
		if got := h.pop(); got.at != w.at || got.seq != w.seq || got.m != w.m {
			t.Fatalf("pop %d = (at %v, seq %d), want (at %v, seq %d)", i, got.at, got.seq, w.at, w.seq)
		}
	}
	if len(h) != 0 {
		t.Fatalf("%d events left after draining", len(h))
	}
}

// TestEventHeapAllocs: once the heap has grown, scheduling and popping an
// event allocate nothing (container/heap boxed every event twice).
func TestEventHeapAllocs(t *testing.T) {
	h := make(eventHeap, 0, 64)
	for i := 0; i < 32; i++ {
		h.push(event{at: float64(i), seq: uint64(i)})
	}
	seq, a := uint64(32), &attempt{}
	allocs := testing.AllocsPerRun(1000, func() {
		h.push(event{at: float64(seq % 40), seq: seq, a: a})
		seq++
		h.pop()
	})
	if allocs != 0 {
		t.Fatalf("push+pop allocates %v objects, want 0", allocs)
	}
}
