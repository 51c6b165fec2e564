package memdata

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestLineHelpers(t *testing.T) {
	cases := []struct {
		a       Addr
		aligned Addr
		off     uint64
		up      Addr
	}{
		{0, 0, 0, 0},
		{1, 0, 1, 64},
		{63, 0, 63, 64},
		{64, 64, 0, 64},
		{100, 64, 36, 128},
		{4096, 4096, 0, 4096},
	}
	for _, c := range cases {
		if got := LineAlign(c.a); got != c.aligned {
			t.Errorf("LineAlign(%d) = %d, want %d", c.a, got, c.aligned)
		}
		if got := LineOffset(c.a); got != c.off {
			t.Errorf("LineOffset(%d) = %d, want %d", c.a, got, c.off)
		}
		if got := LineUp(c.a); got != c.up {
			t.Errorf("LineUp(%d) = %d, want %d", c.a, got, c.up)
		}
	}
}

func TestAlignRem(t *testing.T) {
	cases := []struct {
		a     Addr
		align uint64
		want  uint64
	}{
		{0, 64, 0},
		{1, 64, 63},
		{64, 64, 0},
		{100, 64, 28},
		{4095, 4096, 1},
		{4097, 4096, 4095},
	}
	for _, c := range cases {
		if got := AlignRem(c.a, c.align); got != c.want {
			t.Errorf("AlignRem(%d,%d) = %d, want %d", c.a, c.align, got, c.want)
		}
	}
}

func TestRangeBasics(t *testing.T) {
	r := Range{Start: 100, Size: 50} // [100,150)
	if r.End() != 150 {
		t.Fatalf("End = %d", r.End())
	}
	if !r.Contains(100) || !r.Contains(149) || r.Contains(150) || r.Contains(99) {
		t.Fatal("Contains wrong at boundaries")
	}
	if !r.Overlaps(Range{Start: 149, Size: 1}) || r.Overlaps(Range{Start: 150, Size: 10}) {
		t.Fatal("Overlaps wrong at boundaries")
	}
	if (Range{}).Overlaps(r) {
		t.Fatal("empty range overlaps")
	}
	got := r.Intersect(Range{Start: 120, Size: 100})
	if got.Start != 120 || got.Size != 30 {
		t.Fatalf("Intersect = %+v", got)
	}
}

func TestRangeSubtract(t *testing.T) {
	r := Range{Start: 100, Size: 100} // [100,200)
	cases := []struct {
		o    Range
		want []Range
	}{
		{Range{Start: 0, Size: 50}, []Range{r}},                      // disjoint
		{Range{Start: 100, Size: 100}, nil},                          // exact
		{Range{Start: 50, Size: 300}, nil},                           // superset
		{Range{Start: 100, Size: 30}, []Range{{130, 70}}},            // prefix
		{Range{Start: 170, Size: 30}, []Range{{100, 70}}},            // suffix
		{Range{Start: 140, Size: 20}, []Range{{100, 40}, {160, 40}}}, // middle
		{Range{Start: 90, Size: 20}, []Range{{110, 90}}},             // overlap left
		{Range{Start: 190, Size: 20}, []Range{{100, 90}}},            // overlap right
	}
	for _, c := range cases {
		got := r.Subtract(c.o)
		if len(got) != len(c.want) {
			t.Fatalf("Subtract(%+v) = %+v, want %+v", c.o, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Subtract(%+v) = %+v, want %+v", c.o, got, c.want)
			}
		}
	}
}

// Property: Subtract + Intersect partition the range exactly.
func TestRangeSubtractPartitionQuick(t *testing.T) {
	f := func(s1, n1, s2, n2 uint16) bool {
		r := Range{Start: Addr(s1), Size: uint64(n1)}
		o := Range{Start: Addr(s2), Size: uint64(n2)}
		covered := uint64(0)
		for _, p := range r.Subtract(o) {
			if p.Empty() || !r.ContainsRange(p) || p.Overlaps(o) {
				return false
			}
			covered += p.Size
		}
		return covered+r.Intersect(o).Size == r.Size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeLines(t *testing.T) {
	r := Range{Start: 100, Size: 100} // touches lines 64,128,192
	lines := r.Lines()
	want := []Addr{64, 128, 192}
	if len(lines) != len(want) {
		t.Fatalf("Lines = %v", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("Lines = %v, want %v", lines, want)
		}
	}
	if r.NumLines() != 3 {
		t.Fatalf("NumLines = %d", r.NumLines())
	}
	if (Range{}).NumLines() != 0 || len((Range{}).Lines()) != 0 {
		t.Fatal("empty range has lines")
	}
	one := Range{Start: 64, Size: 64}
	if one.NumLines() != 1 {
		t.Fatalf("aligned single line NumLines = %d", one.NumLines())
	}
}

func TestPhysicalReadWrite(t *testing.T) {
	p := NewPhysical(1 << 16)
	data := []byte("hello, lazy memcpy")
	p.Write(1000, data)
	if got := p.Read(1000, uint64(len(data))); !bytes.Equal(got, data) {
		t.Fatalf("Read = %q", got)
	}
	// Read must return a copy, not an alias.
	got := p.Read(1000, 5)
	got[0] = 'X'
	if p.Read(1000, 1)[0] != 'h' {
		t.Fatal("Read aliased backing store")
	}
}

func TestPhysicalLines(t *testing.T) {
	p := NewPhysical(1 << 12)
	line := make([]byte, LineSize)
	for i := range line {
		line[i] = byte(i)
	}
	p.WriteLine(128, line)
	if got := p.ReadLine(128); !bytes.Equal(got, line) {
		t.Fatal("ReadLine mismatch")
	}
}

// fill returns n bytes of a pattern that differs per seed and per offset.
func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7) + 1
	}
	return b
}

// allocatedPages counts the store's allocated pages.
func (p *Physical) allocatedPages() int {
	n := 0
	for _, pg := range p.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

func TestPhysicalUntouchedReadsZero(t *testing.T) {
	p := NewPhysical(4 * PageSize)
	p.Write(PageSize+10, []byte{9})
	if got := p.Read(2*PageSize-8, PageSize+16); !bytes.Equal(got, make([]byte, PageSize+16)) {
		t.Fatal("untouched bytes do not read as zero")
	}
	if got := p.ReadLine(3 * PageSize); !bytes.Equal(got, make([]byte, LineSize)) {
		t.Fatal("untouched line does not read as zero")
	}
	if n := p.allocatedPages(); n != 1 {
		t.Fatalf("%d pages allocated after one write, want 1", n)
	}
}

func TestPhysicalCrossPage(t *testing.T) {
	p := NewPhysical(4 * PageSize)
	data := fill(2*PageSize+100, 3) // spans four pages from PageSize-50
	p.Write(PageSize-50, data)
	if got := p.Read(PageSize-50, uint64(len(data))); !bytes.Equal(got, data) {
		t.Fatal("cross-page Read mismatch")
	}
	if got := p.Read(2*PageSize-1, 2); !bytes.Equal(got, data[PageSize+49:PageSize+51]) {
		t.Fatal("two-byte Read straddling a page boundary mismatch")
	}
	if got := p.Read(0, PageSize-50); !bytes.Equal(got, make([]byte, PageSize-50)) {
		t.Fatal("bytes before the write are not zero")
	}
	if n := p.allocatedPages(); n != 4 {
		t.Fatalf("%d pages allocated, want 4", n)
	}
}

func TestPhysicalCopy(t *testing.T) {
	for _, c := range []struct {
		name     string
		dst, src Addr
		n        uint64
	}{
		{"disjoint", 100, 0, 4},
		{"overlapping, dst below src", PageSize - 100, PageSize + 200, PageSize + 300},
		{"overlapping, dst above src", PageSize + 200, PageSize - 100, PageSize + 300},
		{"same address", PageSize - 7, PageSize - 7, PageSize + 300},
	} {
		p := NewPhysical(4 * PageSize)
		ref := make([]byte, 4*PageSize)
		data := fill(int(c.n), 11)
		p.Write(c.src, data)
		copy(ref[c.src:], data)
		p.Copy(c.dst, c.src, c.n)
		copy(ref[c.dst:c.dst+Addr(c.n)], ref[c.src:c.src+Addr(c.n)])
		if got := p.Read(0, p.Size()); !bytes.Equal(got, ref) {
			t.Errorf("%s: Copy differs from memmove", c.name)
		}
	}
}

func TestPhysicalPartialLastPage(t *testing.T) {
	const size = 2*PageSize + 100
	p := NewPhysical(size)
	if p.Size() != size {
		t.Fatalf("Size = %d, want %d", p.Size(), size)
	}
	tail := fill(150, 7)
	p.Write(size-150, tail)
	if got := p.Read(size-150, 150); !bytes.Equal(got, tail) {
		t.Fatal("tail Read mismatch")
	}
	if got := p.Read(size-1, 1); got[0] != tail[149] {
		t.Fatal("last byte mismatch")
	}
	for name, fn := range map[string]func(){
		"read one past end":  func() { p.Read(size-1, 2) },
		"write one past end": func() { p.Write(size, []byte{1}) },
	} {
		if msg := panicMessage(fn); !strings.HasPrefix(msg, "memdata: ") {
			t.Errorf("%s: panic %q, want a memdata bounds panic", name, msg)
		}
	}
}

// op is one step of the differential test against a flat reference.
type op struct {
	Kind     uint8
	Dst, Src uint16
	N        uint16
	Seed     byte
}

// Property: under any sequence of Write, Copy and Read, the paged store
// holds exactly the bytes a flat []byte holds under the same sequence.
func TestPhysicalMatchesFlatQuick(t *testing.T) {
	const size = 3*PageSize + 100
	f := func(ops []op) bool {
		p := NewPhysical(size)
		ref := make([]byte, size)
		for _, o := range ops {
			dst, src := uint64(o.Dst)%size, uint64(o.Src)%size
			n := uint64(o.N) % (size - max(dst, src) + 1)
			switch o.Kind % 3 {
			case 0:
				data := fill(int(n), o.Seed)
				p.Write(Addr(dst), data)
				copy(ref[dst:], data)
			case 1:
				p.Copy(Addr(dst), Addr(src), n)
				copy(ref[dst:dst+n], ref[src:src+n])
			case 2:
				if !bytes.Equal(p.Read(Addr(src), n), ref[src:src+n]) {
					return false
				}
			}
		}
		return bytes.Equal(p.Read(0, size), ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Guard: a large store costs only its page table, and reads of untouched
// memory allocate no page.
func TestPhysicalAllocatesLazily(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := NewPhysical(1 << 30)
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 4<<20 {
		t.Fatalf("NewPhysical(1<<30) allocated %d bytes, want < 4 MB (the page table only)", d)
	}
	for i := range Addr(1000) {
		p.ReadLine(i * LineSize * 97)
	}
	if n := p.allocatedPages(); n != 0 {
		t.Fatalf("%d pages allocated by reads of untouched memory, want 0", n)
	}
}

// panicMessage runs fn and returns the string it panicked with ("" if it
// did not panic, or a description of a non-string panic value).
func panicMessage(fn func()) (msg string) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case string:
			msg = r
		default:
			msg = fmt.Sprintf("non-string panic %T: %v", r, r)
		}
	}()
	fn()
	return ""
}

func TestPhysicalBoundsPanics(t *testing.T) {
	p := NewPhysical(64)
	for name, fn := range map[string]func(){
		"read past end":     func() { p.Read(60, 8) },
		"write past end":    func() { p.Write(64, []byte{1}) },
		"read wraps 2^64":   func() { p.Read(^Addr(0)-3, 8) },
		"write wraps 2^64":  func() { p.Write(^Addr(0), []byte{1, 2}) },
		"copy dst wraps":    func() { p.Copy(^Addr(0)-3, 0, 8) },
		"copy src past end": func() { p.Copy(0, 60, 8) },
		"unaligned line":    func() { p.ReadLine(3) },
		"short line write":  func() { p.WriteLine(0, []byte{1, 2}) },
	} {
		if msg := panicMessage(fn); !strings.HasPrefix(msg, "memdata: ") {
			t.Errorf("%s: panic %q, want a memdata: panic", name, msg)
		}
	}
}
