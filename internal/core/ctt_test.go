package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mcsquare/internal/memdata"
)

const line = memdata.LineSize

func rng(start, size uint64) memdata.Range {
	return memdata.Range{Start: memdata.Addr(start), Size: size}
}

func mustInsert(t *testing.T, c *CTT, dst memdata.Range, src memdata.Addr) {
	t.Helper()
	if !c.Insert(dst, src) {
		t.Fatalf("Insert(%+v <- %#x) hit capacity", dst, src)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBasic(t *testing.T) {
	c := NewCTT(16)
	mustInsert(t, c, rng(0x1000, 2*line), 0x8000)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	e := c.LookupDest(0x1000 + 70)
	if e == nil || e.Src != 0x8000 {
		t.Fatalf("LookupDest = %+v", e)
	}
	if e.SrcFor(0x1040) != 0x8040 {
		t.Fatalf("SrcFor = %#x", e.SrcFor(0x1040))
	}
	if c.LookupDest(0x1000+2*line) != nil {
		t.Fatal("LookupDest past end matched")
	}
}

func TestInsertTrimsOverlappingDest(t *testing.T) {
	c := NewCTT(16)
	mustInsert(t, c, rng(0x1000, 4*line), 0x8000)
	// New copy overwrites the middle two lines of the old destination.
	mustInsert(t, c, rng(0x1040, 2*line), 0x20000)
	// Old entry must be split into the first and last line.
	if e := c.LookupDest(0x1000); e == nil || e.Src != 0x8000 || e.Dst.Size != line {
		t.Fatalf("head fragment: %+v", e)
	}
	if e := c.LookupDest(0x10C0); e == nil || e.Src != 0x80C0 || e.Dst.Size != line {
		t.Fatalf("tail fragment: %+v", e)
	}
	if e := c.LookupDest(0x1040); e == nil || e.Src != 0x20000 || e.Dst.Size != 2*line {
		t.Fatalf("new entry: %+v", e)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestInsertExactOverwriteReplaces(t *testing.T) {
	c := NewCTT(16)
	mustInsert(t, c, rng(0x1000, 2*line), 0x8000)
	mustInsert(t, c, rng(0x1000, 2*line), 0x9000)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	if e := c.LookupDest(0x1000); e.Src != 0x9000 {
		t.Fatalf("Src = %#x", e.Src)
	}
}

func TestChainCollapse(t *testing.T) {
	c := NewCTT(16)
	// copy 1: A(0x8000) -> B(0x1000); copy 2: B -> C(0x4000).
	mustInsert(t, c, rng(0x1000, 2*line), 0x8000)
	mustInsert(t, c, rng(0x4000, 2*line), 0x1000)
	e := c.LookupDest(0x4000)
	if e == nil || e.Src != 0x8000 {
		t.Fatalf("chain not collapsed: %+v", e)
	}
	if c.Stats.Collapses == 0 {
		t.Fatal("collapse not counted")
	}
}

func TestChainCollapsePartial(t *testing.T) {
	c := NewCTT(16)
	// B[0x1000,0x1080) <- A. Then C <- [0xFC0, 0x10C0): one line before B,
	// two lines inside B's tracked range... only the first line of B is
	// covered by the new source's middle portion.
	mustInsert(t, c, rng(0x1000, 2*line), 0x8000)
	// New copy: dst 0x4000 size 4 lines, src 0xFC0 (covers line before B,
	// B's two lines, then one line after B).
	mustInsert(t, c, rng(0x4000, 4*line), 0xFC0)
	// Expect three pieces: src 0xFC0 (1 line, not redirected),
	// src 0x8000 (2 lines, redirected), src 0x10C0->? (1 line, not redirected).
	if e := c.LookupDest(0x4000); e == nil || e.Src != 0xFC0 || e.Dst.Size != line {
		t.Fatalf("head piece: %+v", e)
	}
	if e := c.LookupDest(0x4040); e == nil || e.Src != 0x8000 || e.Dst.Size != 2*line {
		t.Fatalf("redirected piece: %+v", e)
	}
	if e := c.LookupDest(0x40C0); e == nil || e.Src != 0x1080 || e.Dst.Size != line {
		t.Fatalf("tail piece: %+v", e)
	}
}

// TestRefusedInsertLeavesStats: an Insert refused for capacity leaves the
// table and its statistics unchanged, even when the copy's source
// straddles an entry (so the dry run collapses a piece through it). The
// Engine retries a refused MCLAZY, so counting here would count the
// pieces twice.
func TestRefusedInsertLeavesStats(t *testing.T) {
	c := NewCTT(2)
	mustInsert(t, c, rng(0x1000, 2*line), 0x8000)
	mustInsert(t, c, rng(0x20000, line), 0x30000)
	before := c.Stats
	// dst 4 lines from src 0xFC0: head, redirected middle, tail — three
	// pieces into a full 2-entry table.
	if c.Insert(rng(0x4000, 4*line), 0xFC0) {
		t.Fatal("Insert into a full table accepted")
	}
	if c.Stats != before {
		t.Fatalf("refused Insert moved Stats:\n got %+v\nwant %+v", c.Stats, before)
	}
	if c.Len() != 2 {
		t.Fatalf("refused Insert changed the table: Len = %d", c.Len())
	}
}

func TestIdentityPieceDropped(t *testing.T) {
	c := NewCTT(16)
	// B <- A, then A <- B: the second collapses to A <- A and is dropped.
	mustInsert(t, c, rng(0x1000, line), 0x8000)
	mustInsert(t, c, rng(0x8000, line), 0x1000)
	if c.LookupDest(0x8000) != nil {
		t.Fatal("identity copy was tracked")
	}
	if c.Stats.Identities != 1 {
		t.Fatalf("Identities = %d", c.Stats.Identities)
	}
	// The original entry must survive.
	if c.LookupDest(0x1000) == nil {
		t.Fatal("original entry lost")
	}
}

func TestAdjacentMerge(t *testing.T) {
	c := NewCTT(16)
	// Element-by-element copies of a contiguous array merge into one entry.
	for i := uint64(0); i < 8; i++ {
		mustInsert(t, c, rng(0x1000+i*line, line), memdata.Addr(0x8000+i*line))
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 merged entry", c.Len())
	}
	e := c.LookupDest(0x1000)
	if e.Dst.Size != 8*line || e.Src != 0x8000 {
		t.Fatalf("merged entry: %+v", e)
	}
	if c.Stats.Merges != 7 {
		t.Fatalf("Merges = %d", c.Stats.Merges)
	}
}

func TestMergeBackward(t *testing.T) {
	c := NewCTT(16)
	mustInsert(t, c, rng(0x1040, line), 0x8040)
	mustInsert(t, c, rng(0x1000, line), 0x8000) // immediately before existing
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	e := c.LookupDest(0x1000)
	if e.Dst.Size != 2*line || e.Src != 0x8000 {
		t.Fatalf("merged entry: %+v", e)
	}
}

func TestMergeRespectsMaxSize(t *testing.T) {
	c := NewCTT(16)
	mustInsert(t, c, rng(0x400000, MaxEntrySize), 0x4000000)
	// Adjacent in both dst and src, but merging would exceed 2 MB.
	mustInsert(t, c, rng(0x400000+MaxEntrySize, line), 0x4000000+MaxEntrySize)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, merge exceeded 21-bit size", c.Len())
	}
}

func TestNoMergeWhenSourcesDisjoint(t *testing.T) {
	c := NewCTT(16)
	mustInsert(t, c, rng(0x1000, line), 0x8000)
	mustInsert(t, c, rng(0x1040, line), 0x9000) // adjacent dst, distant src
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestRemoveDestRange(t *testing.T) {
	c := NewCTT(16)
	mustInsert(t, c, rng(0x1000, 4*line), 0x8000)
	// Write to the second line: the entry splits around it.
	trimmed := c.RemoveDestRange(rng(0x1040, line))
	if trimmed != line {
		t.Fatalf("trimmed = %d", trimmed)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.LookupDest(0x1040) != nil {
		t.Fatal("trimmed line still tracked")
	}
	if e := c.LookupDest(0x1000); e == nil || e.Dst.Size != line {
		t.Fatalf("head: %+v", e)
	}
	if e := c.LookupDest(0x1080); e == nil || e.Src != 0x8080 || e.Dst.Size != 2*line {
		t.Fatalf("tail: %+v", e)
	}
	// Removing a range nothing tracks returns 0.
	if c.RemoveDestRange(rng(0x90000, line)) != 0 {
		t.Fatal("untracked trim returned nonzero")
	}
}

func TestSrcOverlapping(t *testing.T) {
	c := NewCTT(16)
	mustInsert(t, c, rng(0x1000, 2*line), 0x8000)
	mustInsert(t, c, rng(0x4000, 2*line), 0x8040) // shares source line 0x8040
	got := c.SrcOverlapping(rng(0x8040, line))
	if len(got) != 2 {
		t.Fatalf("SrcOverlapping found %d entries, want 2", len(got))
	}
	if got[0].ID >= got[1].ID {
		t.Fatal("SrcOverlapping not in insertion order")
	}
	if !c.HasSrcOverlap(rng(0x8000, 1)) || c.HasSrcOverlap(rng(0x20000, line)) {
		t.Fatal("HasSrcOverlap wrong")
	}
}

func TestCapacityRefusalLeavesTableUnchanged(t *testing.T) {
	c := NewCTT(2)
	mustInsert(t, c, rng(0x1000, line), 0x8000)
	mustInsert(t, c, rng(0x3000, line), 0x9000)
	// This insert would split nothing and add one entry: over capacity.
	if c.Insert(rng(0x5000, line), 0xA000) {
		t.Fatal("Insert succeeded over capacity")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d after refused insert", c.Len())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// An exact overwrite frees as much as it adds and must succeed.
	if !c.Insert(rng(0x1000, line), 0xB000) {
		t.Fatal("replacement insert refused")
	}
}

func TestSmallest(t *testing.T) {
	c := NewCTT(16)
	if c.Smallest() != nil {
		t.Fatal("Smallest of empty table")
	}
	mustInsert(t, c, rng(0x1000, 4*line), 0x8000)
	mustInsert(t, c, rng(0x3000, line), 0x9000)
	mustInsert(t, c, rng(0x5000, 2*line), 0xA000)
	if e := c.Smallest(); e.Dst.Start != 0x3000 {
		t.Fatalf("Smallest = %+v", e)
	}
}

func TestInsertAlignmentPanics(t *testing.T) {
	c := NewCTT(16)
	for name, fn := range map[string]func(){
		"unaligned dst":  func() { c.Insert(rng(0x1001, line), 0x8000) },
		"partial line":   func() { c.Insert(rng(0x1000, 32), 0x8000) },
		"zero size":      func() { c.Insert(rng(0x1000, 0), 0x8000) },
		"over huge page": func() { c.Insert(rng(0x1000, MaxEntrySize+line), 0x8000) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// ---------------------------------------------------------------------------
// Oracle-based randomized test.
//
// The oracle maps every destination byte to the "ultimate" source byte it
// will be lazily filled from (or nothing if untracked). The CTT must agree:
// for every tracked destination byte, following the entry's mapping and the
// oracle's mapping must land at the same address.
// ---------------------------------------------------------------------------

type byteOracle struct {
	m map[memdata.Addr]memdata.Addr // dst byte -> ultimate src byte
}

func newByteOracle() *byteOracle { return &byteOracle{m: make(map[memdata.Addr]memdata.Addr)} }

func (o *byteOracle) insert(dst memdata.Range, src memdata.Addr) {
	// Resolve each new destination byte through the existing mapping
	// (chain collapse), dropping identities.
	resolved := make([]memdata.Addr, dst.Size)
	for i := uint64(0); i < dst.Size; i++ {
		s := src + memdata.Addr(i)
		if ult, ok := o.m[s]; ok {
			s = ult
		}
		resolved[i] = s
	}
	for i := uint64(0); i < dst.Size; i++ {
		d := dst.Start + memdata.Addr(i)
		if resolved[i] == d {
			delete(o.m, d)
		} else {
			o.m[d] = resolved[i]
		}
	}
}

func (o *byteOracle) removeDest(r memdata.Range) {
	for i := uint64(0); i < r.Size; i++ {
		delete(o.m, r.Start+memdata.Addr(i))
	}
}

func TestCTTMatchesOracleRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	c := NewCTT(1 << 16) // effectively unbounded for this test
	o := newByteOracle()

	const region = 1 << 16 // keep addresses colliding often
	randLineAddr := func() memdata.Addr {
		return memdata.Addr(r.Intn(region/line)) * line
	}

	for step := 0; step < 3000; step++ {
		switch r.Intn(3) {
		case 0, 1: // insert
			size := uint64(1+r.Intn(8)) * line
			dst := memdata.Range{Start: randLineAddr(), Size: size}
			src := memdata.Addr(r.Intn(region)) // arbitrary byte alignment
			c.Insert(dst, src)
			o.insert(dst, src)
		case 2: // remove a dest range (a write or MCFREE)
			size := uint64(1+r.Intn(4)) * line
			rr := memdata.Range{Start: randLineAddr(), Size: size}
			c.RemoveDestRange(rr)
			o.removeDest(rr)
		}
		if step%100 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Full cross-check over the region.
	for a := memdata.Addr(0); a < region; a++ {
		e := c.LookupDest(a)
		want, tracked := o.m[a]
		if e == nil {
			if tracked {
				t.Fatalf("byte %#x: oracle tracked -> %#x, CTT untracked", a, want)
			}
			continue
		}
		got := e.SrcFor(a)
		if !tracked {
			t.Fatalf("byte %#x: CTT tracked -> %#x, oracle untracked", a, got)
		}
		if got != want {
			t.Fatalf("byte %#x: CTT -> %#x, oracle -> %#x", a, got, want)
		}
	}
}

func BenchmarkCTTInsertLookup(b *testing.B) {
	c := NewCTT(2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst := rng(uint64(i%1000)*4096, 16*line)
		c.Insert(dst, memdata.Addr(0x10000000+uint64(i%997)*4096))
		c.LookupDest(dst.Start + 64)
		if c.Len() > 1500 {
			c.RemoveDestRange(dst)
		}
	}
}

// Property: PreviewSources predicts exactly the source ranges the insert
// creates (same table state, no mutation by the preview).
func TestPreviewSourcesMatchesInsertQuick(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		c := NewCTT(1 << 12)
		// Seed with a few random entries.
		for i := 0; i < 5; i++ {
			size := uint64(1+r.Intn(6)) * line
			dst := memdata.Addr(r.Intn(1<<14)) &^ (line - 1)
			src := memdata.Addr(r.Intn(1 << 14))
			c.Insert(memdata.Range{Start: dst, Size: size}, src)
		}
		size := uint64(1+r.Intn(6)) * line
		dst := memdata.Range{Start: memdata.Addr(r.Intn(1<<14)) &^ (line - 1), Size: size}
		src := memdata.Addr(r.Intn(1 << 14))

		preview := c.PreviewSources(dst, src)
		before := c.Len()
		if !c.Insert(dst, src) {
			t.Fatal("insert refused with huge capacity")
		}
		_ = before
		// Every byte of the inserted destination must map to the source
		// byte the preview predicted.
		pi := 0
		off := uint64(0)
		for _, e := range c.DestCover(dst) {
			part := e.Dst.Intersect(dst)
			for b := uint64(0); b < part.Size; b++ {
				want := e.SrcFor(part.Start + memdata.Addr(b))
				// Advance through preview ranges to find the matching byte.
				for pi < len(preview) && off >= preview[pi].Size {
					pi++
					off = 0
				}
				if pi >= len(preview) {
					break // identity-dropped bytes have no preview range
				}
				got := preview[pi].Start + memdata.Addr(off)
				if got != want {
					t.Fatalf("trial %d: preview %#x != actual %#x", trial, got, want)
				}
				off++
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Differential test of the indexed queries.
//
// Every query the CTT answers from its indexes (DestCover, LookupDest,
// SrcOverlapping, HasSrcOverlap, Smallest) is recomputed by a brute-force
// scan over Entries() after each step of a testing/quick-generated program
// of Inserts and RemoveDestRanges. Addresses cluster around a 2 MB segment
// boundary, so entries and queries straddle segments.
// ---------------------------------------------------------------------------

// cttStep is one operation; its fields are interpreted against the table
// as it stands when the step runs.
type cttStep struct {
	Kind       uint8  // selects the operation, see run
	Pick       uint16 // chooses an existing entry or a dst line in the window
	Len        uint8  // size in lines
	SrcOff     uint32 // source offset within the window (byte-granular)
	BigOffline uint16 // for MaxEntrySize inserts: lines before the boundary
}

// cttProgram is a quick-generated sequence of steps.
type cttProgram []cttStep

const (
	diffBoundary = 2 * MaxEntrySize // a 2 MB segment boundary (4 MB)
	diffWindow   = 64 << 10         // dst lines fall in boundary ± window
	diffCapacity = 24               // small, so inserts are refused
)

func (cttProgram) Generate(r *rand.Rand, size int) reflect.Value {
	p := make(cttProgram, 20+r.Intn(40))
	for i := range p {
		p[i] = cttStep{
			Kind:       uint8(r.Intn(8)),
			Pick:       uint16(r.Intn(1 << 16)),
			Len:        uint8(1 + r.Intn(24)),
			SrcOff:     uint32(r.Intn(2 * diffWindow)),
			BigOffline: uint16(1 + r.Intn(MaxEntrySize/line)),
		}
	}
	return reflect.ValueOf(p)
}

// diffCoverage counts the cases the program set must reach at least once.
type diffCoverage struct {
	straddles, maxSize, mergesBefore, mergesAfter, splits, refusals int
}

// run applies one step to c. It fails only if a refused Insert changed the
// table.
func (s cttStep) run(c *CTT, cov *diffCoverage) error {
	lo := memdata.Addr(diffBoundary - diffWindow)
	size := uint64(s.Len) * line
	dstLine := lo + memdata.Addr(uint64(s.Pick)%(2*diffWindow/line))*line
	src := lo + memdata.Addr(s.SrcOff)
	ents := c.Entries()
	var pick *Entry
	if len(ents) > 0 {
		pick = ents[int(s.Pick)%len(ents)]
	}
	insert := func(dst memdata.Range, src memdata.Addr) error {
		before := snapshotCTT(c)
		if c.Insert(dst, src) {
			return nil
		}
		cov.refusals++
		if !reflect.DeepEqual(before, snapshotCTT(c)) {
			return fmt.Errorf("refused Insert(%+v <- %#x) changed the table", dst, src)
		}
		return nil
	}
	switch s.Kind {
	case 0, 1: // random insert, possibly chaining through existing entries
		dst := memdata.Range{Start: dstLine, Size: size}
		if dst.Start < diffBoundary && dst.End() > diffBoundary {
			cov.straddles++
		}
		return insert(dst, src)
	case 2: // an entry of exactly MaxEntrySize across the boundary
		start := memdata.Addr(diffBoundary) - memdata.Addr(s.BigOffline)*line
		cov.maxSize++
		return insert(memdata.Range{Start: start, Size: MaxEntrySize}, src+MaxEntrySize)
	case 3: // contiguous copy after an entry: merges into it
		if pick == nil || !memdata.IsLineAligned(pick.Dst.End()) {
			return nil // collapse pieces can end mid-line
		}
		m := c.Stats.Merges
		err := insert(memdata.Range{Start: pick.Dst.End(), Size: size}, pick.SrcRange().End())
		if c.Stats.Merges > m {
			cov.mergesAfter++
		}
		return err
	case 4: // contiguous copy before an entry: merges into it
		if pick == nil || !memdata.IsLineAligned(pick.Dst.Start) || uint64(pick.Src) < size {
			return nil
		}
		m := c.Stats.Merges
		err := insert(memdata.Range{Start: pick.Dst.Start - memdata.Addr(size), Size: size}, pick.Src-memdata.Addr(size))
		if c.Stats.Merges > m {
			cov.mergesBefore++
		}
		return err
	case 5: // a write to the middle of an entry splits it
		if pick == nil || pick.Dst.Size < 3*line || c.Len() == diffCapacity {
			return nil // a split in a full table overflows it (not a refusal)
		}
		n := c.Len()
		c.RemoveDestRange(memdata.Range{Start: pick.Dst.Start + line, Size: line})
		if c.Len() == n+1 {
			cov.splits++
		}
	default: // a write or MCFREE anywhere in the window
		if c.Len() < diffCapacity { // may split, see case 5
			c.RemoveDestRange(memdata.Range{Start: dstLine, Size: size})
		}
	}
	return nil
}

// snapshotCTT captures the table's geometry by value.
func snapshotCTT(c *CTT) []Entry {
	var out []Entry
	for _, e := range c.Entries() {
		out = append(out, *e)
	}
	return out
}

// checkAgainstScan compares every indexed query on the probe set against a
// linear scan over Entries().
func checkAgainstScan(c *CTT, probes []memdata.Range) error {
	ents := c.Entries()
	for _, r := range probes {
		var wantCover, wantSrc []*Entry
		for _, e := range ents {
			if e.Dst.Overlaps(r) {
				wantCover = append(wantCover, e)
			}
			if e.SrcRange().Overlaps(r) {
				wantSrc = append(wantSrc, e) // Entries is in ID order
			}
		}
		sort.Slice(wantCover, func(i, j int) bool { return wantCover[i].Dst.Start < wantCover[j].Dst.Start })
		if got := c.DestCover(r); !slices.Equal(got, wantCover) {
			return fmt.Errorf("DestCover(%+v) = %v, scan %v", r, got, wantCover)
		}
		if got := c.SrcOverlapping(r); !slices.Equal(got, wantSrc) {
			return fmt.Errorf("SrcOverlapping(%+v) = %v, scan %v", r, got, wantSrc)
		}
		if got := c.HasSrcOverlap(r); got != (len(wantSrc) > 0) {
			return fmt.Errorf("HasSrcOverlap(%+v) = %v, scan found %d", r, got, len(wantSrc))
		}
		for _, a := range []memdata.Addr{r.Start, r.End() - 1, r.End()} {
			var want *Entry
			for _, e := range ents {
				if e.Dst.Contains(a) {
					want = e
				}
			}
			if got := c.LookupDest(a); got != want {
				return fmt.Errorf("LookupDest(%#x) = %v, scan %v", a, got, want)
			}
		}
	}
	var want *Entry
	for _, e := range ents {
		if want == nil || e.Dst.Size < want.Dst.Size || (e.Dst.Size == want.Dst.Size && e.ID < want.ID) {
			want = e
		}
	}
	if got := c.Smallest(); got != want {
		return fmt.Errorf("Smallest = %v, scan %v", got, want)
	}
	return nil
}

// diffProbes returns the query ranges for the current table: fixed ranges
// around the boundary (one line, two lines across it, a whole 2 MB range
// across it) plus every entry's destination and source range and the lines
// just outside its destination.
func diffProbes(c *CTT, step cttStep) []memdata.Range {
	b := memdata.Addr(diffBoundary)
	probes := []memdata.Range{
		{Start: b, Size: line},
		{Start: b - line, Size: 2 * line},
		{Start: b - MaxEntrySize/2, Size: MaxEntrySize},
		{Start: b + memdata.Addr(step.SrcOff), Size: uint64(step.Len) * line},
	}
	for _, e := range c.Entries() {
		probes = append(probes, e.Dst, e.SrcRange(),
			memdata.Range{Start: e.Dst.Start - line, Size: line},
			memdata.Range{Start: e.Dst.End(), Size: line})
	}
	return probes
}

func TestCTTIndexMatchesScanQuick(t *testing.T) {
	var cov diffCoverage
	prop := func(p cttProgram) bool {
		c := NewCTT(diffCapacity)
		for i, s := range p {
			if err := s.run(c, &cov); err != nil {
				t.Logf("step %d %+v: %v", i, s, err)
				return false
			}
			if err := c.CheckInvariants(); err != nil {
				t.Logf("step %d %+v: %v", i, s, err)
				return false
			}
			if err := checkAgainstScan(c, diffProbes(c, s)); err != nil {
				t.Logf("step %d %+v: %v", i, s, err)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(14))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{
		"boundary-straddling insert": cov.straddles,
		"MaxEntrySize insert":        cov.maxSize,
		"merge before":               cov.mergesBefore,
		"merge after":                cov.mergesAfter,
		"middle split":               cov.splits,
		"refused insert":             cov.refusals,
	} {
		if n == 0 {
			t.Errorf("no program reached a %s", name)
		}
	}
	t.Logf("coverage %+v", cov)
}

// TestCTTQueriesAllocate pins the lookup path's allocations on a
// paper-sized table 90 % full: LookupDest and Smallest allocate nothing,
// and a one-line DestCover allocates only its result slice.
func TestCTTQueriesAllocate(t *testing.T) {
	const capacity = 2048
	c := NewCTT(capacity)
	n := capacity * 9 / 10
	for i := 0; i < n; i++ {
		// Every other 4 KB page, sources scattered so nothing merges.
		dst := rng(uint64(i)*8192, 4096)
		if !c.Insert(dst, memdata.Addr(0x40000000+uint64(i)*12288)) {
			t.Fatalf("insert %d refused", i)
		}
	}
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
	hit := memdata.Addr(uint64(n/2)*8192 + 64)
	miss := hit + 4096
	for name, tc := range map[string]struct {
		fn  func()
		max float64
	}{
		"LookupDest hit":  {func() { c.LookupDest(hit) }, 0},
		"LookupDest miss": {func() { c.LookupDest(miss) }, 0},
		"Smallest":        {func() { c.Smallest() }, 0},
		"DestCover hit":   {func() { c.DestCover(lineRange(hit)) }, 1},
		"DestCover miss":  {func() { c.DestCover(lineRange(miss)) }, 0},
	} {
		if got := testing.AllocsPerRun(200, tc.fn); got > tc.max {
			t.Errorf("%s allocates %.1f per call, want at most %.0f", name, got, tc.max)
		}
	}
}
