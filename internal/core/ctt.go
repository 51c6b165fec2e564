// Package core implements the paper's primary contribution: the (MC)²
// memory-controller extensions for lazy memory copies. It provides
//
//   - the Copy Tracking Table (CTT): prospective-copy entries with the
//     paper's destination-overlap trimming, copy-chain collapsing, and
//     contiguous-copy merging (§III-A1);
//   - the Bounce Pending Queue (BPQ): held writes to tracked source
//     buffers while lazy copies execute (§III-A2);
//   - the lazy-copy Engine that installs itself as a memctrl.Hook and
//     implements the six-state consistency protocol of Fig 9.
//
// The paper keeps one CTT per memory controller and broadcasts updates so
// the tables stay identical; we model that as a single shared CTT, which is
// semantically equivalent to perfectly-snooped consistent tables. BPQs
// remain per controller.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"mcsquare/internal/memdata"
)

// MaxEntrySize is the largest copy a single CTT entry can track: the
// paper's 21-bit size field, i.e. one 2 MB huge page.
const MaxEntrySize = 2 << 20

// segShift buckets source addresses into 2 MB segments for indexed
// lookups. Since no entry exceeds MaxEntrySize, an entry's source range
// spans at most two segments, and a query range of up to MaxEntrySize spans
// at most two as well.
const segShift = 21

// Entry is one prospective copy: the destination byte range Dst will,
// when accessed, be lazily filled from the source starting at Src.
//
// The hardware entry is 16 bytes (52-bit source and destination physical
// addresses, 21-bit size, active bit); we carry the same information in
// native types. Destination ranges of live entries are pairwise disjoint
// at byte granularity.
type Entry struct {
	ID  uint64
	Dst memdata.Range
	Src memdata.Addr
}

// SrcRange returns the source byte range of the entry.
func (e *Entry) SrcRange() memdata.Range {
	return memdata.Range{Start: e.Src, Size: e.Dst.Size}
}

// SrcFor maps a destination address inside the entry to its source address.
func (e *Entry) SrcFor(a memdata.Addr) memdata.Addr {
	return e.Src + (a - e.Dst.Start)
}

// CTTStats counts CTT activity.
type CTTStats struct {
	Inserts    uint64 // MCLAZY operations accepted
	Pieces     uint64 // entries created (after splits/merges)
	Merges     uint64 // pieces absorbed into an adjacent entry
	Collapses  uint64 // pieces redirected through an existing entry (chain collapse)
	Identities uint64 // pieces dropped because source == destination after collapse
	Trims      uint64 // destination-range removals (writes, bounces, MCFREE)
	Removed    uint64 // entries fully removed
	HighWater  int    // max simultaneous entries

	// Byte ledger: every destination byte that enters tracking is counted
	// in DeferredBytes (post-collapse, post-identity-drop), and every byte
	// that leaves is counted in UntrackedBytes; ReplacedBytes is the
	// portion of UntrackedBytes trimmed by a newer overlapping Insert.
	// The books are kept by independent code paths (Insert's piece loop vs
	// RemoveDestRange's geometric trimming vs the per-entry size deltas
	// behind TrackedBytes), so
	//
	//	DeferredBytes - UntrackedBytes == TrackedBytes()
	//
	// is a real conservation law, checked by CheckInvariants.
	DeferredBytes  uint64 // destination bytes newly tracked by Insert
	UntrackedBytes uint64 // destination bytes untracked via RemoveDestRange
	ReplacedBytes  uint64 // untracked bytes displaced by a newer Insert
}

// CTT is the Copy Tracking Table. It is a pure data structure: all timing
// (lookup latency, stalls) is charged by the Engine. Not safe for
// concurrent use; the simulator is single-threaded.
type CTT struct {
	capacity int
	// noMerge disables adjacency merging (ablation): element-by-element
	// copies then occupy one entry each instead of coalescing.
	noMerge bool
	nextID  uint64
	// byDst holds the live entries sorted by destination start. Live
	// destination ranges are pairwise disjoint, so their ends are sorted
	// too, and one binary search finds every entry overlapping a range.
	byDst []*Entry
	// srcSeg buckets entries by the 2 MB segments their source range
	// touches; source ranges may overlap, so they have no such order.
	srcSeg map[uint64][]*Entry
	// trackedBytes is the summed destination size of live entries,
	// maintained incrementally by register/remove/mutate and cross-checked
	// against the entries by CheckInvariants.
	trackedBytes uint64

	Stats CTTStats
}

// NewCTT creates a table with the given entry capacity (the paper uses
// 2,048 entries = 32 KB of SRAM).
func NewCTT(capacity int) *CTT { return newCTT(capacity, false) }

func newCTT(capacity int, noMerge bool) *CTT {
	if capacity <= 0 {
		panic("core: CTT capacity must be positive")
	}
	return &CTT{
		capacity: capacity,
		noMerge:  noMerge,
		srcSeg:   make(map[uint64][]*Entry),
	}
}

// Len returns the number of live entries.
func (t *CTT) Len() int { return len(t.byDst) }

// Capacity returns the entry capacity.
func (t *CTT) Capacity() int { return t.capacity }

func segsOf(r memdata.Range) (lo, hi uint64) {
	if r.Empty() {
		return 1, 0 // empty iteration
	}
	return uint64(r.Start) >> segShift, uint64(r.End()-1) >> segShift
}

// firstEndAfter returns the index in byDst of the first entry whose
// destination ends after a: the only candidate to contain a, and the first
// entry that can overlap a range starting at a.
func (t *CTT) firstEndAfter(a memdata.Addr) int {
	return sort.Search(len(t.byDst), func(i int) bool { return t.byDst[i].Dst.End() > a })
}

func (t *CTT) register(e *Entry) {
	t.byDst = slices.Insert(t.byDst, t.firstEndAfter(e.Dst.Start), e)
	t.srcAdd(e)
	t.trackedBytes += e.Dst.Size
	if len(t.byDst) > t.Stats.HighWater {
		t.Stats.HighWater = len(t.byDst)
	}
}

func (t *CTT) srcAdd(e *Entry) {
	lo, hi := segsOf(e.SrcRange())
	for s := lo; s <= hi; s++ {
		t.srcSeg[s] = append(t.srcSeg[s], e)
	}
}

func (t *CTT) srcRemove(e *Entry) {
	lo, hi := segsOf(e.SrcRange())
	for s := lo; s <= hi; s++ {
		list := t.srcSeg[s]
		for i, x := range list {
			if x == e {
				t.srcSeg[s] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(t.srcSeg[s]) == 0 {
			delete(t.srcSeg, s)
		}
	}
}

func (t *CTT) remove(e *Entry) {
	i := t.firstEndAfter(e.Dst.Start) // e itself: entries before it end by its start
	t.byDst = slices.Delete(t.byDst, i, i+1)
	t.srcRemove(e)
	t.trackedBytes -= e.Dst.Size
	t.Stats.Removed++
}

// mutate applies a destination-range change to an entry: its source index
// entries are refreshed and its new geometry installed. The entry keeps its
// byDst slot: a trim shrinks a range in place, and a merge grows it only
// into untracked bytes next to it, so disjoint ranges never reorder.
func (t *CTT) mutate(e *Entry, dst memdata.Range, src memdata.Addr) {
	t.srcRemove(e)
	t.trackedBytes += dst.Size - e.Dst.Size // unsigned wrap cancels out
	e.Dst = dst
	e.Src = src
	t.srcAdd(e)
}

// DestCover returns the live entries whose destination range overlaps r,
// sorted by destination start. Destination ranges are disjoint, so the
// result segments r without overlap. The result is a fresh slice (nil when
// nothing overlaps), so callers may change the table while ranging over it.
func (t *CTT) DestCover(r memdata.Range) []*Entry {
	if r.Empty() {
		return nil
	}
	i := t.firstEndAfter(r.Start)
	j := i
	for j < len(t.byDst) && t.byDst[j].Dst.Start < r.End() {
		j++
	}
	return append([]*Entry(nil), t.byDst[i:j]...)
}

// LookupDest returns the entry whose destination contains a, or nil.
func (t *CTT) LookupDest(a memdata.Addr) *Entry {
	if i := t.firstEndAfter(a); i < len(t.byDst) && t.byDst[i].Dst.Start <= a {
		return t.byDst[i]
	}
	return nil
}

// SrcOverlapping returns the live entries whose source range overlaps r,
// in insertion order. Source ranges may overlap each other (one source,
// many destinations).
func (t *CTT) SrcOverlapping(r memdata.Range) []*Entry {
	lo, hi := segsOf(r)
	var out []*Entry
	for s := lo; s <= hi; s++ {
		for _, e := range t.srcSeg[s] {
			// An entry spanning two queried segments is collected only in
			// the first of them.
			sr := e.SrcRange()
			if max(lo, uint64(sr.Start)>>segShift) == s && sr.Overlaps(r) {
				out = append(out, e)
			}
		}
	}
	slices.SortFunc(out, func(a, b *Entry) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// HasSrcOverlap reports whether any live entry's source overlaps r.
func (t *CTT) HasSrcOverlap(r memdata.Range) bool {
	lo, hi := segsOf(r)
	for s := lo; s <= hi; s++ {
		for _, e := range t.srcSeg[s] {
			if e.SrcRange().Overlaps(r) {
				return true
			}
		}
	}
	return false
}

// RemoveDestRange stops tracking every destination byte in r: overlapping
// entries are removed, resized, or split (a write to the middle of an
// entry's destination leaves two entries). Returns the number of
// destination bytes that were tracked.
func (t *CTT) RemoveDestRange(r memdata.Range) uint64 {
	var trimmed uint64
	for _, e := range t.DestCover(r) {
		trimmed += e.Dst.Intersect(r).Size
		t.trimEntry(e, r)
	}
	if trimmed > 0 {
		t.Stats.Trims++
		t.Stats.UntrackedBytes += trimmed
	}
	return trimmed
}

// TrackedBytes returns the summed destination size of live entries.
func (t *CTT) TrackedBytes() uint64 { return t.trackedBytes }

// trimEntry removes the part of e's destination overlapped by r.
func (t *CTT) trimEntry(e *Entry, r memdata.Range) {
	rest := e.Dst.Subtract(r)
	switch len(rest) {
	case 0:
		t.remove(e)
	case 1:
		t.mutate(e, rest[0], e.SrcFor(rest[0].Start))
	case 2:
		src0 := e.SrcFor(rest[0].Start)
		src1 := e.SrcFor(rest[1].Start)
		t.mutate(e, rest[0], src0)
		t.nextID++
		t.register(&Entry{ID: t.nextID, Dst: rest[1], Src: src1})
	}
}

// piece is a fragment of a new prospective copy after chain collapsing.
type piece struct {
	dst memdata.Range
	src memdata.Addr
}

// collapse splits the copy (dst ← src) wherever its source range overlaps
// an existing entry's destination: those fragments are redirected to the
// older entry's source, so a copy of a lazy copy never chains (§III-A1:
// "A→B then B→C yields C←A"). Fragments whose source equals their
// destination after redirection are dropped — memory already holds the
// right bytes. It reports how many fragments were redirected and how many
// dropped without touching Stats: Insert counts them only for a copy it
// accepts.
func (t *CTT) collapse(dst memdata.Range, src memdata.Addr) (out []piece, collapses, identities uint64) {
	srcR := memdata.Range{Start: src, Size: dst.Size}
	overs := t.DestCover(srcR)
	cur := src
	end := srcR.End()
	emit := func(from, to memdata.Addr, redirect *Entry) {
		if to <= from {
			return
		}
		p := piece{
			dst: memdata.Range{Start: dst.Start + (from - src), Size: uint64(to - from)},
			src: from,
		}
		if redirect != nil {
			p.src = redirect.SrcFor(from)
			collapses++
		}
		if p.src == p.dst.Start {
			identities++
			return
		}
		out = append(out, p)
	}
	for _, e := range overs {
		o := e.Dst.Intersect(srcR)
		emit(cur, o.Start, nil)
		emit(o.Start, o.End(), e)
		cur = o.End()
	}
	emit(cur, end, nil)
	return out, collapses, identities
}

// tryMerge attempts to absorb p into an entry adjacent in both destination
// and source space (the paper merges element-by-element copies of an
// array into one entry). Reports whether p was absorbed.
func (t *CTT) tryMerge(p piece) bool {
	if t.noMerge {
		return false
	}
	// Existing entry immediately before the piece.
	if p.dst.Start > 0 {
		if e := t.LookupDest(p.dst.Start - 1); e != nil &&
			e.Dst.End() == p.dst.Start &&
			e.SrcRange().End() == p.src &&
			e.Dst.Size+p.dst.Size <= MaxEntrySize {
			t.mutate(e, memdata.Range{Start: e.Dst.Start, Size: e.Dst.Size + p.dst.Size}, e.Src)
			t.Stats.Merges++
			return true
		}
	}
	// Existing entry immediately after the piece.
	if e := t.LookupDest(p.dst.End()); e != nil &&
		e.Dst.Start == p.dst.End() &&
		e.Src == p.src+memdata.Addr(p.dst.Size) &&
		e.Dst.Size+p.dst.Size <= MaxEntrySize {
		t.mutate(e, memdata.Range{Start: p.dst.Start, Size: e.Dst.Size + p.dst.Size}, p.src)
		t.Stats.Merges++
		return true
	}
	return false
}

// Insert records the prospective copy (dst ← src). It applies, in order:
// destination-overlap trimming of existing entries, chain collapsing of the
// new copy, and adjacency merging. It returns false — leaving the table
// unchanged — if the result would exceed capacity; the caller (the Engine)
// then stalls the MCLAZY until asynchronous freeing makes room.
//
// dst must be cacheline-aligned with a positive cacheline-multiple size of
// at most MaxEntrySize (the MCLAZY alignment rules, §III-C).
func (t *CTT) Insert(dst memdata.Range, src memdata.Addr) bool {
	if !memdata.IsLineAligned(dst.Start) || dst.Size == 0 || dst.Size%memdata.LineSize != 0 {
		panic(fmt.Sprintf("core: Insert with unaligned destination %+v", dst))
	}
	if dst.Size > MaxEntrySize {
		panic(fmt.Sprintf("core: Insert larger than a huge page: %d", dst.Size))
	}

	// Capacity dry run: count how trimming and splitting change the table.
	delta := 0
	for _, e := range t.DestCover(dst) {
		switch len(e.Dst.Subtract(dst)) {
		case 0:
			delta--
		case 2:
			delta++
		}
	}
	pieces, collapses, identities := t.collapse(dst, src)
	// Merges can only reduce the pieces' count; a safe upper bound.
	if t.Len()+delta+len(pieces) > t.capacity {
		return false
	}
	t.Stats.Collapses += collapses
	t.Stats.Identities += identities

	t.Stats.ReplacedBytes += t.RemoveDestRange(dst)
	for _, p := range pieces {
		t.Stats.DeferredBytes += p.dst.Size
		if t.tryMerge(p) {
			continue
		}
		t.nextID++
		t.register(&Entry{ID: t.nextID, Dst: p.dst, Src: p.src})
		t.Stats.Pieces++
	}
	t.Stats.Inserts++
	return true
}

// PreviewSources returns the post-collapse source ranges the copy
// (dst ← src) would track if inserted now, without mutating the table or
// its statistics. The Engine uses it to stall MCLAZY operations whose
// effective sources land on BPQ-held lines.
func (t *CTT) PreviewSources(dst memdata.Range, src memdata.Addr) []memdata.Range {
	pieces, _, _ := t.collapse(dst, src)
	out := make([]memdata.Range, 0, len(pieces))
	for _, p := range pieces {
		out = append(out, memdata.Range{Start: p.src, Size: p.dst.Size})
	}
	return out
}

// Entries returns the live entries in insertion order, which is ID order
// since IDs only grow.
func (t *CTT) Entries() []*Entry {
	out := slices.Clone(t.byDst)
	slices.SortFunc(out, func(a, b *Entry) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Smallest returns the live entry with the smallest destination size
// (lowest ID breaks ties), or nil when the table is empty. The asynchronous
// freeing policy evicts smallest-first (§III-A1).
func (t *CTT) Smallest() *Entry {
	var best *Entry
	for _, e := range t.byDst {
		if best == nil || e.Dst.Size < best.Dst.Size ||
			(e.Dst.Size == best.Dst.Size && e.ID < best.ID) {
			best = e
		}
	}
	return best
}

// CheckInvariants verifies structural invariants; tests call it after every
// mutation. It returns an error describing the first violation found.
func (t *CTT) CheckInvariants() error {
	if len(t.byDst) > t.capacity {
		return fmt.Errorf("ctt: %d entries exceed capacity %d", len(t.byDst), t.capacity)
	}
	var liveBytes uint64
	for _, e := range t.byDst {
		liveBytes += e.Dst.Size
	}
	if liveBytes != t.trackedBytes {
		return fmt.Errorf("ctt: tracked-byte counter %d != live entry bytes %d", t.trackedBytes, liveBytes)
	}
	if t.Stats.DeferredBytes-t.Stats.UntrackedBytes != t.trackedBytes {
		return fmt.Errorf("ctt: byte conservation violated: deferred %d - untracked %d != tracked %d",
			t.Stats.DeferredBytes, t.Stats.UntrackedBytes, t.trackedBytes)
	}
	for i, e := range t.byDst {
		if e.Dst.Empty() {
			return fmt.Errorf("ctt: entry %d has empty destination", e.ID)
		}
		if e.Dst.Size > MaxEntrySize {
			return fmt.Errorf("ctt: entry %d size %d exceeds 2 MB", e.ID, e.Dst.Size)
		}
		// Adjacent entries in start order: sorted and disjoint together
		// imply every pair is disjoint.
		if i > 0 {
			prev := t.byDst[i-1]
			if prev.Dst.Start >= e.Dst.Start {
				return fmt.Errorf("ctt: dest index out of order at entries %d and %d", prev.ID, e.ID)
			}
			if prev.Dst.End() > e.Dst.Start {
				return fmt.Errorf("ctt: destination overlap between entries %d and %d", prev.ID, e.ID)
			}
		}
		// Index consistency.
		if got := t.LookupDest(e.Dst.Start); got != e {
			return fmt.Errorf("ctt: dest index lost entry %d", e.ID)
		}
		found := false
		for _, s := range t.SrcOverlapping(e.SrcRange()) {
			if s == e {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("ctt: src index lost entry %d", e.ID)
		}
	}
	return nil
}
