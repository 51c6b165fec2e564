package memdata

import "fmt"

// Physical is the machine's byte-addressable backing store. All DRAM reads
// and writes ultimately land here, so data read back through the full
// cache + controller + CTT stack can be compared against what software
// wrote — the basis of the observational-equivalence tests.
//
// The store is lazily paged: a 4 KB page is allocated on its first write,
// and an untouched page reads as zeros without being allocated. Host memory
// therefore scales with the pages a run touches, not with the machine's
// modelled capacity.
type Physical struct {
	size  uint64
	pages []*[PageSize]byte
}

// NewPhysical returns a zero-filled backing store of the given size in
// bytes. Only the page table is allocated up front.
func NewPhysical(size uint64) *Physical {
	return &Physical{size: size, pages: make([]*[PageSize]byte, (size+PageSize-1)/PageSize)}
}

// Size returns the store's capacity in bytes.
func (p *Physical) Size() uint64 { return p.size }

func (p *Physical) check(a Addr, n uint64) {
	// Written so that neither side can wrap for addresses near 2^64.
	if n > p.size || uint64(a) > p.size-n {
		panic(fmt.Sprintf("memdata: access [%#x,%#x) outside physical memory of %d bytes",
			a, uint64(a)+n, p.size))
	}
}

// Read copies n bytes starting at a into a fresh slice.
func (p *Physical) Read(a Addr, n uint64) []byte {
	p.check(a, n)
	out := make([]byte, n)
	for done := uint64(0); done < n; {
		off := PageOffset(a)
		m := min(n-done, PageSize-off)
		if page := p.pages[a>>PageShift]; page != nil {
			copy(out[done:done+m], page[off:])
		}
		done += m
		a += Addr(m)
	}
	return out
}

// Write copies src into the store starting at a, allocating every page it
// touches for the first time.
func (p *Physical) Write(a Addr, src []byte) {
	p.check(a, uint64(len(src)))
	for len(src) > 0 {
		page := p.pages[a>>PageShift]
		if page == nil {
			page = new([PageSize]byte)
			p.pages[a>>PageShift] = page
		}
		m := copy(page[PageOffset(a):], src)
		src = src[m:]
		a += Addr(m)
	}
}

// ReadLine copies the 64-byte cacheline containing a into a fresh slice.
// a must be line-aligned.
func (p *Physical) ReadLine(a Addr) []byte {
	if !IsLineAligned(a) {
		panic(fmt.Sprintf("memdata: ReadLine of unaligned address %#x", a))
	}
	return p.Read(a, LineSize)
}

// WriteLine stores a full 64-byte cacheline at a. a must be line-aligned
// and len(line) must be LineSize.
func (p *Physical) WriteLine(a Addr, line []byte) {
	if !IsLineAligned(a) {
		panic(fmt.Sprintf("memdata: WriteLine of unaligned address %#x", a))
	}
	if len(line) != LineSize {
		panic(fmt.Sprintf("memdata: WriteLine with %d bytes", len(line)))
	}
	p.Write(a, line)
}

// Copy performs an immediate (non-simulated) copy of n bytes from src to
// dst within the store, with memmove semantics for overlapping ranges. Used
// by test oracles, never by the timed simulation path.
func (p *Physical) Copy(dst, src Addr, n uint64) {
	p.Write(dst, p.Read(src, n))
}
