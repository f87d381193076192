// Package mem implements V address spaces: sparse, page-granular memory
// with per-page dirty bits.
//
// Dirty bits are the mechanism behind pre-copy migration (§3.1.2, footnote
// 4: "modified pages are detected using dirty bits"): each pre-copy round
// snapshots and clears the dirty set, then copies exactly the pages
// modified during the previous round.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"

	"vsystem/internal/freelist"
	"vsystem/internal/params"
)

// PageSize re-exports the page granularity for convenience.
const PageSize = params.PageSize

// PageNo identifies a page within an address space.
type PageNo uint32

// AddressSpace is a sparse paged memory. Pages are allocated on first
// write; reads of unallocated memory return zeros. The space tracks a dirty
// bit per allocated page.
//
// Its page table is a directory of chunks, one per chunkPages pages of
// address space, each made on the first touch of its range: a lookup is two
// indexes, and a walk in page order (AppendAllPages, AppendSnapshotDirty)
// reads the chunks in turn, their dirty words a bit per page.
type AddressSpace struct {
	ID      uint32 // space identifier within its logical host
	limit   uint32 // size in bytes; accesses beyond limit fault
	table   []*chunk
	present int // pages allocated
	// last is the present page getPage found last, and lastPN its number:
	// a run of accesses to one page (an interpreter fetching its code)
	// looks it up once. Drop and Release clear it before its frame can go
	// back to the list; an absent page is never held.
	last   *[PageSize]byte
	lastPN PageNo
	// frames is where a page's PageSize bytes come from and where Drop and
	// Release hand them back: the list of the cluster the space lives in,
	// or a list of its own.
	frames *freelist.Bytes
	// fault, when set, supplies the contents of a non-present page on
	// first access (demand paging from a file server, §3.2). It may
	// block the calling task. A nil return means a zero page.
	fault FaultFunc
	// inFault counts the tasks inside the fault handler. One of them may
	// hold views of other pages while it is blocked there (a gather loop),
	// and one killed there never leaves: while it is not zero, no frame is
	// handed back.
	inFault int
}

// chunkPages is how many pages a chunk of the page table maps: a dirty
// word's worth, so that a chunk — 64 frame pointers and the word, 520
// bytes — stays under a page.
const chunkPages = 64

// chunk maps chunkPages consecutive pages: each present page's frame (nil
// for an absent one), and their dirty bits, bit i for page i. A dirty bit
// is only ever set for a present page.
type chunk struct {
	frames [chunkPages]*[PageSize]byte
	dirty  uint64
}

// FaultFunc resolves a missing page's contents.
type FaultFunc func(pn PageNo) []byte

// SetFault installs (or clears) the demand-paging handler.
func (as *AddressSpace) SetFault(f FaultFunc) { as.fault = f }

// NewAddressSpace creates a space of the given size in bytes (rounded up to
// a whole number of pages) whose page frames come from a list of its own,
// which can never hold more than the space has pages.
func NewAddressSpace(id uint32, size uint32) *AddressSpace {
	pages := (uint64(size) + PageSize - 1) / PageSize
	return NewAddressSpaceOn(freelist.New(PageSize, int(pages), nil), id, size)
}

// NewAddressSpaceOn is NewAddressSpace for a space that shares its page
// frames with the other spaces of its cluster: what one of them drops or
// releases, the next one to allocate a page gets. The list hands out
// buffers of PageSize bytes; it belongs to one cluster (ethernet.Bus keeps
// it), never to the package — clusters run side by side.
func NewAddressSpaceOn(frames *freelist.Bytes, id uint32, size uint32) *AddressSpace {
	if size%PageSize != 0 {
		size += PageSize - size%PageSize
	}
	chunks := (uint64(size)/PageSize + chunkPages - 1) / chunkPages
	return &AddressSpace{ID: id, limit: size, table: make([]*chunk, chunks), frames: frames}
}

// Size returns the space's limit in bytes.
func (as *AddressSpace) Size() uint32 { return as.limit }

// Allocated returns the number of bytes in allocated pages.
func (as *AddressSpace) Allocated() uint32 { return uint32(as.present) * PageSize }

// FaultError reports an access outside the space.
type FaultError struct {
	Addr uint32
	N    int
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("mem: fault at %#x (+%d bytes)", e.Addr, e.N)
}

func (as *AddressSpace) check(addr uint32, n int) error {
	if n < 0 || uint64(addr)+uint64(n) > uint64(as.limit) {
		return &FaultError{Addr: addr, N: n}
	}
	return nil
}

// getPage returns page pn, which must lie within the limit: its frame, or
// nil for an absent page unless the fault handler or alloc makes it.
func (as *AddressSpace) getPage(pn PageNo, alloc bool) *[PageSize]byte {
	if f := as.last; f != nil && as.lastPN == pn {
		return f
	}
	return as.lookup(pn, alloc)
}

// lookup is getPage past the held page, kept apart so that getPage inlines.
func (as *AddressSpace) lookup(pn PageNo, alloc bool) *[PageSize]byte {
	f := as.frame(pn)
	switch {
	case f != nil:
	case as.fault != nil:
		as.inFault++
		data := as.fault(pn) // a task killed in here unwinds past the next line
		as.inFault--
		// The handler blocks the faulting task; a racing installer (the
		// post-copy source's background push-out) may have materialized the
		// page meanwhile. First writer wins: prefer the installed page and
		// drop the fetched copy, never overwrite.
		if f = as.frame(pn); f == nil {
			f = as.newPage(pn, data)
		}
	case alloc:
		f = as.newPage(pn, nil)
	default:
		return nil
	}
	as.last, as.lastPN = f, pn
	return f
}

// slot returns the chunk that maps page pn (nil if none has been made, or
// pn lies past the limit) and pn's index in it.
func (as *AddressSpace) slot(pn PageNo) (*chunk, uint) {
	if ci := int(pn / chunkPages); ci < len(as.table) {
		return as.table[ci], uint(pn % chunkPages)
	}
	return nil, 0
}

// frame returns page pn's frame, nil when it is absent.
func (as *AddressSpace) frame(pn PageNo) *[PageSize]byte {
	if c, i := as.slot(pn); c != nil {
		return c.frames[i]
	}
	return nil
}

// newPage materializes page pn holding data, zero from where data ends. The
// frame may have been another page before, of this space or of one long
// destroyed: every byte of it is written here.
func (as *AddressSpace) newPage(pn PageNo, data []byte) *[PageSize]byte {
	c := as.table[pn/chunkPages]
	if c == nil {
		c = new(chunk)
		as.table[pn/chunkPages] = c
	}
	f := (*[PageSize]byte)(as.frames.Get()[:PageSize])
	clear(f[copy(f[:], data):])
	c.frames[pn%chunkPages] = f
	as.present++
	return f
}

// free hands a frame back, unless a task inside the fault handler may
// still be looking at it.
func (as *AddressSpace) free(f *[PageSize]byte) {
	if as.inFault == 0 {
		as.frames.Put(f[:])
	}
}

// ReadAt copies len(b) bytes starting at addr into b. Unallocated pages
// read as zeros.
func (as *AddressSpace) ReadAt(addr uint32, b []byte) error {
	if err := as.check(addr, len(b)); err != nil {
		return err
	}
	for len(b) > 0 {
		pn := PageNo(addr / PageSize)
		off := addr % PageSize
		n := PageSize - off
		if int(n) > len(b) {
			n = uint32(len(b))
		}
		if f := as.getPage(pn, false); f != nil {
			copy(b[:n], f[off:off+n])
		} else {
			clear(b[:n])
		}
		b = b[n:]
		addr += n
	}
	return nil
}

// WriteAt copies b into the space at addr, allocating and dirtying pages.
func (as *AddressSpace) WriteAt(addr uint32, b []byte) error {
	if err := as.check(addr, len(b)); err != nil {
		return err
	}
	for len(b) > 0 {
		pn := PageNo(addr / PageSize)
		off := addr % PageSize
		n := PageSize - off
		if int(n) > len(b) {
			n = uint32(len(b))
		}
		copy(as.getPage(pn, true)[off:off+n], b[:n])
		as.MarkPageDirty(pn)
		b = b[n:]
		addr += n
	}
	return nil
}

// Byte and word helpers for the VVM (little-endian 32-bit).

// ReadByteAt reads the byte at addr.
func (as *AddressSpace) ReadByteAt(addr uint32) (byte, error) {
	if err := as.check(addr, 1); err != nil {
		return 0, err
	}
	if f := as.getPage(PageNo(addr/PageSize), false); f != nil {
		return f[addr%PageSize], nil
	}
	return 0, nil
}

// ReadWord reads the 32-bit word at addr: from its page directly when it
// lies in one.
func (as *AddressSpace) ReadWord(addr uint32) (uint32, error) {
	if off := addr % PageSize; off <= PageSize-4 {
		if err := as.check(addr, 4); err != nil {
			return 0, err
		}
		if f := as.getPage(PageNo(addr/PageSize), false); f != nil {
			return binary.LittleEndian.Uint32(f[off:]), nil
		}
		return 0, nil
	}
	var b [4]byte
	if err := as.ReadAt(addr, b[:]); err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// WriteWord writes the 32-bit word at addr.
func (as *AddressSpace) WriteWord(addr uint32, v uint32) error {
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	return as.WriteAt(addr, b[:])
}

// Touch dirties the page containing addr without changing its contents
// (used by workload models that only need the dirty-bit side effect).
func (as *AddressSpace) Touch(addr uint32) error {
	if err := as.check(addr, 1); err != nil {
		return err
	}
	pn := PageNo(addr / PageSize)
	as.getPage(pn, true)
	as.MarkPageDirty(pn)
	return nil
}

// DirtyCount returns the number of dirty pages.
func (as *AddressSpace) DirtyCount() int {
	n := 0
	for _, c := range as.table {
		if c != nil {
			n += bits.OnesCount64(c.dirty)
		}
	}
	return n
}

// SnapshotDirty returns the sorted dirty page list and clears all dirty
// bits, beginning a new tracking interval (one pre-copy round).
func (as *AddressSpace) SnapshotDirty() []PageNo { return as.AppendSnapshotDirty(nil) }

// AppendSnapshotDirty is SnapshotDirty appending to dst, as the copy loop
// keeps one buffer for its rounds.
func (as *AddressSpace) AppendSnapshotDirty(dst []PageNo) []PageNo {
	for ci, c := range as.table {
		if c == nil {
			continue
		}
		for w := c.dirty; w != 0; w &= w - 1 {
			dst = append(dst, PageNo(ci*chunkPages+bits.TrailingZeros64(w)))
		}
		c.dirty = 0
	}
	return dst
}

// ClearDirty clears all dirty bits without reporting them.
func (as *AddressSpace) ClearDirty() {
	for _, c := range as.table {
		if c != nil {
			c.dirty = 0
		}
	}
}

// AppendAllPages appends the numbers of the allocated pages to dst, in
// ascending order.
func (as *AddressSpace) AppendAllPages(dst []PageNo) []PageNo {
	for ci, c := range as.table {
		if c == nil {
			continue
		}
		for i, f := range c.frames {
			if f != nil {
				dst = append(dst, PageNo(ci*chunkPages+i))
			}
		}
	}
	return dst
}

// Page returns a copy of the page's contents (zeros if unallocated; a
// demand-paging handler is consulted for non-present pages).
func (as *AddressSpace) Page(pn PageNo) []byte {
	b := make([]byte, PageSize)
	if f := as.getPage(pn, false); f != nil {
		copy(b, f[:])
	}
	return b
}

// zeroPage is the canonical all-zero page. PageView and DecodePageRun
// hand it out for absent or elided pages; callers must treat views as
// read-only (InstallPage and the file server both copy before storing).
var zeroPage = make([]byte, PageSize)

// ZeroPage returns the shared read-only all-zero page.
func ZeroPage() []byte { return zeroPage }

// PageView returns the page's live contents without copying (the shared
// zero page if unallocated). The view is read-only and valid only until
// the space is next written, dropped from or released — after which the
// frame may be another space's page; the bulk-transfer encoder snapshots
// it into the wire segment immediately, before its task can block.
func (as *AddressSpace) PageView(pn PageNo) []byte {
	if f := as.getPage(pn, false); f != nil {
		return f[:]
	}
	return zeroPage
}

// IsZeroPage reports whether b, at most a page long, is all zero — the
// test behind zero-page elision on the copy wire format.
func IsZeroPage(b []byte) bool { return bytes.Equal(b, zeroPage[:len(b)]) }

// InstallPage overwrites a whole page without setting its dirty bit: this
// is the receive side of a migration copy, where the new copy must start
// with clean dirty bits.
func (as *AddressSpace) InstallPage(pn PageNo, data []byte) error {
	if err := as.check(uint32(pn)*PageSize, PageSize); err != nil {
		return err
	}
	if len(data) != PageSize {
		return fmt.Errorf("mem: InstallPage with %d bytes", len(data))
	}
	copy(as.getPage(pn, true)[:], data)
	as.ClearDirtyPage(pn)
	return nil
}

// Present reports whether the page is materialized (absent pages read as
// zeros, so "absent" and "all-zero page" are observably equivalent until
// a demand-paging handler is installed).
func (as *AddressSpace) Present(pn PageNo) bool {
	return as.frame(pn) != nil
}

// InstallPageIfAbsent installs a page only when the destination does not
// already hold it — the receive side of a post-copy push-out, which races
// demand pulls and the running guest's own writes (first writer wins,
// never double-apply). All-zero installs are skipped outright: an absent
// page already reads as zeros, and allocating it would only burn memory.
// It reports whether the page was installed.
func (as *AddressSpace) InstallPageIfAbsent(pn PageNo, data []byte) (bool, error) {
	if err := as.check(uint32(pn)*PageSize, PageSize); err != nil {
		return false, err
	}
	if len(data) != PageSize {
		return false, fmt.Errorf("mem: InstallPageIfAbsent with %d bytes", len(data))
	}
	if as.frame(pn) != nil || IsZeroPage(data) {
		return false, nil
	}
	as.newPage(pn, data)
	return true, nil
}

// Drop discards a page, reverting it to the not-present state (a
// subsequent access faults it back in, or reads zeros), and hands its
// frame back. The hybrid migration policy uses this to invalidate stale
// pre-copied pages on the destination at freeze time.
func (as *AddressSpace) Drop(pn PageNo) {
	c, i := as.slot(pn)
	if c == nil || c.frames[i] == nil {
		return
	}
	f := c.frames[i]
	if f == as.last {
		as.last = nil
	}
	c.frames[i] = nil
	c.dirty &^= 1 << i
	as.present--
	as.free(f)
}

// Release empties the space and hands every page frame back: the end of
// its logical host. A space someone still holds afterwards reads as zeros
// and may be written again; a PageView taken before is dead.
func (as *AddressSpace) Release() {
	as.last = nil
	for ci, c := range as.table {
		if c == nil {
			continue
		}
		for _, f := range c.frames {
			if f != nil {
				as.free(f)
			}
		}
		as.table[ci] = nil
	}
	as.present = 0
}

// MarkPageDirty sets an allocated page's dirty bit (a no-op for absent
// pages). The post-copy source marks its frozen residue dirty at swap
// time and uses the bits as not-yet-delivered markers.
func (as *AddressSpace) MarkPageDirty(pn PageNo) {
	if c, i := as.slot(pn); c != nil && c.frames[i] != nil {
		c.dirty |= 1 << i
	}
}

// ClearDirtyPage clears one page's dirty bit (a no-op for absent pages).
func (as *AddressSpace) ClearDirtyPage(pn PageNo) {
	if c, i := as.slot(pn); c != nil {
		c.dirty &^= 1 << i
	}
}

// PageDirty reports one page's dirty bit (false for absent pages).
func (as *AddressSpace) PageDirty(pn PageNo) bool {
	c, i := as.slot(pn)
	return c != nil && c.dirty&(1<<i) != 0
}

// Equal reports whether two spaces have identical sizes and contents
// (unallocated pages compare equal to zero pages). Used by migration
// transparency tests.
func (as *AddressSpace) Equal(other *AddressSpace) bool {
	if as.limit != other.limit {
		return false
	}
	for ci := range as.table {
		for i := 0; i < chunkPages; i++ {
			pn := PageNo(ci*chunkPages + i)
			if (as.frame(pn) != nil || other.frame(pn) != nil) && !bytes.Equal(as.PageView(pn), other.PageView(pn)) {
				return false
			}
		}
	}
	return true
}
