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
	"slices"

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
type AddressSpace struct {
	ID    uint32 // space identifier within its logical host
	limit uint32 // size in bytes; accesses beyond limit fault
	pages map[PageNo]*page
	// last is the present page getPage found last, and lastPN its number:
	// a run of accesses to one page (an interpreter fetching its code)
	// looks it up once. Drop and Release clear it before its frame can go
	// back to the list; an absent page is never held.
	last   *page
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

// FaultFunc resolves a missing page's contents.
type FaultFunc func(pn PageNo) []byte

// SetFault installs (or clears) the demand-paging handler.
func (as *AddressSpace) SetFault(f FaultFunc) { as.fault = f }

type page struct {
	data  []byte
	dirty bool
}

// NewAddressSpace creates a space of the given size in bytes (rounded up to
// a whole number of pages) whose page frames come from a list of its own,
// which can never hold more than the space has pages.
func NewAddressSpace(id uint32, size uint32) *AddressSpace {
	pages := (uint64(size) + PageSize - 1) / PageSize
	return NewAddressSpaceOn(freelist.New(PageSize, int(pages)), id, size)
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
	return &AddressSpace{ID: id, limit: size, pages: make(map[PageNo]*page), frames: frames}
}

// Size returns the space's limit in bytes.
func (as *AddressSpace) Size() uint32 { return as.limit }

// Allocated returns the number of bytes in allocated pages.
func (as *AddressSpace) Allocated() uint32 { return uint32(len(as.pages)) * PageSize }

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

func (as *AddressSpace) getPage(pn PageNo, alloc bool) *page {
	if p := as.last; p != nil && as.lastPN == pn {
		return p
	}
	return as.lookup(pn, alloc)
}

// lookup is getPage past the held page, kept apart so that getPage inlines.
func (as *AddressSpace) lookup(pn PageNo, alloc bool) *page {
	p := as.pages[pn]
	switch {
	case p == nil && as.fault != nil:
		as.inFault++
		data := as.fault(pn) // a task killed in here unwinds past the next line
		as.inFault--
		// The handler blocks the faulting task; a racing installer (the
		// post-copy source's background push-out) may have materialized the
		// page meanwhile. First writer wins: prefer the installed page and
		// drop the fetched copy, never overwrite.
		if p = as.pages[pn]; p == nil {
			p = as.newPage(pn, data)
		}
	case p == nil && alloc:
		p = as.newPage(pn, nil)
	case p == nil:
		return nil
	}
	as.last, as.lastPN = p, pn
	return p
}

// newPage materializes page pn holding data, zero from where data ends. The
// frame may have been another page before, of this space or of one long
// destroyed: every byte of it is written here.
func (as *AddressSpace) newPage(pn PageNo, data []byte) *page {
	p := &page{data: as.frames.Get()[:PageSize]}
	clear(p.data[copy(p.data, data):])
	as.pages[pn] = p
	return p
}

// free hands a page's frame back, unless a task inside the fault handler
// may still be looking at it.
func (as *AddressSpace) free(p *page) {
	if as.inFault == 0 {
		as.frames.Put(p.data)
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
		if p := as.getPage(pn, false); p != nil {
			copy(b[:n], p.data[off:off+n])
		} else {
			for i := uint32(0); i < n; i++ {
				b[i] = 0
			}
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
		p := as.getPage(pn, true)
		copy(p.data[off:off+n], b[:n])
		p.dirty = true
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
	if p := as.getPage(PageNo(addr/PageSize), false); p != nil {
		return p.data[addr%PageSize], nil
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
		if p := as.getPage(PageNo(addr/PageSize), false); p != nil {
			return binary.LittleEndian.Uint32(p.data[off:]), nil
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
	as.getPage(PageNo(addr/PageSize), true).dirty = true
	return nil
}

// DirtyPages returns the sorted list of dirty page numbers.
func (as *AddressSpace) DirtyPages() []PageNo {
	var out []PageNo
	for pn, p := range as.pages {
		if p.dirty {
			out = append(out, pn)
		}
	}
	slices.Sort(out)
	return out
}

// DirtyCount returns the number of dirty pages.
func (as *AddressSpace) DirtyCount() int {
	n := 0
	for _, p := range as.pages {
		if p.dirty {
			n++
		}
	}
	return n
}

// SnapshotDirty returns the sorted dirty page list and clears all dirty
// bits, beginning a new tracking interval (one pre-copy round).
func (as *AddressSpace) SnapshotDirty() []PageNo {
	out := as.DirtyPages()
	for _, pn := range out {
		as.pages[pn].dirty = false
	}
	return out
}

// ClearDirty clears all dirty bits without reporting them.
func (as *AddressSpace) ClearDirty() {
	for _, p := range as.pages {
		p.dirty = false
	}
}

// AllPages returns the sorted list of allocated page numbers.
func (as *AddressSpace) AllPages() []PageNo {
	out := make([]PageNo, 0, len(as.pages))
	for pn := range as.pages {
		out = append(out, pn)
	}
	slices.Sort(out)
	return out
}

// Page returns a copy of the page's contents (zeros if unallocated; a
// demand-paging handler is consulted for non-present pages).
func (as *AddressSpace) Page(pn PageNo) []byte {
	b := make([]byte, PageSize)
	if p := as.getPage(pn, false); p != nil {
		copy(b, p.data)
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
	if p := as.getPage(pn, false); p != nil {
		return p.data
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
	p := as.getPage(pn, true)
	copy(p.data, data)
	p.dirty = false
	return nil
}

// Present reports whether the page is materialized (absent pages read as
// zeros, so "absent" and "all-zero page" are observably equivalent until
// a demand-paging handler is installed).
func (as *AddressSpace) Present(pn PageNo) bool {
	_, ok := as.pages[pn]
	return ok
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
	if _, present := as.pages[pn]; present || IsZeroPage(data) {
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
	if p := as.pages[pn]; p != nil {
		if p == as.last {
			as.last = nil
		}
		delete(as.pages, pn)
		as.free(p)
	}
}

// Release empties the space and hands every page frame back: the end of
// its logical host. A space someone still holds afterwards reads as zeros
// and may be written again; a PageView taken before is dead.
func (as *AddressSpace) Release() {
	as.last = nil
	for _, p := range as.pages {
		as.free(p)
	}
	clear(as.pages)
}

// MarkPageDirty sets an allocated page's dirty bit (a no-op for absent
// pages). The post-copy source marks its frozen residue dirty at swap
// time and uses the bits as not-yet-delivered markers.
func (as *AddressSpace) MarkPageDirty(pn PageNo) {
	if p := as.pages[pn]; p != nil {
		p.dirty = true
	}
}

// ClearDirtyPage clears one page's dirty bit (a no-op for absent pages).
func (as *AddressSpace) ClearDirtyPage(pn PageNo) {
	if p := as.pages[pn]; p != nil {
		p.dirty = false
	}
}

// PageDirty reports one page's dirty bit (false for absent pages).
func (as *AddressSpace) PageDirty(pn PageNo) bool {
	p := as.pages[pn]
	return p != nil && p.dirty
}

// Equal reports whether two spaces have identical sizes and contents
// (unallocated pages compare equal to zero pages). Used by migration
// transparency tests.
func (as *AddressSpace) Equal(other *AddressSpace) bool {
	if as.limit != other.limit {
		return false
	}
	seen := make(map[PageNo]bool)
	for pn := range as.pages {
		seen[pn] = true
	}
	for pn := range other.pages {
		seen[pn] = true
	}
	for pn := range seen {
		a, b := as.Page(pn), other.Page(pn)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}
