package mem

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// TestAddressSpaceDifferential drives a space on a poisoned frame list and
// a reference — the present pages as plain arrays in a map, with a set of
// dirty pages — through the same seeded stream of byte, word and segment
// reads and writes (words and segments crossing page and chunk
// boundaries, addresses past the limit), Touch, Drop, the drop of every
// page of a chunk, Release followed by a write, InstallPage,
// InstallPageIfAbsent, dirty snapshots and page lists, and a fault
// handler switched on and off that supplies a page's contents on its
// first access. Every read, every error, every page list, every page's
// presence and every fault the handler takes must agree at every step.
// The space spans two chunks and part of a third. It holds the page it
// looked up last, so the stream keeps returning to a few pages on either
// side of each chunk boundary: it drops and releases the held page and
// reads it again, installs a page the handler would have faulted in, and
// writes the page it is reading, as a program that modifies its own code
// does. Two rules ride on the comparison: a page that is absent under a
// handler is faulted in on every first access, never remembered as absent,
// and a write needs no invalidation, as it goes to the held page's own
// frame.
func TestAddressSpaceDifferential(t *testing.T) {
	const pages = 2*chunkPages + 6
	const ops = 60_000
	rng := rand.New(rand.NewSource(20261018))
	frames := poisonedFrames()
	as := NewAddressSpaceOn(frames, 1, pages*PageSize)
	ref := map[PageNo]*[PageSize]byte{}
	dirty := map[PageNo]bool{}
	limit := uint32(pages * PageSize)

	// The handler's contents for page pn at its k-th fault.
	faults, refFaults := 0, 0
	content := func(pn PageNo, k int) []byte {
		b := make([]byte, PageSize)
		for i := range b {
			b[i] = byte(int(pn)*31 + k*7 + i)
		}
		return b
	}
	handler := func(pn PageNo) []byte {
		faults++
		return content(pn, faults)
	}
	faulting := false

	// refPage is the reference's page pn as an access finds it: faulted in
	// when absent under the handler, else nil when absent (and alloc false).
	refPage := func(pn PageNo, alloc bool) *[PageSize]byte {
		if p := ref[pn]; p != nil {
			return p
		}
		switch {
		case faulting:
			refFaults++
			p := new([PageSize]byte)
			copy(p[:], content(pn, refFaults))
			ref[pn] = p
			return p
		case alloc:
			p := new([PageSize]byte)
			ref[pn] = p
			return p
		}
		return nil
	}
	refRead := func(addr uint32, b []byte) bool {
		if uint64(addr)+uint64(len(b)) > uint64(limit) {
			return false
		}
		for i := range b {
			a := addr + uint32(i)
			if a%PageSize == 0 || i == 0 {
				// one lookup per page touched, as the space makes
				refPage(PageNo(a/PageSize), false)
			}
			if p := ref[PageNo(a/PageSize)]; p != nil {
				b[i] = p[a%PageSize]
			} else {
				b[i] = 0
			}
		}
		return true
	}
	refWrite := func(addr uint32, b []byte) bool {
		if uint64(addr)+uint64(len(b)) > uint64(limit) {
			return false
		}
		for i, v := range b {
			a := addr + uint32(i)
			refPage(PageNo(a/PageSize), true)[a%PageSize] = v
			dirty[PageNo(a/PageSize)] = true
		}
		return true
	}
	refDrop := func(pn PageNo) {
		delete(ref, pn)
		delete(dirty, pn)
	}
	sorted := func(m map[PageNo]bool) []PageNo {
		var out []PageNo
		for pn := range m {
			out = append(out, pn)
		}
		slices.Sort(out)
		return out
	}

	// hot is the page the stream keeps returning to: one of a few on
	// either side of each chunk boundary.
	near := []PageNo{0, 1, chunkPages - 1, chunkPages, chunkPages + 1, 2*chunkPages - 1, 2 * chunkPages, pages - 1}
	hot := PageNo(0)
	addrIn := func() uint32 {
		pn := hot
		if rng.Intn(4) == 0 {
			pn = PageNo(rng.Intn(pages))
		}
		switch rng.Intn(8) {
		case 0:
			return uint32(pn)*PageSize + PageSize - uint32(1+rng.Intn(3)) // straddles the next page
		case 1:
			return limit - uint32(rng.Intn(6)) // at the limit, or past it
		}
		return uint32(pn)*PageSize + uint32(rng.Intn(PageSize))
	}

	for i := 0; i < ops; i++ {
		if rng.Intn(50) == 0 {
			hot = near[rng.Intn(len(near))]
		}
		switch r := rng.Intn(100); {
		case r < 25:
			addr := addrIn()
			got, err := as.ReadByteAt(addr)
			var want [1]byte
			if ok := refRead(addr, want[:]); ok != (err == nil) || ok && got != want[0] {
				t.Fatalf("op %d: ReadByteAt(%#x) = %d, %v; reference %d, ok %v", i, addr, got, err, want[0], ok)
			}
		case r < 45:
			addr := addrIn()
			got, err := as.ReadWord(addr)
			var want [4]byte
			if ok := refRead(addr, want[:]); ok != (err == nil) || ok && got != binary.LittleEndian.Uint32(want[:]) {
				t.Fatalf("op %d: ReadWord(%#x) = %#x, %v; reference %x, ok %v", i, addr, got, err, want, ok)
			}
		case r < 52:
			addr, n := addrIn(), rng.Intn(2*PageSize)
			got, want := make([]byte, n), make([]byte, n)
			err := as.ReadAt(addr, got)
			if ok := refRead(addr, want); ok != (err == nil) || ok && string(got) != string(want) {
				t.Fatalf("op %d: ReadAt(%#x, %d): %v, reference ok %v, contents differ: %v", i, addr, n, err, ok, string(got) != string(want))
			}
		case r < 64:
			addr, v := addrIn(), rng.Uint32()
			err := as.WriteWord(addr, v)
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], v)
			if ok := refWrite(addr, b[:]); ok != (err == nil) {
				t.Fatalf("op %d: WriteWord(%#x): %v, reference ok %v", i, addr, err, ok)
			}
		case r < 70:
			addr, n := addrIn(), rng.Intn(PageSize+PageSize/2)
			b := make([]byte, n)
			rng.Read(b)
			err := as.WriteAt(addr, b)
			if ok := refWrite(addr, b); ok != (err == nil) {
				t.Fatalf("op %d: WriteAt(%#x, %d): %v, reference ok %v", i, addr, n, err, ok)
			}
		case r < 72:
			addr := addrIn()
			err := as.Touch(addr)
			ok := addr < limit
			if ok != (err == nil) {
				t.Fatalf("op %d: Touch(%#x): %v, reference ok %v", i, addr, err, ok)
			}
			if ok {
				refPage(PageNo(addr/PageSize), true)
				dirty[PageNo(addr/PageSize)] = true
			}
		case r < 77:
			as.Drop(hot)
			refDrop(hot)
		case r < 78:
			// Every page of hot's chunk: its last present page goes too.
			first := hot / chunkPages * chunkPages
			for pn := first; pn < first+chunkPages && pn < pages; pn++ {
				as.Drop(pn)
				refDrop(pn)
			}
		case r < 80:
			as.Release()
			clear(ref)
			clear(dirty)
			addr, v := addrIn(), rng.Uint32()
			err := as.WriteWord(addr, v)
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], v)
			if ok := refWrite(addr, b[:]); ok != (err == nil) {
				t.Fatalf("op %d: WriteWord(%#x) after Release: %v, reference ok %v", i, addr, err, ok)
			}
		case r < 85:
			pn, b := hot, make([]byte, PageSize)
			rng.Read(b)
			if err := as.InstallPage(pn, b); err != nil {
				t.Fatalf("op %d: InstallPage(%d): %v", i, pn, err)
			}
			copy(refPage(pn, true)[:], b) // an absent page under the handler faults first
			delete(dirty, pn)
		case r < 90:
			pn, b := hot, make([]byte, PageSize)
			if rng.Intn(4) > 0 {
				rng.Read(b)
			}
			got, err := as.InstallPageIfAbsent(pn, b)
			want := ref[pn] == nil && !IsZeroPage(b)
			if err != nil || got != want {
				t.Fatalf("op %d: InstallPageIfAbsent(%d) = %v, %v; reference %v", i, pn, got, err, want)
			}
			if want {
				p := new([PageSize]byte)
				copy(p[:], b)
				ref[pn] = p
			}
		case r < 93:
			present := map[PageNo]bool{}
			for pn := range ref {
				present[pn] = true
			}
			if got, want := as.AppendAllPages(nil), sorted(present); !slices.Equal(got, want) {
				t.Fatalf("op %d: AppendAllPages = %v, reference %v", i, got, want)
			}
			if got, want := as.DirtyCount(), len(dirty); got != want {
				t.Fatalf("op %d: DirtyCount = %d, reference %d", i, got, want)
			}
			if rng.Intn(2) == 0 {
				if got, want := as.AppendSnapshotDirty([]PageNo{7}), append([]PageNo{7}, sorted(dirty)...); !slices.Equal(got, want) {
					t.Fatalf("op %d: AppendSnapshotDirty = %v, reference %v", i, got, want)
				}
				clear(dirty)
			}
		default:
			if faulting = !faulting; faulting {
				as.SetFault(handler)
			} else {
				as.SetFault(nil)
			}
		}
		if faults != refFaults {
			t.Fatalf("op %d: the handler took %d faults, the reference %d", i, faults, refFaults)
		}
		for pn := PageNo(0); pn < pages; pn++ {
			if as.Present(pn) != (ref[pn] != nil) || as.PageDirty(pn) != dirty[pn] {
				t.Fatalf("op %d: page %d present %v dirty %v, reference %v %v", i, pn, as.Present(pn), as.PageDirty(pn), ref[pn] != nil, dirty[pn])
			}
		}
		if as.Allocated() != uint32(len(ref))*PageSize {
			t.Fatalf("op %d: %d bytes allocated, reference %d pages", i, as.Allocated(), len(ref))
		}
	}
	if faults < 500 {
		t.Fatalf("only %d faults taken", faults)
	}
}
