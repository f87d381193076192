package mem

import (
	"bytes"
	"testing"

	"vsystem/internal/freelist"
)

// poisonedFrames is a cluster's frame list as the core and ipc tests run
// it: whatever comes back is overwritten at once.
func poisonedFrames() *freelist.Bytes {
	sw := freelist.Switch(true)
	return freelist.New(PageSize, 16, &sw)
}

func filled(v byte) []byte { return bytes.Repeat([]byte{v}, PageSize) }

func allPoison(b []byte) bool {
	return bytes.Equal(b, filled(freelist.Poison))
}

// TestReleasedFramesArePoisonedAndReused: a released space's frames go back
// to the list — a view taken before reads poison, not the old page — and
// the next space on the list is made of them.
func TestReleasedFramesArePoisonedAndReused(t *testing.T) {
	frames := poisonedFrames()
	a := NewAddressSpaceOn(frames, 1, 8*PageSize)
	for pn := PageNo(0); pn < 3; pn++ {
		if err := a.InstallPage(pn, filled(byte(pn+1))); err != nil {
			t.Fatal(err)
		}
	}
	view := a.PageView(1)
	released := map[*byte]bool{}
	for pn := PageNo(0); pn < 3; pn++ {
		released[&a.PageView(pn)[0]] = true
	}
	a.Release()
	if frames.Len() != 3 {
		t.Fatalf("Release returned %d frames, want 3", frames.Len())
	}
	if !allPoison(view) {
		t.Fatal("a view of a released page still reads the page")
	}

	b := NewAddressSpaceOn(frames, 2, 8*PageSize)
	if err := b.InstallPage(5, filled(0x55)); err != nil {
		t.Fatal(err)
	}
	if ok, err := b.InstallPageIfAbsent(6, filled(0x66)); !ok || err != nil {
		t.Fatalf("InstallPageIfAbsent: %v %v", ok, err)
	}
	if frames.Len() != 1 {
		t.Fatalf("two pages materialized, list holds %d frames, want 1", frames.Len())
	}
	if !released[&b.PageView(5)[0]] || !released[&b.PageView(6)[0]] || &b.PageView(5)[0] == &b.PageView(6)[0] {
		t.Fatal("the new pages are not made of two of the released frames")
	}
	if !bytes.Equal(b.Page(5), filled(0x55)) || !bytes.Equal(b.Page(6), filled(0x66)) {
		t.Fatal("a page installed into a reused frame reads back wrong")
	}
}

// TestReleaseThenReadAtReadsZeros: a space somebody still holds after its
// logical host is gone is an empty space, not a window onto other spaces'
// pages; it can even be written again.
func TestReleaseThenReadAtReadsZeros(t *testing.T) {
	as := NewAddressSpaceOn(poisonedFrames(), 1, 4*PageSize)
	if err := as.WriteAt(100, []byte("still here")); err != nil {
		t.Fatal(err)
	}
	as.Release()
	got := filled(0xFF)[:64]
	if err := as.ReadAt(90, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) || as.Allocated() != 0 || len(as.AppendAllPages(nil)) != 0 {
		t.Fatalf("released space reads % x, %d bytes allocated", got[:16], as.Allocated())
	}
	if err := as.WriteAt(100, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if err := as.ReadAt(100, got[:5]); err != nil || string(got[:5]) != "again" {
		t.Fatalf("write after release read back %q, %v", got[:5], err)
	}
	as.Release()
	as.Release() // nothing left: nothing returned twice
}

// TestDropReturnsExactlyOneFrame: dropping a present page returns its
// frame; dropping an absent one, or the same one again, returns nothing.
func TestDropReturnsExactlyOneFrame(t *testing.T) {
	frames := poisonedFrames()
	as := NewAddressSpaceOn(frames, 1, 8*PageSize)
	for pn := PageNo(0); pn < 4; pn++ {
		if err := as.InstallPage(pn, filled(byte(pn+1))); err != nil {
			t.Fatal(err)
		}
	}
	as.Drop(2)
	if frames.Len() != 1 || as.Present(2) || as.Allocated() != 3*PageSize {
		t.Fatalf("after Drop: %d frames back, present %v, %d bytes allocated", frames.Len(), as.Present(2), as.Allocated())
	}
	as.Drop(2)
	as.Drop(7)
	if frames.Len() != 1 {
		t.Fatalf("dropping absent pages returned frames: list holds %d", frames.Len())
	}
	for pn := PageNo(0); pn < 4; pn++ {
		want := filled(byte(pn + 1))
		if pn == 2 {
			want = make([]byte, PageSize)
		}
		if !bytes.Equal(as.Page(pn), want) {
			t.Fatalf("page %d changed when page 2 was dropped", pn)
		}
	}
}

// TestBareSpaceRecyclesThroughItsOwnList: a space made without a cluster
// (as bench/micro.go makes one) takes the same path through a list of its
// own, which can hold every page it has and no more.
func TestBareSpaceRecyclesThroughItsOwnList(t *testing.T) {
	as := NewAddressSpace(1, 4*PageSize-100) // rounds up to 4 pages
	if err := as.WriteAt(0, bytes.Repeat([]byte{7}, int(as.Size()))); err != nil {
		t.Fatal(err)
	}
	as.Touch(0)
	if got := as.SnapshotDirty(); len(got) != 4 {
		t.Fatalf("SnapshotDirty: %v", got)
	}
	first := &as.PageView(3)[0]
	as.Drop(3)
	if as.frames.Len() != 1 {
		t.Fatalf("own list holds %d frames after a Drop, want 1", as.frames.Len())
	}
	if err := as.WriteWord(3*PageSize+8, 0xCAFE); err != nil {
		t.Fatal(err)
	}
	if &as.PageView(3)[0] != first {
		t.Fatal("the dropped frame was not reused")
	}
	if w, _ := as.ReadWord(3*PageSize + 8); w != 0xCAFE {
		t.Fatalf("word read back %#x", w)
	}
	if w, _ := as.ReadWord(3*PageSize + 12); w != 0 {
		t.Fatalf("reused frame not cleared: %#x beside the written word", w)
	}
	as.Release()
	if as.frames.Len() != 4 {
		t.Fatalf("own list holds %d frames after Release, want all 4", as.frames.Len())
	}
}

// TestReusedFrameIsZeroUnderPoison: every way a page comes to be — first
// write, Touch, a fault that supplies nothing, a fault that supplies a
// short page — gives a frame whose every byte was written, however much
// poison the frame came back with.
func TestReusedFrameIsZeroUnderPoison(t *testing.T) {
	frames := poisonedFrames()
	old := NewAddressSpaceOn(frames, 1, 8*PageSize)
	for pn := PageNo(0); pn < 6; pn++ {
		old.InstallPage(pn, filled(0xAA))
	}
	old.Release()

	as := NewAddressSpaceOn(frames, 2, 8*PageSize)
	if err := as.WriteAt(PageSize+10, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, PageSize)
	copy(want[10:], []byte{1, 2, 3})
	if !bytes.Equal(as.PageView(1), want) {
		t.Fatal("a page made by a partial write is not zero around the write")
	}
	if err := as.Touch(2 * PageSize); err != nil || !IsZeroPage(as.PageView(2)) {
		t.Fatalf("a touched page is not zero (%v)", err)
	}
	as.SetFault(func(pn PageNo) []byte {
		if pn == 4 {
			return []byte("short")
		}
		return nil
	})
	if !IsZeroPage(as.PageView(3)) {
		t.Fatal("a page the fault handler left empty is not zero")
	}
	want = make([]byte, PageSize)
	copy(want, "short")
	if !bytes.Equal(as.PageView(4), want) {
		t.Fatal("a short page from the fault handler is not zero past its end")
	}
	if frames.Len() != 2 {
		t.Fatalf("four pages made from six frames, list holds %d", frames.Len())
	}
}

// TestNoFrameReturnsWhileATaskIsInTheFaultHandler: a task blocked in the
// handler may hold views of other pages (a gather loop), and one killed
// there never comes back to say it is done. While either is so, Drop and
// Release forget pages without handing their frames to anyone else.
func TestNoFrameReturnsWhileATaskIsInTheFaultHandler(t *testing.T) {
	frames := poisonedFrames()
	as := NewAddressSpaceOn(frames, 1, 8*PageSize)
	as.InstallPage(0, filled(1))
	as.InstallPage(1, filled(2))
	var view []byte
	as.SetFault(func(PageNo) []byte {
		// What another task does while this one is parked here.
		as.Drop(0)
		as.Release()
		return nil
	})
	view = as.PageView(1)
	as.PageView(5) // faults
	if frames.Len() != 0 || !bytes.Equal(view, filled(2)) {
		t.Fatalf("%d frames returned under a task in the fault handler; the view it held reads % x…", frames.Len(), view[:4])
	}

	// A handler left by panic — a killed task unwinding — leaves the count
	// up: the space never returns a frame again.
	as.InstallPage(2, filled(3))
	as.SetFault(func(PageNo) []byte { panic("killed") })
	func() {
		defer func() { recover() }()
		as.PageView(6)
	}()
	as.Release()
	if frames.Len() != 0 {
		t.Fatalf("%d frames returned by a space whose fault handler was never left", frames.Len())
	}
}
