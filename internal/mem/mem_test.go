package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	as := NewAddressSpace(1, 64*1024)
	data := []byte("the quick brown fox")
	if err := as.WriteAt(1000, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.ReadAt(1000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestCrossPageWrite(t *testing.T) {
	as := NewAddressSpace(1, 16*1024)
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i)
	}
	// Start mid-page so the write spans four pages.
	if err := as.WriteAt(PageSize/2, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.ReadAt(PageSize/2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip mismatch")
	}
	if n := as.DirtyCount(); n != 4 {
		t.Fatalf("DirtyCount = %d, want 4", n)
	}
}

func TestUnallocatedReadsZero(t *testing.T) {
	as := NewAddressSpace(1, 8*1024)
	b := []byte{1, 2, 3}
	if err := as.ReadAt(4096, b); err != nil {
		t.Fatal(err)
	}
	for _, v := range b {
		if v != 0 {
			t.Fatal("unallocated page not zero")
		}
	}
	if as.Allocated() != 0 {
		t.Fatal("read allocated a page")
	}
}

func TestFaults(t *testing.T) {
	as := NewAddressSpace(1, 4*1024)
	if err := as.WriteAt(4*1024-1, []byte{1, 2}); err == nil {
		t.Fatal("out-of-bounds write succeeded")
	}
	if err := as.ReadAt(5000, make([]byte, 1)); err == nil {
		t.Fatal("out-of-bounds read succeeded")
	}
	var fe *FaultError
	err := as.WriteAt(1<<30, []byte{1})
	if fe, _ = err.(*FaultError); fe == nil {
		t.Fatalf("err = %v, want FaultError", err)
	}
}

func TestSizeRoundsUpToPage(t *testing.T) {
	as := NewAddressSpace(1, 100)
	if as.Size() != PageSize {
		t.Fatalf("Size = %d, want %d", as.Size(), PageSize)
	}
}

func TestDirtyTracking(t *testing.T) {
	as := NewAddressSpace(1, 64*1024)
	as.WriteAt(0, []byte{1})
	as.WriteAt(5*PageSize, []byte{1})
	d := as.SnapshotDirty()
	if len(d) != 2 || d[0] != 0 || d[1] != 5 {
		t.Fatalf("dirty = %v", d)
	}
	// Snapshot cleared the bits; new writes dirty again.
	if as.DirtyCount() != 0 {
		t.Fatal("snapshot did not clear dirty bits")
	}
	as.WriteAt(5*PageSize+10, []byte{2})
	d = as.SnapshotDirty()
	if len(d) != 1 || d[0] != 5 {
		t.Fatalf("second round dirty = %v", d)
	}
}

func TestTouchDirtiesWithoutWriting(t *testing.T) {
	as := NewAddressSpace(1, 8*1024)
	as.WriteAt(0, []byte{42})
	as.ClearDirty()
	as.Touch(0)
	if as.DirtyCount() != 1 {
		t.Fatal("Touch did not dirty")
	}
	b := make([]byte, 1)
	as.ReadAt(0, b)
	if b[0] != 42 {
		t.Fatal("Touch changed contents")
	}
}

func TestInstallPageIsClean(t *testing.T) {
	as := NewAddressSpace(1, 8*1024)
	data := make([]byte, PageSize)
	data[7] = 99
	if err := as.InstallPage(1, data); err != nil {
		t.Fatal(err)
	}
	if as.DirtyCount() != 0 {
		t.Fatal("InstallPage set dirty bit")
	}
	b := make([]byte, 1)
	as.ReadAt(PageSize+7, b)
	if b[0] != 99 {
		t.Fatal("InstallPage contents wrong")
	}
	if err := as.InstallPage(99, data); err == nil {
		t.Fatal("InstallPage beyond limit succeeded")
	}
}

func TestWords(t *testing.T) {
	as := NewAddressSpace(1, 4*1024)
	if err := as.WriteWord(100, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := as.ReadWord(100)
	if err != nil || v != 0xDEADBEEF {
		t.Fatalf("ReadWord = %#x, %v", v, err)
	}
}

func TestEqual(t *testing.T) {
	a := NewAddressSpace(1, 8*1024)
	b := NewAddressSpace(2, 8*1024)
	if !a.Equal(b) {
		t.Fatal("empty spaces not equal")
	}
	a.WriteAt(100, []byte{1})
	if a.Equal(b) {
		t.Fatal("differing spaces equal")
	}
	b.WriteAt(100, []byte{1})
	if !a.Equal(b) {
		t.Fatal("identical spaces not equal")
	}
	// A zero-filled allocated page equals an unallocated page.
	a.WriteAt(4096, []byte{0})
	if !a.Equal(b) {
		t.Fatal("zero page != unallocated page")
	}
	c := NewAddressSpace(3, 16*1024)
	if a.Equal(c) {
		t.Fatal("spaces of different size equal")
	}
}

// Property: for any sequence of writes, reading back each write's range
// returns the last value written there (modeled against a flat reference
// buffer).
func TestQuickWriteReadConsistency(t *testing.T) {
	const size = 32 * 1024
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		as := NewAddressSpace(1, size)
		ref := make([]byte, size)
		for i := 0; i < int(nOps); i++ {
			addr := uint32(rng.Intn(size - 256))
			n := 1 + rng.Intn(255)
			b := make([]byte, n)
			rng.Read(b)
			if err := as.WriteAt(addr, b); err != nil {
				return false
			}
			copy(ref[addr:], b)
		}
		got := make([]byte, size)
		if err := as.ReadAt(0, got); err != nil {
			return false
		}
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: SnapshotDirty exactly reports the pages written since the last
// snapshot.
func TestQuickDirtySnapshotExact(t *testing.T) {
	const size = 64 * 1024
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		as := NewAddressSpace(1, size)
		as.WriteAt(0, make([]byte, size)) // allocate everything
		as.ClearDirty()
		want := make(map[PageNo]bool)
		for i := 0; i < 20; i++ {
			addr := uint32(rng.Intn(size))
			as.WriteAt(addr, []byte{byte(i)})
			want[PageNo(addr/PageSize)] = true
		}
		got := as.SnapshotDirty()
		if len(got) != len(want) {
			return false
		}
		for _, pn := range got {
			if !want[pn] {
				return false
			}
		}
		return as.DirtyCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIsZeroPage(t *testing.T) {
	page := func(n, at int) []byte {
		b := make([]byte, n)
		if at >= 0 {
			b[at] = 1
		}
		return b
	}
	for _, c := range []struct {
		b    []byte
		zero bool
	}{
		{nil, true},
		{page(PageSize, -1), true},
		{page(PageSize, 0), false},
		{page(PageSize, PageSize-1), false},
		{page(100, -1), true},
		{page(100, 99), false},
	} {
		if got := IsZeroPage(c.b); got != c.zero {
			t.Errorf("IsZeroPage(%d bytes) = %v, want %v", len(c.b), got, c.zero)
		}
	}
}

// BenchmarkIsZeroPage scans a whole zero page, the longest case: every
// page a copy encodes is tested.
func BenchmarkIsZeroPage(b *testing.B) {
	p := make([]byte, PageSize)
	b.SetBytes(PageSize)
	for i := 0; i < b.N; i++ {
		if !IsZeroPage(p) {
			b.Fatal("not zero")
		}
	}
}
