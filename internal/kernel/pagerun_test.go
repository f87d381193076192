package kernel

import (
	"bytes"
	"testing"
	"time"

	"vsystem/internal/mem"
	"vsystem/internal/vid"
	"vsystem/internal/vid/wiretest"
)

// runPages builds a batch of n pages starting at first, where zero[i]
// selects the shared zero page and the rest carry a per-page pattern.
func runPages(first, n int, zero func(i int) bool) ([]mem.PageNo, [][]byte) {
	pages := make([]mem.PageNo, n)
	data := make([][]byte, n)
	for i := 0; i < n; i++ {
		pages[i] = mem.PageNo(first + i)
		if zero(i) {
			data[i] = mem.ZeroPage()
		} else {
			b := make([]byte, mem.PageSize)
			for j := range b {
				b[j] = byte(first + i + j)
			}
			data[i] = b
		}
	}
	return pages, data
}

func TestPageRunZeroElision(t *testing.T) {
	pages, data := runPages(4, 9, func(i int) bool { return i%3 == 0 })
	seg := AppendPageRun(nil, 7, pages, data)
	// 3 of 9 pages are zero: their bodies must be elided from the wire.
	want := 8 + 9*4 + 6*mem.PageSize
	if len(seg) != want {
		t.Fatalf("encoded %d bytes, want %d", len(seg), want)
	}
	space, gotPages, gotData, err := DecodePageRun(seg)
	if err != nil {
		t.Fatal(err)
	}
	if space != 7 || len(gotPages) != 9 {
		t.Fatalf("decoded space %d, %d pages", space, len(gotPages))
	}
	for i := range pages {
		if gotPages[i] != pages[i] {
			t.Fatalf("page %d decoded as %d, want %d", i, gotPages[i], pages[i])
		}
		if !bytes.Equal(gotData[i], data[i]) {
			t.Fatalf("page %d contents differ", pages[i])
		}
	}
}

func TestPageRunAllZeroCollapses(t *testing.T) {
	pages, data := runPages(0, MaxRunPages, func(int) bool { return true })
	seg := AppendPageRun(nil, 1, pages, data)
	if want := 8 + MaxRunPages*4; len(seg) != want {
		t.Fatalf("all-zero run encoded %d bytes, want %d", len(seg), want)
	}
	_, _, gotData, err := DecodePageRun(seg)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range gotData {
		if !mem.IsZeroPage(d) {
			t.Fatalf("page %d not zero after decode", i)
		}
	}
}

// pageRun is a page run as a value, for the shared wire-form checks.
type pageRun struct {
	Space uint32
	Pages []mem.PageNo
	Data  [][]byte
}

var pageRunForm = wiretest.Form[pageRun]{
	Encode: func(r *pageRun) []byte { return AppendPageRun(nil, r.Space, r.Pages, r.Data) },
	Decode: func(seg []byte) (*pageRun, error) {
		space, pages, data, err := DecodePageRun(seg)
		return &pageRun{space, pages, data}, err
	},
}

func TestPageRunEncodeDecode(t *testing.T) {
	scattered := &pageRun{Space: 9, Pages: []mem.PageNo{3, 7, 100}, Data: make([][]byte, 3)}
	for i := range scattered.Data {
		scattered.Data[i] = make([]byte, mem.PageSize)
		scattered.Data[i][0] = byte(i + 1)
	}
	pageRunForm.Malformed(t, pageRunForm.RoundTrip(t, scattered)) // every truncation; a trailing byte
	pageRunForm.Malformed(t, pageRunForm.RoundTrip(t, &pageRun{Space: 1, Pages: []mem.PageNo{}, Data: [][]byte{}}))
}

func TestDecodePageRunRejectsMalformed(t *testing.T) {
	pages, data := runPages(0, 4, func(i int) bool { return i%2 == 0 })
	mixed := pageRunForm.RoundTrip(t, &pageRun{3, pages, data})
	pageRunForm.Malformed(t, mixed)

	count := func(n uint32) []byte {
		var a vid.Appender
		a.U32(1)
		a.U32(n)
		return a.B
	}
	for name, seg := range map[string][]byte{
		"count over max":   count(MaxRunPages + 1),
		"count negative":   count(0x80000000),
		"count beyond seg": append(count(5), mixed[8:]...),
	} {
		if _, _, _, err := DecodePageRun(seg); err == nil {
			t.Errorf("%s: decode accepted malformed run", name)
		}
	}
}

// FuzzDecodePageRun hammers the destination kernel server's run parser
// with arbitrary segments: it must either reject them with an error or
// decode a self-consistent run — never panic, never return data of the
// wrong shape. Valid decodes must re-encode to an equivalent run, not the
// same bytes: the decoder takes an unflagged all-zero body as it comes,
// and the encoder elides it.
func FuzzDecodePageRun(f *testing.F) {
	pages, data := runPages(0, 5, func(i int) bool { return i%2 == 0 })
	f.Add(AppendPageRun(nil, 3, pages, data))
	allZero, zdata := runPages(2, 3, func(int) bool { return true })
	f.Add(AppendPageRun(nil, 9, allZero, zdata))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0})

	f.Fuzz(func(t *testing.T, seg []byte) {
		space, pages, data, err := DecodePageRun(seg)
		if err != nil {
			return
		}
		if len(pages) != len(data) || len(pages) > MaxRunPages {
			t.Fatalf("decoded %d pages, %d data entries", len(pages), len(data))
		}
		for i, d := range data {
			if len(d) != mem.PageSize {
				t.Fatalf("page %d decoded to %d bytes", pages[i], len(d))
			}
		}
		reseg := AppendPageRun(nil, space, pages, data)
		s2, p2, d2, err := DecodePageRun(reseg)
		if err != nil {
			t.Fatalf("re-encoded run rejected: %v", err)
		}
		if s2 != space || len(p2) != len(pages) {
			t.Fatalf("round trip changed shape: space %d→%d, %d→%d pages", space, s2, len(pages), len(p2))
		}
		for i := range pages {
			if p2[i] != pages[i] || !bytes.Equal(d2[i], data[i]) {
				t.Fatalf("round trip changed page %d", pages[i])
			}
		}
	})
}

// TestWritePagesOutOfOrderAndDuplicate is the correctness audit behind the
// pipelined copy path: runs are self-describing, so the destination must
// produce identical memory whatever order they arrive in, and a
// retransmitted run applied twice must be idempotent.
func TestWritePagesOutOfOrderAndDuplicate(t *testing.T) {
	c := newCluster(2, 7)
	a, b := c.hosts[0], c.hosts[1]
	dstKS := KernelServerPID(b.SystemLH().ID())

	const nPages = 8
	var pushErr error
	var lhid uint32
	var spaceID uint32
	a.SpawnServer("pusher", 8192, func(ctx *ProcCtx) {
		m, err := ctx.Send(dstKS, vid.Message{Op: KsCreateLH, W: [6]uint32{1}, Seg: []byte("sink")})
		if err != nil || !m.OK() {
			pushErr = err
			return
		}
		lhid = m.W[0]
		m, err = ctx.Send(dstKS, vid.Message{Op: KsCreateSpace, W: [6]uint32{lhid, nPages * mem.PageSize}})
		if err != nil || !m.OK() {
			pushErr = err
			return
		}
		spaceID = m.W[0]

		send := func(first, n int) error {
			pages, data := runPages(first, n, func(i int) bool { return (first+i)%2 == 0 })
			m, err := ctx.Send(dstKS, vid.Message{
				Op: KsWritePages, W: [6]uint32{lhid},
				Seg: AppendPageRun(nil, spaceID, pages, data),
			})
			if err != nil {
				return err
			}
			return m.Err()
		}
		// Out of order: the tail of the space lands before the head.
		if pushErr = send(4, 4); pushErr != nil {
			return
		}
		if pushErr = send(0, 4); pushErr != nil {
			return
		}
		// Duplicate: the tail run is retransmitted and applied again.
		pushErr = send(4, 4)
	})
	c.sim.RunFor(10 * time.Second)
	if pushErr != nil {
		t.Fatalf("push: %v", pushErr)
	}

	lh, ok := b.LookupLH(vid.LHID(lhid))
	if !ok {
		t.Fatal("sink LH missing")
	}
	as, ok := lh.Space(spaceID)
	if !ok {
		t.Fatal("sink space missing")
	}
	wantPages, wantData := runPages(0, nPages, func(i int) bool { return i%2 == 0 })
	for i, pn := range wantPages {
		if got := as.Page(pn); !bytes.Equal(got, wantData[i]) {
			t.Fatalf("page %d differs after out-of-order + duplicate runs", pn)
		}
	}
	if as.DirtyCount() != 0 {
		t.Fatalf("%d dirty pages after install; InstallPage must leave clean bits", as.DirtyCount())
	}
}

func benchRun(zero func(i int) bool) ([]mem.PageNo, [][]byte) {
	return runPages(0, MaxRunPages, zero)
}

func BenchmarkEncodePageRun(b *testing.B) {
	pages, data := benchRun(func(i int) bool { return i%4 == 0 })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AppendPageRun(nil, 1, pages, data)
	}
}

func BenchmarkEncodePageRunAllZero(b *testing.B) {
	pages, data := benchRun(func(int) bool { return true })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AppendPageRun(nil, 1, pages, data)
	}
}

func BenchmarkDecodePageRun(b *testing.B) {
	pages, data := benchRun(func(i int) bool { return i%4 == 0 })
	seg := AppendPageRun(nil, 1, pages, data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := DecodePageRun(seg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePageRunAllZero(b *testing.B) {
	pages, data := benchRun(func(int) bool { return true })
	seg := AppendPageRun(nil, 1, pages, data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := DecodePageRun(seg); err != nil {
			b.Fatal(err)
		}
	}
}
