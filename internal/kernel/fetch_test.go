package kernel

import (
	"bytes"
	"testing"
	"time"

	"vsystem/internal/mem"
	"vsystem/internal/vid"
)

// TestFetchPageServesRunIdempotently exercises the post-copy remote-fault
// op end to end: a destination-side process pulls a page run from a frozen
// source receptacle, delivery markers (dirty bits) clear as pages are
// served, and a duplicate request — a retransmission or an out-of-order
// arrival — re-serves byte-identical contents.
func TestFetchPageServesRunIdempotently(t *testing.T) {
	c := newCluster(2, 7)
	a, b := c.hosts[0], c.hosts[1]

	lh, _ := b.CreateLH("receptacle", true)
	as, err := lh.CreateSpace(64 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[mem.PageNo][]byte)
	pages := []mem.PageNo{0, 3, 7}
	for _, pn := range pages {
		data := make([]byte, mem.PageSize)
		for j := range data {
			data[j] = byte(int(pn) + j)
		}
		if err := as.InstallPage(pn, data); err != nil {
			t.Fatal(err)
		}
		as.MarkPageDirty(pn) // not-yet-delivered marker
		want[pn] = data
	}
	b.Freeze(lh) // a receptacle is frozen; KsFetchPage must pass the gate

	fetch := func(ctx *ProcCtx) (vid.Message, error) {
		return ctx.Send(KernelServerPID(b.SystemLH().ID()), vid.Message{
			Op:  KsFetchPage,
			W:   [6]uint32{uint32(lh.ID())},
			Seg: AppendFetchReq(nil, as.ID, pages),
		})
	}
	var first, dup vid.Message
	var err1, err2 error
	a.SpawnServer("fetcher", 4096, func(ctx *ProcCtx) {
		first, err1 = fetch(ctx)
		dup, err2 = fetch(ctx)
	})
	c.sim.RunFor(10 * time.Second)

	for _, m := range []vid.Message{first, dup} {
		if err1 != nil || err2 != nil || !m.OK() {
			t.Fatalf("fetch: %v %v %v", err1, err2, m)
		}
		spaceID, rp, rd, derr := DecodePageRun(m.Seg)
		if derr != nil || spaceID != as.ID {
			t.Fatalf("reply run: space=%d err=%v", spaceID, derr)
		}
		if len(rp) != len(pages) {
			t.Fatalf("reply has %d pages, want %d", len(rp), len(pages))
		}
		for i, pn := range rp {
			if !bytes.Equal(rd[i], want[pn]) {
				t.Fatalf("page %d contents differ", pn)
			}
		}
	}
	if !bytes.Equal(first.Seg, dup.Seg) {
		t.Fatal("duplicate fetch served different bytes from a frozen receptacle")
	}
	for _, pn := range pages {
		if as.PageDirty(pn) {
			t.Fatalf("page %d delivery marker not cleared", pn)
		}
	}
}

// TestFetchPageElidesAbsentPages pins the wire cost of holes: fetching a
// page the receptacle never allocated returns the canonical zero page,
// elided on the wire (no 1 KB body for a page that reads as zeros).
func TestFetchPageElidesAbsentPages(t *testing.T) {
	c := newCluster(2, 9)
	a, b := c.hosts[0], c.hosts[1]

	lh, _ := b.CreateLH("receptacle", true)
	as, err := lh.CreateSpace(64 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	var m vid.Message
	var sendErr error
	a.SpawnServer("fetcher", 4096, func(ctx *ProcCtx) {
		m, sendErr = ctx.Send(KernelServerPID(b.SystemLH().ID()), vid.Message{
			Op:  KsFetchPage,
			W:   [6]uint32{uint32(lh.ID())},
			Seg: AppendFetchReq(nil, as.ID, []mem.PageNo{5, 6}),
		})
	})
	c.sim.RunFor(10 * time.Second)

	if sendErr != nil || !m.OK() {
		t.Fatalf("fetch: %v %v", sendErr, m)
	}
	if want := 8 + 2*4; len(m.Seg) != want {
		t.Fatalf("reply segment %d bytes, want %d (both pages elided)", len(m.Seg), want)
	}
	_, rp, rd, derr := DecodePageRun(m.Seg)
	if derr != nil || len(rp) != 2 {
		t.Fatalf("reply run: %v (%d pages)", derr, len(rp))
	}
	for i := range rp {
		if !mem.IsZeroPage(rd[i]) {
			t.Fatalf("absent page %d decoded non-zero", rp[i])
		}
	}
}

// TestFetchPageRejectsMalformedRequests pins the error surface: unknown
// receptacle, unknown space, and undecodable or oversized requests must
// be refused with typed codes, never served or crashed on.
func TestFetchPageRejectsMalformedRequests(t *testing.T) {
	c := newCluster(2, 11)
	a, b := c.hosts[0], c.hosts[1]

	lh, _ := b.CreateLH("receptacle", true)
	as, err := lh.CreateSpace(64 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	oversize := make([]mem.PageNo, MaxRunPages+1)
	for i := range oversize {
		oversize[i] = mem.PageNo(i)
	}
	cases := []struct {
		name string
		msg  vid.Message
		code uint16
	}{
		{"unknown lh", vid.Message{Op: KsFetchPage, W: [6]uint32{0xBEEF},
			Seg: AppendFetchReq(nil, as.ID, []mem.PageNo{0})}, vid.CodeNotFound},
		{"unknown space", vid.Message{Op: KsFetchPage, W: [6]uint32{uint32(lh.ID())},
			Seg: AppendFetchReq(nil, as.ID+99, []mem.PageNo{0})}, vid.CodeNotFound},
		{"short segment", vid.Message{Op: KsFetchPage, W: [6]uint32{uint32(lh.ID())},
			Seg: []byte{1, 2, 3}}, vid.CodeBadRequest},
		{"empty page list", vid.Message{Op: KsFetchPage, W: [6]uint32{uint32(lh.ID())},
			Seg: AppendFetchReq(nil, as.ID, nil)}, vid.CodeBadRequest},
		{"oversized run", vid.Message{Op: KsFetchPage, W: [6]uint32{uint32(lh.ID())},
			Seg: AppendFetchReq(nil, as.ID, oversize)}, vid.CodeBadRequest},
		{"bad write mode", vid.Message{Op: KsWritePages, W: [6]uint32{uint32(lh.ID()), 99},
			Seg: AppendPageRun(nil, as.ID, []mem.PageNo{0}, [][]byte{mem.ZeroPage()})}, vid.CodeBadRequest},
	}
	replies := make([]vid.Message, len(cases))
	errs := make([]error, len(cases))
	a.SpawnServer("prober", 4096, func(ctx *ProcCtx) {
		for i, tc := range cases {
			replies[i], errs[i] = ctx.Send(KernelServerPID(b.SystemLH().ID()), tc.msg)
		}
	})
	c.sim.RunFor(30 * time.Second)

	for i, tc := range cases {
		if errs[i] != nil {
			t.Fatalf("%s: transport error %v", tc.name, errs[i])
		}
		if replies[i].OK() || replies[i].Code != tc.code {
			t.Fatalf("%s: reply %v, want code %d", tc.name, replies[i], tc.code)
		}
	}
}
