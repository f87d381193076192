package kernel

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"vsystem/internal/mem"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// TestSteadyWritePagesAllocatesNoBuffers: once the free lists hold what one
// round trip needs, a 30-page KsWritePages run — encoded into the window's
// buffer, 31 fragments and a summary across the bus, reassembled, installed
// over pages that exist, answered — costs the two hosts together a few
// kilobytes of small objects (the bookkeeping of one reassembly and one
// transaction, a wake-up per frame sent; 5.4 KB measured). A decoded packet
// per frame would add 6 KB; a buffer per segment, per frame or per page, at
// either end, 30 KB or more each.
func TestSteadyWritePagesAllocatesNoBuffers(t *testing.T) {
	c := newCluster(2, 7)
	t.Cleanup(c.sim.Shutdown)
	a, b := c.hosts[0], c.hosts[1]
	dstKS := KernelServerPID(b.SystemLH().ID())
	pages, data := runPages(0, MaxRunPages, func(int) bool { return false })

	var next sim.WaitQ
	var pushErr error
	trips := 0
	a.SpawnServer("pusher", 8192, func(ctx *ProcCtx) {
		m, err := ctx.Send(dstKS, vid.Message{Op: KsCreateLH, W: [6]uint32{1}, Seg: []byte("sink")})
		if err == nil && m.OK() {
			lhid := m.W[0]
			m, err = ctx.Send(dstKS, vid.Message{Op: KsCreateSpace, W: [6]uint32{lhid, MaxRunPages * mem.PageSize}})
			win := a.IPC.NewWindow(a.SystemLH().ID(), params.CopyWindow)
			for err == nil && m.OK() {
				seg := AppendPageRun(win.SegBuf(), m.W[0], pages, data)
				if err = win.Send(ctx.Task(), dstKS, vid.Message{Op: KsWritePages, W: [6]uint32{lhid}, Seg: seg}); err == nil {
					err = win.Drain(ctx.Task())
				}
				trips++
				next.Wait(ctx.Task())
			}
		}
		if pushErr = err; err == nil {
			pushErr = m.Err()
		}
	})
	trip := func() {
		next.WakeOne()
		c.sim.RunFor(200 * time.Millisecond)
	}
	c.sim.RunFor(time.Second) // set-up and the first trip: the lists fill, the pages materialize
	trip()

	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		trip()
	}
	runtime.ReadMemStats(&after)
	if pushErr != nil || trips != n+2 {
		t.Fatalf("%d round trips, want %d; error %v", trips, n+2, pushErr)
	}
	perTrip := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes allocated per round trip", perTrip)
	if perTrip > 8<<10 {
		t.Fatalf("%d bytes allocated per steady round trip: some buffer of the copy path is not being reused", perTrip)
	}
}

// TestReadPagesServesRange: KsReadPages answers a (first, count) range with
// a run of exactly those pages — written ones with their bytes, untouched
// ones elided, none materialized by the read — sized by what it carries,
// and refuses a range no run can hold.
func TestReadPagesServesRange(t *testing.T) {
	c := newCluster(2, 3)
	t.Cleanup(c.sim.Shutdown)
	a, b := c.hosts[0], c.hosts[1]
	lh, _ := b.CreateLH("debuggee", true)
	as, err := lh.CreateSpace(64 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	want := map[mem.PageNo][]byte{}
	for _, pn := range []mem.PageNo{4, 6} {
		want[pn] = make([]byte, mem.PageSize)
		for j := range want[pn] {
			want[pn][j] = byte(int(pn)*3 + j)
		}
		if err := as.InstallPage(pn, want[pn]); err != nil {
			t.Fatal(err)
		}
	}
	read := func(ctx *ProcCtx, first, count uint32) (vid.Message, error) {
		return ctx.Send(KernelServerPID(b.SystemLH().ID()), vid.Message{
			Op: KsReadPages, W: [6]uint32{uint32(lh.ID()), as.ID, first, count},
		})
	}
	var got, tooMany vid.Message
	var err1, err2 error
	a.SpawnServer("debugger", 4096, func(ctx *ProcCtx) {
		got, err1 = read(ctx, 3, 5)
		tooMany, err2 = read(ctx, 0, MaxRunPages+1)
	})
	c.sim.RunFor(10 * time.Second)
	if err1 != nil || err2 != nil || !got.OK() || tooMany.Code != vid.CodeBadRequest {
		t.Fatalf("read: %v %v; oversized read: %v %v", err1, got, err2, tooMany)
	}
	if wantLen := 8 + 5*4 + 2*mem.PageSize; len(got.Seg) != wantLen {
		t.Fatalf("run of %d bytes, want %d: two bodies, three pages elided", len(got.Seg), wantLen)
	}
	space, pages, data, err := DecodePageRun(got.Seg)
	if err != nil || space != as.ID || len(pages) != 5 {
		t.Fatalf("decoded space %d, %d pages, %v", space, len(pages), err)
	}
	for i, pn := range pages {
		if pn != mem.PageNo(3+i) {
			t.Fatalf("page %d of the run is %d, want %d", i, pn, 3+i)
		}
		if w := want[pn]; w != nil && !bytes.Equal(data[i], w) || w == nil && !mem.IsZeroPage(data[i]) {
			t.Fatalf("page %d read back with other bytes", pn)
		}
	}
	if as.Allocated() != 2*mem.PageSize {
		t.Fatalf("reading materialized pages: %d bytes allocated, want %d", as.Allocated(), 2*mem.PageSize)
	}
}
