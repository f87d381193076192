package experiments

import (
	"fmt"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/params"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// copyCell is one measurement of the bulk-transfer engine: a pusher
// process streams a synthetic address space into a sink logical host on
// another workstation through a copy window, exactly the mechanism the
// migrator's sendRuns uses.
type copyCell struct {
	kbps      float64       // effective copy bandwidth: logical KB / elapsed
	dur       time.Duration // push duration
	idle      float64       // fraction of the push the wire spent idle
	wireKB    float64       // bytes put on the wire (after zero-page elision)
	stalls    int64         // full-window issue stalls
	occupancy float64       // mean in-flight transactions at issue
	verified  bool          // destination memory byte-identical to intended
}

// cellPage returns whether page pn is all zero at the given zero
// fraction, and the page's intended contents.
func cellPage(pn int, zeroFrac float64) (bool, []byte) {
	if pn%10 < int(zeroFrac*10+0.5) {
		return true, mem.ZeroPage()
	}
	b := make([]byte, mem.PageSize)
	for j := range b {
		b[j] = byte(pn + j)
	}
	return false, b
}

// runCopyCell pushes `pages` 1 KB pages from ws0 into a fresh logical
// host on ws1 through a window of the given size, under the given frame
// loss rate, with the given fraction of all-zero pages.
func runCopyCell(seed int64, window, pages int, loss, zeroFrac float64) copyCell {
	c := bootCluster(core.Options{Workstations: 2, Seed: seed, LossRate: loss})
	defer c.Close()
	src, dst := c.Node(0).Host, c.Node(1).Host
	dstKS := kernel.KernelServerPID(dst.SystemLH().ID())

	// Wire-busy accounting, gated to the push interval.
	var busy time.Duration
	pushing := false
	c.Trace.Subscribe(func(ev trace.Event) {
		if pushing && ev.Kind == trace.EvFrameTx {
			busy += params.WireTime(ev.Size)
		}
	})

	var cell copyCell
	var lhid, spaceID uint32
	done := false
	src.SpawnServer("pusher", 8192, func(ctx *kernel.ProcCtx) {
		m, err := ctx.Send(dstKS, vid.Message{Op: kernel.KsCreateLH, W: [6]uint32{1}, Seg: []byte("sink")})
		if err != nil || !m.OK() {
			return
		}
		lhid = m.W[0]
		m, err = ctx.Send(dstKS, vid.Message{Op: kernel.KsCreateSpace, W: [6]uint32{lhid, uint32(pages) * mem.PageSize}})
		if err != nil || !m.OK() {
			return
		}
		spaceID = m.W[0]

		win := src.IPC.NewWindow(src.SystemLH().ID(), window)
		defer win.Close()
		scratch := make([][]byte, kernel.MaxRunPages)
		pushing = true
		start := ctx.Now()
		for off := 0; off < pages; off += kernel.MaxRunPages {
			end := off + kernel.MaxRunPages
			if end > pages {
				end = pages
			}
			batch := make([]mem.PageNo, 0, end-off)
			data := scratch[:0]
			for pn := off; pn < end; pn++ {
				_, body := cellPage(pn, zeroFrac)
				batch = append(batch, mem.PageNo(pn))
				data = append(data, body)
			}
			seg := kernel.AppendPageRun(win.SegBuf(), spaceID, batch, data)
			cell.wireKB += float64(len(seg)) / 1024
			if err := win.Send(ctx.Task(), dstKS, vid.Message{
				Op: kernel.KsWritePages, W: [6]uint32{lhid}, Seg: seg,
			}); err != nil {
				return
			}
		}
		if err := win.Drain(ctx.Task()); err != nil {
			return
		}
		cell.dur = ctx.Now().Sub(start)
		pushing = false
		ws := win.Stats()
		cell.stalls, cell.occupancy = ws.Stalls, ws.AvgOccupancy
		cell.kbps = float64(pages) * mem.PageSize / 1024 / cell.dur.Seconds()
		cell.idle = 1 - busy.Seconds()/cell.dur.Seconds()
		done = true
	})
	c.Run(2 * time.Minute)
	if !done {
		return cell
	}

	// Ordering / exactly-once audit: the sink must hold byte-identical
	// memory however the pipelined runs arrived.
	lh, ok := dst.LookupLH(vid.LHID(lhid))
	if !ok {
		return cell
	}
	as, ok := lh.Space(spaceID)
	if !ok {
		return cell
	}
	for pn := 0; pn < pages; pn++ {
		_, want := cellPage(pn, zeroFrac)
		got := as.Page(mem.PageNo(pn))
		for j := range want {
			if got[j] != want[j] {
				return cell
			}
		}
	}
	cell.verified = true
	return cell
}

// migrateCell migrates the tex workload once with the given copy window
// and returns its report (freeze/total non-regression comparison).
func migrateCell(seed int64, window int) (*core.MigrationReport, error) {
	c := bootCluster(core.Options{Workstations: 3, Seed: seed, CopyWindow: window})
	defer c.Close()
	m := migrateAfter(c.Node(0), "tex", "ws1", 3*time.Second)
	c.Run(time.Minute)
	if err := m.failed(); err != nil {
		return nil, err
	}
	return m.rep, nil
}

// CopyThroughput regenerates E10: the windowed bulk-transfer engine's
// copy bandwidth as the window opens, under frame loss, and with
// zero-page elision, plus the end-to-end effect on a real pre-copy
// migration. Window 1 is the paper's stop-and-wait copy loop; the paper's
// 3 s/MB address-space copy rate (§4.1) is wire-limited, so the window's
// win shows on the reply-latency and loss-stall components, and elision
// on the sparse portions of a space.
func CopyThroughput(seed int64) *Result {
	r := newResult("E10", "copy-throughput: windowed bulk transfer × loss × zero pages")

	// --- Sweep A: window size under 5% frame loss, sparse (all-zero)
	// space. Stop-and-wait eats a 200 ms retransmission stall per frame
	// lost mid-stream — a full window is not probed, only the push's tail
	// once it drains (ipc's tail probe) — while an open window keeps
	// copying around the stalled transaction.
	const sweepPages = 1500
	windows := []int{1, 2, 4, 8}
	cells := map[int]copyCell{}
	for _, w := range windows {
		cell := runCopyCell(seed, w, sweepPages, 0.05, 1.0)
		cells[w] = cell
		r.row(fmt.Sprintf("window %d @ 5%% loss", w), "—",
			fmt.Sprintf("%.0f KB/s", cell.kbps),
			fmt.Sprintf("wire idle %.0f%%, %d stalls, occupancy %.1f", cell.idle*100, cell.stalls, cell.occupancy))
		r.metric(fmt.Sprintf("loss_kbps_w%d", w), cell.kbps)
		r.check(cell.verified, "window %d: destination memory differs (ordering/exactly-once regression)", w)
	}
	speedup := cells[4].kbps / cells[1].kbps
	r.row("speedup window 4 vs 1", "≥ 2×", fmt.Sprintf("%.1f×", speedup), "acceptance headline")
	r.metric("speedup_w4_vs_w1", speedup)
	r.check(speedup >= 2, "window-4 speedup %.2fx < 2x", speedup)
	r.check(cells[2].kbps >= cells[1].kbps, "window 2 (%.0f KB/s) slower than stop-and-wait (%.0f KB/s)",
		cells[2].kbps, cells[1].kbps)
	r.check(cells[8].kbps >= 0.9*cells[4].kbps, "window 8 (%.0f KB/s) well below window 4 (%.0f KB/s)",
		cells[8].kbps, cells[4].kbps)
	r.check(cells[4].idle < cells[1].idle, "wire idle did not collapse: %.2f (w4) vs %.2f (w1)",
		cells[4].idle, cells[1].idle)
	r.check(cells[4].occupancy > cells[1].occupancy, "occupancy did not rise: %.2f vs %.2f",
		cells[4].occupancy, cells[1].occupancy)

	// --- Sweep B: zero-page elision at window 4, no loss. The all-zero
	// space travels as headers only.
	const elisionPages = 300
	var wire0, wire100 float64
	for _, z := range []float64{0, 0.5, 1.0} {
		cell := runCopyCell(seed, 4, elisionPages, 0, z)
		r.row(fmt.Sprintf("zero fraction %.1f", z), "—",
			fmt.Sprintf("%.0f KB wire", cell.wireKB),
			fmt.Sprintf("%.0f KB/s, wire idle %.0f%%", cell.kbps, cell.idle*100))
		r.metric(fmt.Sprintf("wire_kb_z%.0f", z*100), cell.wireKB)
		r.check(cell.verified, "zero fraction %.1f: destination memory differs", z)
		switch z {
		case 0:
			wire0 = cell.wireKB
		case 1.0:
			wire100 = cell.wireKB
		}
	}
	r.check(wire100 < 0.1*wire0, "elision saved too little: %.0f KB vs %.0f KB", wire100, wire0)

	// --- Wire idle on a dense space, no loss: the window overlaps the
	// reply gap even when the sender's bulk fragmentation dominates.
	dense1 := runCopyCell(seed, 1, elisionPages, 0, 0)
	dense4 := runCopyCell(seed, 4, elisionPages, 0, 0)
	r.row("dense copy, window 1 → 4", "—",
		fmt.Sprintf("%.0f → %.0f KB/s", dense1.kbps, dense4.kbps),
		fmt.Sprintf("wire idle %.0f%% → %.0f%%", dense1.idle*100, dense4.idle*100))
	r.metric("dense_kbps_w1", dense1.kbps)
	r.metric("dense_kbps_w4", dense4.kbps)
	r.check(dense1.verified && dense4.verified, "dense cells: destination memory differs")
	r.check(dense4.kbps >= dense1.kbps, "dense copy slower with window: %.0f vs %.0f KB/s",
		dense4.kbps, dense1.kbps)
	r.check(dense4.idle <= dense1.idle, "dense wire idle rose with window: %.2f vs %.2f",
		dense4.idle, dense1.idle)

	// --- End to end: a real pre-copy migration must not regress in freeze
	// or total time when the copy path pipelines.
	rep1, err1 := migrateCell(seed, 1)
	rep4, err4 := migrateCell(seed, 4)
	if err1 != nil || err4 != nil {
		r.check(false, "migration cells: w1=%v w4=%v", err1, err4)
		return r
	}
	f1, f4 := rep1.FreezeTime.Seconds()*1000, rep4.FreezeTime.Seconds()*1000
	t1, t4 := rep1.Total.Seconds()*1000, rep4.Total.Seconds()*1000
	r.row("tex migration freeze", "no regression", fmt.Sprintf("%.1f ms (w1 %.1f ms)", f4, f1),
		fmt.Sprintf("%d rounds, occupancy %.1f", len(rep4.Rounds), rep4.WindowOccupancy))
	r.row("tex migration total", "no regression", fmt.Sprintf("%.1f ms (w1 %.1f ms)", t4, t1), "")
	r.metric("freeze_w1_ms", f1)
	r.metric("freeze_w4_ms", f4)
	r.metric("total_w1_ms", t1)
	r.metric("total_w4_ms", t4)
	r.check(f4 <= f1*1.25+20, "freeze regressed: %.1f ms (w4) vs %.1f ms (w1)", f4, f1)
	r.check(t4 <= t1*1.10+50, "total regressed: %.1f ms (w4) vs %.1f ms (w1)", t4, t1)
	return r
}
