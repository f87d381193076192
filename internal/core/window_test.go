package core

import (
	"testing"
	"time"

	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/params"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// windowReport migrates memhog once under the given loss rate and returns
// the migration report plus the cluster (for stats/trace inspection).
func windowReport(t *testing.T, seed int64, loss float64) (*MigrationReport, *Cluster) {
	t.Helper()
	c := boot(t, Options{Workstations: 3, Seed: seed, LossRate: loss})
	var rep *MigrationReport
	var execErr, migErr error
	c.Node(0).Agent(func(a *Agent) {
		job, err := a.Exec("tex", nil, "ws1")
		if err != nil {
			execErr = err
			return
		}
		a.Sleep(3 * time.Second)
		rep, migErr = a.Migrate(job, true)
	})
	c.Run(2 * time.Minute)
	if execErr != nil || migErr != nil {
		t.Fatalf("exec=%v mig=%v", execErr, migErr)
	}
	if rep == nil {
		t.Fatal("no migration report")
	}
	return rep, c
}

// TestMigrationWindowAccounting: the pipelined copy path must report its
// window activity, per-round copy rates, and wire bytes no larger than
// the logical bytes moved (zero-page elision only shrinks the wire).
func TestMigrationWindowAccounting(t *testing.T) {
	t.Parallel()
	rep, c := windowReport(t, 11, 0)
	if rep.WindowSize != params.CopyWindow {
		t.Fatalf("window size %d, want %d", rep.WindowSize, params.CopyWindow)
	}
	if rep.WindowSends == 0 {
		t.Fatal("no windowed sends recorded")
	}
	if rep.WindowOccupancy < 1 {
		t.Fatalf("window occupancy %.2f < 1", rep.WindowOccupancy)
	}
	// Wire bytes = page payload minus elided zero pages plus per-run
	// headers (8 bytes + 4 per page), so they never exceed the logical
	// bytes by more than the header overhead.
	if rep.WireBytes <= 0 || rep.WireBytes > rep.BytesCopied+256*rep.WindowSends {
		t.Fatalf("wire bytes %d out of range for %d logical bytes, %d runs",
			rep.WireBytes, rep.BytesCopied, rep.WindowSends)
	}
	for i, r := range rep.Rounds {
		if r.KB > 0 && r.CopyRateKBps <= 0 {
			t.Fatalf("round %d: %0.f KB copied but rate %.1f", i, r.KB, r.CopyRateKBps)
		}
	}
	// Parity: every windowed send on every host must have published one
	// EvCopyWindow event.
	var sends int64
	for _, n := range c.Nodes {
		sends += n.Host.IPC.Stats().WindowSends
	}
	sends += c.FSHost.IPC.Stats().WindowSends
	if got := c.Trace.Count(trace.EvCopyWindow); got != sends {
		t.Fatalf("EvCopyWindow count %d != sum of Stats.WindowSends %d", got, sends)
	}
	if sends != rep.WindowSends {
		t.Fatalf("cluster window sends %d != report's %d (only one migration ran)", sends, rep.WindowSends)
	}
}

// TestMigrationWindowParityUnderLoss: the trace/stats parity must survive
// frame loss on the copy path (retransmissions must not double-count
// window issues).
func TestMigrationWindowParityUnderLoss(t *testing.T) {
	t.Parallel()
	rep, c := windowReport(t, 12, 0.03)
	var sends, stalls int64
	for _, n := range c.Nodes {
		st := n.Host.IPC.Stats()
		sends += st.WindowSends
		stalls += st.WindowStalls
	}
	sends += c.FSHost.IPC.Stats().WindowSends
	if got := c.Trace.Count(trace.EvCopyWindow); got != sends {
		t.Fatalf("EvCopyWindow count %d != sum of Stats.WindowSends %d", got, sends)
	}
	if sends == 0 {
		t.Fatal("no windowed sends under loss")
	}
	if rep.WindowStalls != stalls {
		t.Fatalf("report stalls %d != cluster stalls %d", rep.WindowStalls, stalls)
	}
}

// TestWindowReusedAfterFailedSendRuns: a sendRuns whose runs are refused
// returns the refusal and leaves the window empty and without it, so the
// window's next user (a page-out's resend, the next phase's copy) is not
// handed an error that is not its own.
func TestWindowReusedAfterFailedSendRuns(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 2, Seed: 1})
	src, dst := c.Node(0).Host, c.Node(1).Host
	ks := vid.NewPID(dst.SystemLH().ID(), vid.IdxKernelServer)
	as := mem.NewAddressSpace(1, 8*kernel.MaxRunPages*mem.PageSize)
	var pages []mem.PageNo
	for pn := mem.PageNo(0); pn < 8*kernel.MaxRunPages; pn++ {
		as.WriteWord(uint32(pn)*mem.PageSize, uint32(pn)+1)
		pages = append(pages, pn)
	}
	var runErr, pingErr, drainErr error
	done := false
	src.SpawnServer("copier", 4096, func(ctx *kernel.ProcCtx) {
		win := src.IPC.NewWindow(src.SystemLH().ID(), 4)
		defer win.Close()
		at := &copyAttempt{mg: c.Node(0).PM.Migrator.(*Migrator), ctx: ctx, win: win, rep: &MigrationReport{}}
		// No logical host 0x7ff0 lives there: every run is refused.
		_, runErr = at.sendRuns(ks, vid.Message{Op: kernel.KsWritePages, W: [6]uint32{0x7ff0, kernel.WriteModeCopy}},
			"", []spacePages{{as: as, pages: pages}}, nil)
		pingErr = win.Send(ctx.Task(), ks, vid.Message{Op: kernel.KsPing})
		drainErr = win.Drain(ctx.Task())
		done = true
	})
	c.Run(30 * time.Second)
	if !done || runErr == nil {
		t.Fatalf("done %v, sendRuns to a missing logical host returned %v", done, runErr)
	}
	if pingErr != nil || drainErr != nil {
		t.Fatalf("the window's next send = %v, its drain = %v: the failed runs' error outlived sendRuns", pingErr, drainErr)
	}
}
