package kernel

import (
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/mem"
	"vsystem/internal/packet"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

func init() {
	// A counting body: W[RegUser] holds the target, W[RegUser+1] the
	// progress. Fully resumable from registers + memory, so it can be
	// frozen, snapshotted, and restored on another host.
	RegisterBody("testcount", func() Body {
		return BodyFunc(func(ctx *ProcCtx) {
			r := ctx.Regs()
			for r.W[RegUser+1] < r.W[RegUser] {
				ctx.Compute(time.Millisecond)
				r.W[RegUser+1]++
				addr := 64 + 4*(r.W[RegUser+1]%1000)
				if err := ctx.Space().WriteWord(addr, r.W[RegUser+1]); err != nil {
					ctx.Exit(1)
				}
			}
			ctx.Exit(0)
		})
	})
	// A burner: 50 ms of CPU in one call.
	RegisterBody("testburn", func() Body {
		return BodyFunc(func(ctx *ProcCtx) {
			ctx.Compute(50 * time.Millisecond)
			ctx.Exit(0)
		})
	})
}

type cluster struct {
	sim   *sim.Engine
	bus   *ethernet.Bus
	hosts []*Host
}

func newCluster(n int, seed int64) *cluster {
	se := sim.NewEngine(seed)
	bus := ethernet.NewBus(se)
	c := &cluster{sim: se, bus: bus}
	for i := 0; i < n; i++ {
		c.hosts = append(c.hosts, NewHost(se, bus, i, hostName(i)))
	}
	return c
}

func hostName(i int) string { return string(rune('A' + i)) }

func TestBootAndKernelServerPing(t *testing.T) {
	c := newCluster(2, 1)
	a, b := c.hosts[0], c.hosts[1]
	// A process on host A pings host B's kernel server through B's system
	// logical host (well-known index resolution).
	var got vid.Message
	var err error
	a.SpawnServer("pinger", 4096, func(ctx *ProcCtx) {
		got, err = ctx.Send(KernelServerPID(b.SystemLH().ID()), vid.Message{Op: KsPing})
	})
	c.sim.RunFor(5 * time.Second)
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	if got.Op != KsPing || !got.OK() {
		t.Fatalf("reply = %v", got)
	}
}

func TestProgramLifecycle(t *testing.T) {
	c := newCluster(1, 2)
	h := c.hosts[0]
	lh, _ := h.CreateLH("counter", false)
	as, err := lh.CreateSpace(64 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	var regs Regs
	regs.W[RegUser] = 50
	p := lh.NewProcess(as.ID, "testcount", regs)
	var emptied *LogicalHost
	h.OnLHEmpty = func(l *LogicalHost) { emptied = l }
	h.Start(p)
	c.sim.RunFor(10 * time.Second)
	if emptied != lh {
		t.Fatal("program did not run to completion")
	}
	if p.Regs().W[RegUser+1] != 50 {
		t.Fatalf("counter = %d, want 50", p.Regs().W[RegUser+1])
	}
	if !p.Dead() {
		t.Fatal("process not dead")
	}
}

func TestGuestPriorityYieldsToLocal(t *testing.T) {
	c := newCluster(1, 3)
	h := c.hosts[0]
	mk := func(name string, guest bool, n uint32) *Process {
		lh, _ := h.CreateLH(name, guest)
		as, _ := lh.CreateSpace(16 * 1024)
		var regs Regs
		regs.W[RegUser] = n
		p := lh.NewProcess(as.ID, "testcount", regs)
		h.Start(p)
		return p
	}
	guest := mk("guest", true, 1000)
	local := mk("local", false, 100)
	c.sim.RunFor(150 * time.Millisecond)
	// The local program should have finished its 100 ms of work at full
	// speed while the guest made almost no progress in that window.
	if got := local.Regs().W[RegUser+1]; got != 100 {
		t.Fatalf("local progress = %d, want 100", got)
	}
	if got := guest.Regs().W[RegUser+1]; got > 60 {
		t.Fatalf("guest progress = %d while local running, want small", got)
	}
}

func TestFreezeStopsExecution(t *testing.T) {
	c := newCluster(1, 4)
	h := c.hosts[0]
	lh, _ := h.CreateLH("prog", false)
	as, _ := lh.CreateSpace(16 * 1024)
	var regs Regs
	regs.W[RegUser] = 100000
	p := lh.NewProcess(as.ID, "testcount", regs)
	h.Start(p)
	var atFreeze, during uint32
	c.sim.After(100*time.Millisecond, func() {
		h.Freeze(lh)
		atFreeze = p.Regs().W[RegUser+1]
	})
	c.sim.After(2*time.Second, func() { during = p.Regs().W[RegUser+1] })
	c.sim.After(3*time.Second, func() { h.Unfreeze(lh, false) })
	c.sim.RunFor(3500 * time.Millisecond)
	final := p.Regs().W[RegUser+1]
	// Freeze takes effect within one quantum.
	if during > atFreeze+2 {
		t.Fatalf("progress while frozen: %d → %d", atFreeze, during)
	}
	if final <= during {
		t.Fatalf("no progress after unfreeze: %d → %d", during, final)
	}
}

// TestStoppingALogicalHostEndsItsSlice: a process computing alone runs its
// whole demand as one CPU slice, which Freeze, DestroyLH and Crash must end
// at the next quantum boundary (CPU.Touch), as a scheduler that ends a
// slice at every boundary would; without it the slice runs on to its end.
func TestStoppingALogicalHostEndsItsSlice(t *testing.T) {
	for _, row := range []struct {
		name string
		stop func(h *Host, lh *LogicalHost)
	}{
		{"freeze", func(h *Host, lh *LogicalHost) { h.Freeze(lh) }},
		{"destroy", func(h *Host, lh *LogicalHost) { h.DestroyLH(lh) }},
		{"crash", func(h *Host, _ *LogicalHost) { h.Crash() }},
	} {
		c := newCluster(1, 5)
		h := c.hosts[0]
		lh, _ := h.CreateLH("prog", false)
		as, _ := lh.CreateSpace(16 * 1024)
		h.Start(lh.NewProcess(as.ID, "testburn", Regs{}))
		var before time.Duration
		c.sim.After(10500*time.Microsecond, func() {
			before = h.CPU.TotalBusy()
			row.stop(h, lh)
		})
		c.sim.RunFor(20 * time.Millisecond)
		if ran := h.CPU.TotalBusy() - before; ran > time.Millisecond {
			t.Errorf("%s: the CPU ran %v more after the stop, want at most one quantum", row.name, ran)
		}
		c.sim.Shutdown()
	}
}

func TestWritePagesAcrossHosts(t *testing.T) {
	c := newCluster(2, 5)
	a, b := c.hosts[0], c.hosts[1]
	// Set up a destination logical host on B.
	lh, _ := b.CreateLH("dest", true)
	as, err := lh.CreateSpace(64 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	// A system process on A blasts 30 pages to B's kernel server.
	pages := make([]mem.PageNo, 30)
	data := make([][]byte, 30)
	for i := range pages {
		pages[i] = mem.PageNo(i)
		data[i] = make([]byte, mem.PageSize)
		for j := range data[i] {
			data[i][j] = byte(i + j)
		}
	}
	var reply vid.Message
	var sendErr error
	var elapsed time.Duration
	a.SpawnServer("copier", 4096, func(ctx *ProcCtx) {
		start := ctx.Now()
		reply, sendErr = ctx.Send(KernelServerPID(b.SystemLH().ID()), vid.Message{
			Op:  KsWritePages,
			W:   [6]uint32{uint32(lh.ID())},
			Seg: AppendPageRun(nil, as.ID, pages, data),
		})
		elapsed = ctx.Now().Sub(start)
	})
	c.sim.RunFor(30 * time.Second)
	if sendErr != nil || !reply.OK() {
		t.Fatalf("WritePages: %v %v", reply, sendErr)
	}
	for i, pn := range pages {
		got := as.Page(pn)
		for j := range got {
			if got[j] != data[i][j] {
				t.Fatalf("page %d byte %d = %d, want %d", pn, j, got[j], data[i][j])
			}
		}
	}
	if as.DirtyCount() != 0 {
		t.Fatal("installed pages are dirty on the new copy")
	}
	// ≈3 ms per KB: 30 KB in roughly 90-130 ms.
	if elapsed < 80*time.Millisecond || elapsed > 170*time.Millisecond {
		t.Fatalf("30KB WritePages took %v, want ≈100ms", elapsed)
	}
}

// TestKernelLevelMigration walks the full §3.1 sequence by hand at the
// kernel API level: freeze, snapshot kernel state, copy pages, install on
// the new host, change the LHID, delete the old copy, unfreeze — and
// verifies the program completes with exactly the same result as an
// unmigrated run.
func TestKernelLevelMigration(t *testing.T) {
	runOnce := func(migrate bool) (uint32, *mem.AddressSpace) {
		c := newCluster(2, 6)
		a, b := c.hosts[0], c.hosts[1]
		lh, _ := a.CreateLH("prog", true)
		as, _ := lh.CreateSpace(64 * 1024)
		var regs Regs
		regs.W[RegUser] = 2000 // 2 s of work
		p := lh.NewProcess(as.ID, "testcount", regs)
		a.Start(p)

		var final *mem.AddressSpace
		var count uint32
		done := func(l *LogicalHost) {
			final = l.Spaces()[0]
			for _, pr := range l.Procs() {
				_ = pr
			}
		}
		_ = done
		capture := func(h *Host) {
			h.OnLHEmpty = func(l *LogicalHost) {
				final = l.Spaces()[0]
			}
		}
		capture(a)
		capture(b)

		if migrate {
			c.sim.After(700*time.Millisecond, func() {
				// Freeze and snapshot on A.
				a.Freeze(lh)
				st := a.SnapshotKernelState(lh)
				// New copy on B under a fresh LHID.
				nlh, _ := b.CreateLH("incoming", true)
				b.Freeze(nlh)
				for _, sd := range st.Spaces {
					if _, err := nlh.InstallSpace(sd.ID, sd.Size); err != nil {
						t.Errorf("InstallSpace: %v", err)
					}
				}
				// Copy all pages (state is frozen, one round suffices).
				for _, src := range lh.Spaces() {
					dst, _ := nlh.Space(src.ID)
					for _, pn := range src.AppendAllPages(nil) {
						dst.InstallPage(pn, src.Page(pn))
					}
				}
				if err := b.InstallKernelState(nlh, st); err != nil {
					t.Errorf("InstallKernelState: %v", err)
				}
				if err := b.ChangeLHID(nlh, st.LHID); err != nil {
					t.Errorf("ChangeLHID: %v", err)
				}
				a.DestroyLH(lh)
				b.Unfreeze(nlh, true)
				// Track the migrated process for the final count.
				p = nlh.Procs()[0]
			})
		}
		c.sim.RunFor(20 * time.Second)
		count = p.Regs().W[RegUser+1]
		return count, final
	}

	plainCount, plainMem := runOnce(false)
	migCount, migMem := runOnce(true)
	if plainCount != 2000 || migCount != 2000 {
		t.Fatalf("counts: plain=%d migrated=%d, want 2000", plainCount, migCount)
	}
	if plainMem == nil || migMem == nil {
		t.Fatal("programs did not complete")
	}
	if !plainMem.Equal(migMem) {
		t.Fatal("migrated run produced different memory contents")
	}
}

func TestMemoryAccounting(t *testing.T) {
	c := newCluster(1, 7)
	h := c.hosts[0]
	free0 := h.MemFree()
	lh, _ := h.CreateLH("prog", false)
	_, err := lh.CreateSpace(512 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	if h.MemFree() != free0-512*1024 {
		t.Fatalf("MemFree = %d after 512K alloc", h.MemFree())
	}
	if _, err := lh.CreateSpace(4 * 1024 * 1024); err == nil {
		t.Fatal("over-allocation succeeded")
	}
	h.DestroyLH(lh)
	if h.MemFree() != free0 {
		t.Fatalf("MemFree = %d after destroy, want %d", h.MemFree(), free0)
	}
}

func TestCrashSilencesHost(t *testing.T) {
	c := newCluster(2, 8)
	a, b := c.hosts[0], c.hosts[1]
	var err error
	done := false
	a.SpawnServer("pinger", 4096, func(ctx *ProcCtx) {
		_, err = ctx.Send(KernelServerPID(b.SystemLH().ID()), vid.Message{Op: KsPing})
		done = true
	})
	b.Crash()
	c.sim.RunFor(60 * time.Second)
	if !done {
		t.Fatal("ping never finished")
	}
	if err == nil {
		t.Fatal("ping to crashed host succeeded")
	}
}

func TestLHStateEncodeDecode(t *testing.T) {
	st := &LHState{
		LHID:  0x0105,
		Name:  "cc68",
		Guest: true,
		Spaces: []SpaceDesc{
			{ID: 1, Size: 128 * 1024},
			{ID: 2, Size: 64 * 1024},
		},
		Procs: []ProcState{
			{Index: 16, Prio: 3, SpaceID: 1, BodyKind: "testcount", Regs: Regs{W: [32]uint32{1, 2, 3}}},
		},
		NextIdx: 17,
		NextSp:  2,
	}
	got, err := DecodeLHState(st.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.LHID != st.LHID || got.Name != st.Name || len(got.Spaces) != 2 ||
		len(got.Procs) != 1 || got.Procs[0].Regs.W[2] != 3 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if st.Items() != 3 {
		t.Fatalf("Items = %d, want 3", st.Items())
	}
}

func TestCreateAndQueryProcessOps(t *testing.T) {
	c := newCluster(2, 9)
	a, b := c.hosts[0], c.hosts[1]
	lh, _ := b.CreateLH("prog", true)
	as, _ := lh.CreateSpace(64 * 1024)
	var err error
	var created vid.PID
	var state uint32
	var regsBack Regs
	a.SpawnServer("driver", 8192, func(ctx *ProcCtx) {
		var regs Regs
		regs.W[RegUser] = 7
		cm, e := ctx.Send(KernelServerPID(b.SystemLH().ID()), vid.Message{
			Op:  KsCreateProcess,
			W:   [6]uint32{uint32(lh.ID()), as.ID},
			Seg: EncodeCreateProc("testcount", &regs),
		})
		if e != nil || !cm.OK() {
			err = e
			return
		}
		created = vid.PID(cm.W[0])
		// Not yet started: state 1 (stopped).
		qm, e := ctx.Send(KernelServerPID(b.SystemLH().ID()), vid.Message{
			Op: KsQueryProcess, W: [6]uint32{uint32(created)},
		})
		if e != nil || !qm.OK() {
			err = e
			return
		}
		state = qm.W[0]
		regsBack, err = DecodeRegs(qm.Seg)
	})
	c.sim.RunFor(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if created.LH() != lh.ID() {
		t.Fatalf("created %v not in %v", created, lh.ID())
	}
	if state != 1 {
		t.Fatalf("state = %d, want 1 (stopped)", state)
	}
	if regsBack.W[RegUser] != 7 {
		t.Fatalf("regs not preserved: %v", regsBack.W[RegUser])
	}
}

func TestCreateProcSegCodec(t *testing.T) {
	var r Regs
	r.W[5] = 42
	kind, regs, err := decodeCreateProc(EncodeCreateProc("vvm", &r))
	if err != nil || kind != "vvm" || regs.W[5] != 42 {
		t.Fatalf("decode = %q %v %v", kind, regs.W[5], err)
	}
	if _, _, err := decodeCreateProc([]byte("no-nul")); err == nil {
		t.Fatal("malformed seg decoded")
	}
}

func TestReadOnlyOpsPassFreeze(t *testing.T) {
	c := newCluster(2, 10)
	a, b := c.hosts[0], c.hosts[1]
	lh, _ := b.CreateLH("prog", true)
	lh.CreateSpace(16 * 1024)
	b.Freeze(lh)
	var pingOK, queryOK bool
	var frozeFlag uint32
	a.SpawnServer("driver", 8192, func(ctx *ProcCtx) {
		// Addressed via the FROZEN logical host: read-only ops answer,
		// per the "requests that modify" rule of §3.1.3.
		m, err := ctx.Send(KernelServerPID(lh.ID()), vid.Message{Op: KsPing})
		pingOK = err == nil && m.OK()
		m, err = ctx.Send(KernelServerPID(lh.ID()), vid.Message{
			Op: KsQueryLH, W: [6]uint32{uint32(lh.ID())},
		})
		queryOK = err == nil && m.OK()
		frozeFlag = m.W[3]
	})
	c.sim.RunFor(30 * time.Second)
	if !pingOK || !queryOK {
		t.Fatalf("read-only ops deferred by freeze: ping=%v query=%v", pingOK, queryOK)
	}
	if frozeFlag != 1 {
		t.Fatal("QueryLH did not report frozen")
	}
}

func TestModifyingOpsDeferredByFreeze(t *testing.T) {
	c := newCluster(2, 11)
	a, b := c.hosts[0], c.hosts[1]
	lh, _ := b.CreateLH("prog", true)
	lh.CreateSpace(16 * 1024)
	b.Freeze(lh)
	var doneAt sim.Time
	var err error
	a.SpawnServer("driver", 8192, func(ctx *ProcCtx) {
		// A space-creating op addressed via the frozen LH must wait for
		// the unfreeze.
		_, err = ctx.Send(KernelServerPID(lh.ID()), vid.Message{
			Op: KsCreateSpace, W: [6]uint32{uint32(lh.ID()), 4096},
		})
		doneAt = ctx.Now()
	})
	c.sim.After(3*time.Second, func() { b.Unfreeze(lh, false) })
	c.sim.RunFor(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if doneAt < sim.Time(3*time.Second) {
		t.Fatalf("modifying op completed at %v, before unfreeze", doneAt)
	}
}

// TestCrashClosesWindowPorts: a bulk window's ports belong to no process,
// yet they die with the host. A window held open across a crash — here by
// a server that never receives, whose kernel answers its retransmissions
// with reply-pending for ever — must send nothing from the rebooted host.
func TestCrashClosesWindowPorts(t *testing.T) {
	c := newCluster(2, 3)
	a, b := c.hosts[0], c.hosts[1]
	tb := trace.NewBus()
	a.AttachTrace(tb)
	silent := b.SpawnServer("silent", 4096, func(ctx *ProcCtx) { ctx.Sleep(time.Hour) })
	crashed := false
	before, after := 0, 0
	tb.Subscribe(func(ev trace.Event) {
		if p := ev.Pkt; ev.Kind == trace.EvPktTx && p.Kind == packet.KRequest && p.Dst == silent.PID() {
			if crashed {
				after++
			} else {
				before++
			}
		}
	})
	a.SpawnServer("pusher", 4096, func(ctx *ProcCtx) {
		w := a.IPC.NewWindow(a.SystemLH().ID(), 1)
		w.Send(ctx.Task(), silent.PID(), vid.Message{Op: KsPing})
	})
	c.sim.RunFor(2 * time.Second)
	if before < 2 {
		t.Fatalf("the window sent %d frames before the crash, want it retransmitting", before)
	}
	crashed = true
	a.Crash()
	c.sim.RunFor(100 * time.Millisecond) // short of the transaction's abort
	a.Restart()
	c.sim.RunFor(20 * time.Second)
	if after != 0 {
		t.Fatalf("the window sent %d frames after its host crashed", after)
	}
}
