package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"vsystem/internal/fault"
	"vsystem/internal/image"
	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/params"
	"vsystem/internal/progs"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
	"vsystem/internal/vvm"
)

// TestPostcopyMigrationExactlyOnce is post-copy's transparency guarantee:
// the guest's identity swaps after a near-immediate freeze and its pages
// follow on demand, yet the user observes exactly the same output stream
// as an unmigrated run — every tick once, in order.
func TestPostcopyMigrationExactlyOnce(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 4, Seed: 41, Policy: PolicyPostcopy})
	c.Install(progs.Ticker(400))

	var job *Job
	var rep *MigrationReport
	var execErr, migErr, waitErr error
	c.Node(0).Agent(func(a *Agent) {
		job, execErr = a.Exec("ticker400", nil, "ws1")
		if execErr != nil {
			return
		}
		a.Sleep(800 * time.Millisecond)
		rep, migErr = a.Migrate(job, false)
		if migErr != nil {
			return
		}
		_, waitErr = a.Wait(job)
	})
	c.Run(3 * time.Minute)

	if execErr != nil || migErr != nil || waitErr != nil {
		t.Fatalf("exec=%v mig=%v wait=%v", execErr, migErr, waitErr)
	}
	assertGapless(t, c.Node(0).Display.Lines(), 400)
	if rep.Policy != "postcopy" {
		t.Fatalf("report policy = %q", rep.Policy)
	}
	if rep.ResidueAborted {
		t.Fatal("residue aborted on a healthy cluster")
	}
	if len(rep.Rounds) != 0 {
		t.Fatalf("postcopy ran %d pre-copy rounds, want 0", len(rep.Rounds))
	}
	if rep.ResiduePushKB+rep.PostSwapPullKB <= 0 {
		t.Fatalf("no residue moved post-swap (push=%.1f pull=%.1f)",
			rep.ResiduePushKB, rep.PostSwapPullKB)
	}
	assertRemoteFaultParity(t, c)
}

// TestPostcopyDemandPullsUnderLoad migrates the paper's highest-dirty-rate
// workload ("tex") under pure post-copy: the guest resumes against an
// almost-empty address space, so the remote-fault path must field real
// demand faults — parked processes, receptacle pulls, stall accounting —
// while the push-out races it for the rest.
func TestPostcopyDemandPullsUnderLoad(t *testing.T) {
	t.Parallel()
	rep := parityScenario(t, PolicyPostcopy)
	if rep.PostSwapFaults <= 0 {
		t.Fatalf("PostSwapFaults = %d, want > 0", rep.PostSwapFaults)
	}
	if rep.PostSwapStall <= 0 {
		t.Fatalf("PostSwapStall = %v, want > 0", rep.PostSwapStall)
	}
	if rep.PostSwapPullKB <= 0 {
		t.Fatalf("PostSwapPullKB = %.1f, want > 0", rep.PostSwapPullKB)
	}
	if rep.ResidueAborted {
		t.Fatal("residue aborted on a healthy cluster")
	}
}

// TestHybridFreezeBelowPrecopy pins the hybrid policy's reason to exist:
// on the same scenario (same seed, same workload, same virtual clock) the
// hybrid freeze window — invalidation run plus kernel state only — must be
// shorter than pre-copy's, which copies the full dirty residue while
// frozen. The factor is pinned properly (≥5× under loss) by experiment
// E12; here we pin the direction and the mechanism.
func TestHybridFreezeBelowPrecopy(t *testing.T) {
	t.Parallel()
	pre := parityScenario(t, PolicyPrecopy)
	hyb := parityScenario(t, PolicyHybrid)

	if hyb.FreezeTime >= pre.FreezeTime {
		t.Fatalf("hybrid freeze %v not below pre-copy freeze %v",
			hyb.FreezeTime, pre.FreezeTime)
	}
	if len(hyb.Rounds) != 1 {
		t.Fatalf("hybrid ran %d pre-swap rounds, want exactly 1 (the hot set)", len(hyb.Rounds))
	}
	if hyb.Rounds[0].KB <= 0 {
		t.Fatal("hybrid hot-set round copied nothing; tex dirties pages continuously")
	}
	if hyb.ResidueAborted {
		t.Fatal("residue aborted on a healthy cluster")
	}
}

// TestPostcopySourceCrashMidResidueAborts covers the policy's failure
// contract: the source dies at the start of the post-swap residue window,
// taking the receptacle (and the migration worker) with it. The guest's
// memory can no longer be completed, so the destination must abort it
// cleanly — typed *PhaseError at PhasePostSwapPull, never silent zero
// pages — and supervision then re-executes the session from its
// file-server image with exactly-once output.
func TestPostcopySourceCrashMidResidueAborts(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 4, Seed: 43, Policy: PolicyPostcopy})
	c.Install(progs.Ticker(400))
	c.Fault.Arm(fault.Schedule{{When: fault.AtPhase(trace.PhasePostSwapPull, 0), Do: fault.Crash, Who: fault.MigrationSource}})

	var job *Job
	var origLH vid.LHID
	var code uint32
	var waitDone bool
	var execErr, migErr, waitErr error
	c.Node(0).Agent(func(a *Agent) {
		job, execErr = a.Exec("ticker400", nil, "ws1")
		if execErr != nil {
			return
		}
		origLH = job.LHID // Wait rebinds job.LHID across re-executions
		a.Sleep(800 * time.Millisecond)
		// The worker running the migration dies with the source host, so
		// this call fails; the session must still complete via supervision.
		_, migErr = a.Migrate(job, false)
	})
	c.Node(0).Agent(func(a *Agent) {
		for job == nil {
			a.Sleep(100 * time.Millisecond)
		}
		code, waitErr = a.Wait(job)
		waitDone = true
	})
	c.Run(4 * time.Minute)

	if execErr != nil {
		t.Fatalf("exec: %v", execErr)
	}
	if migErr == nil {
		t.Fatal("Migrate reported success though its worker crashed mid-residue")
	}
	if got := c.Trace.Count(trace.EvMigFault); got != 1 {
		t.Fatalf("EvMigFault count = %d, want 1", got)
	}
	if got := c.Trace.Count(trace.EvHostCrash); got != 1 {
		t.Fatalf("EvHostCrash count = %d, want 1", got)
	}

	st := c.PagerStatsFor(origLH)
	if st == nil {
		t.Fatal("no pager stats registered for the migrated identity")
	}
	if !st.Aborted {
		t.Fatal("residue not marked aborted after source crash")
	}
	var pe *PhaseError
	if !errors.As(st.AbortErr, &pe) {
		t.Fatalf("AbortErr = %v, want *PhaseError", st.AbortErr)
	}
	if pe.Phase != trace.PhasePostSwapPull {
		t.Fatalf("AbortErr phase = %v, want %v", pe.Phase, trace.PhasePostSwapPull)
	}

	// Supervision must have re-executed the session and completed it with
	// no lost or duplicated output.
	if !waitDone {
		t.Fatal("Wait never completed; the lost guest's session was not recovered")
	}
	if waitErr != nil || code != 0 {
		t.Fatalf("wait = (%d, %v), want clean exit via re-exec", code, waitErr)
	}
	if got := c.Trace.Count(trace.EvExecRestart); got < 1 {
		t.Fatalf("EvExecRestart count = %d, want >= 1", got)
	}
	assertGapless(t, c.Node(0).Display.Lines(), 400)
}

// assertRemoteFaultParity holds the trace bus and the pager counters to
// account for exactly the same demand faults: every counted fault must
// publish one EvRemoteFault, and vice versa.
func assertRemoteFaultParity(t *testing.T, c *Cluster) {
	t.Helper()
	tot := c.RemoteFaultTotals()
	if got := c.Trace.Count(trace.EvRemoteFault); got != int64(tot.Faults) {
		t.Fatalf("EvRemoteFault events = %d, PagerStats faults = %d", got, tot.Faults)
	}
}

// residueWindow is what a test sees of one post-copy residue from the
// trace bus: the pages the source still owed the destination when the
// swap committed (its delivery markers, per space id), and the bytes the
// segment carried from that instant to the end of the residue.
type residueWindow struct {
	deferred map[uint32][]mem.PageNo
	wireKB   float64
}

func (w *residueWindow) residueKB() float64 {
	n := 0
	for _, pages := range w.deferred {
		n += len(pages)
	}
	return float64(n) * mem.PageSize / 1024
}

// watchResidue arms a residueWindow for the next migration off src.
func watchResidue(c *Cluster, src *Node) *residueWindow {
	w := &residueWindow{deferred: make(map[uint32][]mem.PageNo)}
	var atSwap int64
	c.Trace.SubscribeSpans(func(s trace.Span) {
		switch s.Phase {
		case trace.PhaseSwap:
			atSwap = c.Bus.Stats().Bytes
			if lh, ok := src.Host.LookupLH(s.LH); ok {
				for _, as := range lh.Spaces() {
					for _, pn := range as.AppendAllPages(nil) {
						if as.PageDirty(pn) {
							w.deferred[as.ID] = append(w.deferred[as.ID], pn)
						}
					}
				}
			}
		case trace.PhasePostSwapPull:
			w.wireKB = float64(c.Bus.Stats().Bytes-atSwap) / 1024
		}
	})
	return w
}

// TestPostcopyResidueCrossesWireOnce is the once-only property DESIGN §9
// states beside "never double-applied": on a quiet, loss-free cluster the
// segment carries a post-copy residue once — the push-out is its only
// bulk mover, and a demand fetch costs at most its read-ahead run. Headers,
// acknowledgements, the unfreeze and the guest's own output fit in the
// tenth. A second mover sweeping the same pages reads ≈1.9× here.
func TestPostcopyResidueCrossesWireOnce(t *testing.T) {
	t.Parallel()
	for _, policy := range []Policy{PolicyPostcopy, PolicyHybrid} {
		c := boot(t, Options{Workstations: 3, Seed: 7, Policy: policy})
		w := watchResidue(c, c.Node(1))
		var rep *MigrationReport
		var err error
		c.Node(1).Agent(func(a *Agent) {
			var job *Job
			if job, err = a.Exec("tex", nil, ""); err != nil {
				return
			}
			a.Sleep(4 * time.Second)
			rep, err = a.Migrate(job, false)
		})
		c.Run(60 * time.Second)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if rep.ResidueAborted || w.residueKB() == 0 {
			t.Fatalf("%v: aborted=%v residue=%.0f KB, want a healthy residue", policy, rep.ResidueAborted, w.residueKB())
		}
		bound := 1.10*w.residueKB() + float64(rep.PostSwapFaults*params.FetchRunPages)*mem.PageSize/1024
		if w.wireKB > bound {
			t.Errorf("%v: segment carried %.0f KB for a %.0f KB residue and %d faults, want ≤ %.0f KB",
				policy, w.wireKB, w.residueKB(), rep.PostSwapFaults, bound)
		}
		if moved := rep.PostSwapPullKB + rep.ResiduePushKB; moved > bound {
			t.Errorf("%v: demand %.0f KB + push %.0f KB for a %.0f KB residue, want ≤ %.0f KB",
				policy, rep.PostSwapPullKB, rep.ResiduePushKB, w.residueKB(), bound)
		}
		t.Logf("%v: residue %.0f KB, %d faults, segment %.0f KB, demand %.0f KB, push %.0f KB, wire %.0f KB",
			policy, w.residueKB(), rep.PostSwapFaults, w.wireKB, rep.PostSwapPullKB, rep.ResiduePushKB,
			float64(rep.WireBytes)/1024)
	}
}

// blockedGuest is a program that writes the word fill into kb fresh KB of
// heap, one word a page, then sends one request to the given server and
// exits with the send's transport status once it is answered: a guest
// that executes nothing — so references nothing — for as long as the
// server holds its request. A zero fill leaves kb allocated all-zero pages.
func blockedGuest(kb, fill uint32, server vid.PID) *image.Image {
	code, err := vvm.Assemble(fmt.Sprintf(`
        LDI r0, 0
        LD r12, r0, 0x14   ; heap base: the message block lives here
        LDI r1, 4096       ; write heap+4096 .. heap+4096+kb KB
        LDI r2, %d
        LDI r4, %d
fill:   BGE r1, r2, ask
        MOV r3, r12
        ADD r3, r1
        ST r4, r3, 0       ; the first write allocates the page
        ADDI r1, 1024
        JMP fill
ask:    LDI r1, %d
        ST r1, r12, 0      ; blk.dst
        LDI r1, 1
        ST r1, r12, 4      ; blk.op
        MOV r0, r12
        SEND r0
        LD r0, r12, 52     ; transport error, 0 when answered
        HALT r0
`, 4096+kb*1024, fill, uint32(server)))
	if err != nil {
		panic(err)
	}
	return &image.Image{
		Name: "blocked", Kind: vvm.BodyKind, Code: code,
		SpaceSize: vvm.CodeBase + 4096 + kb*1024 + 64*1024,
	}
}

// blockedMigration is what a test sees of a blockedGuest migrated under
// post-copy while its Send is held: the report, the deferred pages still
// absent at the destination and the logical hosts left on the source as
// Migrate returned, and the guest's exit code once released.
type blockedMigration struct {
	rep         *MigrationReport
	w           *residueWindow
	absent      int
	receptacles int
	code        uint32
}

func migrateBlocked(t *testing.T, seed int64, kb, fill uint32) blockedMigration {
	t.Helper()
	c := boot(t, Options{Workstations: 3, Seed: seed, Policy: PolicyPostcopy})
	release := false
	holder := c.FSHost.SpawnServer("holder", 4096, func(ctx *kernel.ProcCtx) {
		req := ctx.Receive()
		for !release {
			ctx.Sleep(100 * time.Millisecond)
		}
		ctx.Reply(req, vid.Message{Op: 1})
	})
	c.Install(blockedGuest(kb, fill, holder.PID()))
	bm := blockedMigration{w: watchResidue(c, c.Node(1))}

	var err error
	c.Node(0).Agent(func(a *Agent) {
		var job *Job
		if job, err = a.Exec("blocked", nil, "ws1"); err != nil {
			return
		}
		a.Sleep(time.Second) // long past the fill loop: the guest is in its Send
		if bm.rep, err = a.Migrate(job, false); err != nil {
			return
		}
		_, lh := c.FindProgram(job.LHID)
		if lh == nil {
			err = errors.New("guest vanished")
			return
		}
		for _, as := range lh.Spaces() {
			for _, pn := range bm.w.deferred[as.ID] {
				if !as.Present(pn) {
					bm.absent++
				}
			}
		}
		for _, lh := range c.Node(1).Host.LHs() {
			if !lh.System() {
				bm.receptacles++
			}
		}
		release = true
		bm.code, err = a.Wait(job)
	})
	c.Run(time.Minute)

	if err != nil {
		t.Fatal(err)
	}
	if bm.code != 0 {
		t.Fatalf("guest exited %d: its Send did not survive the migration", bm.code)
	}
	if bm.rep.PostSwapFaults != 0 || bm.rep.PostSwapPullKB != 0 {
		t.Fatalf("%d faults, %.0f KB fetched on behalf of a guest that never ran", bm.rep.PostSwapFaults, bm.rep.PostSwapPullKB)
	}
	if bm.rep.ResidueAborted {
		t.Fatal("residue aborted on a healthy cluster")
	}
	if bm.receptacles != 0 {
		t.Fatalf("%d logical hosts left on the source: receptacle not destroyed", bm.receptacles)
	}
	return bm
}

// TestPostcopyPushAloneCompletesResidue migrates a guest that is blocked
// in a Send across the whole residue window, so it never faults: the
// source's push-out, the residue's only bulk mover, must by itself make
// every deferred page resident, and the receptacle goes once it has.
func TestPostcopyPushAloneCompletesResidue(t *testing.T) {
	t.Parallel()
	bm := migrateBlocked(t, 47, 96, 1)
	if bm.w.residueKB() < 96 || bm.rep.ResiduePushKB != bm.w.residueKB() {
		t.Fatalf("pushed %.0f KB of a %.0f KB residue (≥ 96 KB dirtied)", bm.rep.ResiduePushKB, bm.w.residueKB())
	}
	if bm.absent != 0 {
		t.Fatalf("%d deferred pages not resident at the destination when Migrate returned", bm.absent)
	}
}

// TestPostcopyZeroPagesDrain: a residue holding allocated all-zero pages
// drains at once. No install makes such a page present at the destination
// — the push elides it and InstallPageIfAbsent skips zeros — so the drain
// counts it by its contents in the frozen receptacle; waiting for its
// presence instead would sit out ResidueDrainTimeout and report a healthy
// guest's residue aborted.
func TestPostcopyZeroPagesDrain(t *testing.T) {
	t.Parallel()
	bm := migrateBlocked(t, 47, 8, 0)
	if bm.absent != 8 {
		t.Fatalf("%d deferred pages absent at the destination, want the 8 zero ones", bm.absent)
	}
	if bm.rep.Total >= time.Second {
		t.Fatalf("migration took %v: the drain waited on zero pages", bm.rep.Total)
	}
}
