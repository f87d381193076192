package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/fault"
	"vsystem/internal/progs"
	"vsystem/internal/trace"
)

// TestDestCrashDuringPrecopySourceSurvives is the §3.1.3 guarantee under
// the fault injector: the destination dies during pre-copy round 0, and
// the original logical host — which was never frozen — keeps running on
// the source, loses no output, and the migrator retries to an alternate
// host and succeeds.
func TestDestCrashDuringPrecopySourceSurvives(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 4, Seed: 31})
	c.Install(progs.Ticker(400))
	c.Fault.MigrationFault(trace.PhasePrecopy, 0, fault.VictimDest)

	var job *Job
	var crashedMAC uint16
	var duringOK, duringChecked bool
	var linesAtCheck1 int
	c.Trace.Subscribe(func(ev trace.Event) {
		if ev.Kind != trace.EvMigFault {
			return
		}
		crashedMAC = ev.Host
		// While the failed attempt detects the dead destination (the
		// failure detector condemns the station after ~1 s of station
		// silence — five unanswered retransmissions — instead of the old
		// ~5 s send abort) and waits out the 500 ms retry backoff, the
		// original must be unfrozen, on the source, and still producing
		// output. The retried migration re-freezes the source no earlier
		// than abort (~1.0 s) + backoff (500 ms) after the crash, so both
		// checks must land inside that ≈1.5 s recovery window.
		c.Sim.After(1000*time.Millisecond, func() {
			n, lh := c.FindProgram(job.LHID)
			duringOK = n == c.Node(1) && lh != nil && !lh.Frozen()
			linesAtCheck1 = len(c.Node(0).Display.Lines())
		})
		c.Sim.After(1450*time.Millisecond, func() {
			duringChecked = true
			n, lh := c.FindProgram(job.LHID)
			if n != c.Node(1) || lh == nil || lh.Frozen() {
				duringOK = false
			}
			if len(c.Node(0).Display.Lines()) <= linesAtCheck1 {
				duringOK = false // stopped being scheduled
			}
		})
	})

	// Keep ws0 busy so it never answers selection: candidates are ws2/ws3.
	var busyErr error
	c.Node(0).Agent(func(a *Agent) {
		_, busyErr = a.Exec("tex", nil, "")
	})
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
	c.Run(5 * time.Minute)

	if busyErr != nil || execErr != nil || migErr != nil || waitErr != nil {
		t.Fatalf("busy=%v exec=%v mig=%v wait=%v", busyErr, execErr, migErr, waitErr)
	}
	if got := c.Trace.Count(trace.EvMigFault); got != 1 {
		t.Fatalf("EvMigFault count = %d, want 1", got)
	}
	if got := c.Trace.Count(trace.EvHostCrash); got != 1 {
		t.Fatalf("EvHostCrash count = %d, want 1", got)
	}
	if !duringChecked || !duringOK {
		t.Fatalf("source not unfrozen+scheduled during recovery (checked=%v ok=%v)",
			duringChecked, duringOK)
	}
	mig := c.Node(1).PM.Migrator.(*Migrator)
	if mig.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", mig.Retries)
	}
	if rep == nil {
		t.Fatal("no migration report after successful retry")
	}
	if destMAC := rep.DestHost.Station(); destMAC == crashedMAC {
		t.Fatalf("retry reused the crashed destination %#x", destMAC)
	}
	assertGapless(t, c.Node(0).Display.Lines(), 400)
}

// TestFlushDestCrashAtPrecopyRetries: the §3.2 flush runs pre-copy's round
// loop, so the fault injector reaches it at the same phase points. The
// destination dies as flush round 0 starts; the flush itself goes to the
// file server and completes, the swap then fails against the dead
// destination, and the migrator retries to the other candidate while the
// original — unfrozen on the failure — loses no output.
func TestFlushDestCrashAtPrecopyRetries(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 4, Seed: 31, Policy: PolicyFlush})
	c.Install(progs.Ticker(400))
	c.Fault.MigrationFault(trace.PhasePrecopy, 0, fault.VictimDest)
	var crashedMAC uint16
	c.Trace.Subscribe(func(ev trace.Event) {
		if ev.Kind == trace.EvMigFault {
			crashedMAC = ev.Host
		}
	})

	// Keep ws0 busy so it never answers selection: candidates are ws2/ws3.
	var busyErr, execErr, migErr, waitErr error
	c.Node(0).Agent(func(a *Agent) {
		_, busyErr = a.Exec("tex", nil, "")
	})
	var rep *MigrationReport
	c.Node(0).Agent(func(a *Agent) {
		var job *Job
		if job, execErr = a.Exec("ticker400", nil, "ws1"); execErr != nil {
			return
		}
		a.Sleep(800 * time.Millisecond)
		if rep, migErr = a.Migrate(job, false); migErr != nil {
			return
		}
		_, waitErr = a.Wait(job)
	})
	c.Run(5 * time.Minute)

	if busyErr != nil || execErr != nil || migErr != nil || waitErr != nil {
		t.Fatalf("busy=%v exec=%v mig=%v wait=%v", busyErr, execErr, migErr, waitErr)
	}
	if got := c.Trace.Count(trace.EvMigFault); got != 1 {
		t.Fatalf("EvMigFault count = %d, want 1", got)
	}
	if mig := c.Node(1).PM.Migrator.(*Migrator); mig.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", mig.Retries)
	}
	if rep.Policy != PolicyFlush.String() || rep.DestHost.Station() == crashedMAC {
		t.Fatalf("report policy %q dest %v: want a flush to a host other than the crashed %#x",
			rep.Policy, rep.DestHost, crashedMAC)
	}
	assertGapless(t, c.Node(0).Display.Lines(), 400)
}

// TestFlushResidueFailureNamesItsPhase cuts the source off from the file
// server the instant tex freezes for its flush residue, so the residue
// cannot be written. The error Migrate returns must name the residue —
// the phase the flush died in — and tex must still be running, unfrozen,
// on the source.
func TestFlushResidueFailureNamesItsPhase(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 3, Seed: 7, Policy: PolicyFlush})
	src, fs := c.Node(1).Host.NIC.MAC(), c.FSHost.NIC.MAC()
	cut := false
	c.Trace.Subscribe(func(ev trace.Event) {
		if ev.Kind == trace.EvFreeze && !cut && ev.Host == uint16(src) {
			cut = true
			c.Fault.Partition([]ethernet.MAC{src}, []ethernet.MAC{fs})
		}
	})
	var execErr, migErr error
	stayed := false
	c.Node(1).Agent(func(a *Agent) {
		var job *Job
		if job, execErr = a.Exec("tex", nil, ""); execErr != nil {
			return
		}
		a.Sleep(4 * time.Second)
		_, migErr = a.Migrate(job, false)
		c.Fault.Heal()
		n, lh := c.FindProgram(job.LHID)
		stayed = n == c.Node(1) && lh != nil && !lh.Frozen()
	})
	c.Run(60 * time.Second)

	if execErr != nil || !cut {
		t.Fatalf("exec=%v froze=%v", execErr, cut)
	}
	var pe *PhaseError
	if !errors.As(migErr, &pe) || !errors.Is(migErr, ErrMigrationFailed) {
		t.Fatalf("Migrate = %v, want a *PhaseError", migErr)
	}
	if pe.Phase != trace.PhaseResidue {
		t.Fatalf("Migrate failed at %v, want %v", pe.Phase, trace.PhaseResidue)
	}
	if !stayed {
		t.Fatal("tex is not running unfrozen on the source after the failed flush")
	}
}

// TestSourceCrashAfterSwapDestAdopts covers the other half of §3.1.3: the
// source dies after the new copy has assumed the logical host's identity
// (the LHID swap) but before unfreezing it. The destination's adoption
// watchdog must finish the hand-over: the new copy is authoritative,
// resumes, and completes the workload with no lost output.
func TestSourceCrashAfterSwapDestAdopts(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 4, Seed: 33})
	c.Install(progs.Ticker(400))
	c.Fault.MigrationFault(trace.PhaseRebind, 0, fault.VictimSource)

	var job *Job
	var adoptedOK, adoptedChecked bool
	c.Trace.Subscribe(func(ev trace.Event) {
		if ev.Kind != trace.EvMigFault {
			return
		}
		// The destination adopts only after probing the dead source:
		// OrphanAdoptDelay (1 s) plus the clock-enforced OrphanSilence
		// window (≈10 s of continuous probe silence; the failure detector
		// fails the probes fast, but the split-brain guard is a wall-clock
		// window, not an abort count), ≈11 s in all. Past that window the
		// program must be live and unfrozen on a host other than the dead
		// source.
		c.Sim.After(20*time.Second, func() {
			adoptedChecked = true
			n, lh := c.FindProgram(job.LHID)
			adoptedOK = n != nil && n != c.Node(1) && !lh.Frozen()
		})
	})

	var busyErr error
	c.Node(0).Agent(func(a *Agent) {
		_, busyErr = a.Exec("tex", nil, "")
	})
	var execErr, migErr error
	c.Node(0).Agent(func(a *Agent) {
		job, execErr = a.Exec("ticker400", nil, "ws1")
		if execErr != nil {
			return
		}
		a.Sleep(800 * time.Millisecond)
		// The manager running the migration dies with ws1, so this call
		// fails; the program itself must survive on the destination.
		_, migErr = a.Migrate(job, false)
	})
	c.Run(3 * time.Minute)

	if busyErr != nil || execErr != nil {
		t.Fatalf("busy=%v exec=%v", busyErr, execErr)
	}
	if migErr == nil {
		t.Fatal("Migrate reported success though its manager crashed mid-call")
	}
	if got := c.Trace.Count(trace.EvMigFault); got != 1 {
		t.Fatalf("EvMigFault count = %d, want 1", got)
	}
	if got := c.Trace.Count(trace.EvHostCrash); got != 1 {
		t.Fatalf("EvHostCrash count = %d, want 1", got)
	}
	if !adoptedChecked || !adoptedOK {
		t.Fatalf("destination did not adopt the orphaned copy (checked=%v ok=%v)",
			adoptedChecked, adoptedOK)
	}
	assertGapless(t, c.Node(0).Display.Lines(), 400)
}

// TestRebindPartitionNoSplitBrain regresses the split-brain hazard at the
// commit point: the network partitions between source and destination the
// instant the LHID swap commits (the PhaseRebind boundary) and heals 6 s
// later — past the source's ~5 s send abort on the unfreeze request, so
// both sides must decide under ambiguity. The source must confirm with the
// destination that the swap took effect rather than declare failure (and
// unfreeze the original, or worse retry to a third host), and the
// destination must keep probing the live source rather than adopt
// unilaterally. Exactly one copy survives, with no lost or duplicated
// output.
func TestRebindPartitionNoSplitBrain(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 4, Seed: 35})
	c.Install(progs.Ticker(400))

	mig := c.Node(1).PM.Migrator.(*Migrator)
	base := mig.FaultHook
	cut := false
	mig.FaultHook = func(pp fault.PhasePoint) {
		if base != nil {
			base(pp)
		}
		if pp.Phase == trace.PhaseRebind && !cut {
			cut = true
			c.Fault.Partition([]ethernet.MAC{pp.Src}, []ethernet.MAC{pp.Dst})
			c.Fault.HealAfter(6 * time.Second)
		}
	}

	// Keep ws0 busy so it never answers selection: candidates are ws2/ws3.
	var busyErr error
	c.Node(0).Agent(func(a *Agent) {
		_, busyErr = a.Exec("tex", nil, "")
	})
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
	c.Run(5 * time.Minute)

	if busyErr != nil || execErr != nil {
		t.Fatalf("busy=%v exec=%v", busyErr, execErr)
	}
	if !cut {
		t.Fatal("fault hook never saw the rebind boundary")
	}
	if migErr != nil {
		t.Fatalf("Migrate = %v; the swap had committed, so the source must report success", migErr)
	}
	if waitErr != nil {
		t.Fatalf("Wait = %v", waitErr)
	}
	if got := c.Trace.Count(trace.EvHostCrash); got != 0 {
		t.Fatalf("EvHostCrash count = %d, want 0", got)
	}
	if mig.Retries != 0 {
		t.Fatalf("Retries = %d, want 0 (the identity had moved; no third copy)", mig.Retries)
	}
	if rep == nil {
		t.Fatal("no migration report")
	}
	// Gapless, duplicate-free output is the split-brain detector: two
	// live copies of the ticker would both print and duplicate ticks.
	assertGapless(t, c.Node(0).Display.Lines(), 400)
}

// assertGapless checks the ticker output on a possibly shared display:
// exactly want "t<i>" lines, consecutive, none lost or reordered (other
// programs' lines are ignored).
func assertGapless(t *testing.T, lines []string, want int) {
	t.Helper()
	var ticks []string
	for _, ln := range lines {
		var n int
		if _, err := fmt.Sscanf(ln, "t%d", &n); err == nil && ln == fmt.Sprintf("t%d", n) {
			ticks = append(ticks, ln)
		}
	}
	if len(ticks) != want {
		t.Fatalf("display has %d ticker lines, want %d", len(ticks), want)
	}
	var first int
	fmt.Sscanf(ticks[0], "t%d", &first)
	for i, ln := range ticks {
		if ln != fmt.Sprintf("t%d", first+i) {
			t.Fatalf("tick %d = %q, want %q (lost or reordered output)",
				i, ln, fmt.Sprintf("t%d", first+i))
		}
	}
}

// faultScheduleEvents boots a cluster, applies a fixed fault schedule —
// migration fault with retry, host crash + restart, partition + heal, a
// loss burst and a corruption burst — runs a migrating workload through
// it, and returns every trace event formatted as a string.
func faultScheduleEvents(t *testing.T, seed int64) []string {
	t.Helper()
	c := boot(t, Options{Workstations: 4, Seed: seed})
	var out []string
	c.Trace.Subscribe(func(ev trace.Event) {
		out = append(out, fmt.Sprintf("%v h%d %v lh=%v prio=%d size=%d peer=%d",
			ev.At, ev.Host, ev.Kind, ev.LH, ev.Prio, ev.Size, ev.Peer))
	})
	c.Fault.MigrationFault(trace.PhasePrecopy, 0, fault.VictimDest)
	// Reboot whichever host the migration fault kills, 8 s after it dies.
	c.Trace.Subscribe(func(ev trace.Event) {
		if ev.Kind == trace.EvHostCrash {
			c.Fault.RestartAfter(8*time.Second, ethernet.MAC(ev.Host))
		}
	})
	ws2, ws3 := c.Node(2).Host.NIC.MAC(), c.Node(3).Host.NIC.MAC()
	c.Fault.PartitionAfter(3*time.Second, []ethernet.MAC{ws2}, []ethernet.MAC{ws3})
	c.Fault.HealAfter(4 * time.Second)
	c.Fault.LossBurstAfter(2*time.Second, 500*time.Millisecond, 0.02)
	c.Fault.CorruptBurstAfter(2500*time.Millisecond, 500*time.Millisecond, 0.02)

	var busyErr error
	c.Node(0).Agent(func(a *Agent) {
		_, busyErr = a.Exec("tex", nil, "")
	})
	var execErr error
	c.Node(0).Agent(func(a *Agent) {
		var job *Job
		job, execErr = a.Exec("ticker200", nil, "ws1")
		if execErr != nil {
			return
		}
		a.Sleep(800 * time.Millisecond)
		a.Migrate(job, false) // faulted, retried; outcome captured in the trace
	})
	c.Run(60 * time.Second)
	if busyErr != nil || execErr != nil {
		t.Fatalf("busy=%v exec=%v", busyErr, execErr)
	}
	return out
}

// TestFaultScheduleDeterministic: the same seed and the same fault
// schedule must produce a byte-identical trace event sequence — faults
// draw from the engine's seeded randomness and virtual clock only.
func TestFaultScheduleDeterministic(t *testing.T) {
	t.Parallel()
	a := faultScheduleEvents(t, 5)
	b := faultScheduleEvents(t, 5)
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\n  run1: %s\n  run2: %s", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("no events recorded")
	}
}
