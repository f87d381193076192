package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/fault"
	"vsystem/internal/progs"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
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
	c.Fault.Arm(fault.Schedule{{When: fault.AtPhase(trace.PhasePrecopy, 0), Do: fault.Crash, Who: fault.MigrationDest}})

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
	c.Fault.Arm(fault.Schedule{{When: fault.AtPhase(trace.PhasePrecopy, 0), Do: fault.Crash, Who: fault.MigrationDest}})
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
	// Station 3 is the file server, registered after the three workstations.
	c.Fault.Arm(fault.Schedule{{When: fault.On(fault.Match{Kind: trace.EvFreeze, Host: fault.Host(1)}),
		Do: fault.Partition, Who: fault.Host(1), Peer: fault.Host(3)}})
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

	if cut := c.Trace.Count(trace.EvPartition) == 1; execErr != nil || !cut {
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
	c.Fault.Arm(fault.Schedule{{When: fault.AtPhase(trace.PhaseRebind, 0), Do: fault.Crash, Who: fault.MigrationSource}})

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
	c.Fault.Arm(fault.Schedule{{When: fault.AtPhase(trace.PhaseRebind, 0),
		Do: fault.Partition, Who: fault.MigrationSource, Peer: fault.MigrationDest}})
	// The heal is armed as the cut lands: 6 s after it.
	c.Trace.Subscribe(func(ev trace.Event) {
		if ev.Kind == trace.EvPartition {
			c.Fault.Arm(fault.Schedule{{When: fault.After(6 * time.Second), Do: fault.Heal}})
		}
	})

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
	if c.Trace.Count(trace.EvPartition) != 1 || c.Trace.Count(trace.EvHeal) != 1 {
		t.Fatal("the partition step never saw the rebind boundary, or the heal never came")
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

// faultSchedule is a fixed fault schedule: a migration fault with retry,
// the crashed destination rebooted as its death is published, a partition
// and its heal, a loss burst and a corruption burst.
var faultSchedule = fault.Schedule{
	{When: fault.AtPhase(trace.PhasePrecopy, 0), Do: fault.Crash, Who: fault.MigrationDest},
	{When: fault.On(fault.Match{Kind: trace.EvHostCrash}), Do: fault.Restart, Who: fault.MigrationDest},
	{When: fault.After(3 * time.Second), Do: fault.Partition, Who: fault.Host(2), Peer: fault.Host(3)},
	{When: fault.After(4 * time.Second), Do: fault.Heal},
	{When: fault.After(2 * time.Second), Do: fault.LossBurst, For: 500 * time.Millisecond, P: 0.02},
	{When: fault.After(2500 * time.Millisecond), Do: fault.CorruptBurst, For: 500 * time.Millisecond, P: 0.02},
}

// faultScheduleEvents boots a cluster, arms faultSchedule, runs a migrating
// workload through it, and returns every trace event formatted as a
// string.
func faultScheduleEvents(t *testing.T, seed int64) []string {
	t.Helper()
	c := boot(t, Options{Workstations: 4, Seed: seed})
	var out []string
	c.Trace.Subscribe(func(ev trace.Event) {
		out = append(out, fmt.Sprintf("%v h%d %v lh=%v prio=%d size=%d peer=%d",
			ev.At, ev.Host, ev.Kind, ev.LH, ev.Prio, ev.Size, ev.Peer))
	})
	c.Fault.Arm(faultSchedule)

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
	// Every step of the schedule fired.
	for _, k := range []trace.Kind{trace.EvMigFault, trace.EvHostCrash, trace.EvHostRestart, trace.EvPartition, trace.EvHeal} {
		if !slices.ContainsFunc(a, func(ev string) bool { return strings.Contains(ev, " "+k.String()+" lh=") }) {
			t.Errorf("no %v event: the schedule did not fire it", k)
		}
	}
}

// TestScheduleRolesResolveAtFireTime: a schedule armed at boot, before any
// group has a leader, names its targets by role, and each resolves as its
// step fires — the home leader to HomeLeaderIdx's station, the home
// follower to the first member that does not lead, the FS leader to the
// file-service replica that leads.
func TestScheduleRolesResolveAtFireTime(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 4, Seed: 3, ReplicateHome: 3, ReplicateFS: 3})
	// Who holds each role at 3 s, read by an event scheduled before the
	// steps at the same instant, so it runs just before them.
	var lead, follower, fsLead ethernet.MAC
	c.Sim.After(3*time.Second, func() {
		i := c.HomeLeaderIdx()
		if i < 0 {
			return
		}
		lead, follower = c.Nodes[i].Host.NIC.MAC(), c.Nodes[0].Host.NIC.MAC()
		if i == 0 {
			follower = c.Nodes[1].Host.NIC.MAC()
		}
		for j, fs := range c.FSReps {
			if fs.Replica().IsLeader() {
				fsLead = c.FSHosts[j].NIC.MAC()
			}
		}
	})
	c.Fault.Arm(fault.Schedule{
		{When: fault.After(3 * time.Second), Do: fault.Partition, Who: fault.HomeFollower},
		{When: fault.After(3 * time.Second), Do: fault.Crash, Who: fault.FSLeader},
		{When: fault.After(3 * time.Second), Do: fault.Crash, Who: fault.HomeLeader},
	})
	var cut ethernet.MAC
	var crashed []ethernet.MAC
	c.Trace.Subscribe(func(ev trace.Event) {
		switch ev.Kind {
		case trace.EvPartition:
			cut = ethernet.MAC(ev.Host)
		case trace.EvHostCrash:
			crashed = append(crashed, ethernet.MAC(ev.Host))
		}
	})
	c.Run(4 * time.Second)

	if lead == 0 || fsLead == 0 {
		t.Fatalf("no leader at 3s: home %v, fs %v", lead, fsLead)
	}
	if cut != follower {
		t.Errorf("partition cut off %v, want the first non-leader member %v", cut, follower)
	}
	if want := []ethernet.MAC{fsLead, lead}; !slices.Equal(crashed, want) {
		t.Errorf("crashed %v, want the FS leader then the home leader %v", crashed, want)
	}
}

// TestHomeLeaderKillMidElectionLandsOnTheElected: a home-leader kill timed
// while the group is electing — its leader was killed just before — finds
// no leader, asks again every 200 ms, and lands on the member the election
// chooses.
func TestHomeLeaderKillMidElectionLandsOnTheElected(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 4, Seed: 3, ReplicateHome: 3})
	c.Fault.Arm(fault.Schedule{
		{When: fault.After(3 * time.Second), Do: fault.Crash, Who: fault.HomeLeader},
		{When: fault.After(3100 * time.Millisecond), Do: fault.Crash, Who: fault.HomeLeader},
	})
	var crashed []trace.Event
	var elect trace.Event // the first home election after the first kill
	c.Trace.Subscribe(func(ev trace.Event) {
		switch {
		case ev.Kind == trace.EvHostCrash:
			crashed = append(crashed, ev)
		case ev.Kind == trace.EvElect && ev.LH == vid.GroupHomeRSM.LH() && len(crashed) == 1 && elect.At == 0:
			elect = ev
		}
	})
	c.Run(10 * time.Second)

	if len(crashed) != 2 || elect.At == 0 {
		t.Fatalf("crashes %d, election after the first %v: want 2 crashes and an election", len(crashed), elect.At)
	}
	second := crashed[1]
	if second.Host != elect.Host || second.Host == crashed[0].Host {
		t.Fatalf("second kill hit %#x; the election chose %#x (first kill %#x)", second.Host, elect.Host, crashed[0].Host)
	}
	waited := second.At.Sub(sim.Time(3100 * time.Millisecond))
	if second.At < elect.At || waited <= 0 || waited%(200*time.Millisecond) != 0 {
		t.Fatalf("second kill at %v, election at %v: want the first 200 ms retry after it", second.At, elect.At)
	}
}
