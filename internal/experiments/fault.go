package experiments

import (
	"fmt"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/fault"
	"vsystem/internal/progs"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
)

// faultRow is one row of a fault table — F1, F2, F3 or E12's exactly-once
// sweep: a labelled cluster, the fault schedule armed on it, and what its
// experiment expects of it beyond exactly-once output.
type faultRow struct {
	label  string
	opt    core.Options
	sched  fault.Schedule
	expect expect
}

// expect flags what a fault row must show.
type expect uint8

const (
	retried    expect = 1 << iota // the destination died; the migrator retried elsewhere
	adopted                       // the source died; the destination adopted the program
	reexecuted                    // supervision re-executed the session
	rebooted                      // the crashed host came back
	failedOver                    // a home member died or was cut off; the group re-elected
	execMeets                     // the disruption came before the session's exec returned
	lost                          // the unreplicated home loses the session
)

// crashAt is the schedule that crashes one migration participant when a
// migration reaches the phase (for pre-copy, its round 0).
func crashAt(ph trace.Phase, who fault.Who) fault.Schedule {
	return fault.Schedule{{When: fault.AtPhase(ph, 0), Do: fault.Crash, Who: who}}
}

// session is how an experiment plays its fault rows: an agent on ws<home>
// sleeps settle, executes a ticker of ticks lines at where, then migrates
// it after migrateAfter or, when that is zero, waits for its exit; the
// clock runs for run.
type session struct {
	workstations, ticks, home int
	where                     string
	settle, migrateAfter, run time.Duration
}

// outcome is what a session's agent and its home display saw.
type outcome struct {
	migration // the exec's error; a migrating session's report and error
	// ticks and ordered describe the ticker lines on the home display.
	ticks   int
	ordered bool
	// code, waitErr and waits are a waiting session's exit, and execAt and
	// execDone when its Exec was called and returned.
	code             uint32
	waitErr          error
	waits            int
	execAt, execDone sim.Time
}

// play boots the row's cluster at the seed, arms its schedule, lets watch
// (if any) subscribe, and runs the session. The caller closes the cluster.
func (s session) play(seed int64, row faultRow, watch func(*core.Cluster)) (*core.Cluster, outcome) {
	opt := row.opt
	opt.Workstations, opt.Seed = s.workstations, seed
	c := bootCluster(opt)
	c.Install(progs.Ticker(uint32(s.ticks)))
	c.Fault.Arm(row.sched)
	if watch != nil {
		watch(c)
	}
	home := c.Node(s.home)
	prog := fmt.Sprintf("ticker%d", s.ticks)
	var o outcome
	m := &migration{}
	if s.migrateAfter > 0 {
		m = migrateAfter(home, prog, s.where, s.migrateAfter)
	} else {
		home.Agent(func(a *core.Agent) {
			if s.settle > 0 {
				a.Sleep(s.settle)
			}
			o.execAt = a.Now()
			m.job, m.execErr = a.Exec(prog, nil, s.where)
			o.execDone = a.Now()
			if m.execErr == nil {
				o.code, o.waitErr = a.Wait(m.job)
				o.waits++
			}
		})
	}
	c.Run(s.run)
	o.migration = *m
	o.ticks, o.ordered = gapless(home.Display.Lines())
	return c, o
}

// exactlyOnce reports whether the home display shows all want ticks, in
// order and without duplicates.
func (o outcome) exactlyOnce(want int) bool { return o.ticks == want && o.ordered }

// rowCells turns a fault table into pool cells, each running cell on its
// row.
func rowCells(rows []faultRow, cell func(r *Result, row faultRow)) []func(*Result) {
	run := make([]func(*Result), len(rows))
	for i, row := range rows {
		run[i] = func(r *Result) { cell(r, row) }
	}
	return run
}

// migration is what an exec → sleep → migrate agent saw.
type migration struct {
	job     *core.Job
	execErr error
	rep     *core.MigrationReport
	err     error // Migrate's
}

// migrateAfter starts an agent on n that executes prog at where, sleeps d
// and migrates it. The result fills in as the cluster runs.
func migrateAfter(n *core.Node, prog, where string, d time.Duration) *migration {
	m := &migration{}
	n.Agent(func(a *core.Agent) {
		if m.job, m.execErr = a.Exec(prog, nil, where); m.execErr != nil {
			return
		}
		a.Sleep(d)
		m.rep, m.err = a.Migrate(m.job, false)
	})
	return m
}

// failed returns the exec's error, else Migrate's.
func (m *migration) failed() error {
	if m.execErr != nil {
		return m.execErr
	}
	return m.err
}

// gapless counts strictly consecutive "t<i>" ticker lines on a possibly
// shared display, ignoring other programs' output.
func gapless(lines []string) (int, bool) {
	var ticks []int
	for _, ln := range lines {
		var n int
		if _, err := fmt.Sscanf(ln, "t%d", &n); err == nil && ln == fmt.Sprintf("t%d", n) {
			ticks = append(ticks, n)
		}
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] != ticks[i-1]+1 {
			return len(ticks), false
		}
	}
	return len(ticks), true
}

// FaultSweep probes the §3.1.3 crash-tolerance claims end to end with the
// deterministic fault injector: a migration participant is killed at each
// phase of the §3.1 algorithm (and under ambient frame loss), and in every
// cell the program must survive with its output intact — on the source
// when the destination dies before the LHID swap (with the migrator
// retrying to an alternate host), on the destination when the source dies
// after it ("one of the two hosts can crash during migration without
// destroying the program"). The cells are independent clusters and run
// side by side.
func FaultSweep(p *Pool, seed int64) *Result {
	r := newResult("F1", "migration under injected faults (§3.1.3 crash tolerance)")

	rows := []faultRow{
		{label: "no fault (baseline)"},
		{label: "dest crash @ precopy r0", sched: crashAt(trace.PhasePrecopy, fault.MigrationDest), expect: retried},
		{label: "dest crash @ residue", sched: crashAt(trace.PhaseResidue, fault.MigrationDest), expect: retried},
		{label: "dest crash @ swap", sched: crashAt(trace.PhaseSwap, fault.MigrationDest), expect: retried},
		{label: "source crash @ rebind", sched: crashAt(trace.PhaseRebind, fault.MigrationSource), expect: adopted},
		{label: "dest crash @ precopy r0, 5% loss", opt: core.Options{LossRate: 0.05},
			sched: crashAt(trace.PhasePrecopy, fault.MigrationDest), expect: retried},
	}

	// 400 ticks ≈ 14 s of output: long enough that the program is still
	// running when a faulted attempt times out (~5 s) and is retried.
	const wantTicks = 400
	r.absorb(p.cells(rowCells(rows, func(r *Result, row faultRow) {
		// When the destination is the victim the agent (and its display)
		// live on the source, which must survive; when the source is the
		// victim they live on a third host.
		s := session{workstations: 4, ticks: wantTicks, home: 1, migrateAfter: 800 * time.Millisecond, run: 90 * time.Second}
		srcDies := row.expect&adopted != 0
		if srcDies {
			s.home, s.where = 0, "ws1"
		}
		c, o := s.play(seed, row, nil)
		defer c.Close()
		if o.execErr != nil {
			r.check(false, "%s: exec: %v", row.label, o.execErr)
			return
		}

		survived := o.exactlyOnce(wantTicks)
		retries := 0
		if mig, ok := c.Node(1).PM.Migrator.(*core.Migrator); ok {
			retries = mig.Retries
		}
		freeze := "-"
		if o.rep != nil {
			freeze = fmt.Sprintf("frozen %.0f ms", o.rep.FreezeTime.Seconds()*1000)
		}
		status := "migrated"
		if srcDies {
			status = "adopted by dest"
		}
		if !survived {
			status = "LOST OUTPUT"
		}
		r.row(row.label, "program survives, output intact",
			fmt.Sprintf("%s, %d retries, %s", status, retries, freeze),
			fmt.Sprintf("%d/%d ticks, ordered=%v, faults=%d",
				o.ticks, wantTicks, o.ordered, c.Trace.Count(trace.EvMigFault)))
		r.metric("survived_"+metricKey(row.label), b2f(survived))
		r.metric("retries_"+metricKey(row.label), float64(retries))
		if o.rep != nil {
			r.metric("freeze_ms_"+metricKey(row.label), o.rep.FreezeTime.Seconds()*1000)
		}

		r.check(survived, "%s: output lost (%d/%d ticks, ordered=%v)",
			row.label, o.ticks, wantTicks, o.ordered)
		if row.sched == (fault.Schedule{}) {
			r.check(o.err == nil && retries == 0,
				"%s: err=%v retries=%d", row.label, o.err, retries)
		} else {
			r.check(c.Trace.Count(trace.EvMigFault) == 1,
				"%s: fault fired %d times", row.label, c.Trace.Count(trace.EvMigFault))
		}
		if row.expect&retried != 0 {
			// Destination died before the program moved: the migrator
			// must have retried to an alternate host and succeeded.
			r.check(o.err == nil && retries >= 1 && o.rep != nil,
				"%s: err=%v retries=%d rep=%v", row.label, o.err, retries, o.rep != nil)
			if o.rep != nil {
				r.check(o.rep.FreezeTime < 5*time.Second,
					"%s: freeze exploded: %v", row.label, o.rep.FreezeTime)
			}
		}
		if srcDies {
			// The manager died mid-call, so the client sees a failure —
			// but the adopted copy kept the output flowing (checked
			// above by the survival assertion).
			r.check(o.err != nil, "%s: Migrate succeeded though its manager crashed", row.label)
		}
	}))...)
	r.note("dest crashes leave the original unfrozen on the source; the LHID swap is the commit point")
	return r
}

// metricKey compresses a cell label into a metric-name fragment.
func metricKey(label string) string {
	out := make([]rune, 0, len(label))
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ':
			out = append(out, '_')
		}
	}
	return string(out)
}
