package experiments

import (
	"fmt"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/fault"
	"vsystem/internal/progs"
	"vsystem/internal/trace"
)

// faultCell is one cell of the F1 sweep: which migration participant is
// killed, at which phase (and pre-copy round), under how much ambient
// frame loss.
type faultCell struct {
	label  string
	victim fault.Victim
	phase  trace.Phase
	round  int
	loss   float64
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

	cells := []faultCell{
		{label: "no fault (baseline)", victim: fault.VictimNone},
		{label: "dest crash @ precopy r0", victim: fault.VictimDest, phase: trace.PhasePrecopy},
		{label: "dest crash @ residue", victim: fault.VictimDest, phase: trace.PhaseResidue},
		{label: "dest crash @ swap", victim: fault.VictimDest, phase: trace.PhaseSwap},
		{label: "source crash @ rebind", victim: fault.VictimSource, phase: trace.PhaseRebind},
		{label: "dest crash @ precopy r0, 5% loss", victim: fault.VictimDest,
			phase: trace.PhasePrecopy, loss: 0.05},
	}

	// 400 ticks ≈ 14 s of output: long enough that the program is still
	// running when a faulted attempt times out (~5 s) and is retried.
	const wantTicks = 400
	var run []func(r *Result)
	for _, cell := range cells {
		run = append(run, func(r *Result) {
			c := bootCluster(core.Options{Workstations: 4, Seed: seed, LossRate: cell.loss})
			defer c.Close()
			c.Install(progs.Ticker(wantTicks))
			if cell.victim != fault.VictimNone {
				c.Fault.MigrationFault(cell.phase, cell.round, cell.victim)
			}
			srcDies := cell.victim == fault.VictimSource

			// When the destination is the victim the agent (and its display)
			// live on the source, which must survive; when the source is the
			// victim they live on a third host.
			home := c.Node(1)
			where := "" // local
			if srcDies {
				home = c.Node(0)
				where = "ws1"
			}
			var rep *core.MigrationReport
			var execErr, migErr error
			home.Agent(func(a *core.Agent) {
				job, err := a.Exec(fmt.Sprintf("ticker%d", wantTicks), nil, where)
				if err != nil {
					execErr = err
					return
				}
				a.Sleep(800 * time.Millisecond)
				rep, migErr = a.Migrate(job, false)
			})
			c.Run(90 * time.Second)
			if execErr != nil {
				r.check(false, "%s: exec: %v", cell.label, execErr)
				return
			}

			ticks, ordered := gapless(home.Display.Lines())
			survived := ticks == wantTicks && ordered
			retries := 0
			if mig, ok := c.Node(1).PM.Migrator.(*core.Migrator); ok {
				retries = mig.Retries
			}
			freeze := "-"
			if rep != nil {
				freeze = fmt.Sprintf("frozen %.0f ms", rep.FreezeTime.Seconds()*1000)
			}
			status := "migrated"
			if srcDies {
				status = "adopted by dest"
			}
			if !survived {
				status = "LOST OUTPUT"
			}
			r.row(cell.label, "program survives, output intact",
				fmt.Sprintf("%s, %d retries, %s", status, retries, freeze),
				fmt.Sprintf("%d/%d ticks, ordered=%v, faults=%d",
					ticks, wantTicks, ordered, c.Trace.Count(trace.EvMigFault)))
			r.metric("survived_"+metricKey(cell.label), b2f(survived))
			r.metric("retries_"+metricKey(cell.label), float64(retries))
			if rep != nil {
				r.metric("freeze_ms_"+metricKey(cell.label), rep.FreezeTime.Seconds()*1000)
			}

			r.check(survived, "%s: output lost (%d/%d ticks, ordered=%v)",
				cell.label, ticks, wantTicks, ordered)
			if cell.victim == fault.VictimNone {
				r.check(migErr == nil && retries == 0,
					"%s: err=%v retries=%d", cell.label, migErr, retries)
			} else {
				r.check(c.Trace.Count(trace.EvMigFault) == 1,
					"%s: fault fired %d times", cell.label, c.Trace.Count(trace.EvMigFault))
			}
			if cell.victim == fault.VictimDest {
				// Destination died before the program moved: the migrator
				// must have retried to an alternate host and succeeded.
				r.check(migErr == nil && retries >= 1 && rep != nil,
					"%s: err=%v retries=%d rep=%v", cell.label, migErr, retries, rep != nil)
				if rep != nil {
					r.check(rep.FreezeTime < 5*time.Second,
						"%s: freeze exploded: %v", cell.label, rep.FreezeTime)
				}
			}
			if srcDies {
				// The manager died mid-call, so the client sees a failure —
				// but the adopted copy kept the output flowing (checked
				// above by the survival assertion).
				r.check(migErr != nil, "%s: Migrate succeeded though its manager crashed", cell.label)
			}
		})
	}
	r.absorb(p.cells(run)...)
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
