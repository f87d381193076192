package experiments

import (
	"fmt"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/fault"
	"vsystem/internal/params"
	"vsystem/internal/trace"
)

// GuestCrash probes the exec-session supervision layer end to end: a
// program is executed remotely, its hosting workstation is powered off at
// a configurable point, and the home program manager must detect the loss
// (through the per-host failure detector and the session lease), select a
// new host, and re-execute the program from its file-server image — with
// the user-visible output stream staying exactly-once despite the replay
// (§2.3: the only residual dependency a supervised guest keeps on its
// home is one the home can always honor). The cells are independent
// clusters and run side by side.
func GuestCrash(p *Pool, seed int64) *Result {
	r := newResult("F2", "guest recovery after hosting-workstation loss (§2.3 supervision)")

	// The hosting workstation is ws1.
	crash := func(at time.Duration) fault.Step {
		return fault.Step{When: fault.After(at), Do: fault.Crash, Who: fault.Host(1)}
	}
	rows := []faultRow{
		{label: "no fault (baseline)"},
		{label: "host crash @ 2s", sched: fault.Schedule{crash(2 * time.Second)}, expect: reexecuted},
		{label: "host crash @ 5s", sched: fault.Schedule{crash(5 * time.Second)}, expect: reexecuted},
		{label: "host crash @ 9s", sched: fault.Schedule{crash(9 * time.Second)}, expect: reexecuted},
		{label: "host crash @ 5s, 5% loss", opt: core.Options{LossRate: 0.05},
			sched: fault.Schedule{crash(5 * time.Second)}, expect: reexecuted},
		{label: "host crash @ 5s, reboot @ 20s", sched: fault.Schedule{crash(5 * time.Second),
			{When: fault.After(20 * time.Second), Do: fault.Restart, Who: fault.Host(1)}}, expect: reexecuted | rebooted},
	}

	// 300 ticks ≈ 10.5 s of output: the crash always lands mid-run, and a
	// re-executed incarnation replays the full stream through the
	// deduplicating display.
	const wantTicks = 300
	// The detection-latency budget: the failure detector needs
	// SuspectAfterRetries silent retransmission ticks, plus scheduling
	// slack; anything near the old ~5 s per-send abort is a regression.
	detectBudget := time.Duration(params.SuspectAfterRetries)*params.RetransmitInterval +
		250*time.Millisecond

	s := session{workstations: 4, ticks: wantTicks, where: "ws1", run: 120 * time.Second}
	r.absorb(p.cells(rowCells(rows, func(r *Result, row faultRow) {
		// First suspicion of the victim anywhere in the cluster: its Size
		// field carries the detector's measured silence in microseconds.
		var detectUS int
		c, o := s.play(seed, row, func(c *core.Cluster) {
			victimMAC := uint16(c.Node(1).Host.NIC.MAC())
			c.Trace.Subscribe(func(ev trace.Event) {
				if ev.Kind == trace.EvHostSuspect && ev.Peer == victimMAC && detectUS == 0 {
					detectUS = ev.Size
				}
			})
		})
		defer c.Close()
		if o.execErr != nil {
			r.check(false, "%s: exec: %v", row.label, o.execErr)
			return
		}

		survived := o.exactlyOnce(wantTicks)
		crashed := row.expect&reexecuted != 0
		restarts := c.Trace.Count(trace.EvExecRestart)
		detect := time.Duration(detectUS) * time.Microsecond

		status := "ran to completion"
		if crashed {
			status = fmt.Sprintf("re-executed %dx, detected in %v", restarts, detect.Round(time.Millisecond))
		}
		if !survived {
			status = "LOST OUTPUT"
		}
		r.row(row.label, "exit seen once, output exactly-once",
			status,
			fmt.Sprintf("%d/%d ticks, ordered=%v, wait=(%d,%v,%v), expires=%d",
				o.ticks, wantTicks, o.ordered, o.code, o.waitErr, o.waits,
				c.Trace.Count(trace.EvLeaseExpire)))
		r.metric("survived_"+metricKey(row.label), b2f(survived))
		r.metric("restarts_"+metricKey(row.label), float64(restarts))
		if crashed {
			r.metric("detect_ms_"+metricKey(row.label), detect.Seconds()*1000)
		}

		r.check(survived, "%s: output not exactly-once (%d/%d ticks, ordered=%v)",
			row.label, o.ticks, wantTicks, o.ordered)
		r.check(o.waitErr == nil && o.code == 0 && o.waits == 1,
			"%s: wait=(%d,%v) waits=%d", row.label, o.code, o.waitErr, o.waits)
		if !crashed {
			r.check(restarts == 0 && c.Trace.Count(trace.EvHostSuspect) == 0,
				"%s: spurious recovery (restarts=%d suspects=%d)", row.label,
				restarts, c.Trace.Count(trace.EvHostSuspect))
		} else {
			r.check(restarts >= 1, "%s: no re-execution after host loss", row.label)
			r.check(detectUS > 0 && detect <= detectBudget,
				"%s: detection latency %v exceeds budget %v", row.label, detect, detectBudget)
			r.check(detect < 2500*time.Millisecond,
				"%s: detection %v not clearly under the ~5 s send abort", row.label, detect)
		}
		if row.expect&rebooted != 0 {
			r.check(c.Trace.Count(trace.EvHostClear) >= 1,
				"%s: reboot never cleared the standing suspicion", row.label)
		}
	}))...)
	r.note("detection = SuspectAfterRetries unanswered retransmissions with station-wide silence; recovery = locate group query, then re-exec from the file-server image")
	return r
}
