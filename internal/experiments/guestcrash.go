package experiments

import (
	"fmt"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/params"
	"vsystem/internal/progs"
	"vsystem/internal/trace"
)

// crashCell is one cell of the F2 sweep: when the hosting workstation is
// killed, under how much ambient loss, and whether it later reboots.
type crashCell struct {
	label     string
	crashAt   time.Duration // 0: no crash (baseline)
	restartAt time.Duration // 0: stays down
	loss      float64
}

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

	cells := []crashCell{
		{label: "no fault (baseline)"},
		{label: "host crash @ 2s", crashAt: 2 * time.Second},
		{label: "host crash @ 5s", crashAt: 5 * time.Second},
		{label: "host crash @ 9s", crashAt: 9 * time.Second},
		{label: "host crash @ 5s, 5% loss", crashAt: 5 * time.Second, loss: 0.05},
		{label: "host crash @ 5s, reboot @ 20s", crashAt: 5 * time.Second, restartAt: 20 * time.Second},
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

	var run []func(r *Result)
	for _, cell := range cells {
		run = append(run, func(r *Result) {
			c := bootCluster(core.Options{Workstations: 4, Seed: seed, LossRate: cell.loss})
			defer c.Close()
			c.Install(progs.Ticker(wantTicks))
			victim := c.Node(1)
			victimMAC := uint16(victim.Host.NIC.MAC())
			if cell.crashAt > 0 {
				c.Fault.CrashAfter(cell.crashAt, victim.Host.NIC.MAC())
			}
			if cell.restartAt > 0 {
				c.Fault.RestartAfter(cell.restartAt, victim.Host.NIC.MAC())
			}

			// First suspicion of the victim anywhere in the cluster: its Size
			// field carries the detector's measured silence in microseconds.
			var detectUS int
			c.Trace.Subscribe(func(ev trace.Event) {
				if ev.Kind == trace.EvHostSuspect && ev.Peer == victimMAC && detectUS == 0 {
					detectUS = ev.Size
				}
			})

			home := c.Node(0)
			var code uint32
			var execErr, waitErr error
			waits := 0
			home.Agent(func(a *core.Agent) {
				job, err := a.Exec(fmt.Sprintf("ticker%d", wantTicks), nil, "ws1")
				if err != nil {
					execErr = err
					return
				}
				code, waitErr = a.Wait(job)
				waits++
			})
			c.Run(120 * time.Second)
			if execErr != nil {
				r.check(false, "%s: exec: %v", cell.label, execErr)
				return
			}

			ticks, ordered := gapless(home.Display.Lines())
			survived := ticks == wantTicks && ordered
			restarts := c.Trace.Count(trace.EvExecRestart)
			detect := time.Duration(detectUS) * time.Microsecond

			status := "ran to completion"
			if cell.crashAt > 0 {
				status = fmt.Sprintf("re-executed %dx, detected in %v", restarts, detect.Round(time.Millisecond))
			}
			if !survived {
				status = "LOST OUTPUT"
			}
			r.row(cell.label, "exit seen once, output exactly-once",
				status,
				fmt.Sprintf("%d/%d ticks, ordered=%v, wait=(%d,%v,%v), expires=%d",
					ticks, wantTicks, ordered, code, waitErr, waits,
					c.Trace.Count(trace.EvLeaseExpire)))
			r.metric("survived_"+metricKey(cell.label), b2f(survived))
			r.metric("restarts_"+metricKey(cell.label), float64(restarts))
			if cell.crashAt > 0 {
				r.metric("detect_ms_"+metricKey(cell.label), detect.Seconds()*1000)
			}

			r.check(survived, "%s: output not exactly-once (%d/%d ticks, ordered=%v)",
				cell.label, ticks, wantTicks, ordered)
			r.check(waitErr == nil && code == 0 && waits == 1,
				"%s: wait=(%d,%v) waits=%d", cell.label, code, waitErr, waits)
			if cell.crashAt == 0 {
				r.check(restarts == 0 && c.Trace.Count(trace.EvHostSuspect) == 0,
					"%s: spurious recovery (restarts=%d suspects=%d)", cell.label,
					restarts, c.Trace.Count(trace.EvHostSuspect))
			} else {
				r.check(restarts >= 1, "%s: no re-execution after host loss", cell.label)
				r.check(detectUS > 0 && detect <= detectBudget,
					"%s: detection latency %v exceeds budget %v", cell.label, detect, detectBudget)
				r.check(detect < 2500*time.Millisecond,
					"%s: detection %v not clearly under the ~5 s send abort", cell.label, detect)
			}
			if cell.restartAt > 0 {
				r.check(c.Trace.Count(trace.EvHostClear) >= 1,
					"%s: reboot never cleared the standing suspicion", cell.label)
			}
		})
	}
	r.absorb(p.cells(run)...)
	r.note("detection = SuspectAfterRetries unanswered retransmissions with station-wide silence; recovery = locate group query, then re-exec from the file-server image")
	return r
}
