package experiments

import (
	"fmt"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/fault"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// HomeCrash probes the replicated home services end to end (F3): a
// supervised remote session runs while the home-PM group's leader is
// killed at each phase of the supervision protocol — idle, at the
// supervise commit, mid-lease, at the lease-expiry commit, at the re-exec
// commit — and under minority/majority partitions and ambient loss. Every
// replicated cell must keep the user-visible tick stream ordered and
// exactly-once, fail over within params.RsmFailoverBudget, and never let a
// stale minority leader double-execute the guest (duplicate ticks would
// betray it instantly). The unreplicated baseline cells show the contrast:
// the same kills lose the session outright. The cells are independent
// clusters and run side by side.
func HomeCrash(p *Pool, seed int64) *Result {
	r := newResult("F3", "home-service loss: consensus home group failover (§2.3 carried to the home itself)")

	const wantTicks = 300
	const homeN = 3

	at := func(d time.Duration, do fault.Action, who fault.Who) fault.Step {
		return fault.Step{When: fault.After(d), Do: do, Who: who}
	}
	on := func(m fault.Match) fault.Step {
		return fault.Step{When: fault.On(m), Do: fault.Crash, Who: fault.HomeLeader}
	}
	// The session runs on ws4; crashing it forces the surviving home
	// leader to re-execute the session.
	hostCrash := func(d time.Duration) fault.Step { return at(d, fault.Crash, fault.Host(4)) }
	heal := at(30*time.Second, fault.Heal, 0)
	home := core.Options{ReplicateHome: homeN}

	rows := []faultRow{
		{label: "no fault (baseline)", opt: home},
		// The exec starts mid-election: its PmSupervise meets a group
		// with no leader, and the member the election fences serves it.
		{label: "leader kill @ idle (2s)", opt: home, expect: failedOver | execMeets,
			sched: fault.Schedule{at(2*time.Second, fault.Crash, fault.HomeLeader)}},
		// The first home-group commit past the agent's boot sleep is the
		// session's hgSupervise (or its immediate barrier).
		{label: "leader kill @ supervise commit", opt: home, expect: failedOver | execMeets,
			sched: fault.Schedule{on(fault.Match{Kind: trace.EvCommit, LH: vid.GroupHomeRSM.LH(), NotBefore: 2400 * time.Millisecond})}},
		{label: "leader kill @ steady lease (6s)", opt: home, expect: failedOver,
			sched: fault.Schedule{at(6*time.Second, fault.Crash, fault.HomeLeader)}},
		{label: "leader kill (6s) + host crash (9s)", opt: home, expect: failedOver | reexecuted,
			sched: fault.Schedule{at(6*time.Second, fault.Crash, fault.HomeLeader), hostCrash(9 * time.Second)}},
		// The leader learns the hosting workstation died from a failed
		// renewal: kill it the instant the break is committed, before it
		// can commit a restart intent.
		{label: "host crash, leader kill @ lease expiry", opt: home, expect: failedOver | reexecuted,
			sched: fault.Schedule{on(fault.Match{Kind: trace.EvLeaseExpire}), hostCrash(6 * time.Second)}},
		{label: "host crash, leader kill @ re-exec commit", opt: home, expect: failedOver | reexecuted,
			sched: fault.Schedule{on(fault.Match{Kind: trace.EvExecRestart}), hostCrash(6 * time.Second)}},
		// The stale leader is cut off alone: the majority side elects a
		// successor and recovers the session; the stale leader can no
		// longer commit a restart intent, so it cannot start a second
		// incarnation no matter what it believes.
		{label: "leader partitioned to minority, host crash", opt: home, expect: failedOver | reexecuted,
			sched: fault.Schedule{at(6*time.Second, fault.Partition, fault.HomeLeader), heal, hostCrash(9 * time.Second)}},
		// The complementary cut: a minority follower is isolated and the
		// leader keeps its majority — supervision continues without any
		// failover at all.
		{label: "follower partitioned away (leader keeps quorum), host crash", opt: home, expect: reexecuted,
			sched: fault.Schedule{at(6*time.Second, fault.Partition, fault.HomeFollower), heal, hostCrash(9 * time.Second)}},
		{label: "leader kill (6s) + host crash (9s), 5% loss", opt: core.Options{ReplicateHome: homeN, LossRate: 0.05},
			expect: failedOver | reexecuted,
			sched:  fault.Schedule{at(6*time.Second, fault.Crash, fault.HomeLeader), hostCrash(9 * time.Second)}},
		{label: "fs leader killed too: re-exec loads image from fs replica", opt: core.Options{ReplicateHome: homeN, ReplicateFS: 3},
			expect: failedOver | reexecuted,
			sched: fault.Schedule{at(6*time.Second, fault.Crash, fault.HomeLeader),
				at(6*time.Second, fault.Crash, fault.FSLeader), hostCrash(6 * time.Second)}},
		// No group: the home workstation (agent, display, supervisor) is a
		// single point of failure — kill it, then the host.
		{label: "UNREPLICATED home: supervisor dies", expect: lost,
			sched: fault.Schedule{at(6*time.Second, fault.Crash, fault.Host(3)), hostCrash(9 * time.Second)}},
	}

	s := session{workstations: 6, ticks: wantTicks, home: 3, where: "ws4",
		settle: 2500 * time.Millisecond, run: 4 * time.Minute} // the settle lets the first home election finish
	r.absorb(p.cells(rowCells(rows, func(r *Result, row faultRow) {
		// Failover clock: first qualifying disruption — a home member's
		// crash or a partition — to the next home election.
		var disruptAt, electAt sim.Time
		c, o := s.play(seed, row, func(c *core.Cluster) {
			memberMAC := make(map[uint16]bool, row.opt.ReplicateHome)
			for i := 0; i < row.opt.ReplicateHome && i < len(c.Nodes); i++ {
				memberMAC[uint16(c.Nodes[i].Host.NIC.MAC())] = true
			}
			c.Trace.Subscribe(func(ev trace.Event) {
				switch {
				case disruptAt == 0 && (ev.Kind == trace.EvPartition || ev.Kind == trace.EvHostCrash && memberMAC[ev.Host]):
					disruptAt = ev.At
				case disruptAt != 0 && electAt == 0 && ev.Kind == trace.EvElect &&
					ev.LH == vid.GroupHomeRSM.LH() && ev.At > disruptAt:
					electAt = ev.At
				}
			})
		})
		defer c.Close()

		survived := o.exactlyOnce(wantTicks)
		restarts := c.Trace.Count(trace.EvExecRestart)
		failover := time.Duration(0)
		if disruptAt != 0 && electAt != 0 {
			failover = electAt.Sub(disruptAt)
		}
		clocked := row.expect&failedOver != 0

		status := fmt.Sprintf("%d/%d ticks, re-executed %dx", o.ticks, wantTicks, restarts)
		if clocked {
			status += fmt.Sprintf(", failover %v", failover.Round(time.Millisecond))
		}
		exec := o.execDone.Sub(o.execAt)
		if row.expect&execMeets != 0 {
			status += fmt.Sprintf(", exec %v", exec.Round(time.Millisecond))
		}
		want := "exit seen once, output exactly-once"
		if row.expect&lost != 0 {
			want = "session lost (the single home was the SPOF)"
		}
		r.row(row.label, want, status,
			fmt.Sprintf("wait=(%d,%v,%d) ordered=%v expires=%d",
				o.code, o.waitErr, o.waits, o.ordered, c.Trace.Count(trace.EvLeaseExpire)))
		r.metric("survived_"+metricKey(row.label), b2f(survived))
		r.metric("restarts_"+metricKey(row.label), float64(restarts))
		if clocked {
			r.metric("failover_ms_"+metricKey(row.label), failover.Seconds()*1000)
		}
		if row.expect&execMeets != 0 {
			r.metric("exec_ms_"+metricKey(row.label), exec.Seconds()*1000)
		}

		if row.expect&lost != 0 {
			// The baseline must demonstrably lose the session: output
			// truncated and nobody left to re-execute.
			r.check(!survived, "%s: unreplicated home survived?! (%d ticks)", row.label, o.ticks)
			r.check(restarts == 0, "%s: restarts=%d with the supervisor dead", row.label, restarts)
			return
		}
		if o.execErr != nil {
			r.check(false, "%s: exec: %v", row.label, o.execErr)
			return
		}
		r.check(survived, "%s: output not exactly-once (%d/%d ticks, ordered=%v)",
			row.label, o.ticks, wantTicks, o.ordered)
		r.check(o.waitErr == nil && o.code == 0 && o.waits == 1,
			"%s: wait=(%d,%v) waits=%d", row.label, o.code, o.waitErr, o.waits)
		if row.expect&reexecuted != 0 {
			r.check(restarts >= 1, "%s: no re-execution after host loss", row.label)
		}
		if row.expect&execMeets != 0 {
			r.check(disruptAt != 0 && disruptAt < o.execDone, "%s: the disruption (%v) missed the exec (returned %v)",
				row.label, disruptAt, o.execDone)
		}
		if clocked {
			r.check(disruptAt != 0, "%s: disruption never fired", row.label)
			r.check(electAt != 0, "%s: no home re-election after the disruption", row.label)
			r.check(failover > 0 && failover <= params.RsmFailoverBudget,
				"%s: failover %v exceeds budget %v", row.label, failover, params.RsmFailoverBudget)
		}
	}))...)
	r.note("failover = first qualifying disruption (member crash or partition) to the next home EvElect; budget (params.RsmFailoverBudget) = %v", params.RsmFailoverBudget)
	r.note("exactly-once = gapless ordered ticks through the deduplicating home display, across leader failovers, re-executions, and stale-leader partitions")
	return r
}
