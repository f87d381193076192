package experiments

import (
	"fmt"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/ethernet"
	"vsystem/internal/params"
	"vsystem/internal/progs"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// homeCell is one cell of the F3 sweep: what happens to the home services
// (the consensus home-PM group, and optionally the replicated file
// service) while a supervised session runs.
type homeCell struct {
	label string
	home  int // ReplicateHome (0: single home PM)
	fs    int // ReplicateFS (0: single server machine)
	loss  float64
	// arm installs the cell's fault schedule once the cluster exists.
	arm func(c *core.Cluster)
	// hostCrash kills the hosting workstation (ws4) at this offset, forcing
	// the surviving home leader to re-execute the session.
	hostCrash time.Duration
	// disrupt names the event that starts the failover clock: a home
	// member's EvHostCrash, or EvPartition.
	disrupt trace.Kind
	// wantRestart: the session must be re-executed at least once.
	wantRestart bool
	// wantLost: the non-replicated baseline — the session must NOT survive
	// (that is what the consensus group buys).
	wantLost bool
}

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

	cells := []homeCell{
		{label: "no fault (baseline)", home: homeN},
		{label: "leader kill @ idle (2s)", home: homeN,
			disrupt: trace.EvHostCrash,
			arm:     func(c *core.Cluster) { killHomeLeaderAfter(c, 2*time.Second) }},
		{label: "leader kill @ supervise commit", home: homeN,
			disrupt: trace.EvHostCrash,
			arm: func(c *core.Cluster) {
				// The first home-group commit past the agent's boot sleep is
				// the session's hgSupervise (or its immediate barrier).
				c.Fault.CrashOnEvent(func(ev trace.Event) bool {
					return ev.Kind == trace.EvCommit && ev.LH == vid.GroupHomeRSM.LH() &&
						ev.At > sim.Time(2400*time.Millisecond)
				}, func() ethernet.MAC { return homeLeaderMAC(c) })
			}},
		{label: "leader kill @ steady lease (6s)", home: homeN,
			disrupt: trace.EvHostCrash,
			arm:     func(c *core.Cluster) { killHomeLeaderAfter(c, 6*time.Second) }},
		{label: "leader kill (6s) + host crash (9s)", home: homeN,
			disrupt: trace.EvHostCrash, hostCrash: 9 * time.Second, wantRestart: true,
			arm: func(c *core.Cluster) { killHomeLeaderAfter(c, 6*time.Second) }},
		{label: "host crash, leader kill @ break note", home: homeN,
			disrupt: trace.EvHostCrash, hostCrash: 6 * time.Second, wantRestart: true,
			arm: func(c *core.Cluster) {
				// Crash-driven breaks ride the host-down note, not lease
				// expiry — kill the leader the instant it learns the hosting
				// workstation died, before it can commit a restart intent.
				c.Fault.CrashOnEvent(func(ev trace.Event) bool {
					return ev.Kind == trace.EvHostCrash &&
						ev.Host == uint16(c.Node(4).Host.NIC.MAC())
				}, func() ethernet.MAC { return homeLeaderMAC(c) })
			}},
		{label: "host crash, leader kill @ re-exec commit", home: homeN,
			disrupt: trace.EvHostCrash, hostCrash: 6 * time.Second, wantRestart: true,
			arm: func(c *core.Cluster) {
				c.Fault.CrashOnEvent(func(ev trace.Event) bool {
					return ev.Kind == trace.EvExecRestart
				}, func() ethernet.MAC { return homeLeaderMAC(c) })
			}},
		{label: "leader partitioned to minority, host crash", home: homeN,
			disrupt: trace.EvPartition, hostCrash: 9 * time.Second, wantRestart: true,
			arm: func(c *core.Cluster) {
				// The stale leader is cut off alone: the majority side elects
				// a successor and recovers the session; the stale leader can
				// no longer commit a restart intent, so it cannot start a
				// second incarnation no matter what it believes.
				c.Sim.After(6*time.Second, func() {
					mac := homeLeaderMAC(c)
					if mac == 0 {
						return
					}
					c.Fault.Partition([]ethernet.MAC{mac}, allMACsExcept(c, mac))
				})
				c.Fault.HealAfter(30 * time.Second)
			}},
		{label: "follower partitioned away (leader keeps quorum), host crash", home: homeN,
			hostCrash: 9 * time.Second, wantRestart: true,
			arm: func(c *core.Cluster) {
				// The complementary cut: a minority follower is isolated and
				// the leader keeps its majority — supervision continues
				// without any failover at all.
				c.Sim.After(6*time.Second, func() {
					lead := homeLeaderMAC(c)
					for i := 0; i < homeN; i++ {
						mac := c.Nodes[i].Host.NIC.MAC()
						if mac != lead {
							c.Fault.Partition([]ethernet.MAC{mac}, allMACsExcept(c, mac))
							return
						}
					}
				})
				c.Fault.HealAfter(30 * time.Second)
			}},
		{label: "leader kill (6s) + host crash (9s), 5% loss", home: homeN, loss: 0.05,
			disrupt: trace.EvHostCrash, hostCrash: 9 * time.Second, wantRestart: true,
			arm: func(c *core.Cluster) { killHomeLeaderAfter(c, 6*time.Second) }},
		{label: "fs leader killed too: re-exec loads image from fs replica", home: homeN, fs: 3,
			disrupt: trace.EvHostCrash, hostCrash: 6 * time.Second, wantRestart: true,
			arm: func(c *core.Cluster) {
				killHomeLeaderAfter(c, 6*time.Second)
				c.Sim.After(6*time.Second, func() {
					for i, fs := range c.FSReps {
						if !c.FSHosts[i].Crashed() && fs.Replica() != nil && fs.Replica().IsLeader() {
							c.FSHosts[i].Crash()
							return
						}
					}
				})
			}},
		{label: "UNREPLICATED home: supervisor dies", wantLost: true,
			hostCrash: 9 * time.Second,
			arm: func(c *core.Cluster) {
				// No group: the home workstation (agent, display, supervisor)
				// is a single point of failure — kill it, then the host.
				c.Sim.After(6*time.Second, func() { c.Node(3).Host.Crash() })
			}},
	}

	var run []func(r *Result)
	for _, cell := range cells {
		run = append(run, func(r *Result) {
			c := bootCluster(core.Options{
				Workstations: 6, Seed: seed, LossRate: cell.loss,
				ReplicateHome: cell.home, ReplicateFS: cell.fs,
			})
			defer c.Close()
			c.Install(progs.Ticker(wantTicks))
			if cell.arm != nil {
				cell.arm(c)
			}
			if cell.hostCrash > 0 {
				c.Sim.After(cell.hostCrash, func() { c.Node(4).Host.Crash() })
			}

			// Failover clock: first qualifying disruption → next home election.
			var disruptAt, electAt sim.Time
			memberMAC := make(map[uint16]bool, cell.home)
			for i := 0; i < cell.home && i < len(c.Nodes); i++ {
				memberMAC[uint16(c.Nodes[i].Host.NIC.MAC())] = true
			}
			c.Trace.Subscribe(func(ev trace.Event) {
				switch {
				case disruptAt == 0 && ev.Kind == cell.disrupt &&
					(ev.Kind != trace.EvHostCrash || memberMAC[ev.Host]):
					disruptAt = ev.At
				case disruptAt != 0 && electAt == 0 && ev.Kind == trace.EvElect &&
					ev.LH == vid.GroupHomeRSM.LH() && ev.At > disruptAt:
					electAt = ev.At
				}
			})

			home := c.Node(3)
			var code uint32
			var execErr, waitErr error
			waits := 0
			home.Agent(func(a *core.Agent) {
				a.Sleep(2500 * time.Millisecond) // first home election settles
				job, err := a.Exec(fmt.Sprintf("ticker%d", wantTicks), nil, "ws4")
				if err != nil {
					execErr = err
					return
				}
				code, waitErr = a.Wait(job)
				waits++
			})
			c.Run(4 * time.Minute)

			ticks, ordered := gapless(home.Display.Lines())
			survived := ticks == wantTicks && ordered
			restarts := c.Trace.Count(trace.EvExecRestart)
			failover := time.Duration(0)
			if disruptAt != 0 && electAt != 0 {
				failover = electAt.Sub(disruptAt)
			}

			status := fmt.Sprintf("%d/%d ticks, re-executed %dx", ticks, wantTicks, restarts)
			if cell.disrupt != 0 {
				status += fmt.Sprintf(", failover %v", failover.Round(time.Millisecond))
			}
			want := "exit seen once, output exactly-once"
			if cell.wantLost {
				want = "session lost (the single home was the SPOF)"
			}
			r.row(cell.label, want, status,
				fmt.Sprintf("wait=(%d,%v,%d) ordered=%v expires=%d",
					code, waitErr, waits, ordered, c.Trace.Count(trace.EvLeaseExpire)))
			r.metric("survived_"+metricKey(cell.label), b2f(survived))
			r.metric("restarts_"+metricKey(cell.label), float64(restarts))
			if cell.disrupt != 0 {
				r.metric("failover_ms_"+metricKey(cell.label), failover.Seconds()*1000)
			}

			if cell.wantLost {
				// The baseline must demonstrably lose the session: output
				// truncated and nobody left to re-execute.
				r.check(!survived, "%s: unreplicated home survived?! (%d ticks)", cell.label, ticks)
				r.check(restarts == 0, "%s: restarts=%d with the supervisor dead", cell.label, restarts)
				return
			}
			if execErr != nil {
				r.check(false, "%s: exec: %v", cell.label, execErr)
				return
			}
			r.check(survived, "%s: output not exactly-once (%d/%d ticks, ordered=%v)",
				cell.label, ticks, wantTicks, ordered)
			r.check(waitErr == nil && code == 0 && waits == 1,
				"%s: wait=(%d,%v) waits=%d", cell.label, code, waitErr, waits)
			if cell.wantRestart {
				r.check(restarts >= 1, "%s: no re-execution after host loss", cell.label)
			}
			if cell.disrupt != 0 {
				r.check(disruptAt != 0, "%s: disruption never fired", cell.label)
				r.check(electAt != 0, "%s: no home re-election after the disruption", cell.label)
				r.check(failover > 0 && failover <= params.RsmFailoverBudget,
					"%s: failover %v exceeds budget %v", cell.label, failover, params.RsmFailoverBudget)
			}
		})
	}
	r.absorb(p.cells(run)...)
	r.note("failover = first qualifying disruption (member crash or partition) to the next home EvElect; budget (params.RsmFailoverBudget) = %v", params.RsmFailoverBudget)
	r.note("exactly-once = gapless ordered ticks through the deduplicating home display, across leader failovers, re-executions, and stale-leader partitions")
	return r
}

// homeLeaderMAC returns the station address of the current home-group
// leader (0 when the group is mid-election).
func homeLeaderMAC(c *core.Cluster) ethernet.MAC {
	if i := c.HomeLeaderIdx(); i >= 0 {
		return c.Nodes[i].Host.NIC.MAC()
	}
	return 0
}

// killHomeLeaderAfter schedules a one-shot kill of whoever leads the home
// group at the offset, polling briefly if the group is mid-election at
// that instant.
func killHomeLeaderAfter(c *core.Cluster, d time.Duration) {
	var try func(left int)
	try = func(left int) {
		if mac := homeLeaderMAC(c); mac != 0 {
			c.Fault.Crash(mac)
			return
		}
		if left > 0 {
			c.Sim.After(200*time.Millisecond, func() { try(left - 1) })
		}
	}
	c.Sim.After(d, func() { try(15) })
}

// allMACsExcept lists every station in the cluster except one — the "rest
// of the world" side of a single-host partition.
func allMACsExcept(c *core.Cluster, except ethernet.MAC) []ethernet.MAC {
	var out []ethernet.MAC
	for _, n := range c.Nodes {
		if mac := n.Host.NIC.MAC(); mac != except {
			out = append(out, mac)
		}
	}
	for _, h := range c.FSHosts {
		if mac := h.NIC.MAC(); mac != except {
			out = append(out, mac)
		}
	}
	return out
}
