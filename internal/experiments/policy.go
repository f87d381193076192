package experiments

import (
	"fmt"
	"sort"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/fault"
	"vsystem/internal/trace"
	"vsystem/internal/workload"
)

// MigrationPolicies (E12) compares the four copy policies end to end on
// the Table 4-1 dirty-rate grid, with and without ambient frame loss.
// Pre-copy (§3.1.2) pays its residue inside the freeze window; flush
// (§3.2) pays a file-server round trip per referenced page afterwards;
// post-copy freezes almost immediately and demand-pulls the residue from
// a frozen source receptacle; hybrid pre-copies the recent-dirty ("hot")
// set first so the post-swap fault storm mostly misses. The headline
// claim pinned here: on a saturating dirty-rate cell under loss, hybrid
// cuts freeze time at least 5× against pre-copy — while a second sweep
// holds every policy to exactly-once guest output under injected crashes.
//
// Every cell of the three sweeps is its own cluster; they all run side by
// side and the table is assembled in sweep order afterwards.
func MigrationPolicies(p *Pool, seed int64) *Result {
	r := newResult("E12", "copy policies: precopy / flush / postcopy / hybrid (freeze vs residue cost)")
	var cells []func(r *Result)

	policies := []core.Policy{core.PolicyPrecopy, core.PolicyFlush, core.PolicyPostcopy, core.PolicyHybrid}
	// Low, middling and saturating dirty rates from the Table 4-1 grid.
	specs := []string{"make", "parser", "tex"}
	losses := []float64{0, 0.05}

	for _, spec := range specs {
		for _, loss := range losses {
			for _, pol := range policies {
				cells = append(cells, func(r *Result) {
					key := fmt.Sprintf("%s_%s_loss%d", pol, spec, int(loss*100))
					label := fmt.Sprintf("%-8s %-6s loss %2.0f%%", pol, spec, loss*100)
					c := bootCluster(core.Options{Workstations: 3, Seed: seed, LossRate: loss, Policy: pol})
					defer c.Close()
					m := migrateAfter(c.Node(0), spec, "ws1", 4*time.Second)
					// Migrate returns once the residue completes (≤ ~10 s of
					// virtual time); don't simulate the idle tail of the run.
					c.Run(15 * time.Second)
					rep := m.rep
					if err := m.failed(); err != nil || rep == nil {
						r.check(false, "%s: migrate: %v", label, err)
						return
					}
					r.check(!rep.ResidueAborted, "%s: residue aborted on a healthy cluster", label)
					wireKB := float64(rep.WireBytes) / 1024
					if loss == 0 && (pol == core.PolicyPostcopy || pol == core.PolicyHybrid) {
						// Once only: without loss the wire carries each page the
						// migration moved — the hot-set round, the demand fetches,
						// the push-out — one time, plus run headers.
						moved := rep.PostSwapPullKB + rep.ResiduePushKB
						for _, rd := range rep.Rounds {
							moved += rd.KB
						}
						r.check(wireKB <= 1.15*moved, "%s: wire %.0f KB for %.0f KB moved: pages crossed twice", label, wireKB, moved)
					}

					frz := rep.FreezeTime.Seconds() * 1000
					r.row(label,
						"postcopy/hybrid freeze ≪ precopy",
						fmt.Sprintf("freeze %6.0f ms, total %5.2f s, wire %4.0f KB",
							frz, rep.Total.Seconds(), wireKB),
						fmt.Sprintf("%d post-swap faults, %3.0f ms stalled, demand %3.0f KB, push %3.0f KB",
							rep.PostSwapFaults, rep.PostSwapStall.Seconds()*1000,
							rep.PostSwapPullKB, rep.ResiduePushKB))
					r.metric("freeze_ms_"+key, frz)
					r.metric("total_s_"+key, rep.Total.Seconds())
					r.metric("wire_kb_"+key, wireKB)
					r.metric("stall_ms_"+key, rep.PostSwapStall.Seconds()*1000)
					r.metric("faults_"+key, float64(rep.PostSwapFaults))
				})
			}
		}
	}

	// Headline acceptance. The Table 4-1 cells above are paper-faithful
	// but small: tex's ~100 KB residue drains through the windowed copy
	// engine in a couple of window flights, so a single trial's freeze
	// time under loss is dominated by retransmission-timeout luck rather
	// than by policy. The acceptance cell instead saturates the wire — a
	// 512 KB hot set re-dirtied at 3 MB/s, above the 10 Mbit/s Ethernet —
	// so pre-copy rounds cannot converge and the frozen residue is
	// structurally the whole hot set; the comparison takes the median of
	// three seed-derived trials per policy to damp timeout tails.
	stress := workload.Spec{Name: "stress", HotKB: 512, HotRateKBps: 3000, DurationMs: 30000}
	const trials = 3
	stressPolicies := []core.Policy{core.PolicyPrecopy, core.PolicyHybrid}
	freezes := make([][trials]float64, len(stressPolicies)) // each written by its own cell
	for pi, pol := range stressPolicies {
		for trial := 0; trial < trials; trial++ {
			cells = append(cells, func(r *Result) {
				label := fmt.Sprintf("%-8s stress loss  5%% #%d", pol, trial+1)
				c := bootCluster(core.Options{Workstations: 3, Seed: seed + int64(trial)*1009, LossRate: 0.05, Policy: pol})
				defer c.Close()
				c.Install(workload.Image(stress, 64*1024))
				m := migrateAfter(c.Node(0), "stress", "ws1", 4*time.Second)
				c.Run(20 * time.Second)
				rep := m.rep
				if err := m.failed(); err != nil || rep == nil {
					r.check(false, "%s: migrate: %v", label, err)
					return
				}
				r.check(!rep.ResidueAborted, "%s: residue aborted on a healthy cluster", label)
				frz := rep.FreezeTime.Seconds() * 1000
				freezes[pi][trial] = frz
				r.row(label,
					"saturating hot set: freeze reflects policy, not luck",
					fmt.Sprintf("freeze %6.0f ms, total %5.2f s, wire %4.0f KB",
						frz, rep.Total.Seconds(), float64(rep.WireBytes)/1024),
					fmt.Sprintf("%d post-swap faults, %3.0f ms stalled, demand %3.0f KB, push %3.0f KB",
						rep.PostSwapFaults, rep.PostSwapStall.Seconds()*1000,
						rep.PostSwapPullKB, rep.ResiduePushKB))
				r.metric(fmt.Sprintf("freeze_ms_%s_stress_loss5_t%d", pol, trial+1), frz)
			})
		}
	}
	// Everything above reports before the headline note, everything below
	// after it.
	beforeHeadline := len(cells)

	// Exactly-once sweep: every policy must deliver every guest output
	// line exactly once, in order — with no fault, with the destination
	// killed at the commit point (retry path), and, for the receptacle
	// policies, with the source killed mid-residue (clean abort; the
	// supervised session re-executes from its file-server image).
	const wantTicks = 400
	// Worst case (source crash → lease expiry → full re-execution)
	// completes by ~30 s; 45 s leaves margin without simulating an idle
	// tail. Under a source crash the worker dies mid-call; the session
	// must still finish, so Migrate's error is not checked.
	s := session{workstations: 4, ticks: wantTicks, where: "ws1", migrateAfter: 800 * time.Millisecond, run: 45 * time.Second}
	var rows []faultRow
	for _, pol := range policies {
		sweep := []faultRow{
			{label: "no fault"},
			{label: "dest crash @ swap", sched: crashAt(trace.PhaseSwap, fault.MigrationDest)},
			{label: "source crash @ postswap-pull", sched: crashAt(trace.PhasePostSwapPull, fault.MigrationSource)},
		}
		if pol != core.PolicyPostcopy && pol != core.PolicyHybrid {
			sweep = sweep[:2]
		}
		for _, row := range sweep {
			row.label, row.opt.Policy = fmt.Sprintf("%s, %s", pol, row.label), pol
			rows = append(rows, row)
		}
	}
	cells = append(cells, rowCells(rows, func(r *Result, row faultRow) {
		c, o := s.play(seed, row, nil)
		defer c.Close()
		if o.execErr != nil {
			r.check(false, "%s: exec: %v", row.label, o.execErr)
			return
		}
		r.row(row.label, "output exactly once, in order",
			fmt.Sprintf("%d/%d ticks, ordered=%v", o.ticks, wantTicks, o.ordered),
			fmt.Sprintf("faults=%d restarts=%d",
				c.Trace.Count(trace.EvMigFault), c.Trace.Count(trace.EvExecRestart)))
		r.metric("exactly_once_"+metricKey(row.label), b2f(o.exactlyOnce(wantTicks)))
		r.check(o.exactlyOnce(wantTicks),
			"%s: output lost or duplicated (%d/%d, ordered=%v)", row.label, o.ticks, wantTicks, o.ordered)
		if row.sched != (fault.Schedule{}) {
			r.check(c.Trace.Count(trace.EvMigFault) == 1,
				"%s: fault fired %d times", row.label, c.Trace.Count(trace.EvMigFault))
		}
	})...)

	ran := p.cells(cells)
	r.absorb(ran[:beforeHeadline]...)
	median := func(fs [trials]float64) float64 {
		sort.Float64s(fs[:])
		return fs[trials/2]
	}
	hi, lo := median(freezes[0]), median(freezes[1])
	r.note("a 5%% cell above is one draw of which frames are lost — one lost inside a 40 ms freeze adds a ≈200 ms retransmission wait — so its freeze is not a trend; the medians below are")
	r.note("stress @ 5%% loss (median of 3): precopy freeze %.0f ms vs hybrid %.0f ms (%.1f×)", hi, lo, hi/lo)
	r.check(lo > 0 && lo*5 <= hi,
		"hybrid freeze %.0f ms not ≥5× below precopy %.0f ms on stress @ 5%% loss", lo, hi)
	r.absorb(ran[beforeHeadline:]...)
	return r
}
