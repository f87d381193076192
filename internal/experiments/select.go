package experiments

import (
	"fmt"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/params"
	"vsystem/internal/sched"
	"vsystem/internal/sim"
	"vsystem/internal/workload"
)

// SelectionPolicies (E9) compares host-selection policies on a cluster
// with deliberately skewed load. The paper's first-response heuristic
// equates "first to answer" with "willing and idle" (§2.1): it is binary,
// so once every idle machine holds one guest, the next placement must
// wait for a completion. A load-aware policy over the cached cluster-load
// view (internal/sched) instead ranks busy-but-capable hosts by ready
// depth and keeps placing, overlapping guests two-per-host — the
// completion-time spread across jobs tightens accordingly.
//
// Setup: five workstations; ws1 and ws2 each run two endless local
// compute hogs (guests would starve there — and first-response never
// offers those hosts anyway); ws3 and ws4 are idle. ws0 places four 2 s
// (CPU) guest jobs sequentially via `@ *`, retrying every 500 ms when
// selection finds no host. The measured figure is the spread (max−min)
// of per-job turnaround — from first placement attempt to completion.
func SelectionPolicies(seed int64) *Result {
	r := newResult("E9", "Host-selection policies under skewed load (§2.1 + sched layer)")

	arms := []struct {
		label  string
		policy sched.Policy
	}{
		{"first-response", sched.FirstResponse{}},
		{"random-2", sched.RandomK{K: params.SelectRandomK}},
		{"least-loaded", sched.LeastLoaded{}},
	}
	spread := map[string]float64{}
	warm := map[string]float64{}
	for _, arm := range arms {
		res := runSelectionArm(arm.policy, seed)
		spread[arm.label] = res.spreadMs
		warm[arm.label] = res.warmPicks
		r.row("turnaround spread, "+arm.label, "—", ms(res.spreadMs),
			fmt.Sprintf("mean %s, %d/4 jobs done", ms(res.meanMs), res.done))
		r.metric("spread_ms_"+arm.label, res.spreadMs)
		r.metric("mean_ms_"+arm.label, res.meanMs)
		r.metric("warm_picks_"+arm.label, res.warmPicks)
		r.metric("multicasts_"+arm.label, res.multicasts)
		r.metric("jobs_done_"+arm.label, float64(res.done))
		// random-K may legitimately strand a job: it samples the hog
		// hosts too, and a guest behind two endless local programs
		// starves under the paper's priority scheduling (§2). Only the
		// deterministic policies must finish everything.
		if arm.label != "random-2" {
			r.check(res.done == 4, "%s: only %d/4 jobs completed", arm.label, res.done)
		}
	}

	r.note("first-response serializes one guest per idle host; least-loaded overlaps them")
	r.note("a random-2 job placed behind the local hogs starves at guest priority (§2)")
	r.check(spread["least-loaded"] < spread["first-response"],
		"least-loaded spread %.0f ms not below first-response %.0f ms",
		spread["least-loaded"], spread["first-response"])
	r.check(warm["least-loaded"] > 0,
		"least-loaded made no warm-cache placements (cache/beacon path unused)")
	r.check(warm["first-response"] == 0,
		"first-response used the warm-cache path (%v picks) — baseline must stay multicast-only",
		warm["first-response"])
	return r
}

type selectionArmResult struct {
	spreadMs, meanMs      float64
	warmPicks, multicasts float64
	done                  int
}

func runSelectionArm(policy sched.Policy, seed int64) selectionArmResult {
	c := bootCluster(core.Options{Workstations: 5, Seed: seed, Select: policy})
	defer c.Close()
	c.Install(workload.Image(workload.Spec{
		Name: "e9hog", HotKB: 16, HotRateKBps: 40,
	}, 0))
	c.Install(workload.Image(workload.Spec{
		Name: "e9job", HotKB: 16, HotRateKBps: 40, DurationMs: 2000,
	}, 0))

	// ws1/ws2: two endless local hogs each — their owners' machines.
	for _, i := range []int{1, 2} {
		c.Node(i).Agent(func(a *core.Agent) {
			a.Sleep(time.Second)
			a.Exec("e9hog", nil, "")
			a.Exec("e9hog", nil, "")
		})
	}

	const jobs = 4
	var (
		placed   [jobs]*core.Job
		tryStart [jobs]sim.Time
		doneAt   [jobs]sim.Time
	)
	// Waiters: one agent per job records its completion time (the shared
	// arrays are safe — simulation tasks are serialized on one goroutine).
	for i := 0; i < jobs; i++ {
		i := i
		c.Node(0).Agent(func(a *core.Agent) {
			for placed[i] == nil {
				a.Sleep(50 * time.Millisecond)
			}
			if _, err := a.Wait(placed[i]); err == nil {
				doneAt[i] = a.Now()
			}
		})
	}
	// Placer: sequential `@ *` placements with the command-interpreter's
	// natural reaction to "no host": wait and retry.
	c.Node(0).Agent(func(a *core.Agent) {
		a.Sleep(3 * time.Second) // hogs running; the first pick is cold: no beacon heard yet
		for i := 0; i < jobs; i++ {
			tryStart[i] = a.Now()
			for {
				j, err := a.Exec("e9job", nil, "*")
				if err == nil {
					placed[i] = j
					break
				}
				a.Sleep(500 * time.Millisecond)
			}
		}
	})
	c.Run(30 * time.Second)

	res := selectionArmResult{}
	var lo, hi, sum float64
	for i := 0; i < jobs; i++ {
		if doneAt[i] == 0 {
			continue
		}
		t := doneAt[i].Sub(tryStart[i]).Seconds() * 1000
		if res.done == 0 || t < lo {
			lo = t
		}
		if res.done == 0 || t > hi {
			hi = t
		}
		sum += t
		res.done++
	}
	if res.done > 0 {
		res.spreadMs = hi - lo
		res.meanMs = sum / float64(res.done)
	}
	st := c.Node(0).Selector.Stats()
	res.warmPicks = float64(st.WarmPicks)
	res.multicasts = float64(st.Multicasts)
	return res
}
