package experiments

import (
	"fmt"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/kernel"
	"vsystem/internal/vid"
	"vsystem/internal/workload"
)

// forever returns a non-terminating variant of a workload spec.
func forever(s workload.Spec) workload.Spec {
	s.DurationMs = 0
	s.Name += ".inf"
	return s
}

// MigrationCopyCosts regenerates the §4.1 migration state-copy costs:
//
//	kernel server + program manager state: 14 ms + 9 ms per process
//	and address space
//	address-space copy between hosts: 3 s per Mbyte
//
// The kernel-state line is obtained by migrating logical hosts with 1..5
// processes and fitting time vs item count; the copy rate from the
// stop-and-copy transfer of a large frozen address space.
func MigrationCopyCosts(seed int64) *Result {
	r := newResult("E2", "migration state-copy costs (§4.1)")

	// --- kernel-state cost vs process count.
	var items, kms []float64
	for k := 1; k <= 5; k++ {
		c := bootCluster(core.Options{Workstations: 3, Seed: seed + int64(k)})
		defer c.Close()
		spec, _ := workload.PaperSpec("make")
		c.Install(workload.Image(forever(spec), 0))
		var rep *core.MigrationReport
		var err error
		kk := k
		c.Node(0).Agent(func(a *core.Agent) {
			job, e := a.Exec("make.inf", nil, "ws1")
			if e != nil {
				err = e
				return
			}
			// Add extra processes sharing the program's address space
			// (sub-programs of the logical host, §3).
			_, lh := c.FindProgram(job.LHID)
			for i := 1; i < kk; i++ {
				p := lh.NewProcess(1, workload.BodyKind, kernel.Regs{})
				lh.Host().Start(p)
			}
			a.Sleep(2 * time.Second)
			rep, err = a.Migrate(job, false)
		})
		c.Run(time.Minute)
		if err != nil {
			r.check(false, "k=%d: %v", k, err)
			return r
		}
		items = append(items, float64(rep.KernelItems))
		kms = append(kms, rep.KernelTime.Seconds()*1000)
	}
	base, perItem := linfit(items, kms)
	r.row("kernel+PM state copy: base", "14 ms", ms(base), "intercept over 1..5 processes")
	r.row("kernel+PM state copy: per process/space", "9 ms", ms(perItem), "slope")
	r.metric("kstate_base_ms", base)
	r.metric("kstate_per_item_ms", perItem)
	r.check(base > 7 && base < 28, "kernel-state base %.1fms not ≈14ms", base)
	r.check(perItem > 4.5 && perItem < 18, "per-item %.1fms not ≈9ms", perItem)

	// --- address-space copy rate from a frozen 1 MB transfer.
	{
		c := bootCluster(core.Options{Workstations: 3, Seed: seed, Policy: core.PolicyStopCopy})
		defer c.Close()
		big := workload.Spec{Name: "memhog", HotKB: 900, HotRateKBps: 50, StreamKBps: 0, StreamKB: 64, DurationMs: 0}
		c.Install(workload.Image(big, 0))
		m := migrateAfter(c.Node(0), "memhog", "ws1", 4*time.Second) // allocate the full image
		c.Run(time.Minute)
		if err := m.failed(); err != nil {
			r.check(false, "copy-rate run: %v", err)
			return r
		}
		rep := m.rep
		kb := rep.Rounds[0].KB
		secPerMB := rep.Rounds[0].Dur.Seconds() / (kb / 1024)
		r.row("address-space copy rate", "3 s/MB", fmt.Sprintf("%.2f s/MB", secPerMB),
			fmt.Sprintf("stop-and-copy of %.0f KB frozen state", kb))
		r.metric("copy_s_per_MB", secPerMB)
		r.check(secPerMB > 1.5 && secPerMB < 6, "copy rate %.2fs/MB not ≈3s/MB", secPerMB)
	}
	return r
}

// DirtyPageRates regenerates Table 4-1: Kbytes dirtied by each program in
// sampling intervals of 0.2, 1 and 3 seconds, measured by clearing and
// counting the dirty bits of the running program's address space.
func DirtyPageRates(seed int64) *Result {
	r := newResult("E3", "Table 4-1: dirty page generation rates (Kbytes)")
	specs := workload.PaperSpecs()
	c := bootCluster(core.Options{Workstations: len(specs) + 1, Seed: seed})
	defer c.Close()
	for _, s := range specs {
		c.Install(workload.Image(forever(s), 0))
	}

	intervals := []time.Duration{200 * time.Millisecond, time.Second, 3 * time.Second}
	type cell struct {
		sum float64
		n   int
	}
	measured := make(map[string][3]float64)
	done := 0

	for i, s := range specs {
		s := s
		node := c.Node(i + 1)
		c.Node(0).Agent(func(a *core.Agent) {
			job, err := a.Exec(s.Name+".inf", nil, node.Name())
			if err != nil {
				r.check(false, "%s: %v", s.Name, err)
				done++
				return
			}
			a.Sleep(4 * time.Second) // warm up past the allocation phase
			_, lh := c.FindProgram(job.LHID)
			space := lh.Spaces()[0]
			var vals [3]float64
			for ii, interval := range intervals {
				cl := cell{}
				for rep := 0; rep < 4; rep++ {
					space.ClearDirty()
					a.Sleep(interval)
					cl.sum += float64(space.DirtyCount())
					cl.n++
				}
				vals[ii] = cl.sum / float64(cl.n)
			}
			measured[s.Name] = vals
			a.DestroyProgram(job)
			done++
		})
	}
	c.Run(2 * time.Minute)

	for _, s := range specs {
		paper := workload.Table41[s.Name]
		got, ok := measured[s.Name]
		if !ok {
			r.check(false, "%s not measured", s.Name)
			continue
		}
		for i, label := range []string{"0.2s", "1s", "3s"} {
			r.row(fmt.Sprintf("%-13s @ %s", s.Name, label),
				fmt.Sprintf("%.1f KB", paper[i]),
				fmt.Sprintf("%.1f KB", got[i]), "")
			r.metric(fmt.Sprintf("%s_%s_KB", s.Name, label), got[i])
			// Shape: within 2x for small values (<8 KB, where page
			// quantization dominates), 40% otherwise.
			p, g := paper[i], got[i]
			if p < 8 {
				r.check(g >= p/2-1 && g <= p*2+1, "%s@%s: %.1f vs paper %.1f", s.Name, label, g, p)
			} else {
				r.check(g >= p*0.6 && g <= p*1.4, "%s@%s: %.1f vs paper %.1f", s.Name, label, g, p)
			}
		}
	}
	return r
}

// PrecopyEffectiveness regenerates the §4.1 pre-copy findings: usually 2
// useful pre-copy iterations; a frozen residual of 0.5-70 KB; program
// suspension times of 5-210 ms (plus kernel-state copy).
func PrecopyEffectiveness(seed int64) *Result {
	r := newResult("E4", "pre-copy effectiveness: iterations, residual, freeze time (§4.1)")
	specs := workload.PaperSpecs()

	var minRes, maxRes, minFrz, maxFrz float64
	first := true
	roundsHist := map[int]int{}
	for i, s := range specs {
		c := bootCluster(core.Options{Workstations: 4, Seed: seed + int64(i)})
		defer c.Close()
		m := migrateAfter(c.Node(0), s.Name, "ws1", 5*time.Second)
		c.Run(time.Minute)
		if err := m.failed(); err != nil {
			r.check(false, "%s: %v", s.Name, err)
			continue
		}
		rep := m.rep
		frz := rep.FreezeTime.Seconds() * 1000
		r.row(fmt.Sprintf("%-13s", s.Name),
			"2 iters, 0.5-70 KB, 5-210 ms",
			fmt.Sprintf("%d iters, %.1f KB, %.0f ms", len(rep.Rounds), rep.ResidualKB, frz), "")
		r.metric(s.Name+"_freeze_ms", frz)
		r.metric(s.Name+"_residual_KB", rep.ResidualKB)
		roundsHist[len(rep.Rounds)]++
		if first || rep.ResidualKB < minRes {
			minRes = rep.ResidualKB
		}
		if first || rep.ResidualKB > maxRes {
			maxRes = rep.ResidualKB
		}
		if first || frz < minFrz {
			minFrz = frz
		}
		if first || frz > maxFrz {
			maxFrz = frz
		}
		first = false
		r.check(len(rep.Rounds) >= 1 && len(rep.Rounds) <= 3, "%s used %d rounds", s.Name, len(rep.Rounds))
	}
	r.row("residual range", "0.5 - 70 KB", fmt.Sprintf("%.1f - %.1f KB", minRes, maxRes), "")
	r.row("suspension range", "5 - 210 ms", fmt.Sprintf("%.0f - %.0f ms", minFrz, maxFrz), "incl. kernel-state copy")
	r.check(maxRes <= 110, "max residual %.1fKB far above paper's 70KB", maxRes)
	r.check(maxFrz <= 420, "max freeze %.0fms far above paper's 210ms", maxFrz)
	r.check(minFrz >= 2, "min freeze %.0fms implausibly small", minFrz)
	return r
}

// VMPaging regenerates Figure 3-1's variant (§3.2): migration by flushing
// dirty pages to the network file server and demand-faulting them in on
// the new host — compared against direct pre-copy.
func VMPaging(seed int64) *Result {
	r := newResult("F3-1", "virtual-memory (flush to file server) migration variant (§3.2, Fig. 3-1)")

	run := func(policy core.Policy) (*core.MigrationReport, *core.PagerStats, error) {
		c := bootCluster(core.Options{Workstations: 3, Seed: seed, Policy: policy})
		defer c.Close()
		m := migrateAfter(c.Node(0), "tex", "ws1", 4*time.Second)
		c.Run(time.Minute) // the tail lets demand faults happen
		if err := m.failed(); err != nil {
			return nil, nil, err
		}
		return m.rep, c.PagerStatsFor(m.job.LHID), nil
	}

	pre, _, err := run(core.PolicyPrecopy)
	if err != nil {
		r.check(false, "precopy: %v", err)
		return r
	}
	fl, pager, err := run(core.PolicyFlush)
	if err != nil {
		r.check(false, "flush: %v", err)
		return r
	}

	r.row("freeze time: pre-copy", "5-210 ms", fmt.Sprintf("%.0f ms", pre.FreezeTime.Seconds()*1000), "")
	r.row("freeze time: flush variant", "similar (residual only)", fmt.Sprintf("%.0f ms", fl.FreezeTime.Seconds()*1000), "")
	r.row("pages copied twice (flushed then faulted)", "small", fmt.Sprintf("%.0f KB (%d faults)", pager.FaultKB(), pager.Faults),
		"dirty on old host, then referenced on new host")
	r.row("bytes placed on the network by the source", "comparable", fmt.Sprintf("precopy %.0f KB vs flush %.0f KB",
		float64(pre.BytesCopied)/1024, float64(fl.BytesCopied)/1024), "")
	r.metric("precopy_freeze_ms", pre.FreezeTime.Seconds()*1000)
	r.metric("flush_freeze_ms", fl.FreezeTime.Seconds()*1000)
	r.metric("fault_KB", pager.FaultKB())
	r.check(pager.Faults > 0, "no demand faults observed")
	r.check(fl.FreezeTime < 700*time.Millisecond, "flush freeze %.0fms not small", fl.FreezeTime.Seconds()*1000)
	r.check(pager.FaultKB() <= float64(fl.BytesCopied)/1024, "faulted more than flushed")
	return r
}

// AblationFreeze regenerates the §3.1 motivation: freezing for the whole
// copy suspends the program for seconds (≈3 s/MB), pre-copying for
// milliseconds, across logical-host sizes.
func AblationFreeze(seed int64) *Result {
	r := newResult("A1", "ablation: stop-and-copy vs pre-copy freeze time (§3.1)")
	sizes := []uint32{128, 256, 512, 1024} // KB of hot memory

	for _, kb := range sizes {
		var frz [2]time.Duration
		for pi, policy := range []core.Policy{core.PolicyStopCopy, core.PolicyPrecopy} {
			c := bootCluster(core.Options{Workstations: 3, Seed: seed, Policy: policy})
			defer c.Close()
			spec := workload.Spec{
				Name:  fmt.Sprintf("hog%dk", kb),
				HotKB: float64(kb), HotRateKBps: 40, StreamKBps: 0, StreamKB: 16,
			}
			c.Install(workload.Image(spec, 0))
			m := migrateAfter(c.Node(0), spec.Name, "ws1", 5*time.Second)
			c.Run(time.Minute)
			if err := m.failed(); err != nil {
				r.check(false, "%dKB/%v: %v", kb, policy, err)
				return r
			}
			frz[pi] = m.rep.FreezeTime
		}
		paperStop := fmt.Sprintf("≈%.1f s", float64(kb)/1024*3)
		r.row(fmt.Sprintf("%4d KB logical host: stop-and-copy freeze", kb), paperStop,
			fmt.Sprintf("%.2f s", frz[0].Seconds()), "frozen for the whole copy")
		r.row(fmt.Sprintf("%4d KB logical host: pre-copy freeze", kb), "ms range",
			fmt.Sprintf("%.0f ms", frz[1].Seconds()*1000), "")
		r.metric(fmt.Sprintf("stop_freeze_s_%dKB", kb), frz[0].Seconds())
		r.metric(fmt.Sprintf("precopy_freeze_ms_%dKB", kb), frz[1].Seconds()*1000)
		r.check(frz[1] < frz[0]/4, "%dKB: precopy %v not ≪ stopcopy %v", kb, frz[1], frz[0])
	}
	return r
}

// AblationResidual regenerates the §5 Demos/MP comparison. After a plain
// pre-copy migration, the forwarding arm leaves a forwarder process on the
// source host and hands the prober its PID: Demos/MP's link, bound to the
// machine the program left. Every stale reference then costs the source a
// relay while it lives and fails when it reboots. The rebinding arm hands
// the prober the logical host's own PID, which survives the source's loss.
func AblationResidual(seed int64) *Result {
	r := newResult("A2", "ablation: forwarding addresses (Demos/MP) vs logical-host rebinding (§5)")
	const stale = 5

	run := func(forward bool) (relayed, answered int, postCrashOK bool) {
		c := bootCluster(core.Options{Workstations: 4, Seed: seed})
		defer c.Close()
		var job *core.Job
		var link vid.PID // what the prober holds once the program has moved
		migrated, crashed := false, false
		c.Node(0).Agent(func(a *core.Agent) {
			var e error
			job, e = a.Exec("tex", nil, "ws1")
			if e != nil {
				return
			}
			a.Sleep(3 * time.Second)
			if _, e := a.Migrate(job, false); e != nil {
				return
			}
			ks := vid.NewPID(job.LHID, vid.IdxKernelServer)
			link = ks
			if forward {
				link = c.Node(1).Host.SpawnServer("forwarder", 8192, func(ctx *kernel.ProcCtx) {
					for {
						req := ctx.Receive()
						m, err := ctx.Send(ks, req.Msg)
						if ce, failed := err.(vid.CodeError); failed {
							m = vid.ErrMsg(uint16(ce))
						}
						relayed++
						ctx.Reply(req, m)
					}
				}).PID()
			}
			migrated = true
			a.Sleep(3 * time.Second)
			c.Node(1).Host.Crash()
			crashed = true
		})
		// The prober runs on the server machine: it is never a migration
		// destination and receives no traffic from the program, so its
		// binding cache can only be fixed by the rebinding machinery.
		c.FSHost.SpawnServer("prober", 8192, func(ctx *kernel.ProcCtx) {
			ctx.Sleep(2 * time.Second)
			for job == nil {
				ctx.Sleep(200 * time.Millisecond)
			}
			// Prime the binding cache while the program is on ws1.
			ctx.Send(vid.NewPID(job.LHID, vid.IdxKernelServer), vid.Message{Op: kernel.KsPing})
			for !migrated {
				ctx.Sleep(200 * time.Millisecond)
			}
			// Stale references: through the forwarder, or rebound.
			for i := 0; i < stale; i++ {
				if _, err := ctx.Send(link, vid.Message{Op: kernel.KsPing}); err == nil {
					answered++
				}
				ctx.Sleep(100 * time.Millisecond)
			}
			for !crashed {
				ctx.Sleep(200 * time.Millisecond)
			}
			ctx.Sleep(time.Second)
			_, err := ctx.Send(link, vid.Message{Op: kernel.KsPing})
			postCrashOK = err == nil
		})
		c.Run(3 * time.Minute)
		return relayed, answered, postCrashOK
	}

	fwdLoad, fwdAns, fwdOK := run(true)
	rbLoad, rbAns, rbOK := run(false)

	r.row("relay load on source after migration", "Demos/MP: every stale reference",
		fmt.Sprintf("forwarding: %d msgs, rebinding: %d msgs", fwdLoad, rbLoad), "")
	r.row("stale references answered before reboot", "both",
		fmt.Sprintf("forwarding: %d/%d, rebinding: %d/%d", fwdAns, stale, rbAns, stale), "")
	r.row("stale reference after source reboot", "Demos/MP fails; V rebinds",
		fmt.Sprintf("forwarding ok=%v, rebinding ok=%v", fwdOK, rbOK), "")
	r.metric("forwarded_msgs", float64(fwdLoad))
	r.metric("rebind_survives", b2f(rbOK))
	r.metric("forwarding_survives", b2f(fwdOK))
	r.check(fwdAns == stale && rbAns == stale, "stale references answered: forwarding %d/%d, rebinding %d/%d", fwdAns, stale, rbAns, stale)
	r.check(!fwdOK, "forwarding survived source reboot")
	r.check(rbOK, "rebinding did not survive source reboot")
	r.check(rbLoad < fwdLoad, "rebinding relayed as much as forwarding")
	return r
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
