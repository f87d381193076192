package experiments

import (
	"fmt"
	"sort"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/packet"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
	"vsystem/internal/workload"
)

// RemoteExecCosts regenerates the §4.1 remote-execution cost breakdown:
//
//	host selection            23 ms (time to first response)
//	env setup + destroy       40 ms
//	program loading           330 ms per 100 Kbytes
//
// Setup/destroy and load rate are separated by sweeping image sizes and
// fitting a line: the intercept is environment overhead, the slope the
// load rate.
func RemoteExecCosts(seed int64) *Result {
	r := newResult("E1", "remote execution costs (§4.1)")
	c := bootCluster(core.Options{Workstations: 5, Seed: seed})
	defer c.Close()

	// Sized images for the load sweep.
	sizes := []uint32{25, 50, 100, 200, 400} // KB of pad
	for _, kb := range sizes {
		spec := workload.Spec{Name: fmt.Sprintf("sized%dk", kb), HotKB: 4, HotRateKBps: 10, DurationMs: 60000}
		c.Install(workload.Image(spec, kb*1024))
	}

	var selMS []float64
	var createMS []float64 // per size: create+destroy round trip
	var err error
	c.Node(0).Agent(func(a *core.Agent) {
		// Host selection: 10 queries.
		for i := 0; i < 10; i++ {
			t0 := a.Now()
			if _, e := a.Select(64 * 1024); e != nil {
				err = e
				return
			}
			selMS = append(selMS, a.Now().Sub(t0).Seconds()*1000)
			a.Sleep(100 * time.Millisecond)
		}
		// Create+destroy sweep over image sizes, always on ws1.
		sel, e := core.FindHost(a.Ctx(), "ws1")
		if e != nil {
			err = e
			return
		}
		for _, kb := range sizes {
			t0 := a.Now()
			job, e := a.CreateProgram(sel, fmt.Sprintf("sized%dk", kb), nil)
			if e != nil {
				err = e
				return
			}
			if e := a.DestroyProgram(job); e != nil {
				err = e
				return
			}
			createMS = append(createMS, a.Now().Sub(t0).Seconds()*1000)
			a.Sleep(100 * time.Millisecond)
		}
	})
	c.Run(2 * time.Minute)
	if err != nil {
		r.check(false, "agent failed: %v", err)
		return r
	}

	sel := mean(selMS)
	// Linear fit createMS = overhead + rate * KB.
	var xs []float64
	for _, kb := range sizes {
		xs = append(xs, float64(kb))
	}
	overhead, perKB := linfit(xs, createMS)
	per100KB := perKB * 100

	r.row("host selection (first response)", "23 ms", ms(sel), "multicast to PM group")
	r.row("env setup + destroy", "40 ms", ms(overhead), "zero-size intercept of create+destroy sweep")
	r.row("program loading per 100 KB", "330 ms", ms(per100KB), "slope of create+destroy sweep")
	r.metric("select_ms", sel)
	r.metric("env_ms", overhead)
	r.metric("load_ms_per_100KB", per100KB)
	r.check(sel > 10 && sel < 46, "selection %.1fms outside 2x of 23ms", sel)
	r.check(overhead > 20 && overhead < 80, "env overhead %.1fms outside 2x of 40ms", overhead)
	r.check(per100KB > 165 && per100KB < 660, "load rate %.1fms/100KB outside 2x of 330ms", per100KB)
	return r
}

// ExecutionOverheads regenerates the §4.1 execution-time overheads:
//
//	local-group-id indirection   +100 µs per kernel/team-server op
//	frozen check                 +13 µs on several kernel operations
//
// Measured by timing a fixed batch of kernel-server operations with the
// mechanism enabled and disabled.
func ExecutionOverheads(seed int64) *Result {
	r := newResult("E5", "execution-time overheads of remote execution & migration support (§4.1)")

	const ops = 200
	// opBatch issues ops pings to ws1's kernel server through a
	// well-known local-group id and returns the elapsed virtual time.
	opBatch := func(groupIndirection, migrationOverhead bool) time.Duration {
		c := bootCluster(core.Options{Workstations: 2, Seed: seed})
		defer c.Close()
		for _, n := range c.Nodes {
			n.Host.IPC.GroupIndirection = groupIndirection
			n.Host.MigrationOverhead = migrationOverhead
		}
		var elapsed time.Duration
		c.Node(0).Agent(func(a *core.Agent) {
			dst := vid.NewPID(c.Node(1).Host.SystemLH().ID(), vid.IdxKernelServer)
			// Warm the binding cache first.
			a.Ctx().Send(dst, vid.Message{Op: 0x10})
			t0 := a.Now()
			for i := 0; i < ops; i++ {
				a.Ctx().Send(dst, vid.Message{Op: 0x10})
			}
			elapsed = a.Now().Sub(t0)
		})
		c.Run(time.Minute)
		return elapsed
	}

	full := opBatch(true, true)
	noGroup := opBatch(false, true)
	noFrozen := opBatch(true, false)

	groupPerOp := float64(full-noGroup) / float64(ops) / float64(time.Microsecond)
	// The frozen check is charged on every gate the agent's own sends
	// pass as well, so the per-op delta includes a handful of checks.
	frozenPerOp := float64(full-noFrozen) / float64(ops) / float64(time.Microsecond)

	r.row("local-group-id indirection / op", "100 µs", fmt.Sprintf("%.0f µs", groupPerOp), "GroupIndirection on vs off")
	r.row("frozen-check overhead / op", "13 µs", fmt.Sprintf("%.0f µs", frozenPerOp), "MigrationOverhead on vs off (≥1 check per op)")
	r.metric("group_us_per_op", groupPerOp)
	r.metric("frozen_us_per_op", frozenPerOp)
	r.check(groupPerOp > 50 && groupPerOp < 200, "group indirection %.0fµs not ≈100µs", groupPerOp)
	r.check(frozenPerOp >= 13 && frozenPerOp < 150, "frozen check %.0fµs not in [13µs, ~10x]", frozenPerOp)
	return r
}

// CommPaths regenerates Figure 2-1: the communication paths of a remote
// execution. It traces one `primes @ ws1` run and verifies each leg of
// the figure appears: requester ↔ program-manager group, requester ↔
// program manager, program manager ↔ file server, requester ↔ kernel
// server, program ↔ display server (on the home workstation).
func CommPaths(seed int64) *Result {
	r := newResult("F2-1", "communication paths for (remote) program execution (Fig. 2-1)")
	c := bootCluster(core.Options{Workstations: 3, Seed: seed})
	defer c.Close()

	type leg struct{ from, to, what string }
	var legs []leg
	seen := map[string]int{}
	name := func(p vid.PID) string {
		lh := p.LH()
		for _, n := range c.Nodes {
			if n.Host.SystemLH().ID() == lh {
				switch p.Index() {
				case vid.IdxKernelServer:
					return "kserver@" + n.Name()
				case vid.IdxProgramManager:
					return "progmgr@" + n.Name()
				}
				if p == n.PM.PID() {
					return "progmgr@" + n.Name()
				}
				if p == n.Display.PID() {
					return "display@" + n.Name()
				}
				return "agent@" + n.Name()
			}
		}
		if c.FSHost.SystemLH().ID() == lh {
			return "fileserver"
		}
		if p == vid.GroupProgramManagers {
			return "pm-group"
		}
		if p.IsGroup() {
			return "group"
		}
		if p.Index() == vid.IdxKernelServer {
			return "kserver(prog)"
		}
		return "program"
	}
	// Every request leaving a host (on the wire or delivered locally) is one
	// leg of the figure; receive events would double-count each leg.
	c.Trace.Subscribe(func(ev trace.Event) {
		if ev.Kind != trace.EvPktTx && ev.Kind != trace.EvPktLocal {
			return
		}
		if ev.Pkt == nil || ev.Pkt.Kind != packet.KRequest {
			return
		}
		l := leg{from: name(ev.Pkt.Src), to: name(ev.Pkt.Dst), what: ev.Pkt.Kind.String()}
		key := l.from + "→" + l.to
		if seen[key] == 0 {
			legs = append(legs, l)
		}
		seen[key]++
	})

	var err error
	c.Node(0).Agent(func(a *core.Agent) {
		job, e := a.Exec("primes2000", nil, "ws1")
		if e != nil {
			err = e
			return
		}
		_, err = a.Wait(job)
	})
	c.Run(5 * time.Minute)
	if err != nil {
		r.check(false, "exec failed: %v", err)
		return r
	}

	want := []struct{ key, why string }{
		{"agent@ws0→pm-group", "host selection / name query"},
		{"agent@ws0→progmgr@ws1", "program creation request"},
		{"progmgr@ws1→fileserver", "image loading (diskless workstation)"},
		{"agent@ws0→kserver(prog)", "start: 'reply to the initial process'"},
		{"program→display@ws0", "terminal output to home display server"},
	}
	for _, w := range want {
		key, why := w.key, w.why
		n := seen[key]
		r.row(key, "present", fmt.Sprintf("%d request(s)", n), why)
		r.check(n > 0, "missing leg %s", key)
	}
	// Order-stable dump of every observed first leg for the figure.
	sort.Slice(legs, func(i, j int) bool { return legs[i].from+legs[i].to < legs[j].from+legs[j].to })
	for _, l := range legs {
		r.note("observed: %s → %s", l.from, l.to)
	}
	r.metric("legs", float64(len(legs)))
	return r
}

// Usage regenerates the §4.3 usage observations: on a cluster where most
// workstations are idle most of the time, almost all `@ *` requests are
// honored; hosts running local work are never selected.
func Usage(seed int64) *Result {
	r := newResult("A3", "usage: idle workstations as a processor pool (§4.3)")
	const stations = 10
	c := bootCluster(core.Options{Workstations: stations, Seed: seed})
	defer c.Close()

	// Three owners use their workstations (editing: a make-like light
	// local job that still marks the CPU busy at probe time is too weak —
	// run tex locally to model an actively used machine).
	busy := map[string]bool{"ws1": true, "ws2": true, "ws3": true}
	for i := 1; i <= 3; i++ {
		n := c.Node(i)
		n.Agent(func(a *core.Agent) {
			a.Exec("tex", nil, "")
		})
	}

	// Batch jobs sized like a compilation phase (~4 s of CPU).
	batch := workload.Spec{Name: "batchjob", HotKB: 24, HotRateKBps: 150, StreamKBps: 8, StreamKB: 64, DurationMs: 4000}
	c.Install(workload.Image(batch, 30*1024))

	honored, refused := 0, 0
	placedOnBusy := 0
	c.Node(0).Agent(func(a *core.Agent) {
		a.Sleep(3 * time.Second)
		for i := 0; i < 12; i++ {
			job, e := a.Exec("batchjob", nil, "*")
			if e != nil {
				refused++
			} else {
				honored++
				if busy[job.Host] {
					placedOnBusy++
				}
			}
			a.Sleep(time.Second)
		}
	})
	c.Run(2 * time.Minute)

	r.row("remote exec requests honored", "almost all", fmt.Sprintf("%d/%d", honored, honored+refused), "12 batch jobs @ * on a 10-station cluster, 3 in use")
	r.row("placed on a user's busy workstation", "never (owner priority)", fmt.Sprintf("%d", placedOnBusy), "")
	r.metric("honored", float64(honored))
	r.metric("refused", float64(refused))
	r.check(honored >= 10, "only %d/12 honored", honored)
	r.check(placedOnBusy == 0, "%d jobs placed on busy workstations", placedOnBusy)
	return r
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// linfit returns the least-squares intercept and slope of y = a + b*x.
func linfit(xs, ys []float64) (a, b float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	b = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	a = (sy - b*sx) / n
	return a, b
}
