package main

import (
	"fmt"
	"math/rand"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/sched"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/workload"
)

// farm100: an open-loop compile farm on 100 workstations. See README.md.
const (
	farmHosts      = 100
	farmRate       = 20.0 // jobs/s: see the rate probe in README.md
	farmPadLC      = 3    // KB of stored image per latency-critical job
	farmPadBE      = 8    // KB per best-effort job
	farmStream     = 60 * time.Second
	farmDrain      = 20 * time.Second
	farmSubmitters = 10
	farmTries      = 5
)

type farm struct {
	cfg      config
	c        *core.Cluster
	ol       workload.OpenLoop
	ops      []*op
	start    sim.Time // virtual time the stream starts (end of warm-up)
	idleRate float64  // dispatches per host per virtual second, nothing submitted
	disp0    int64
	in       digest
}

func newFarm(cfg config) instance { return &farm{cfg: cfg} }

func (f *farm) inputs() uint64 { return f.in.h }

func (f *farm) setup() {
	f.c = core.NewCluster(core.Options{
		Workstations: farmHosts, Seed: clusterSeed, Select: sched.RandomK{K: 2},
	})
	// The stock classes with smaller stored images, so that the shared file
	// server carries the stream at a rate that yields enough jobs for a p95.
	lc, be := workload.LatencyCritical(), workload.BestEffort()
	lc.PadKB, be.PadKB = farmPadLC, farmPadBE
	f.ol = workload.OpenLoop{
		RatePerSec: farmRate,
		Duration:   f.cfg.scaled(farmStream),
		Classes:    []workload.JobClass{lc, be},
		Seed:       f.cfg.seed*7919 + 11,
	}
	arrivals := f.ol.Schedule()
	installed := map[string]bool{}
	for _, ar := range arrivals {
		if !installed[ar.Program] {
			installed[ar.Program] = true
			f.c.Install(quietImage(ar.Program, ar.ServiceMs, f.ol.Classes[ar.Class].PadKB*1024))
		}
	}
	// Beacons are staggered 10 ms per host: warm up past the slowest first
	// advertisement so selection runs from a full cache. The last second of
	// the warm-up, with every registration done and nothing submitted, is
	// the idle floor.
	warmup := farmHosts*10*time.Millisecond + time.Second
	f.c.Run(warmup - time.Second)
	d0 := f.c.Trace.Count(trace.EvDispatch)
	f.c.Run(time.Second)
	f.idleRate = float64(f.c.Trace.Count(trace.EvDispatch)-d0) / farmHosts
	f.start = f.c.Sim.Now()

	for i, ar := range arrivals {
		cl := f.ol.Classes[ar.Class]
		o := &op{
			id:      i + 1,
			due:     f.start.Add(ar.At),
			service: time.Duration(ar.ServiceMs) * time.Millisecond,
			imageKB: float64(cl.PadKB),
		}
		f.ops = append(f.ops, o)
		f.in.add(int64(ar.At), int64(ar.Class), int64(ar.ServiceMs))
		f.c.Node(i % farmSubmitters).Agent(func(a *core.Agent) {
			sleepUntil(a, o.due)
			f.cfg.job(a, o, ar.Program, 0, farmTries)
		})
	}
	f.disp0 = f.c.Trace.Count(trace.EvDispatch)
}

func (f *farm) run() {
	if f.cfg.traced() {
		attachListener(f.c, f.cfg.rec)
	}
	// Run the stream, then drain until every job has resolved or the drain
	// allowance is spent; whatever is still open then counts as failed.
	end := f.start.Add(f.ol.Duration)
	limit := end.Add(maxService(f.ol) + farmDrain)
	f.c.Sim.RunUntil(end)
	for f.c.Sim.Now() < limit && !allResolved(f.ops, f.c.Sim.Now()) {
		f.c.Run(500 * time.Millisecond)
	}
}

func maxService(ol workload.OpenLoop) time.Duration {
	var m time.Duration
	for _, cl := range ol.Classes {
		if d := time.Duration(cl.MaxServiceMs) * time.Millisecond; d > m {
			m = d
		}
	}
	return m
}

func (f *farm) report(r *result) {
	st := summarize(f.ops)
	r.ops(st)
	r.virtS = f.c.Sim.Now().Sub(f.start).Seconds()
	r.dispatches = float64(f.c.Trace.Count(trace.EvDispatch) - f.disp0)
	r.jobTimings(st)
	r.check(st.attempted == len(f.ops), "%d of %d scheduled jobs were submitted", st.attempted, len(f.ops))
	r.check(len(st.unfinished) == 0, "%d jobs neither completed nor failed", len(st.unfinished))

	var k counters
	k.addCluster(f.c)
	k.finish(r.layer)
	r.layer["progmgr.idle_dispatch_per_host_s"] = f.idleRate
	r.layer["bench.gen_late_max_ms"] = st.late.max()
	execSpans(f.cfg.rec, f.ops, r.layer)
	r.notes = append(r.notes, fmt.Sprintf("%d jobs at %.0f/s over %v virtual, %d hosts",
		len(f.ops), farmRate, f.ol.Duration, farmHosts))
}

// exec25: a closed loop of remote executions on the paper's 25-machine
// cluster, nothing queued. See README.md.
const (
	exec25Hosts     = 25
	exec25Agents    = 4
	exec25Stream    = 260 * time.Second
	exec25Drain     = 10 * time.Second
	exec25ServiceMs = 100
)

var exec25PadsKB = []uint32{4, 16, 64}

type exec25 struct {
	cfg   config
	c     *core.Cluster
	ops   []*op
	start sim.Time
	end   sim.Time
	disp0 int64
	in    digest
}

func newExec25(cfg config) instance { return &exec25{cfg: cfg} }

func (e *exec25) inputs() uint64 { return e.in.h }

func exec25Image(padKB uint32) string { return fmt.Sprintf("x25-%dk", padKB) }

func (e *exec25) setup() {
	e.c = core.NewCluster(core.Options{Workstations: exec25Hosts, Seed: clusterSeed})
	for _, kb := range exec25PadsKB {
		e.c.Install(quietImage(exec25Image(kb), exec25ServiceMs, kb*1024))
	}
	// Boot registrations are staggered 10 ms per host.
	e.c.Run(exec25Hosts*10*time.Millisecond + time.Second)
	e.start = e.c.Sim.Now()
	e.end = e.start.Add(e.cfg.scaled(exec25Stream))

	for i := 0; i < exec25Agents; i++ {
		rng := rand.New(rand.NewSource(e.cfg.seed*7919 + int64(i)*104729 + 25))
		offset := time.Duration(rng.Int63n(int64(time.Second)))
		e.in.add(int64(offset))
		var order []int
		e.c.Node(i).Agent(func(a *core.Agent) {
			a.Sleep(offset)
			for n := 0; a.Now() < e.end; n++ {
				// Image sizes come in seeded permutations of the three, so
				// every seed runs the same mix in a different order.
				if n%len(exec25PadsKB) == 0 {
					order = rng.Perm(len(exec25PadsKB))
				}
				kb := exec25PadsKB[order[n%len(exec25PadsKB)]]
				o := &op{
					id: len(e.ops) + 1, due: a.Now(),
					service: exec25ServiceMs * time.Millisecond, imageKB: float64(kb),
				}
				e.ops = append(e.ops, o)
				e.in.add(int64(kb))
				e.cfg.job(a, o, exec25Image(kb), 0, 1)
			}
		})
	}
	e.disp0 = e.c.Trace.Count(trace.EvDispatch)
}

func (e *exec25) run() {
	if e.cfg.traced() {
		attachListener(e.c, e.cfg.rec)
	}
	e.c.Sim.RunUntil(e.end)
	limit := e.end.Add(exec25Drain)
	for e.c.Sim.Now() < limit && !allResolved(e.ops, e.c.Sim.Now()) {
		e.c.Run(100 * time.Millisecond)
	}
}

func (e *exec25) report(r *result) {
	st := summarize(e.ops)
	r.ops(st)
	r.virtS = e.c.Sim.Now().Sub(e.start).Seconds()
	r.dispatches = float64(e.c.Trace.Count(trace.EvDispatch) - e.disp0)
	r.jobTimings(st)
	r.check(len(st.unfinished) == 0, "%d jobs neither completed nor failed", len(st.unfinished))

	var k counters
	k.addCluster(e.c)
	k.finish(r.layer)
	execSpans(e.cfg.rec, e.ops, r.layer)
	r.notes = append(r.notes, fmt.Sprintf("%d execs by %d agents over %v virtual, %d hosts",
		len(e.ops), exec25Agents, e.end.Sub(e.start), exec25Hosts))
}
