package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
	"vsystem/internal/workload"
)

// failover: supervised probes on a schedule while the home group's leader
// is killed again and again. See README.md.
const (
	foHosts       = 12
	foReplicas    = 3
	foKills       = 24
	foKillEvery   = 15 * time.Second
	foRestart     = 7 * time.Second // a killed member is back this long after its crash
	foProbeEvery  = 400 * time.Millisecond
	foProbeJitter = 100 * time.Millisecond // probe i is due at (i×every + jitter) ± jitter
	foSettle      = 3 * time.Second        // set-up: first elections done
	foTail        = 8 * time.Second        // after the last kill: its failover and outage complete
	foWindow      = 3 * time.Second        // after a kill: probes due in it run into the failover
	foTries       = 5
	foProbeMs     = 100
	foBeatMs      = 50 // the session program prints a line per this much of its own CPU time
)

type kill struct {
	due, at sim.Time // scheduled; actually performed (0: no leader found to kill)
	elect   sim.Time // next home-group election after it (0: none seen)
}

type failover struct {
	cfg        config
	c          *core.Cluster
	ops        []*op
	kills      []*kill
	start, end sim.Time
	disp0      int64
	beats      int // lines the session program prints in all
	tickerCode uint32
	tickerErr  error
	tickerDone bool
	in         digest
}

func newFailover(cfg config) instance { return &failover{cfg: cfg} }

func (f *failover) inputs() uint64 { return f.in.h }

func (f *failover) setup() {
	f.c = core.NewCluster(core.Options{
		Workstations: foHosts, Seed: clusterSeed,
		ReplicateHome: foReplicas, ReplicateFS: foReplicas,
	})
	nkills := f.cfg.count(foKills)
	span := time.Duration(nkills) * foKillEvery
	f.start = sim.Time(foSettle)
	f.end = f.start.Add(span + foTail)
	// The session program runs through every kill, printing "beat: tick <n>"
	// per foBeatMs of its own CPU time and one closing line. It shares its
	// host's CPU with probes, so its demand is set at nine tenths of the
	// span. (progs.Ticker would do, but interpreting it costs more host time
	// than the rest of this workload together.)
	beat := workload.Spec{
		Name: "beat", HotKB: 8, HotRateKBps: 100, OutputEveryMs: foBeatMs,
		DurationMs: uint32(span*9/10/(foBeatMs*time.Millisecond)) * foBeatMs,
	}
	f.beats = int(beat.DurationMs/foBeatMs) + 1 // the closing line
	f.c.Install(workload.Image(beat, 16*1024))
	f.c.Install(quietImage("probe", foProbeMs, 8*1024))

	// Failover clock: each kill → the next home-group election.
	f.c.Trace.Subscribe(func(ev trace.Event) {
		if ev.Kind != trace.EvElect || ev.LH != vid.GroupHomeRSM.LH() {
			return
		}
		for _, k := range f.kills {
			if k.at != 0 && k.elect == 0 && ev.At > k.at {
				k.elect = ev.At
			}
		}
	})

	rng := rand.New(rand.NewSource(f.cfg.seed*7919 + 31))
	// Kill i is due in the first half of its 15 s slot, so the member killed
	// before it (back after 7 s) has rejoined and a majority always stands.
	for i := 0; i < nkills; i++ {
		k := &kill{due: f.start.Add(time.Duration(i)*foKillEvery + time.Second +
			time.Duration(rng.Int63n(int64(6*time.Second))))}
		f.kills = append(f.kills, k)
		f.in.add(int64(k.due))
		f.c.Sim.At(k.due, func() { f.kill(k, 15) })
	}

	// Probes: one every 400 ms ± jitter, round-robin from ws3–5 (not home
	// members), each timed from its due time.
	for i := 0; time.Duration(i)*foProbeEvery < span+foTail/2; i++ {
		due := f.start.Add(time.Duration(i)*foProbeEvery + time.Duration(rng.Int63n(int64(2*foProbeJitter))))
		o := &op{id: i + 1, due: due, service: foProbeMs * time.Millisecond, imageKB: 8}
		f.ops = append(f.ops, o)
		f.in.add(int64(due))
		f.c.Node(3 + i%3).Agent(func(a *core.Agent) {
			sleepUntil(a, o.due)
			f.cfg.job(a, o, "probe", params.ExecMaxRestarts, foTries)
		})
	}

	f.c.Node(6).Agent(func(a *core.Agent) {
		a.Sleep(f.start.Sub(a.Now()))
		job, err := a.Exec(beat.Name, nil, "ws8")
		if err != nil {
			f.tickerErr = err
			return
		}
		f.tickerCode, f.tickerErr = a.Wait(job)
		f.tickerDone = true
	})
	f.c.Run(foSettle)
	f.disp0 = f.c.Trace.Count(trace.EvDispatch)
}

// kill crashes whoever leads the home group now, polling briefly if the
// group is between leaders, and schedules the victim's restart.
func (f *failover) kill(k *kill, left int) {
	if i := f.c.HomeLeaderIdx(); i >= 0 {
		mac := f.c.Node(i).Host.NIC.MAC()
		k.at = f.c.Sim.Now()
		f.c.Fault.Crash(mac)
		f.c.Fault.RestartAfter(foRestart, mac)
		return
	}
	if left > 0 {
		f.c.Sim.After(200*time.Millisecond, func() { f.kill(k, left-1) })
	}
}

func (f *failover) run() {
	if f.cfg.traced() {
		attachListener(f.c, f.cfg.rec)
	}
	f.c.Sim.RunUntil(f.end)
	limit := f.end.Add(20 * time.Second)
	for f.c.Sim.Now() < limit && !(allResolved(f.ops, f.c.Sim.Now()) && f.tickerDone) {
		f.c.Run(500 * time.Millisecond)
	}
}

func (f *failover) report(r *result) {
	st := summarize(f.ops)
	r.ops(st)
	r.virtS = f.c.Sim.Now().Sub(f.start).Seconds()
	r.dispatches = float64(f.c.Trace.Count(trace.EvDispatch) - f.disp0)

	var fo, outage, through samples
	for i, k := range f.kills {
		r.check(k.at != 0, "kill %d: no home leader to kill", i+1)
		if k.at == 0 {
			continue
		}
		r.check(k.elect != 0, "kill %d: no home election followed", i+1)
		if k.elect != 0 {
			d := k.elect.Sub(k.at)
			fo = append(fo, ms(d))
			r.check(d <= params.RsmFailoverBudget, "kill %d: failover %v exceeds budget %v",
				i+1, d, params.RsmFailoverBudget)
		}
		// Outage as a user sees it: the first probe due after the crash,
		// until it completes. And what an exec costs while the group fails
		// over: the mean latency of the probes due in the window after the
		// crash.
		first := true
		var hit samples
		for _, o := range f.ops {
			if o.due <= k.at {
				continue
			}
			if first && o.state == opDone {
				outage = append(outage, ms(o.done.Sub(k.at)))
			}
			first = false
			if o.due > k.at.Add(foWindow) {
				break
			}
			if o.running {
				hit = append(hit, ms(o.started.Sub(o.due)))
			}
		}
		through = append(through, hit.mean())
	}
	// Probe latency here is 91 % ~100 ms, 7 % ~1.2 s and 2 % ~2.3 s: the
	// steps of the client's retry ladder while no leader answers. p95 sits
	// on the 1.2 s step and jumps to the next when the slowest share passes
	// 5 %; outage_max_ms is one step or another; and about one kill in
	// twenty is followed by several seconds of 5 s execs, which moves any
	// whole-run mean by half (3 of seeds 1–14). All are printed. The slots
	// that carry a bound take figures that are medians over the 24 kills
	// or, for the election times, continuous.
	r.quantile("exec_p50_ms", "op_p50_ms", st.exec, 0.50)
	r.quantile("exec_p95_ms", "", st.exec, 0.95)
	r.quantile("exec_in_failover_p50_ms", "op_tail_ms", through, 0.50)
	r.quantile("failover_p50_ms", "delay_p50_ms", fo, 0.50)
	r.worst("failover_max_ms", "delay_tail_ms", fo)
	r.worst("outage_max_ms", "", outage)
	r.check(len(outage) == len(f.kills), "outage measured for %d of %d kills", len(outage), len(f.kills))
	r.check(len(st.unfinished) == 0, "%d probes neither completed nor failed", len(st.unfinished))

	lines, ordered := beatLines(f.c.Node(6).Display.Lines())
	r.check(f.tickerDone && f.tickerErr == nil && f.tickerCode == 0,
		"session: done=%v code=%d err=%v", f.tickerDone, f.tickerCode, f.tickerErr)
	r.check(ordered, "session output is duplicated or out of order (%d lines)", lines)
	r.layer["progmgr.session_lines_lost"] = float64(f.beats - lines)

	var k counters
	k.addCluster(f.c)
	k.finish(r.layer)
	r.layer["rsm.commits_per_probe"] = ratio(k.commits, float64(st.attempted))
	r.layer["rsm.outage_max_ms"] = outage.max()
	r.layer["bench.gen_late_max_ms"] = st.late.max()
	execSpans(f.cfg.rec, f.ops, r.layer)
	r.notes = append(r.notes, fmt.Sprintf("%d leader kills, %d probes, %d of %d session lines shown, over %v virtual, %d hosts",
		len(f.kills), len(f.ops), lines, f.beats, f.end.Sub(f.start), foHosts))
}

// beatLines reads the beat program's display lines: "beat: tick <n>" with
// n a multiple of the period, then one closing line. It returns how many
// arrived and whether they are exactly-once and in order: every tick line
// later than the one before, nothing after the closing line. A line that
// never arrived is not a disorder; the caller compares n with the number
// the program printed.
func beatLines(lines []string) (n int, ordered bool) {
	ordered = true
	prev, closed := 0, false
	for _, ln := range lines {
		var v int
		switch {
		case strings.HasPrefix(ln, "beat: done"):
			n++
			ordered = ordered && !closed
			closed = true
		case closed:
			ordered = false
		default:
			if _, err := fmt.Sscanf(ln, "beat: tick %d", &v); err != nil {
				continue
			}
			n++
			ordered = ordered && v > prev
			prev = v
		}
	}
	return n, ordered
}
