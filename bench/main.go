// Command bench is the repository's benchmark: four workloads, each
// measured on two clocks — virtual time (the modelled V cluster; exact at
// a fixed seed) and host time (what the simulator costs to run; noisy) —
// with a separate traced run that prices each layer from outside, through
// public calls and public counters only. README.md in this directory is
// the manual; BENCHMARK.json at the repository root names the metrics.
//
//	go run ./bench                       # all four workloads, untraced
//	go run ./bench -workload exec25      # one workload; last line is JSON
//	go run ./bench -workload exec25 -trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"vsystem/internal/core"
	"vsystem/internal/trace"
)

// nominalSeconds is the -seconds value at which the workloads have the
// sizes README.md describes (scale 1).
const nominalSeconds = 15

var workloads = []scenario{
	{"farm100", "open loop, 20 jobs/s into 100 hosts under random-2: beacons, cached view, one unicast probe, shared file server — dispatch-bound on the host clock", newFarm},
	{"exec25", "closed loop of 4 agents on the paper's 25 hosts, first-response, a multicast query every time: bypasses the cached view, beacons and large-cluster paths", newExec25},
	{"migrate", "1040 migrations of four paper guests under precopy, postcopy, hybrid and flush at 1 % loss: copy path, windows, dirty tracking", newMigrate},
	{"failover", "supervised probes every 400 ms through 24 home-leader kills with 3+3 replicas: rsm elections, commits, catch-up, failure detector", newFailover},
}

// metricDef names one metric of BENCHMARK.json. host marks per-layer
// metrics read on the host clock (everything else repeats exactly at a
// fixed seed).
type metricDef struct {
	name, unit string
	host       bool
}

var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"cpu_s", "s", true},
	{"alloc_mb", "MB", true},
	{"op_p50_ms", "ms", false},
	{"op_tail_ms", "ms", false},
	{"delay_p50_ms", "ms", false},
	{"delay_tail_ms", "ms", false},
}

var perLayer = []metricDef{
	{"sim.switch_ns", "ns", true},
	{"sim.timer_ns", "ns", true},
	{"sim.cpu_us_per_dispatch", "us", true},
	{"sim.virt_s", "s", false},
	{"progmgr.create_p50_ms", "ms", false},
	{"progmgr.create_p95_ms", "ms", false},
	{"progmgr.wait_notify_p50_ms", "ms", false},
	{"progmgr.lease_renews", "count", false},
	{"progmgr.lease_expires", "count", false},
	{"progmgr.exec_restarts", "count", false},
	{"progmgr.idle_dispatch_per_host_s", "1/s", false},
	{"progmgr.session_lines_lost", "count", false},
	{"sched.select_p50_ms", "ms", false},
	{"sched.select_p95_ms", "ms", false},
	{"sched.warm_share", "ratio", false},
	{"sched.multicasts_per_query", "ratio", false},
	{"sched.probe_fail_share", "ratio", false},
	{"fileserver.kbytes", "KB", false},
	{"fileserver.cpu_util", "ratio", false},
	{"fileserver.load_ms_per_kb", "ms/KB", false},
	{"fileserver.flush_kb", "KB", false},
	{"kernel.start_p50_ms", "ms", false},
	{"kernel.dispatches", "count", false},
	{"kernel.freezes", "count", false},
	{"kernel.frozen_ms", "ms", false},
	{"ipc.tx_packets", "count", false},
	{"ipc.retransmits", "count", false},
	{"ipc.retx_share", "ratio", false},
	{"ipc.locates", "count", false},
	{"ipc.reply_pendings", "count", false},
	{"ipc.bind_miss_share", "ratio", false},
	{"ipc.suspects", "count", false},
	{"ipc.roundtrip_us", "us", true},
	{"ethernet.frames", "count", false},
	{"ethernet.kbytes", "KB", false},
	{"ethernet.busy_share", "ratio", false},
	{"ethernet.dropped", "count", false},
	{"ethernet.broadcasts", "count", false},
	{"ethernet.frame_ns", "ns", true},
	{"packet.marshal_ns", "ns", true},
	{"packet.unmarshal_ns", "ns", true},
	{"mem.snapshot_us", "us", true},
	{"core.freeze_p50_ms.precopy", "ms", false},
	{"core.freeze_p50_ms.postcopy", "ms", false},
	{"core.freeze_p50_ms.hybrid", "ms", false},
	{"core.freeze_p50_ms.flush", "ms", false},
	{"core.total_p50_ms.precopy", "ms", false},
	{"core.total_p50_ms.postcopy", "ms", false},
	{"core.total_p50_ms.hybrid", "ms", false},
	{"core.total_p50_ms.flush", "ms", false},
	{"core.beat_lines_lost", "count", false},
	{"core.rounds_mean", "count", false},
	{"core.residual_kb_p50", "KB", false},
	{"core.wire_kb_per_migration", "KB", false},
	{"core.window_stall_share", "ratio", false},
	{"core.window_occupancy", "count", false},
	{"core.postswap_faults_mean", "count", false},
	{"core.postswap_stall_p50_ms", "ms", false},
	{"core.phase_ms.select", "ms", false},
	{"core.phase_ms.precopy", "ms", false},
	{"core.phase_ms.freeze", "ms", false},
	{"core.phase_ms.residue", "ms", false},
	{"core.phase_ms.swap", "ms", false},
	{"core.phase_ms.rebind", "ms", false},
	{"core.phase_ms.postswap-pull", "ms", false},
	{"rsm.elections", "count", false},
	{"rsm.commits", "count", false},
	{"rsm.snap_installs", "count", false},
	{"rsm.commits_per_probe", "ratio", false},
	{"rsm.outage_max_ms", "ms", false},
	{"rsm.submit_p50_ms", "ms", false},
	{"rsm.codec_ns", "ns", true},
	{"trace.publish_ns.0sub", "ns", true},
	{"trace.publish_ns.1sub", "ns", true},
	{"trace.events", "count", false},
	{"trace.overhead_share", "ratio", true},
	{"bench.gen_late_max_ms", "ms", false},
	{"bench.exec_sum_err_max", "ratio", false},
	{"bench.freeze_sum_err_max", "ratio", false},
	{"bench.traced_skew_ms", "ms", false},
}

// attachListener subscribes the traced run's listener to a cluster: it
// counts every event and span the cluster publishes, and puts the rare
// control-plane events on the span timeline as zero-length marks.
func attachListener(c *core.Cluster, rec *recorder) {
	c.Trace.Subscribe(func(ev trace.Event) {
		rec.heard++
		switch ev.Kind {
		case trace.EvHostCrash, trace.EvHostRestart, trace.EvElect, trace.EvFailover,
			trace.EvLeaseExpire, trace.EvExecRestart, trace.EvHostSuspect:
			rec.add(ev.Kind.String(), 0, 0, ev.At, ev.At)
		}
	})
	c.Trace.SubscribeSpans(func(trace.Span) { rec.heard++ })
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload: farm100, exec25, migrate or failover (default: all four)")
		seed     = flag.Int64("seed", 1, "seed of the input generators: arrivals, image sizes, agent offsets, kill times, probe jitter")
		seconds  = flag.Float64("seconds", nominalSeconds, "size of the run: the generated work is in proportion to it, about this many host seconds per workload at the default")
		traceArg = flag.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
		traceOut = flag.String("trace-out", "", "file the traced run's spans are written to (default .bench_build/spans-<workload>.jsonl)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-trace-out file]")
		os.Exit(2)
	}
	var selected []scenario
	for _, w := range workloads {
		if *name == "" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	// The simulator runs one goroutine at a time. With more than one P the
	// Go scheduler hands every task switch to another OS thread through a
	// futex, which doubles the CPU time and makes it depend on what else
	// the machine is doing (exec25: 20 s alone, 12 s beside a busy
	// neighbour, 9 s on one P). One P is the steady, honest figure.
	runtime.GOMAXPROCS(1)

	fmt.Printf("# vsystem bench: seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		*seed, *seconds, *traceArg, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	ok := true
	for _, w := range selected {
		cfg := config{seed: *seed, scale: *seconds / nominalSeconds}
		var r *result
		if *traceArg == 0 {
			r = measure(w, cfg)
			moreSetups(w, cfg, r)
		} else {
			out := *traceOut
			if out == "" {
				out = filepath.Join(".bench_build", "spans-"+w.name+".jsonl")
			}
			r = measureTraced(w, cfg, out)
			microMetrics(r.layer)
		}
		printReport(os.Stdout, w, r)
		line, err := json.Marshal(r.contract())
		if err != nil {
			panic(err) // plain maps of numbers and strings
		}
		fmt.Printf("%s\n", line)
		ok = ok && r.correct()
	}
	if !ok {
		os.Exit(1)
	}
}

// measureTraced is the traced run: the untraced pass first (its cpu_s is
// the base of trace.overhead_share, its virtual metrics the reference the
// traced pass must reproduce), then the same inputs again with the
// listener attached and every operation recorded as spans.
func measureTraced(w scenario, cfg config, out string) *result {
	base := measure(w, cfg)
	cfg.rec = &recorder{}
	r := measure(w, cfg)
	r.untracedTimings = base.timings
	for _, p := range base.problems {
		r.problems = append(r.problems, "untraced pass: "+p)
	}

	r.layer["trace.overhead_share"] = ratio(r.cpuS-base.cpuS, base.cpuS)
	r.layer["sim.cpu_us_per_dispatch"] = ratio(base.cpuS*1e6, base.dispatches)
	r.layer["trace.events"] = float64(cfg.rec.heard)
	// The traced pass replaces ExecR by its public steps; how far that moved
	// the virtual clock's results is reported, not assumed to be zero.
	for i, t := range r.timings {
		if i < len(base.timings) {
			if d := math.Abs(t.value - base.timings[i].value); d > r.layer["bench.traced_skew_ms"] {
				r.layer["bench.traced_skew_ms"] = d
			}
		}
	}
	r.traceOut = out
	if err := cfg.rec.write(out); err != nil {
		r.check(false, "writing spans: %v", err)
	}
	return r
}

// correct: every correctness check held and every percentile the
// workload's size should support was given.
func (r *result) correct() bool {
	if len(r.problems) > 0 {
		return false
	}
	for _, t := range r.timings {
		if t.err != nil {
			return false
		}
	}
	return true
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// contract is the result line BENCHMARK.json's reader expects: every
// end-to-end metric from an untraced run, every per-layer metric from a
// traced one.
func (r *result) contract() jsonResult {
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonValue{}}
	if r.traced {
		for _, d := range perLayer {
			out.Metrics[d.name] = jsonValue{r.layer[d.name], d.unit}
		}
		return out
	}
	vals := map[string]float64{"setup_s": r.setupS.median(), "cpu_s": r.cpuS, "alloc_mb": r.allocMB}
	for _, t := range r.timings {
		if t.slot != "" {
			vals[t.slot] = t.value
		}
	}
	for _, d := range endToEnd {
		out.Metrics[d.name] = jsonValue{vals[d.name], d.unit}
	}
	return out
}

func printReport(w *os.File, wl scenario, r *result) {
	fmt.Fprintf(w, "\n## %s — %s\n", wl.name, wl.why)
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	fmt.Fprintf(w, "   inputs digest %016x\n", r.inputs)
	row := func(name string, v float64, unit, clock, extra string) {
		fmt.Fprintf(w, "   %-34s %14.4f %-6s %-8s %s\n", name, v, unit, clock, extra)
	}
	if !r.traced {
		row("setup_s", r.setupS.median(), "s", "host", fmt.Sprintf("median of %d set-ups", len(r.setupS)))
	}
	row("cpu_s", r.cpuS, "s", "host", "timed phase, user+sys")
	row("alloc_mb", r.allocMB, "MB", "host", "timed phase, TotalAlloc")
	row("wall_s", r.wallS, "s", "host", "information only: not a metric")
	row("failed_share", ratio(float64(r.failed), float64(r.attempted)), "ratio", "",
		fmt.Sprintf("%d of %d operations failed or unfinished", r.failed, r.attempted))
	if len(r.unfinished) > 0 {
		fmt.Fprintf(w, "   unfinished operation ids: %v\n", r.unfinished)
	}
	for _, line := range r.virtualLines() {
		fmt.Fprintf(w, "   %s\n", line)
	}
	if r.traced {
		for _, d := range perLayer {
			if d.host {
				row(d.name, r.layer[d.name], d.unit, "host", "")
			}
		}
		fmt.Fprintf(w, "   spans written to %s\n", r.traceOut)
	}
	if r.correct() {
		fmt.Fprintf(w, "   correctness: ok\n")
		return
	}
	fmt.Fprintf(w, "   correctness: FAILED\n")
	for _, p := range r.problems {
		fmt.Fprintf(w, "     - %s\n", p)
	}
	for _, t := range r.timings {
		if t.err != nil {
			fmt.Fprintf(w, "     - %s: %v\n", t.name, t.err)
		}
	}
}

// virtualLines renders everything that must repeat exactly at a fixed
// seed: the virtual-clock end-to-end metrics and, in a traced run, the
// virtual-clock and counter per-layer metrics.
func (r *result) virtualLines() []string {
	var out []string
	for _, t := range r.timings {
		slot := ""
		if t.slot != "" {
			slot = " → " + t.slot
		}
		if t.err != nil {
			out = append(out, fmt.Sprintf("%-34s %14s %-6s %-8s n=%d%s", t.name, "refused", "ms", "virtual", t.n, slot))
			continue
		}
		out = append(out, fmt.Sprintf("%-34s %14.4f %-6s %-8s n=%d%s", t.name, t.value, "ms", "virtual", t.n, slot))
	}
	out = append(out, fmt.Sprintf("%-34s %14.4f %-6s %-8s", "virtual time simulated", r.virtS, "s", "virtual"))
	if r.traced {
		for _, d := range perLayer {
			if !d.host {
				out = append(out, fmt.Sprintf("%-34s %14.4f %-6s", d.name, r.layer[d.name], d.unit))
			}
		}
	}
	return out
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return strings.TrimSpace(s.Value)
			}
		}
	}
	return "unknown"
}
