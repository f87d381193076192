package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"syscall"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/kernel"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// clusterSeed is the simulated clusters' own seed (frame loss, election
// jitter). It is a constant: -seed drives only the generators, so two
// seeds replay different inputs against the same machine.
const clusterSeed = 1

// config is one run's settings.
type config struct {
	seed int64
	// scale sizes the generated input: 1 is the full workload described in
	// README.md, which -seconds shrinks or grows in proportion. Virtual
	// durations and operation counts follow it; host speed never does, so
	// a given (seed, seconds) pair is the same simulation on any machine.
	scale float64
	// rec is non-nil in the traced run.
	rec *recorder
}

func (cfg config) traced() bool { return cfg.rec != nil }

// scaled returns d×scale, rounded down to whole milliseconds.
func (cfg config) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d)*cfg.scale) / time.Millisecond * time.Millisecond
}

// count returns n×scale, at least 1.
func (cfg config) count(n int) int {
	return max(int(float64(n)*cfg.scale+0.5), 1)
}

// scenario is one of the four benchmark workloads. setup boots the
// clusters, installs images, spawns the generators and runs the warm-up;
// run is the timed phase; report turns what happened into metrics and
// correctness verdicts.
type scenario struct {
	name string
	why  string
	new  func(cfg config) instance
}

type instance interface {
	setup()
	run()
	report(r *result)
	// inputs is a digest of the inputs generated so far.
	inputs() uint64
}

// opState is an operation's fate.
type opState uint8

const (
	opPending opState = iota // submitted (or not yet due) and never resolved
	opDone
	opFailed
)

// op is one exec → wait operation of the farm100, exec25 and failover
// workloads.
type op struct {
	id      int
	due     sim.Time      // when the schedule says it starts
	begun   sim.Time      // when the generator actually started it
	started sim.Time      // program running (exec returned)
	done    sim.Time      // exit seen by Wait
	service time.Duration // the program's own CPU demand
	imageKB float64       // stored image size the file server ships
	state   opState
	running bool // exec succeeded at least once
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// job executes one operation on the agent: exec (with the E11 retry ladder
// when tries > 1: growing 500 ms·n backoff), then Wait. The untraced run
// uses Agent.ExecR; the traced run, for unsupervised jobs, performs the
// same public sequence step by step so each step gets a span.
func (cfg config) job(a *core.Agent, o *op, prog string, restarts, tries int) {
	o.begun = a.Now()
	root := cfg.rec.begin("op", o.id, 0, o.due)
	defer func() { cfg.rec.end(root, a.Now()) }()
	var job *core.Job
	for attempt := 0; attempt < tries; attempt++ {
		j, err := cfg.exec(a, o.id, root, prog, restarts)
		if err == nil {
			job = j
			break
		}
		if attempt+1 < tries {
			t := a.Now()
			a.Sleep(time.Duration(attempt+1) * 500 * time.Millisecond)
			cfg.rec.add("backoff", o.id, root, t, a.Now())
		}
	}
	if job == nil {
		o.state = opFailed
		return
	}
	o.started, o.running = a.Now(), true
	w := cfg.rec.begin("wait", o.id, root, a.Now())
	code, err := a.Wait(job)
	cfg.rec.end(w, a.Now())
	if err != nil || code != 0 {
		o.state = opFailed
		return
	}
	o.done, o.state = a.Now(), opDone
}

// exec starts a program on any idle machine.
func (cfg config) exec(a *core.Agent, opID, parent int, prog string, restarts int) (*core.Job, error) {
	if !cfg.traced() {
		return a.ExecR(prog, nil, "*", restarts)
	}
	ex := cfg.rec.begin("exec", opID, parent, a.Now())
	defer func() { cfg.rec.end(ex, a.Now()) }()
	if restarts > 0 {
		// Registering the session with the home supervisor is not reachable
		// through a public call of its own, so a supervised exec stays one
		// span.
		return a.ExecR(prog, nil, "*", restarts)
	}
	t := a.Now()
	sel, err := a.Select(core.ExecMinMem)
	cfg.rec.add("select", opID, ex, t, a.Now())
	if err != nil {
		return nil, err
	}
	t = a.Now()
	job, err := a.CreateProgram(sel, prog, nil)
	cfg.rec.add("create", opID, ex, t, a.Now())
	if err != nil {
		return nil, err
	}
	t = a.Now()
	m, err := a.Ctx().Send(kernel.KernelServerPID(job.LHID), vid.Message{
		Op: kernel.KsStartProcess, W: [6]uint32{uint32(job.PID)},
	})
	cfg.rec.add("start", opID, ex, t, a.Now())
	if err != nil || !m.OK() {
		// Reap the environment that never started, as ExecR does.
		if e := a.DestroyProgram(job); e != nil {
			a.Node().PM.ReapRemote(sel.PM, job.LHID)
		}
		if err != nil {
			return nil, err
		}
		return nil, m.Err()
	}
	return job, nil
}

// sleepUntil parks an open-loop generator until its operation is due. It
// sleeps on the bare simulation task: Agent.Sleep would queue for the home
// machine's CPU on waking (the kernel's frozen check), and a generator must
// start on time however busy the system under test is — that wait belongs
// to the operation, which is timed from its due time.
func sleepUntil(a *core.Agent, due sim.Time) {
	a.Ctx().Task().Sleep(due.Sub(a.Now()))
}

// opStats are the latency samples and counts of a set of operations.
type opStats struct {
	exec, delay samples // due → started; (due → exit seen) − service demand
	late        samples // due → begun: how late the generator ran
	attempted   int
	failed      int
	unfinished  []int // ids neither completed nor failed when the run ended
}

func summarize(ops []*op) opStats {
	var st opStats
	for _, o := range ops {
		if o.begun == 0 && o.state == opPending {
			// Never became due inside the run (closed loops stop issuing at
			// the end of the stream): not attempted.
			continue
		}
		st.attempted++
		st.late = append(st.late, ms(o.begun.Sub(o.due)))
		if o.running {
			st.exec = append(st.exec, ms(o.started.Sub(o.due)))
		}
		switch o.state {
		case opDone:
			st.delay = append(st.delay, ms(o.done.Sub(o.due)-o.service))
		case opFailed:
			st.failed++
		default:
			st.failed++
			st.unfinished = append(st.unfinished, o.id)
		}
	}
	return st
}

// allResolved reports whether every op that has begun is done or failed
// and none is still to come.
func allResolved(ops []*op, now sim.Time) bool {
	for _, o := range ops {
		if o.state == opPending && (o.begun != 0 || o.due > now) {
			return false
		}
	}
	return true
}

// hostUsage is the process's CPU time and cumulative allocation.
type hostUsage struct {
	cpu   time.Duration
	alloc uint64
	wall  time.Time
}

func usage() hostUsage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return hostUsage{cpu: tv(ru.Utime) + tv(ru.Stime), alloc: mem.TotalAlloc, wall: time.Now()}
}

// result is everything one run of one workload produced.
type result struct {
	traced bool
	inputs uint64 // digest of the generated inputs

	setupS          samples // host seconds of each set-up performed
	cpuS, wallS     float64 // timed phase
	allocMB         float64
	virtS           float64 // virtual seconds simulated in the timed phase
	dispatches      float64 // kernel dispatches in the timed phase
	attempted       int
	failed          int
	unfinished      []int
	problems        []string           // failed correctness checks
	timings         []timing           // end-to-end, virtual clock
	layer           map[string]float64 // per-layer metrics (traced run)
	notes           []string
	traceOut        string
	untracedTimings []timing // traced run only: the paired untraced pass
}

// timing is one end-to-end virtual-clock statistic: name is the metric's
// own name (exec_p50_ms, freeze_p99_ms, ...), slot the name it takes in
// BENCHMARK.json, where all four workloads share four latency slots.
type timing struct {
	name, slot string
	value      float64
	n          int
	err        error
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) quantile(name, slot string, s samples, p float64) {
	v, err := s.quantile(p)
	r.timings = append(r.timings, timing{name: name, slot: slot, value: v, n: len(s), err: err})
}

func (r *result) worst(name, slot string, s samples) {
	r.timings = append(r.timings, timing{name: name, slot: slot, value: s.max(), n: len(s)})
}

// jobTimings are the end-to-end timings of an exec → wait workload.
func (r *result) jobTimings(st opStats) {
	r.quantile("exec_p50_ms", "op_p50_ms", st.exec, 0.50)
	r.quantile("exec_p95_ms", "op_tail_ms", st.exec, 0.95)
	r.quantile("job_delay_p50_ms", "delay_p50_ms", st.delay, 0.50)
	r.quantile("job_delay_p95_ms", "delay_tail_ms", st.delay, 0.95)
}

func (r *result) ops(st opStats) {
	r.attempted += st.attempted
	r.failed += st.failed
	r.unfinished = append(r.unfinished, st.unfinished...)
}

// measure runs one workload instance: set-up, timed phase, report.
func measure(w scenario, cfg config) *result {
	r := &result{traced: cfg.traced(), layer: map[string]float64{}}
	t0 := time.Now()
	in := w.new(cfg)
	in.setup()
	r.setupS = append(r.setupS, time.Since(t0).Seconds())

	// Collect set-up garbage now so the timed phase does not pay for it.
	runtime.GC()
	u0 := usage()
	in.run()
	u1 := usage()
	r.cpuS = (u1.cpu - u0.cpu).Seconds()
	r.wallS = u1.wall.Sub(u0.wall).Seconds()
	r.allocMB = float64(u1.alloc-u0.alloc) / (1 << 20)
	in.report(r)
	r.inputs = in.inputs()
	return r
}

// moreSetups repeats the set-up alone (the clusters are dropped unused)
// so that setup_s is a median: at least three set-ups in all, and for the
// workloads whose set-up takes tens of milliseconds as many as fit in
// setupBudget, up to eleven.
func moreSetups(w scenario, cfg config, r *result) {
	cfg.rec = nil
	spent := r.setupS[0]
	for len(r.setupS) < 3 || (spent < setupBudget && len(r.setupS) < 11) {
		runtime.GC()
		t0 := time.Now()
		w.new(cfg).setup()
		d := time.Since(t0).Seconds()
		r.setupS = append(r.setupS, d)
		spent += d
	}
}

const setupBudget = 1.5 // host seconds

// digest folds generated inputs into a hash so two seeds can be shown to
// have produced different inputs.
type digest struct{ h uint64 }

func (d *digest) add(vals ...int64) {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range append([]int64{int64(d.h)}, vals...) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	d.h = h.Sum64()
}
