package cpu

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"vsystem/internal/params"
	"vsystem/internal/sim"
)

// scheduler is what the differential test drives: the CPU, and the
// per-quantum reference with a Touch that does nothing (it reads every gate
// at every boundary).
type scheduler interface {
	UseGated(t *sim.Task, d time.Duration, prio int, gate Gate)
	Kick()
	Touch()
	Busy(prio int) time.Duration
	TotalBusy() time.Duration
	Utilization() float64
	QueueLen(prio int) int
	Idle() bool
}

type refScheduler struct{ *refCPU }

func (refScheduler) Touch() {}

// A diffScript is one seeded run: tasks whose uses are drawn up front,
// gates closed and opened, kills, reads at chosen instants, and the
// instants RunUntil stops on. Nothing in it depends on how the run goes,
// so the CPU and the reference play the same script.
type diffScript struct {
	cpus  int
	tasks []diffTask
	acts  []diffAct
	stops []sim.Time
}

type diffTask struct {
	cpu  int
	at   sim.Time
	uses []diffUse
}

type diffUse struct {
	cpu  int // the task's, mostly
	d    time.Duration
	prio int
	gate int           // index into the run's gates, or -1
	read int           // CPU the task reads once the use is done, or -1
	gap  time.Duration // sleep before the next use; 0: at once
	// hook: the dispatch hook schedules an event for the instant at each
	// run of grants to this use, as a trace subscriber may.
	hook bool
}

type diffAct struct {
	at   sim.Time
	kind int // actClose, actOpen, actKill or actRead
	arg  int // gate, task or CPU
	// late: scheduled when RunUntil reaches the first stop, so its key is
	// born there (dropped if its instant is past by then); then: a read it
	// schedules for later, born at its own instant.
	late bool
	then time.Duration
}

const (
	actClose = iota
	actOpen
	actKill
	actRead
)

const gatesPerCPU = 2

func newDiffScript(rng *rand.Rand) diffScript {
	const grid = 250 * time.Microsecond
	horizon := 40 + rng.Intn(80) // grid steps
	// instant is on the grid, or 1 ns either side: on a quantum boundary
	// of a slice granted on the grid, or just off it.
	instant := func() sim.Time {
		t := sim.Time(grid) * sim.Time(rng.Intn(horizon))
		switch rng.Intn(6) {
		case 0:
			t++
		case 1:
			if t > 0 {
				t--
			}
		}
		return t
	}
	length := func() time.Duration {
		switch rng.Intn(5) {
		case 0:
			return time.Duration(1+rng.Intn(400)) * time.Microsecond
		case 1:
			return time.Duration(1+rng.Intn(8_000_000)) * time.Nanosecond
		case 2:
			return params.CPUQuantum
		default:
			return grid * time.Duration(1+rng.Intn(40))
		}
	}
	s := diffScript{cpus: 1 + rng.Intn(3)}
	for i, n := 0, 1+rng.Intn(7); i < n; i++ {
		tk := diffTask{cpu: rng.Intn(s.cpus), at: instant()}
		for j, m := 0, 1+rng.Intn(4); j < m; j++ {
			u := diffUse{cpu: tk.cpu, d: length(), prio: rng.Intn(params.NumPrios), gate: -1, read: -1}
			if rng.Intn(6) == 0 {
				u.cpu = rng.Intn(s.cpus)
			}
			if rng.Intn(2) == 0 {
				u.gate = u.cpu*gatesPerCPU + rng.Intn(gatesPerCPU)
			}
			if rng.Intn(3) == 0 {
				u.read = rng.Intn(s.cpus)
			}
			u.hook = rng.Intn(5) == 0
			if rng.Intn(2) == 0 {
				u.gap = grid * time.Duration(rng.Intn(8))
				if rng.Intn(3) == 0 {
					u.gap++
				}
			}
			tk.uses = append(tk.uses, u)
		}
		s.tasks = append(s.tasks, tk)
	}
	// planned is where a task's use ends if nothing delays it: an instant
	// where a slice end, run or skipped, meets what else is due there.
	planned := func() sim.Time {
		tk := s.tasks[rng.Intn(len(s.tasks))]
		t := tk.at
		for j, n := 0, rng.Intn(len(tk.uses)); ; j++ {
			t = t.Add(tk.uses[j].d)
			if j == n {
				return t
			}
			t = t.Add(tk.uses[j].gap)
		}
	}
	for i, n := 0, rng.Intn(16); i < n; i++ {
		a := diffAct{at: instant(), kind: rng.Intn(4), late: rng.Intn(4) == 0}
		if rng.Intn(3) == 0 {
			a.at = planned()
		}
		switch a.kind {
		case actClose, actOpen:
			a.arg = rng.Intn(s.cpus * gatesPerCPU)
		case actKill:
			a.arg = rng.Intn(len(s.tasks))
		case actRead:
			a.arg = rng.Intn(s.cpus)
			if rng.Intn(3) == 0 {
				a.then = grid * time.Duration(1+rng.Intn(12))
			}
		}
		s.acts = append(s.acts, a)
	}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		t := instant()
		if rng.Intn(3) == 0 {
			t = planned() + sim.Time(rng.Intn(3)) - 1
		}
		s.stops = append(s.stops, t)
	}
	slices.Sort(s.stops)
	return s
}

// diffRun is what one scheduler did with a script: the log of completions
// and reads in the order they happened, each CPU's grants, and the
// engine's counters.
type diffRun struct {
	log    []string
	grants [][]string
	stats  sim.Stats
}

func playDiffScript(s diffScript, mk func(*sim.Engine) (scheduler, func() *sim.Task, func(func(int, time.Duration)))) diffRun {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	var run diffRun
	cpus := make([]scheduler, s.cpus)
	run.grants = make([][]string, s.cpus)
	logf := func(format string, args ...any) {
		run.log = append(run.log, fmt.Sprintf("%v ", e.Now())+fmt.Sprintf(format, args...))
	}
	// use[task] is the use a task is in: grants name (task, use).
	use := map[*sim.Task]string{}
	hooked := map[string]bool{} // uses whose grants schedule an event
	for i := range cpus {
		var cur func() *sim.Task
		var hook func(func(int, time.Duration))
		cpus[i], cur, hook = mk(e)
		hook(func(prio int, _ time.Duration) {
			g := use[cur()]
			// One long slice stands for a run of grants to one request.
			if n := len(run.grants[i]); n == 0 || run.grants[i][n-1] != g {
				run.grants[i] = append(run.grants[i], g)
				if hooked[g] {
					e.After(0, func() { logf("hooked %s", g) })
				}
			}
		})
	}
	frozen := make([]bool, s.cpus*gatesPerCPU)
	gates := make([]Gate, len(frozen))
	for g := range gates {
		gates[g] = func() bool { return !frozen[g] }
	}
	read := func(i int, why string) {
		c := cpus[i]
		var busy, qlen [params.NumPrios]int64
		for p := range busy {
			busy[p], qlen[p] = int64(c.Busy(p)), int64(c.QueueLen(p))
		}
		logf("%s cpu%d busy=%v total=%v util=%v qlen=%v idle=%v",
			why, i, busy, c.TotalBusy(), c.Utilization(), qlen, c.Idle())
	}
	tasks := make([]*sim.Task, len(s.tasks))
	for k, tk := range s.tasks {
		e.At(tk.at, func() {
			tasks[k] = e.Spawn(fmt.Sprint("t", k), func(t *sim.Task) {
				for j, u := range tk.uses {
					var gate Gate
					if u.gate >= 0 {
						gate = gates[u.gate]
					}
					use[t] = fmt.Sprintf("t%d.%d", k, j)
					hooked[use[t]] = u.hook
					cpus[u.cpu].UseGated(t, u.d, u.prio, gate)
					logf("t%d.%d done", k, j)
					if u.read >= 0 {
						read(u.read, fmt.Sprintf("t%d.%d", k, j))
					}
					if u.gap > 0 {
						t.Sleep(u.gap)
					}
				}
			})
		})
	}
	var do func(a diffAct)
	do = func(a diffAct) {
		switch a.kind {
		case actClose:
			frozen[a.arg] = true
			cpus[a.arg/gatesPerCPU].Touch()
		case actOpen:
			frozen[a.arg] = false
			cpus[a.arg/gatesPerCPU].Kick()
		case actKill:
			if t := tasks[a.arg]; t != nil {
				t.Kill()
				for _, c := range cpus { // any may be running it
					c.Touch()
				}
			}
		case actRead:
			read(a.arg, "read")
			if a.then > 0 {
				next := diffAct{at: e.Now().Add(a.then), kind: actRead, arg: a.arg}
				e.At(next.at, func() { do(next) })
			}
		}
	}
	schedule := func(late bool) {
		for _, a := range s.acts {
			if a.late == late && a.at >= e.Now() {
				e.At(a.at, func() { do(a) })
			}
		}
	}
	schedule(false)
	for k, stop := range s.stops {
		e.RunUntil(stop)
		for i := range cpus {
			read(i, "stop")
		}
		if k == 0 {
			schedule(true)
		}
	}
	// Under RunUntil, not Run, so that the CPU may skip slice ends.
	e.RunUntil(sim.Time(time.Second))
	e.Run()
	for i := range cpus {
		read(i, "end")
	}
	run.stats = e.Stats()
	return run
}

// TestSchedulerDifferential plays seeded scripts on the CPU and on the
// per-quantum reference: uses of random priority and length, arrivals on
// quantum boundaries and 1 ns either side, gates closed (then Touch) and
// opened (then Kick), kills (then Touch), reads of every statistic at
// chosen instants, from inside a run and after RunUntil stops on one, on
// up to three CPUs sharing an engine. Completion instants and order, each
// CPU's grant order and every read must agree.
//
// Tasks read a CPU's statistics right after a use, too, so a slice end the
// clock skipped (sim.Engine.SkipTo) must leave the same reads as the
// event: the test asserts that slice ends were skipped and wakes merged.
//
// It is red when the long grant keys its boundaries by anything but the
// sequence number Reserve took (seq 0: lone slices granted at one instant
// tie), when Touch does nothing (a slice whose gate closed runs on), and
// when a skip ignores an event due at or before its end, a lattice instant
// at its end, or the bound of the RunUntil under way.
func TestSchedulerDifferential(t *testing.T) {
	newCPU := func(e *sim.Engine) (scheduler, func() *sim.Task, func(func(int, time.Duration))) {
		c := New(e)
		return c, func() *sim.Task { return c.cur.task }, c.SetDispatchHook
	}
	newRefCPU := func(e *sim.Engine) (scheduler, func() *sim.Task, func(func(int, time.Duration))) {
		c := newRef(e)
		return refScheduler{c}, func() *sim.Task { return c.cur.task }, c.SetDispatchHook
	}
	rng := rand.New(rand.NewSource(20261017))
	lines := 0
	var skipped, merged uint64
	scripts := skipScripts()
	for round := 0; round < 1500+len(scripts); round++ {
		var s diffScript
		if round < len(scripts) {
			s = scripts[round]
		} else {
			s = newDiffScript(rng)
		}
		got, want := playDiffScript(s, newCPU), playDiffScript(s, newRefCPU)
		for i := range max(len(got.log), len(want.log)) {
			if i >= len(got.log) || i >= len(want.log) || got.log[i] != want.log[i] {
				t.Fatalf("round %d: logs part at line %d:\n got %v\nwant %v\nscript %+v",
					round, i, tail(got.log, i), tail(want.log, i), s)
			}
		}
		for i := range want.grants {
			if !slices.Equal(got.grants[i], want.grants[i]) {
				t.Fatalf("round %d: cpu%d grants\n got %v\nwant %v\nscript %+v",
					round, i, got.grants[i], want.grants[i], s)
			}
		}
		lines += len(got.log)
		skipped += got.stats.Skipped
		merged += got.stats.Merged
	}
	t.Logf("%d log lines agree; %d slice ends skipped, %d wakes merged", lines, skipped, merged)
	if skipped < 500 || merged < 1000 {
		t.Fatalf("%d slice ends skipped, %d wakes merged: the skip path was hardly run", skipped, merged)
	}
}

// skipScripts are written out rather than drawn: on cpu0, a task's second
// use of 500 µs would be a skipped slice end at 1 ms — but for a read due
// there, a quantum boundary there of cpu1's long slice (granted at 0) that
// the task reads, or a RunUntil stopping 1 ns before.
func skipScripts() []diffScript {
	const us = time.Microsecond
	uses := func(read int) []diffUse {
		return []diffUse{
			{d: 500 * us, prio: params.PrioGuest, gate: -1, read: -1},
			{d: 500 * us, prio: params.PrioGuest, gate: -1, read: read},
		}
	}
	alone := diffTask{cpu: 0, uses: uses(-1)}
	long := diffTask{cpu: 1, uses: []diffUse{{cpu: 1, d: 10 * params.CPUQuantum, prio: params.PrioGuest, gate: -1, read: -1}}}
	ms := sim.Time(time.Millisecond)
	return []diffScript{
		{cpus: 1, tasks: []diffTask{alone}},
		{cpus: 1, tasks: []diffTask{alone}, acts: []diffAct{{at: ms, kind: actRead}}},
		{cpus: 2, tasks: []diffTask{{cpu: 0, uses: uses(1)}, long}},
		{cpus: 1, tasks: []diffTask{alone}, stops: []sim.Time{ms - 1}},
	}
}

// tail is the log up to and including line i, the last few lines of it.
func tail(log []string, i int) []string {
	end := min(i+1, len(log))
	return log[max(0, end-4):end]
}
