package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"vsystem/internal/image"
	"vsystem/internal/kernel"
	"vsystem/internal/progs"
	"vsystem/internal/vid"
	"vsystem/internal/workload"
)

func boot(t *testing.T, opt Options) *Cluster {
	t.Helper()
	c := NewCluster(opt)
	t.Cleanup(c.Close)
	c.Sim.PoisonFreed() // every core test: a recycled buffer read late is garbage, a recycled record used late panics
	c.Install(progs.Hello())
	c.Install(progs.Primes(500))
	c.Install(progs.Ticker(30))
	c.Install(progs.Ticker(200))
	c.Install(progs.MemWalker(64, 200))
	for _, img := range workload.PaperImages() {
		c.Install(img)
	}
	return c
}

// TestCloseLeavesNoGoroutines: a cluster that ran work — servers parked
// on their ports, a guest mid-run, agents finished — gives every task's
// goroutine back when closed. Not parallel: it counts the process's
// goroutines, and the parallel tests wait for it parked in t.Parallel.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := settledGoroutines()
	c := NewCluster(Options{Workstations: 4, Seed: 1})
	c.Install(progs.Hello())
	c.Install(workload.PaperImages()[0])
	var err error
	c.Node(0).Agent(func(a *Agent) {
		var job *Job
		if job, err = a.Exec("hello", nil, "ws1"); err == nil {
			_, err = a.Wait(job)
		}
		if err == nil {
			_, err = a.Exec(workload.PaperImages()[0].Name, nil, "ws2") // left running
		}
	})
	c.Run(5 * time.Second)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if live := c.Sim.LiveTasks(); live < 10 || runtime.NumGoroutine() < before+live {
		t.Fatalf("%d live tasks, %d goroutines (%d before): expected one goroutine a task",
			live, runtime.NumGoroutine(), before)
	}
	c.Close()
	if c.Sim.LiveTasks() != 0 {
		t.Fatalf("LiveTasks = %d after Close", c.Sim.LiveTasks())
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after Close, %d before the cluster existed", n, before)
	}
}

// settledGoroutines counts the process's goroutines once the count has
// stopped falling — the goroutine of the test that ran before this one
// may still be exiting — waiting two seconds at most.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still, deadline := 0, time.Now().Add(2*time.Second); still < 5 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m < n {
			still = 0
		} else {
			still++
		}
		n = m
	}
	return n
}

func TestLocalExecution(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 2, Seed: 1})
	var code uint32
	var err error
	c.Node(0).Agent(func(a *Agent) {
		var job *Job
		job, err = a.Exec("hello", nil, "")
		if err != nil {
			return
		}
		code, err = a.Wait(job)
	})
	c.Run(30 * time.Second)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	lines := c.Node(0).Display.Lines()
	if len(lines) != 1 || lines[0] != "hello from the VVM" {
		t.Fatalf("display = %q", lines)
	}
}

func TestRemoteExecutionOnNamedHost(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 3, Seed: 2})
	var err error
	var job *Job
	c.Node(0).Agent(func(a *Agent) {
		job, err = a.Exec("primes500", nil, "ws2")
		if err != nil {
			return
		}
		_, err = a.Wait(job)
	})
	c.Run(2 * time.Minute)
	if err != nil {
		t.Fatalf("exec @ws2: %v", err)
	}
	if job.Host != "ws2" {
		t.Fatalf("ran on %s, want ws2", job.Host)
	}
	// Output appears on the HOME workstation's display (network-transparent
	// I/O), not on the execution host.
	if got := c.Node(0).Display.Lines(); len(got) != 1 || got[0] != "95" {
		// π(500) = 95.
		t.Fatalf("home display = %q, want [95]", got)
	}
	if got := c.Node(2).Display.Lines(); len(got) != 0 {
		t.Fatalf("execution host display = %q, want empty", got)
	}
}

// TestExecPastLHIDRecycling runs 40 programs in turn on one workstation,
// each printing one line to the home display. A workstation has
// vid.LHSlotCount (32) logical-host ids, so the 33rd program has the first
// one's PID, and the display server still remembers the first one's last
// transaction id. Each line must reach the display: a transaction taken
// for a retransmission of the earlier program's is answered from the reply
// cache without being shown, or "reply pending" for ever.
func TestExecPastLHIDRecycling(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 2, Seed: 5})
	c.Install(workload.Image(workload.Spec{Name: "once", DurationMs: 10}, 0))
	const n = 40
	done := 0
	var err error
	c.Node(0).Agent(func(a *Agent) {
		for ; done < n; done++ {
			var job *Job
			if job, err = a.Exec("once", nil, "ws1"); err != nil {
				return
			}
			if _, err = a.Wait(job); err != nil {
				return
			}
		}
	})
	c.Run(2 * time.Minute)
	if done != n || err != nil {
		t.Fatalf("%d of %d programs done, error %v", done, n, err)
	}
	lines := c.Node(0).Display.Lines()
	if len(lines) != n {
		t.Fatalf("home display shows %d lines, want %d", len(lines), n)
	}
	for i, l := range lines {
		if l != "once: done after 10 ms" {
			t.Fatalf("line %d = %q", i+1, l)
		}
	}
}

func TestExecAtStarPicksIdleOtherHost(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 4, Seed: 3})
	var job *Job
	var err error
	c.Node(1).Agent(func(a *Agent) {
		job, err = a.Exec("hello", nil, "*")
		if err != nil {
			return
		}
		_, err = a.Wait(job)
	})
	c.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if job.Host == "ws1" {
		t.Fatal("@* selected the home workstation")
	}
}

func TestExecUnknownProgram(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 2, Seed: 4})
	var err error
	done := false
	c.Node(0).Agent(func(a *Agent) {
		_, err = a.Exec("no-such-prog", nil, "")
		done = true
	})
	c.Run(time.Minute)
	if !done {
		t.Fatal("agent stuck")
	}
	if err == nil {
		t.Fatal("unknown program executed")
	}
}

func TestExecUnknownHost(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 2, Seed: 5})
	var err error
	done := false
	c.Node(0).Agent(func(a *Agent) {
		_, err = a.Exec("hello", nil, "ws99")
		done = true
	})
	c.Run(time.Minute)
	if !done || err == nil {
		t.Fatalf("done=%v err=%v, want name-resolution failure", done, err)
	}
}

func TestSelectionSkipsBusyHosts(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 3, Seed: 6})
	// Occupy ws2 with a local long-running program.
	var busyErr error
	c.Node(2).Agent(func(a *Agent) {
		_, busyErr = a.Exec("tex", nil, "")
	})
	var job *Job
	var err error
	c.Node(0).Agent(func(a *Agent) {
		a.Sleep(2 * time.Second) // let the local program settle in
		job, err = a.Exec("hello", nil, "*")
	})
	c.Run(20 * time.Second)
	if busyErr != nil {
		t.Fatalf("busy setup: %v", busyErr)
	}
	if err != nil {
		t.Fatalf("@*: %v", err)
	}
	if job.Host != "ws1" {
		t.Fatalf("selected %s, want the only idle host ws1", job.Host)
	}
}

// migrationLines runs ticker30 remotely with optional mid-run migrations
// and returns the home display lines.
func migrationLines(t *testing.T, migrations int, policy Policy, seed int64) []string {
	t.Helper()
	c := boot(t, Options{Workstations: 4, Seed: seed, Policy: policy})
	var execErr, migErr, waitErr error
	c.Node(0).Agent(func(a *Agent) {
		job, err := a.Exec("ticker200", nil, "ws1")
		if err != nil {
			execErr = err
			return
		}
		for i := 0; i < migrations; i++ {
			a.Sleep(800 * time.Millisecond)
			if _, err := a.Migrate(job, false); err != nil {
				migErr = err
				return
			}
		}
		_, waitErr = a.Wait(job)
	})
	c.Run(5 * time.Minute)
	if execErr != nil || migErr != nil || waitErr != nil {
		t.Fatalf("exec=%v mig=%v wait=%v", execErr, migErr, waitErr)
	}
	return c.Node(0).Display.Lines()
}

func TestMigrationPreservesOutput(t *testing.T) {
	t.Parallel()
	plain := migrationLines(t, 0, PolicyPrecopy, 7)
	migrated := migrationLines(t, 2, PolicyPrecopy, 7)
	if len(plain) != 200 {
		t.Fatalf("baseline produced %d lines", len(plain))
	}
	if len(migrated) != len(plain) {
		t.Fatalf("migrated run produced %d lines, want %d", len(migrated), len(plain))
	}
	for i := range plain {
		if plain[i] != migrated[i] {
			t.Fatalf("line %d differs: %q vs %q", i, plain[i], migrated[i])
		}
	}
}

func TestMigrationTransparencyAcrossPolicies(t *testing.T) {
	t.Parallel()
	for _, pol := range []Policy{PolicyPrecopy, PolicyStopCopy, PolicyFlush} {
		got := migrationLines(t, 1, pol, 8)
		if len(got) != 200 {
			t.Fatalf("%v: %d lines, want 200", pol, len(got))
		}
		if got[199] != "t200" {
			t.Fatalf("%v: last line %q", pol, got[199])
		}
	}
}

// TestMemWalkerChecksumUnchangedByMigration is the headline transparency
// property: a memory-intensive program computes the same checksum whether
// or not it was migrated mid-run (real data moved, not just control).
func TestMemWalkerChecksumUnchangedByMigration(t *testing.T) {
	t.Parallel()
	run := func(migrate bool) (uint32, error) {
		c := boot(t, Options{Workstations: 3, Seed: 9})
		var code uint32
		var err error
		c.Node(0).Agent(func(a *Agent) {
			var job *Job
			job, err = a.Exec("memwalk64k", nil, "ws1")
			if err != nil {
				return
			}
			if migrate {
				a.Sleep(2 * time.Second)
				if _, merr := a.Migrate(job, false); merr != nil {
					err = merr
					return
				}
			}
			code, err = a.Wait(job)
		})
		c.Run(10 * time.Minute)
		return code, err
	}
	base, err := run(false)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	mig, err := run(true)
	if err != nil {
		t.Fatalf("migrated: %v", err)
	}
	if base != mig {
		t.Fatalf("checksums differ: %#x vs %#x", base, mig)
	}
	if base == 0 {
		t.Fatal("degenerate zero checksum")
	}
}

func TestWaitFollowsMigratedProgram(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 3, Seed: 10})
	var code uint32
	var err error
	c.Node(0).Agent(func(a *Agent) {
		job, e := a.Exec("ticker200", nil, "ws1")
		if e != nil {
			err = e
			return
		}
		// A second agent waits while the program migrates.
		done := false
		c.Node(0).Agent(func(b *Agent) {
			code, err = b.Wait(job)
			done = true
		})
		a.Sleep(time.Second)
		if _, e := a.Migrate(job, false); e != nil {
			err = e
		}
		for !done {
			a.Sleep(time.Second)
		}
	})
	c.Run(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
}

func TestMigrateNoHostRefusedAndKill(t *testing.T) {
	t.Parallel()
	// Two workstations: the only other host is busy, so migration finds
	// no taker.
	c := boot(t, Options{Workstations: 2, Seed: 11})
	var migErr error
	var killed bool
	c.Node(1).Agent(func(a *Agent) {
		a.Exec("tex", nil, "") // keep ws1 busy (local program)
	})
	c.Node(0).Agent(func(a *Agent) {
		a.Sleep(2 * time.Second)
		job, err := a.Exec("ticker200", nil, "")
		if err != nil {
			migErr = err
			return
		}
		a.Sleep(500 * time.Millisecond)
		_, migErr = a.Migrate(job, false)
		if migErr == nil {
			return
		}
		// -n: destroy instead.
		rep, err := a.Migrate(job, true)
		if err == nil && rep == nil {
			killed = true
		}
	})
	c.Run(2 * time.Minute)
	if migErr == nil {
		t.Fatal("migration with no available host succeeded")
	}
	if !killed {
		t.Fatal("migrateprog -n did not destroy the program")
	}
}

func TestOwnerReturnsMigrateAll(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 4, Seed: 12})
	var execErr error
	var jobs []*Job
	c.Node(0).Agent(func(a *Agent) {
		for _, prog := range []string{"tex", "parser"} {
			job, err := a.Exec(prog, nil, "ws1")
			if err != nil {
				execErr = err
				return
			}
			jobs = append(jobs, job)
		}
		a.Sleep(time.Second)
		// The owner of ws1 returns and evicts all guests.
		if err := a.MigrateAll(c.Node(1), false); err != nil {
			execErr = err
			return
		}
		a.Sleep(10 * time.Second)
		// Observe placement while the programs are still running.
		for _, lh := range c.Node(1).Host.LHs() {
			if lh.Guest() {
				execErr = fmt.Errorf("guest %v (%s) still on ws1", lh.ID(), lh.Name())
				return
			}
		}
		for _, job := range jobs {
			node, lh := c.FindProgram(job.LHID)
			if lh == nil {
				execErr = fmt.Errorf("%s vanished after eviction", job.Name)
				return
			}
			if node == c.Node(1) {
				execErr = fmt.Errorf("%s still on ws1", job.Name)
				return
			}
		}
	})
	c.Run(2 * time.Minute)
	if execErr != nil {
		t.Fatal(execErr)
	}
}

func TestPrecopyFreezeTimeFarBelowStopCopy(t *testing.T) {
	t.Parallel()
	freeze := func(policy Policy) time.Duration {
		c := boot(t, Options{Workstations: 3, Seed: 13, Policy: policy})
		var rep *MigrationReport
		var err error
		c.Node(0).Agent(func(a *Agent) {
			job, e := a.Exec("tex", nil, "ws1")
			if e != nil {
				err = e
				return
			}
			a.Sleep(3 * time.Second)
			rep, err = a.Migrate(job, false)
		})
		c.Run(2 * time.Minute)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		return rep.FreezeTime
	}
	pre := freeze(PolicyPrecopy)
	stop := freeze(PolicyStopCopy)
	// tex: ~0.4 MB image; stop-and-copy freezes for the whole copy
	// (≈3 s/MB), pre-copy for the dirty residue plus kernel state.
	if pre >= stop/3 {
		t.Fatalf("precopy freeze %v not ≪ stop-and-copy freeze %v", pre, stop)
	}
	if pre > 500*time.Millisecond {
		t.Fatalf("precopy freeze %v implausibly long", pre)
	}
}

func TestFlushPolicyDemandFaults(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 3, Seed: 14, Policy: PolicyFlush})
	var rep *MigrationReport
	var err error
	var job *Job
	c.Node(0).Agent(func(a *Agent) {
		job, err = a.Exec("parser", nil, "ws1")
		if err != nil {
			return
		}
		a.Sleep(2 * time.Second)
		rep, err = a.Migrate(job, false)
		if err != nil {
			return
		}
		a.Sleep(10 * time.Second)
		// Observe while the program is still running.
		node, lh := c.FindProgram(job.LHID)
		if node == c.Node(1) || lh == nil || lh.Frozen() {
			err = fmt.Errorf("program not running on new host (node=%v lh=%v)", node != nil, lh != nil)
		}
	})
	c.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Policy != "vm-flush" {
		t.Fatalf("policy = %s", rep.Policy)
	}
	st := c.PagerStatsFor(job.LHID)
	if st == nil || st.Faults == 0 {
		t.Fatalf("no demand faults recorded: %+v", st)
	}
}

func TestPSListing(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 2, Seed: 16})
	var listing string
	var err error
	c.Node(0).Agent(func(a *Agent) {
		_, err = a.Exec("ticker200", nil, "ws1")
		if err != nil {
			return
		}
		a.Sleep(500 * time.Millisecond)
		listing, err = a.PS(c.Node(1))
	})
	c.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(listing, "ticker200") || !strings.Contains(listing, "guest=true") {
		t.Fatalf("listing = %q", listing)
	}
}

func TestDeterministicClusterReplay(t *testing.T) {
	t.Parallel()
	run := func() (int64, string) {
		c := boot(t, Options{Workstations: 3, Seed: 99, LossRate: 0.02})
		c.Node(0).Agent(func(a *Agent) {
			job, err := a.Exec("ticker200", nil, "*")
			if err != nil {
				return
			}
			a.Sleep(time.Second)
			a.Migrate(job, false)
			a.Wait(job)
		})
		c.Run(3 * time.Minute)
		return c.Bus.Stats().Frames, strings.Join(c.Node(0).Display.Lines(), "|")
	}
	f1, l1 := run()
	f2, l2 := run()
	if f1 != f2 || l1 != l2 {
		t.Fatalf("replay diverged: %d/%d frames, %q vs %q", f1, f2, l1, l2)
	}
}

// TestSubProgramsMigrateWithLogicalHost covers §3: "A program may create
// sub-programs, all of which typically execute within a single logical
// host... all sub-programs of a program are migrated when the program is
// migrated." A second process is created in the running program's logical
// host through the kernel server; after migrateprog both processes run on
// the new host.
func TestSubProgramsMigrateWithLogicalHost(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 3, Seed: 17})
	var err error
	var job *Job
	var procsAfter int
	var progressBefore, progressAfter [2]uint32
	c.Node(0).Agent(func(a *Agent) {
		job, err = a.Exec("tex", nil, "ws1")
		if err != nil {
			return
		}
		// Create and start a sub-process sharing the program's space.
		var regs kernel.Regs
		cm, e := a.Ctx().Send(kernel.KernelServerPID(job.LHID), vid.Message{
			Op:  kernel.KsCreateProcess,
			W:   [6]uint32{uint32(job.LHID), 1},
			Seg: kernel.EncodeCreateProc(workload.BodyKind, &regs),
		})
		if e != nil || !cm.OK() {
			err = fmt.Errorf("create sub-process: %v %v", cm, e)
			return
		}
		childPID := vid.PID(cm.W[0])
		if sm, e := a.Ctx().Send(kernel.KernelServerPID(job.LHID), vid.Message{
			Op: kernel.KsStartProcess, W: [6]uint32{uint32(childPID)},
		}); e != nil || !sm.OK() {
			err = fmt.Errorf("start sub-process: %v %v", sm, e)
			return
		}
		a.Sleep(2 * time.Second)
		// Snapshot progress just before migration (remote register read).
		for i, pid := range []vid.PID{job.PID, childPID} {
			regs, _, e := a.Inspect(pid)
			if e != nil {
				err = e
				return
			}
			progressBefore[i] = regs.W[kernel.RegUser+2] // tick counter
		}
		if _, e := a.Migrate(job, false); e != nil {
			err = e
			return
		}
		a.Sleep(2 * time.Second)
		_, lh := c.FindProgram(job.LHID)
		if lh == nil {
			err = fmt.Errorf("program vanished")
			return
		}
		procsAfter = len(lh.Procs())
		// The same Inspect calls work transparently on the new host.
		for i, pid := range []vid.PID{job.PID, childPID} {
			regs, _, e := a.Inspect(pid)
			if e != nil {
				err = e
				return
			}
			progressAfter[i] = regs.W[kernel.RegUser+2]
		}
	})
	c.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if procsAfter != 2 {
		t.Fatalf("processes after migration = %d, want 2", procsAfter)
	}
	for i := range progressBefore {
		if progressAfter[i] <= progressBefore[i] {
			t.Fatalf("process %d made no progress after migration: %d → %d",
				i, progressBefore[i], progressAfter[i])
		}
	}
}

// TestSuspendedProgramStopsAndResumes covers §2's transparent suspension:
// suspend stops progress wherever the program runs, resume continues it,
// and migrating a suspended program is refused.
func TestSuspendedProgramStopsAndResumes(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 3, Seed: 18})
	var err error
	var atSuspend, during, after uint32
	c.Node(0).Agent(func(a *Agent) {
		job, e := a.Exec("tex", nil, "ws1")
		if e != nil {
			err = e
			return
		}
		a.Sleep(2 * time.Second)
		if e := a.Suspend(job); e != nil {
			err = e
			return
		}
		regs, _, _ := a.Inspect(job.PID) // read-only ops pass the freeze
		atSuspend = regs.W[kernel.RegUser+2]
		if _, e := a.Migrate(job, false); e == nil {
			err = fmt.Errorf("migrating a suspended program succeeded")
			return
		}
		a.Sleep(3 * time.Second)
		regs, _, _ = a.Inspect(job.PID)
		during = regs.W[kernel.RegUser+2]
		if e := a.Resume(job); e != nil {
			err = e
			return
		}
		a.Sleep(2 * time.Second)
		regs, _, _ = a.Inspect(job.PID)
		after = regs.W[kernel.RegUser+2]
	})
	c.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if during > atSuspend+1 {
		t.Fatalf("progress while suspended: %d → %d", atSuspend, during)
	}
	if after <= during {
		t.Fatalf("no progress after resume: %d → %d", during, after)
	}
}

// TestNameServiceResolution covers the §6 naming discipline: resident
// servers register with the global name service; agents resolve and cache
// bindings; programs get a name cache in their environment block that
// migrates with them.
func TestNameServiceResolution(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 3, Seed: 19})
	var err error
	var resolved vid.PID
	var cached *image.EnvBlock
	c.Node(0).Agent(func(a *Agent) {
		a.Sleep(2 * time.Second) // registrars announce at boot
		resolved, err = a.Resolve("display.ws1")
		if err != nil {
			return
		}
		// Second resolution hits the agent's local cache: no extra query.
		before := c.FSHost.IPC.Stats().RxPackets
		if _, e := a.Resolve("display.ws1"); e != nil {
			err = e
			return
		}
		if c.FSHost.IPC.Stats().RxPackets != before {
			err = fmt.Errorf("cached resolve still queried the server")
			return
		}
		// A freshly created program's env block carries a name cache.
		job, e := a.Exec("tex", nil, "ws1")
		if e != nil {
			err = e
			return
		}
		_, lh := c.FindProgram(job.LHID)
		raw := lh.Spaces()[0].Page(0)
		cached, err = image.DecodeEnv(raw)
	})
	c.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if resolved != c.Node(1).Display.PID() {
		t.Fatalf("resolved %v, want ws1's display", resolved)
	}
	if cached == nil || cached.NameCache["fileserver"] != c.FS.PID() {
		t.Fatalf("program env cache = %+v", cached)
	}
	if got := c.NS.Bindings(); len(got) < 7 {
		t.Fatalf("name server has %d bindings, want ≥7", len(got))
	}
}

// TestMigrationTargetCrashRollsBack covers the §3.1.3 failure path: "If
// the copy operation fails due to lack of acknowledgement, we assume that
// the new host failed... The logical host is unfrozen to avoid timeouts...
// we simply give up." The target workstation crashes mid-migration; the
// migrate call fails, and the program continues unharmed on the source.
func TestMigrationTargetCrashRollsBack(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 3, Seed: 23})
	// Keep ws0 busy with a local program so ws2 is the only candidate.
	c.Node(0).Agent(func(a *Agent) {
		a.Exec("tex", nil, "")
	})
	var migErr error
	var done bool
	var progressAfter [2]uint32
	c.Node(1).Agent(func(a *Agent) {
		a.Sleep(2 * time.Second)
		job, err := a.Exec("parser", nil, "") // local on ws1
		if err != nil {
			migErr = err
			done = true
			return
		}
		a.Sleep(2 * time.Second)
		// Crash the (only possible) target shortly after the migration
		// starts, mid pre-copy.
		c.Sim.After(600*time.Millisecond, func() { c.Node(2).Host.Crash() })
		_, migErr = a.Migrate(job, false)
		// The program must still be alive on ws1 and making progress.
		_, lh := c.FindProgram(job.LHID)
		if lh == nil || lh.Frozen() || lh.Host() != c.Node(1).Host {
			migErr = fmt.Errorf("program not running on source after failed migration")
			done = true
			return
		}
		regs, _, err := a.Inspect(job.PID)
		if err != nil {
			migErr = err
			done = true
			return
		}
		progressAfter[0] = regs.W[kernel.RegUser+2]
		a.Sleep(2 * time.Second)
		regs, _, err = a.Inspect(job.PID)
		if err != nil {
			migErr = err
			done = true
			return
		}
		progressAfter[1] = regs.W[kernel.RegUser+2]
		done = true
	})
	c.Run(3 * time.Minute)
	if !done {
		t.Fatal("scenario did not complete")
	}
	if migErr == nil {
		t.Fatal("migration to a crashed target reported success")
	}
	if !errors.Is(migErr, ErrMigrationFailed) && migErr.Error() != "v: refused" {
		t.Fatalf("unexpected error: %v", migErr)
	}
	if progressAfter[1] <= progressAfter[0] {
		t.Fatalf("program stalled after rollback: %d → %d", progressAfter[0], progressAfter[1])
	}
}
