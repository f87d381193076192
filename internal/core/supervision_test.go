package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/fault"
	"vsystem/internal/kernel"
	"vsystem/internal/packet"
	"vsystem/internal/params"
	"vsystem/internal/progmgr"
	"vsystem/internal/progs"
	"vsystem/internal/sched"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// TestGuestCrashAutoReexec is the supervision layer's core guarantee: the
// workstation hosting a remote execution is powered off mid-run, and the
// home program manager detects the loss, re-executes the program from its
// file-server image on another host, and the user observes nothing but a
// completed job — the display shows every output line exactly once and
// Wait returns the normal exit. Trace events and the supervisors' own
// counters must agree.
func TestGuestCrashAutoReexec(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 4, Seed: 51})
	c.Install(progs.Ticker(120))
	c.Fault.Arm(fault.Schedule{{When: fault.After(1500 * time.Millisecond), Do: fault.Crash, Who: fault.Host(1)}})

	var job *Job
	var code uint32
	var execErr, waitErr error
	c.Node(0).Agent(func(a *Agent) {
		job, execErr = a.Exec("ticker120", nil, "ws1")
		if execErr != nil {
			return
		}
		code, waitErr = a.Wait(job)
	})
	c.Run(60 * time.Second)

	if execErr != nil || waitErr != nil || code != 0 {
		t.Fatalf("exec=%v wait=(%d,%v)", execErr, code, waitErr)
	}
	assertGapless(t, c.Node(0).Display.Lines(), 120)
	if got := c.Trace.Count(trace.EvExecRestart); got < 1 {
		t.Fatalf("EvExecRestart count = %d, want >= 1", got)
	}
	views := c.Node(0).PM.Sessions()
	if len(views) != 1 {
		t.Fatalf("Sessions() = %d entries, want 1", len(views))
	}
	if v := views[0]; v.State != "done" || v.Incarnation < 2 || v.ExitCode != 0 {
		t.Fatalf("session = %+v, want done at incarnation >= 2", v)
	}

	// Parity: every lease expiry and re-execution any supervisor counted
	// must have been published to the trace bus, and vice versa.
	var renews, expires, restarts int64
	for i := 0; i < 4; i++ {
		st := c.Node(i).PM.SupStats()
		renews += st.LeaseRenews
		expires += st.LeaseExpires
		restarts += st.ExecRestarts
	}
	if renews == 0 {
		t.Error("no lease renewals; the heartbeat never ran")
	}
	if got := c.Trace.Count(trace.EvLeaseExpire); got != expires {
		t.Errorf("trace lease-expire events = %d, SupStats.LeaseExpires = %d", got, expires)
	}
	if got := c.Trace.Count(trace.EvExecRestart); got != restarts {
		t.Errorf("trace exec-restart events = %d, SupStats.ExecRestarts = %d", got, restarts)
	}
}

// TestSupervisedWaitIsOneTransaction: a supervised wait has one place, its
// home. While the hosting workstation crashes and the session re-executes
// the program, the home holds the waiter, and the agent sends one
// PmWaitProgram transaction in all, however many copies of it go out. Both
// homes: this workstation's own manager, and a replicated home group.
func TestSupervisedWaitIsOneTransaction(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		opts        Options
		agent, host int
		crashAt     time.Duration
	}{
		{Options{Workstations: 4, Seed: 51}, 0, 1, 1500 * time.Millisecond},
		{Options{Workstations: 6, Seed: 1, ReplicateHome: 3}, 3, 4, 6 * time.Second},
	} {
		c := boot(t, tc.opts)
		c.Install(progs.Ticker(120))
		c.Fault.Arm(fault.Schedule{{When: fault.After(tc.crashAt), Do: fault.Crash, Who: fault.Host(tc.host)}})
		var agent vid.PID
		waits := map[uint32]bool{} // the agent's PmWaitProgram transactions
		c.Trace.Subscribe(func(ev trace.Event) {
			if p := ev.Pkt; (ev.Kind == trace.EvPktTx || ev.Kind == trace.EvPktLocal) &&
				p.Kind == packet.KRequest && p.Src == agent && p.Msg.Op == progmgr.PmWaitProgram {
				waits[p.TxID] = true
			}
		})
		var code uint32
		var err error
		c.Node(tc.agent).Agent(func(a *Agent) {
			agent = a.ctx.PID()
			if tc.opts.ReplicateHome > 0 {
				a.Sleep(2500 * time.Millisecond) // the group's first election
			}
			var job *Job
			if job, err = a.Exec("ticker120", nil, fmt.Sprintf("ws%d", tc.host)); err == nil {
				code, err = a.Wait(job)
			}
		})
		c.Run(2 * time.Minute)

		if err != nil || code != 0 {
			t.Fatalf("home %d: wait = (%d, %v)", tc.opts.ReplicateHome, code, err)
		}
		assertGapless(t, c.Node(tc.agent).Display.Lines(), 120)
		if got := c.Trace.Count(trace.EvExecRestart); got < 1 {
			t.Errorf("home %d: EvExecRestart = %d, want ≥ 1", tc.opts.ReplicateHome, got)
		}
		if len(waits) != 1 {
			t.Errorf("home %d: the agent sent %d PmWaitProgram transactions, want 1", tc.opts.ReplicateHome, len(waits))
		}
	}
}

// TestCrashIsLearntFromTheRenewal: nobody is told that a workstation
// died. The home supervisor learns it the way the paper's kernels do —
// its next lease renewal goes unanswered until the failure detector fails
// it — and every other node learns it only when it next asks. So just
// after the crash the session is still active and a bystander's selector,
// listening for beacons since it selected once before the crash, still
// offers the dead host; the break is a lease expiry, and the
// session is re-executed within one lease interval plus the detector's
// silence of the crash, give or take a second for the recovery round (a
// locate query only a live host answers, then the placement). The agent
// waits only after that, so the renewal is the home's one conversation
// with the dead host.
func TestCrashIsLearntFromTheRenewal(t *testing.T) {
	t.Parallel()
	const crashAt = 1500 * time.Millisecond
	c := boot(t, Options{Workstations: 4, Seed: 51, Select: sched.LeastLoaded{}})
	c.Install(progs.Ticker(120))
	c.Fault.Arm(fault.Schedule{{When: fault.After(crashAt), Do: fault.Crash, Who: fault.Host(1)}})
	dead := c.Node(1).Host.SystemLH().ID()

	var stateAfter string
	var offeredAfter bool
	c.Sim.After(crashAt+time.Millisecond, func() {
		if v := c.Node(0).PM.Sessions(); len(v) == 1 {
			stateAfter = v[0].State
		}
		for _, l := range c.Node(2).Selector.Cache.Candidates(nil, 0, nil) {
			offeredAfter = offeredAfter || l.SystemLH == dead
		}
	})
	var restartAt sim.Time
	c.Trace.Subscribe(func(ev trace.Event) {
		if ev.Kind == trace.EvExecRestart && restartAt == 0 {
			restartAt = ev.At
		}
	})

	var selectErr error
	c.Node(2).Agent(func(a *Agent) { _, selectErr = a.Select(ExecMinMem) })
	var code uint32
	var execErr, waitErr error
	c.Node(0).Agent(func(a *Agent) {
		var job *Job
		if job, execErr = a.Exec("ticker120", nil, "ws1"); execErr == nil {
			a.Sleep(5 * time.Second)
			code, waitErr = a.Wait(job)
		}
	})
	c.Run(60 * time.Second)

	if selectErr != nil {
		t.Fatalf("the bystander's selection: %v", selectErr)
	}
	if execErr != nil || waitErr != nil || code != 0 {
		t.Fatalf("exec=%v wait=(%d,%v)", execErr, code, waitErr)
	}
	assertGapless(t, c.Node(0).Display.Lines(), 120)
	if stateAfter != "active" {
		t.Errorf("1 ms after the crash the session is %q, want active: only a failed renewal may break it", stateAfter)
	}
	if !offeredAfter {
		t.Error("1 ms after the crash a bystander's selector no longer offers the dead host: no message told it")
	}
	if n := c.Node(0).PM.SupStats().LeaseExpires; n != 1 {
		t.Errorf("home LeaseExpires = %d, want 1: the crash is learnt from the renewal", n)
	}
	if restartAt == 0 {
		t.Fatal("the session was never re-executed")
	}
	bound := params.LeaseInterval + params.SuspectAfterRetries*params.RetransmitInterval + time.Second
	if lag := restartAt.Sub(sim.Time(crashAt)); lag > bound {
		t.Errorf("re-executed %v after the crash, want within %v", lag, bound)
	}
}

// TestSystemNeverSubscribes: the trace bus only observes. No package of
// the simulated system may listen on it — a subscriber there would learn
// of a fault through a channel a real cluster does not have.
func TestSystemNeverSubscribes(t *testing.T) {
	t.Parallel()
	sub := regexp.MustCompile(`\.Subscribe(Spans)?\(`)
	for _, pkg := range []string{"core", "progmgr", "sched", "kernel", "ipc", "rsm"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no sources (%v)", pkg, err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if sub.Match(src) {
				t.Errorf("%s subscribes to the trace bus", f)
			}
		}
	}
}

// TestRestartsExhaustedFailsSession: with only two workstations, losing
// the hosting one leaves no recovery candidate (the home never re-executes
// onto itself). The session must fail after its bounded attempts — the
// waiter unblocks with an abort instead of hanging, and the user gets a
// notification line.
func TestRestartsExhaustedFailsSession(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 2, Seed: 52})
	c.Install(progs.Ticker(400))
	c.Fault.Arm(fault.Schedule{{When: fault.After(time.Second), Do: fault.Crash, Who: fault.Host(1)}})

	var execErr, waitErr error
	c.Node(0).Agent(func(a *Agent) {
		var job *Job
		job, execErr = a.Exec("ticker400", nil, "ws1")
		if execErr != nil {
			return
		}
		_, waitErr = a.Wait(job)
	})
	c.Run(60 * time.Second)

	if execErr != nil {
		t.Fatalf("exec: %v", execErr)
	}
	ce, ok := waitErr.(vid.CodeError)
	if !ok || uint16(ce) != vid.CodeAborted {
		t.Fatalf("wait error = %v, want CodeAborted", waitErr)
	}
	views := c.Node(0).PM.Sessions()
	if len(views) != 1 || views[0].State != "failed" {
		t.Fatalf("session views = %+v, want one failed session", views)
	}
	notified := false
	for _, ln := range c.Node(0).Display.Lines() {
		if strings.Contains(ln, "giving up") {
			notified = true
		}
	}
	if !notified {
		t.Fatal("no give-up notification on the home display")
	}
}

// TestReexecLostStartReplyIsNotAFailedAttempt: a program re-executed by
// its supervisor runs shorter than one retransmission interval, and the
// reply to its start is lost. By the time the start is retransmitted the
// program has exited and its logical host is gone, so the start errors.
// The program did run: the session must end done after one restart, with
// the output shown once, not be re-executed again or given up on.
func TestReexecLostStartReplyIsNotAFailedAttempt(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 4, Seed: 55})
	crashed, dropped := false, false
	c.Bus.SetLoss(func(f ethernet.Frame) bool {
		if !crashed || dropped {
			return false
		}
		p, err := packet.Unmarshal(f.Payload)
		if err == nil && p.Kind == packet.KReply && p.Msg.Op == kernel.KsStartProcess {
			dropped = true
		}
		return dropped
	})

	var code uint32
	var execErr, waitErr error
	c.Node(0).Agent(func(a *Agent) {
		var job *Job
		job, execErr = a.ExecR("hello", nil, "*", 1)
		if execErr != nil {
			return
		}
		n, _ := c.FindProgram(job.LHID)
		if n == nil {
			execErr = errors.New("program ended before its host could be crashed")
			return
		}
		crashed = true
		c.Fault.Crash(n.Host.NIC.MAC())
		code, waitErr = a.Wait(job)
	})
	c.Run(60 * time.Second)

	if execErr != nil || waitErr != nil || code != 0 {
		t.Fatalf("exec=%v wait=(%d,%v)", execErr, code, waitErr)
	}
	if !dropped {
		t.Fatal("the re-execution's start reply was never dropped; trigger premise broken")
	}
	if v := c.Node(0).PM.Sessions(); len(v) != 1 || v[0].State != "done" || v[0].Restarts != 1 {
		t.Fatalf("sessions = %+v, want one done after one restart", v)
	}
	if got := c.Node(0).Display.Lines(); len(got) != 1 || got[0] != "hello from the VVM" {
		t.Fatalf("display = %q, want the line once", got)
	}
}

// TestWaitBounceCapped is the forwarding-loop regression test: two
// managers each claim the program moved to the other. A waiter following
// the CodeMoved chain must give up after WaitMaxMoves instead of bouncing
// forever.
func TestWaitBounceCapped(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 2, Seed: 53})
	ghost := vid.LHID(0x02F0)
	c.Node(0).PM.RecordMoved(ghost, c.Node(1).PM.PID(), ghost)
	c.Node(1).PM.RecordMoved(ghost, c.Node(0).PM.PID(), ghost)

	var waitErr error
	c.Node(0).Agent(func(a *Agent) {
		_, waitErr = a.Wait(&Job{Name: "ghost", LHID: ghost, PM: c.Node(0).PM.PID()})
	})
	c.Run(30 * time.Second)
	if !errors.Is(waitErr, ErrTooManyMoves) {
		t.Fatalf("wait error = %v, want ErrTooManyMoves", waitErr)
	}
}

// TestExecStartFailureReapsLeak is the regression test for the create/start
// window: the network partitions the home from the execution host at the
// exact moment the start request is transmitted, so the environment was
// created remotely but the program never starts and the inline destroy
// cannot get through either. The home manager's retrying reaper must
// destroy the stranded environment once the partition heals.
func TestExecStartFailureReapsLeak(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 3, Seed: 54})
	c.Install(progs.Ticker(400))
	homeMAC := uint16(c.Node(0).Host.NIC.MAC())

	cut := false
	c.Trace.Subscribe(func(ev trace.Event) {
		if cut || ev.Host != homeMAC || ev.Kind != trace.EvPktTx {
			return
		}
		if p := ev.Pkt; p != nil && p.Kind == packet.KRequest && p.Msg.Op == kernel.KsStartProcess {
			cut = true
			c.Fault.Partition(
				[]ethernet.MAC{c.Node(0).Host.NIC.MAC()},
				[]ethernet.MAC{c.Node(1).Host.NIC.MAC()})
		}
	})
	c.Fault.Arm(fault.Schedule{{When: fault.After(4 * time.Second), Do: fault.Heal}})

	var execErr error
	c.Node(0).Agent(func(a *Agent) {
		_, execErr = a.Exec("ticker400", nil, "ws1")
	})

	// A third-party observer (unaffected by the cut) watches the stranded
	// environment appear and then get reaped.
	var psDuring, psAfter string
	var psErr error
	c.Node(2).Agent(func(a *Agent) {
		a.Sleep(3 * time.Second)
		psDuring, psErr = a.PS(c.Node(1))
		if psErr != nil {
			return
		}
		a.Sleep(12 * time.Second)
		psAfter, psErr = a.PS(c.Node(1))
	})
	c.Run(30 * time.Second)

	if !cut {
		t.Fatal("start request never observed; trigger premise broken")
	}
	if execErr == nil {
		t.Fatal("Exec succeeded though the start leg was partitioned")
	}
	if psErr != nil {
		t.Fatalf("observer ps: %v", psErr)
	}
	if !strings.Contains(psDuring, "ticker400") {
		t.Fatalf("stranded environment not visible during partition:\n%s", psDuring)
	}
	if strings.Contains(psAfter, "ticker400") {
		t.Fatalf("environment leaked after heal — reaper never destroyed it:\n%s", psAfter)
	}
}
