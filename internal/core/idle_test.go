package core

import (
	"testing"
	"time"

	"vsystem/internal/kernel"
	"vsystem/internal/packet"
	"vsystem/internal/params"
	"vsystem/internal/progmgr"
	"vsystem/internal/progs"
	"vsystem/internal/sched"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// The program manager's workers are servers: they block until there is
// something to do. These tests pin that there is no poll tick left — an
// idle workstation costs the simulator (and the modeled CPU) nothing, and
// work is picked up at the instant it is queued, not at the next multiple
// of a quantum.

func workerDispatches(c *Cluster) uint64 {
	var n uint64
	for _, node := range c.Nodes {
		n += node.PM.WorkerDispatches()
	}
	return n
}

// TestIdleClusterWorkersStayParked boots four workstations, submits
// nothing, and watches five virtual seconds: no program-manager worker is
// resumed at all, and the whole cluster's CPU dispatch rate stays at the
// beacon-and-heartbeat floor. (With the 10 ms poll it was 800 dispatches
// per host-second from the workers alone.)
func TestIdleClusterWorkersStayParked(t *testing.T) {
	t.Parallel()
	for _, sel := range []sched.Policy{sched.FirstResponse{}, sched.RandomK{K: 2}} {
		c := boot(t, Options{Workstations: 4, Seed: 1, Select: sel})
		c.Run(2 * time.Second) // registrations, first beacons
		w0, d0, e0 := workerDispatches(c), c.Trace.Count(trace.EvDispatch), c.Sim.Stats()
		const watch = 5 * time.Second
		c.Run(watch)
		if w := workerDispatches(c) - w0; w != 0 {
			t.Errorf("select=%s: program-manager workers resumed %d times on an idle cluster, want 0", sel.Name(), w)
		}
		perHostSec := float64(c.Trace.Count(trace.EvDispatch)-d0) / float64(len(c.Nodes)) / watch.Seconds()
		if perHostSec > 150 {
			t.Errorf("select=%s: %.0f CPU dispatches per host-second idle, want ≤ 150", sel.Name(), perHostSec)
		}
		// The same floor seen from the engine: task switches per host-second.
		e1 := c.Sim.Stats()
		if sw := float64(e1.Dispatches-e0.Dispatches) / float64(len(c.Nodes)) / watch.Seconds(); sw > 150 {
			t.Errorf("select=%s: %.0f task switches per host-second idle, want ≤ 150", sel.Name(), sw)
		}
	}
}

// TestExitAnsweredOffTheGrid runs a program whose exit falls at an instant
// that is no multiple of 10 ms and checks that the hosting manager's word
// of it is on its way within a millisecond: the reply to Wait for an
// unsupervised job, and the note to the home for a supervised one. The
// reaper is woken by the exit itself, and it answers, and hands the note to
// the lease worker, before it pays for the teardown. (A 10 ms poll added
// 0–10 ms, and answering after the teardown added EnvDestroyCPU.)
func TestExitAnsweredOffTheGrid(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		restarts int
		kind     packet.Kind
		op       uint16
	}{
		{0, packet.KReply, progmgr.PmWaitProgram},
		{params.ExecMaxRestarts, packet.KRequest, progmgr.PmNoteExited},
	} {
		c := boot(t, Options{Workstations: 2, Seed: 3})
		var exitAt, sentAt time.Duration
		mac := uint16(c.Node(1).Host.NIC.MAC())
		c.Trace.Subscribe(func(ev trace.Event) {
			if p := ev.Pkt; ev.Kind == trace.EvPktTx && sentAt == 0 && ev.Host == mac &&
				p.Kind == tc.kind && p.Msg.Op == tc.op {
				sentAt = ev.At.Duration()
			}
		})
		queueExit := c.Node(1).Host.OnLHEmpty
		c.Node(1).Host.OnLHEmpty = func(lh *kernel.LogicalHost) {
			exitAt = c.Sim.Now().Duration()
			queueExit(lh)
		}

		var err error
		c.Node(0).Agent(func(a *Agent) {
			var job *Job
			if job, err = a.ExecR("primes500", nil, "ws1", tc.restarts); err == nil {
				_, err = a.Wait(job)
			}
		})
		c.Run(time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if exitAt == 0 || sentAt == 0 {
			t.Fatalf("restarts %d: exit at %v, op %#x sent at %v: not observed", tc.restarts, exitAt, tc.op, sentAt)
		}
		if exitAt%(10*time.Millisecond) == 0 {
			t.Fatalf("restarts %d: exit at %v landed on the 10 ms grid; the scenario no longer tests anything", tc.restarts, exitAt)
		}
		// Woken by the exit: two frozen checks and the transmit charge.
		if lag := sentAt - exitAt; lag > time.Millisecond {
			t.Errorf("restarts %d: op %#x left %v after the exit, want ≤ 1ms", tc.restarts, tc.op, lag)
		}
	}
}

// TestExitRequestsInTeardownAnsweredFromTheFate asks the hosting manager
// about a program in the EnvDestroyCPU window between the answer to its
// exit and the destruction of its logical host. A lease renewal and a
// second wait that arrive there are answered from the program's fate —
// exited, with its code — and neither is held for the teardown. An ExecR
// to the same workstation right after Wait returns gets a new logical
// host beside the one still being torn down.
func TestExitRequestsInTeardownAnsweredFromTheFate(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 2, Seed: 3})
	ws1 := c.Node(1).Host
	pmPID := c.Node(1).PM.PID()
	mac := uint16(ws1.NIC.MAC())
	var old vid.LHID
	resident := func() bool { _, ok := ws1.LookupLH(old); return ok }
	// For each op: did its request arrive at ws1, and its reply leave,
	// while the exited program's logical host was still resident?
	type window struct {
		name              string
		replies           int // the first wait reply answers the exit itself
		arrived, answered bool
	}
	renewW, waitW := &window{name: "PmRenewLease", replies: 1}, &window{name: "PmWaitProgram"}
	ops := map[uint16]*window{progmgr.PmRenewLease: renewW, progmgr.PmWaitProgram: waitW}
	c.Trace.Subscribe(func(ev trace.Event) {
		p := ev.Pkt
		if old == 0 || p == nil || ev.Host != mac || ops[p.Msg.Op] == nil {
			return
		}
		w := ops[p.Msg.Op]
		switch {
		case ev.Kind == trace.EvPktRx && p.Kind == packet.KRequest && vid.LHID(p.Msg.W[0]) == old:
			w.arrived = resident()
		case ev.Kind == trace.EvPktTx && p.Kind == packet.KReply && p.Src == pmPID:
			if w.replies++; w.replies == 2 {
				w.answered = resident()
			}
		}
	})

	var code uint32
	var renew, wait vid.Message
	var next *Job
	var err error
	c.Node(0).Agent(func(a *Agent) {
		var job *Job
		if job, err = a.ExecR("primes500", nil, "ws1", 0); err != nil {
			return
		}
		old = job.LHID
		if code, err = a.Wait(job); err != nil {
			return
		}
		if renew, err = a.ctx.Send(job.PM, vid.Message{Op: progmgr.PmRenewLease, W: [6]uint32{uint32(old)}}); err != nil {
			return
		}
		if wait, err = a.ctx.Send(job.PM, vid.Message{Op: progmgr.PmWaitProgram, W: [6]uint32{uint32(old)}}); err != nil {
			return
		}
		next, err = a.ExecR("primes500", nil, "ws1", 0)
	})
	c.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if code != 95 {
		t.Fatalf("primes500 exited %d, want 95 (the primes below 500)", code)
	}
	for _, w := range []*window{renewW, waitW} {
		if !w.arrived {
			t.Errorf("%s did not arrive while the logical host was being torn down; the scenario tests nothing", w.name)
		} else if !w.answered {
			t.Errorf("%s was answered after the logical host was destroyed, want during the teardown", w.name)
		}
	}
	if !renew.OK() || renew.W[1] != 2 || renew.W[2] != code {
		t.Errorf("PmRenewLease answered code %d W=%v, want W1=2 W2=%d (exited)", renew.Code, renew.W, code)
	}
	if !wait.OK() || wait.W[0] != code {
		t.Errorf("PmWaitProgram answered code %d W=%v, want W0=%d", wait.Code, wait.W, code)
	}
	if next == nil || next.LHID == old {
		t.Fatalf("ExecR after Wait: job %+v, want a logical host other than %v", next, old)
	}
}

// TestMigrateRequestStartsAtOnce pins the same for the migration worker:
// the select span of a requested migration opens within a millisecond of
// the request reaching the manager, wherever in a 10 ms period that falls.
func TestMigrateRequestStartsAtOnce(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 3, Seed: 5})
	c.Install(progs.Ticker(100))
	var arrived, selectAt time.Duration
	c.Trace.Subscribe(func(ev trace.Event) {
		if p := ev.Pkt; ev.Kind == trace.EvPktRx && arrived == 0 && p.Kind == packet.KRequest &&
			p.Msg.Op == progmgr.PmMigrateProgram {
			arrived = ev.At.Duration()
		}
	})
	c.Trace.SubscribeSpans(func(sp trace.Span) {
		if sp.Phase == trace.PhaseSelect && selectAt == 0 {
			selectAt = sp.Start.Duration()
		}
	})
	var err error
	c.Node(0).Agent(func(a *Agent) {
		var job *Job
		if job, err = a.Exec("ticker100", nil, "ws1"); err != nil {
			return
		}
		a.Sleep(503700 * time.Microsecond) // off the grid on purpose
		_, err = a.Migrate(job, false)
	})
	c.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if arrived == 0 || selectAt == 0 {
		t.Fatalf("request arrived at %v, select began at %v: not observed", arrived, selectAt)
	}
	if arrived%(10*time.Millisecond) == 0 {
		t.Fatalf("request arrived at %v, on the 10 ms grid; the scenario no longer tests anything", arrived)
	}
	if lag := selectAt - arrived; lag < 0 || lag >= time.Millisecond {
		t.Fatalf("request arrived at %v, select began at %v (%v later), want < 1 ms", arrived, selectAt, lag)
	}
}

// TestPromotedHomeLeaderRenewsUnprompted is the test that hangs if the
// consensus layer does not tell the program manager that it now leads. A
// follower's lease worker holds no deadline — only the leader acts on
// sessions — so it is parked for good. The home leader is killed while a
// supervised program runs elsewhere and nothing else happens: no waiter
// comes to the group (the agent waits at the hosting manager), the
// crashed station hosted no session, nothing is committed. The successor
// must renew the lease as soon as it is fenced — its copy of LastRenew is
// stale, plain renewals being leader-local — and keep renewing; the
// agent's wait then completes when the program does.
func TestPromotedHomeLeaderRenewsUnprompted(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 6, Seed: 4, ReplicateHome: 3})
	c.Install(progs.Ticker(300))

	var killedAt, electedAt, renewedAt time.Duration
	var killed, successor uint16
	c.Sim.At(c.Sim.Now().Add(5*time.Second), func() {
		idx := c.HomeLeaderIdx()
		if idx < 0 {
			t.Error("no home leader by 5 s")
			return
		}
		killed, killedAt = uint16(c.Nodes[idx].Host.NIC.MAC()), c.Sim.Now().Duration()
		c.Nodes[idx].Host.Crash()
	})
	c.Trace.Subscribe(func(ev trace.Event) {
		if killedAt == 0 {
			return
		}
		switch {
		case ev.Kind == trace.EvElect && electedAt == 0 && ev.LH == vid.GroupHomeRSM.LH():
			successor, electedAt = ev.Host, ev.At.Duration()
		case ev.Kind == trace.EvPktTx && renewedAt == 0 && ev.Pkt.Kind == packet.KRequest &&
			ev.Pkt.Msg.Op == progmgr.PmRenewLease && ev.Host != killed:
			renewedAt = ev.At.Duration()
			if ev.Host != successor {
				t.Errorf("lease renewed by station %d, but station %d was elected", ev.Host, successor)
			}
		}
	})

	var code uint32
	var err error
	done := false
	c.Node(3).Agent(func(a *Agent) {
		a.Sleep(2500 * time.Millisecond) // let the group elect its first leader
		var job *Job
		if job, err = a.Exec("ticker300", nil, "ws4"); err == nil {
			code, err = a.Wait(job)
		}
		done = true
	})
	c.Run(2 * time.Minute)

	if electedAt == 0 {
		t.Fatal("no successor elected after the leader kill")
	}
	if renewedAt == 0 {
		t.Fatalf("successor elected at %v never renewed the session's lease: its lease worker was not woken", electedAt)
	}
	// Fencing the new term is one round trip to a follower; the renewal
	// follows it directly.
	if lag := renewedAt - electedAt; lag > 50*time.Millisecond {
		t.Errorf("successor elected at %v first renewed at %v (%v later), want at once", electedAt, renewedAt, lag)
	}
	var renews int64
	for _, n := range c.Nodes {
		if uint16(n.Host.NIC.MAC()) == successor {
			renews = n.PM.SupStats().LeaseRenews
		}
	}
	if renews < 3 {
		t.Errorf("successor renewed %d times over the rest of the run, want one a second", renews)
	}
	if !done || err != nil || code != 0 {
		t.Fatalf("agent done=%v code=%d err=%v", done, code, err)
	}
	assertGapless(t, c.Node(3).Display.Lines(), 300)
}
