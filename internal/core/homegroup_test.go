package core

import (
	"slices"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/fault"
	"vsystem/internal/packet"
	"vsystem/internal/params"
	"vsystem/internal/progmgr"
	"vsystem/internal/progs"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// The heart of the PR: a session supervised by the replicated home group
// must survive the death of the group member that leads it. The home
// leader is killed mid-session, a successor takes over the lease worker
// from the committed registry, and when the hosting workstation then dies
// too, the successor — not the original (dead) supervisor — re-executes
// the program. Ticker output must stay gapless and duplicate-free: the
// exactly-once invariant across both failovers.
func TestHomeLeaderCrashSessionSurvives(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 6, Seed: 1, ReplicateHome: 3})
	c.Install(progs.Ticker(300))

	// Kill the home leader once the session is established.
	var leaderCrash, nextElect sim.Time
	c.Sim.At(c.Sim.Now().Add(5*time.Second), func() {
		idx := c.HomeLeaderIdx()
		if idx < 0 {
			t.Error("no home leader elected by 5s")
			return
		}
		leaderCrash = c.Sim.Now()
		c.Nodes[idx].Host.Crash()
	})
	// Record the next home-group election after the kill: the failover gap.
	c.Trace.Subscribe(func(ev trace.Event) {
		if ev.Kind == trace.EvElect && leaderCrash != 0 && nextElect == 0 &&
			ev.At > leaderCrash && ev.LH == vid.GroupHomeRSM.LH() {
			nextElect = ev.At
		}
	})
	// Then kill the hosting workstation: the *new* leader must recover the
	// session (the original supervisor is dead).
	c.Sim.At(c.Sim.Now().Add(11*time.Second), func() {
		c.Node(4).Host.Crash()
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
	c.Run(4 * time.Minute)

	if !done {
		t.Fatal("agent never finished")
	}
	if err != nil {
		t.Fatalf("wait across home failover: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	assertGapless(t, c.Node(3).Display.Lines(), 300)
	if got := c.Trace.Count(trace.EvExecRestart); got < 1 {
		t.Fatalf("EvExecRestart = %d, want ≥1 (new leader must re-execute)", got)
	}
	if nextElect == 0 {
		t.Fatal("no home re-election observed after the leader kill")
	}
	if gap := nextElect.Sub(leaderCrash); gap > params.RsmFailoverBudget {
		t.Fatalf("home failover took %v, budget %v", gap, params.RsmFailoverBudget)
	}
}

// Satellite: Agent.Wait held by the home leader when it dies must converge
// on the successor within the WaitMaxMoves redirect budget — the waiter is
// re-pointed at the group, lands on the new leader, and gets the exit.
func TestWaitSurvivesHomeFailoverMidWait(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 6, Seed: 2, ReplicateHome: 3})
	c.Install(progs.Ticker(300))

	// Crash the hosting workstation first so the session breaks and the
	// waiter is *held* by the home leader, then kill that leader while it
	// holds the waiter mid-recovery.
	c.Sim.At(c.Sim.Now().Add(6*time.Second), func() { c.Node(4).Host.Crash() })
	c.Sim.At(c.Sim.Now().Add(7*time.Second), func() {
		if idx := c.HomeLeaderIdx(); idx >= 0 {
			c.Nodes[idx].Host.Crash()
		}
	})

	var code uint32
	var err error
	done := false
	c.Node(3).Agent(func(a *Agent) {
		a.Sleep(2500 * time.Millisecond)
		var job *Job
		if job, err = a.Exec("ticker300", nil, "ws4"); err == nil {
			code, err = a.Wait(job)
		}
		done = true
	})
	c.Run(4 * time.Minute)

	if !done {
		t.Fatal("agent never finished")
	}
	if err != nil {
		t.Fatalf("wait across mid-wait home failover: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	assertGapless(t, c.Node(3).Display.Lines(), 300)
}

// A group member whose agent cannot reach the home group (partitioned away
// mid-registration) must NOT fall back to a direct local Supervise: that
// would write the session into the replicated registry outside the log —
// present on one follower only, never lease-renewed (only the fenced
// leader acts), and baked into that replica's snapshots. Instead the agent
// re-asks the group until the partition heals and a leader commits the
// record: Exec returns only then, with the session in the leader's
// registry, and killing the hosting workstation must still trigger a
// leader-driven re-execution.
func TestMemberAgentPartitionedFromGroupReasksUntilHeal(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 6, Seed: 1, ReplicateHome: 3})
	c.Install(progs.Ticker(300))

	// Cut member 0 (the agent's workstation) off from the other two group
	// members. Members 1 and 2 still form a majority and elect a leader;
	// node 0 keeps full connectivity to the file servers and to ws4, so the
	// exec itself succeeds — only the Supervise registration cannot land.
	mac0 := c.Node(0).Host.NIC.MAC()
	mac1 := c.Node(1).Host.NIC.MAC()
	mac2 := c.Node(2).Host.NIC.MAC()
	c.Bus.SetCut(func(src, dst ethernet.MAC) bool {
		return (src == mac0 && (dst == mac1 || dst == mac2)) ||
			(dst == mac0 && (src == mac1 || src == mac2))
	})
	// Heal while the agent is still re-asking the group.
	healAt := c.Sim.Now().Add(8 * time.Second)
	c.Sim.At(healAt, func() { c.Bus.SetCut(nil) })
	// Kill the hosting workstation after the heal (but before the ticker
	// can finish): only a session that made it into the replicated
	// registry gets re-executed.
	c.Sim.At(c.Sim.Now().Add(10*time.Second), func() { c.Node(4).Host.Crash() })

	var code uint32
	var err error
	var returned sim.Time
	registered, done := false, false
	c.Node(0).Agent(func(a *Agent) {
		a.Sleep(1 * time.Second)
		var job *Job
		if job, err = a.Exec("ticker300", nil, "ws4"); err == nil {
			returned = a.Now()
			if idx := c.HomeLeaderIdx(); idx >= 0 {
				registered = slices.ContainsFunc(c.Nodes[idx].PM.Sessions(), func(s progmgr.SessionView) bool { return s.LHID == job.LHID })
			}
			code, err = a.Wait(job)
		}
		done = true
	})
	c.Run(4 * time.Minute)

	if !done {
		t.Fatal("agent never finished")
	}
	if err != nil {
		t.Fatalf("wait across a partitioned registration + host crash: %v", err)
	}
	if returned < healAt {
		t.Fatalf("exec returned at %v, before the heal at %v", returned, healAt)
	}
	if !registered {
		t.Fatal("exec returned before the home leader's registry held the session")
	}
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	assertGapless(t, c.Node(0).Display.Lines(), 300)
	if got := c.Trace.Count(trace.EvExecRestart); got < 1 {
		t.Fatalf("EvExecRestart = %d, want ≥1 (the record must reach the leader)", got)
	}
}

// TestSuperviseReaskedAtOnceAfterLeaderKill kills the home leader on the
// session's supervise commit, as F3's row does. The agent's first
// PmSupervise dies with the leader; its re-ask leaves as that send aborts,
// so the copies keep the retransmission pace with no slot skipped, and
// the member the election fences serves the first copy it hears: Exec
// returns within one retransmission interval of the election.
func TestSuperviseReaskedAtOnceAfterLeaderKill(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 6, Seed: 1, ReplicateHome: 3})
	c.Install(progs.Ticker(300))
	home := vid.GroupHomeRSM.LH()
	c.Fault.Arm(fault.Schedule{{
		When: fault.On(fault.Match{Kind: trace.EvCommit, LH: home, NotBefore: 2400 * time.Millisecond}),
		Do:   fault.Crash, Who: fault.HomeLeader,
	}})
	agent := uint16(c.Node(3).Host.NIC.MAC())
	var crash, elect sim.Time
	var copies []sim.Time
	c.Trace.Subscribe(func(ev trace.Event) {
		switch {
		case ev.Kind == trace.EvPktTx && ev.Host == agent && ev.Pkt.Kind == packet.KRequest && ev.Pkt.Msg.Op == progmgr.PmSupervise:
			copies = append(copies, ev.At)
		case crash == 0 && ev.Kind == trace.EvHostCrash:
			crash = ev.At
		case crash != 0 && elect == 0 && ev.Kind == trace.EvElect && ev.LH == home:
			elect = ev.At
		}
	})
	var returned sim.Time
	var err error
	c.Node(3).Agent(func(a *Agent) {
		a.Sleep(2500 * time.Millisecond) // the group's first election
		_, err = a.Exec("ticker300", nil, "ws4")
		returned = a.Now()
	})
	c.Run(10 * time.Second)

	if err != nil || returned == 0 {
		t.Fatalf("exec: %v, returned at %v", err, returned)
	}
	if crash == 0 || crash > returned || elect == 0 {
		t.Fatalf("leader crash at %v, election at %v, exec returned at %v: the kill missed the exec", crash, elect, returned)
	}
	if len(copies) <= params.GroupAbortAfterRetries+1 {
		t.Fatalf("%d PmSupervise copies: the first send was served, nothing was re-asked", len(copies))
	}
	for i := 1; i < len(copies); i++ {
		if gap := copies[i].Sub(copies[i-1]); gap >= 2*params.RetransmitInterval {
			t.Errorf("PmSupervise copies %d and %d are %v apart, want under %v", i-1, i, gap, 2*params.RetransmitInterval)
		}
	}
	if lag := returned.Sub(elect); lag > params.RetransmitInterval {
		t.Fatalf("exec returned %v after the election, want at most %v", lag, params.RetransmitInterval)
	}
}

// Baseline: without a home group the same leader-and-host double kill
// loses the session — the home manager (the only supervisor) dies with
// its registry and nobody re-executes the program. This is what the
// consensus group buys.
func TestUnreplicatedHomeDiesWithSupervisor(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 6, Seed: 1})
	c.Install(progs.Ticker(300))

	// Kill the home workstation (the supervisor), then the hosting one.
	c.Sim.At(c.Sim.Now().Add(5*time.Second), func() { c.Node(3).Host.Crash() })
	c.Sim.At(c.Sim.Now().Add(8*time.Second), func() { c.Node(4).Host.Crash() })

	c.Node(3).Agent(func(a *Agent) {
		a.Sleep(2500 * time.Millisecond)
		a.Exec("ticker300", nil, "ws4")
		// The agent dies with ws3; the point is what happens afterwards.
	})
	c.Run(2 * time.Minute)

	if got := c.Trace.Count(trace.EvExecRestart); got != 0 {
		t.Fatalf("EvExecRestart = %d, want 0 (no supervisor left to recover)", got)
	}
}

// A home-group member's own NoteExited, called while it is cut off from
// the group. On a member that does not lead, that must be a refused
// commit — not a write to the replicated registry outside the
// log, which would mark the session done on this one replica only (with
// whatever code the agent believed) and survive in its snapshots. The
// leader's next renewal records the real exit for every replica.
func TestMemberNoteExitedOutsideLeadershipIsRefused(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 6, Seed: 1, ReplicateHome: 3})
	c.Install(progs.Ticker(60))
	c.Run(3 * time.Second)
	lead := c.HomeLeaderIdx()
	if lead < 0 {
		t.Fatal("no home leader elected by 3s")
	}
	member := c.Node((lead + 1) % 3) // a follower
	var others []ethernet.MAC
	for i := 0; i < 3; i++ {
		if n := c.Node(i); n != member {
			others = append(others, n.Host.NIC.MAC())
		}
	}
	mac := member.Host.NIC.MAC()
	cutOff := func(src, dst ethernet.MAC) bool {
		return (src == mac && (dst == others[0] || dst == others[1])) ||
			(dst == mac && (src == others[0] || src == others[1]))
	}

	var stateAfterFallback string
	var code uint32
	var err error
	done := false
	member.Agent(func(a *Agent) {
		var job *Job
		if job, err = a.Exec("ticker60", nil, "ws4"); err != nil {
			return
		}
		a.Sleep(time.Second)
		// Partitioned from the other members, the member is told — wrongly —
		// that the job exited with code 7.
		c.Bus.SetCut(cutOff)
		member.PM.NoteExited(a.ctx, job.LHID, 7)
		stateAfterFallback = member.PM.Sessions()[0].State
		c.Bus.SetCut(nil)
		code, err = a.Wait(job)
		done = true
	})
	c.Run(2 * time.Minute)

	if !done || err != nil {
		t.Fatalf("agent: done=%v err=%v", done, err)
	}
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if stateAfterFallback != "active" {
		t.Fatalf("after the refused fallback the member's copy of the session is %q, want active", stateAfterFallback)
	}
	for i := 0; i < 3; i++ {
		ss := c.Node(i).PM.Sessions()
		if len(ss) != 1 || ss[0].State != "done" || ss[0].ExitCode != 0 {
			t.Errorf("member %d registry = %+v, want one session done with code 0", i, ss)
		}
	}
}

// TestExecMidFailoverServedByTheNewLeader: a supervised exec whose
// PmSupervise goes out while the home group has no leader is served by the
// member the election fences, at the first copy it hears as leader. That
// member dropped the earlier copies as a follower, and a dropped request's
// retransmission is a new request, so the exec does not wait out the group
// send's timeout and the agent's back-off.
func TestExecMidFailoverServedByTheNewLeader(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 6, Seed: 1, ReplicateHome: 3})
	var crash, fenced sim.Time
	var elected uint16
	c.Sim.At(sim.Time(4*time.Second), func() {
		idx := c.HomeLeaderIdx()
		if idx < 0 {
			t.Error("no home leader by 4s")
			return
		}
		crash = c.Sim.Now()
		c.Nodes[idx].Host.Crash()
	})
	// Fenced: the elected member commits its term's barrier.
	c.Trace.Subscribe(func(ev trace.Event) {
		if crash == 0 || fenced != 0 || ev.LH != vid.GroupHomeRSM.LH() {
			return
		}
		switch {
		case ev.Kind == trace.EvElect && elected == 0:
			elected = ev.Host
		case ev.Kind == trace.EvCommit && ev.Host == elected && elected != 0:
			fenced = ev.At
		}
	})
	var start, returned sim.Time
	var job *Job
	var err error
	// The exec starts 550 ms after the crash, and its PmSupervise about
	// 40 ms later: the send's four copies span the election timeout's range.
	c.Node(3).Agent(func(a *Agent) {
		a.Sleep(sim.Time(4550 * time.Millisecond).Sub(a.Now()))
		start = a.Now()
		job, err = a.ExecR("hello", nil, "ws4", params.ExecMaxRestarts)
		returned = a.Now()
	})
	c.Run(10 * time.Second)

	if err != nil || returned == 0 {
		t.Fatalf("exec mid-failover: %v (returned at %v)", err, returned)
	}
	if fenced == 0 || fenced < start {
		t.Fatalf("exec started at %v; the new leader was fenced at %v: want the exec to meet a leaderless group", start, fenced)
	}
	if late := returned.Sub(fenced); late > params.RetransmitInterval {
		t.Errorf("exec returned %v after the new leader was fenced (crash %v, exec %v); want within %v",
			late, crash, start, params.RetransmitInterval)
	}
	lead := c.HomeLeaderIdx()
	if lead < 0 || !slices.ContainsFunc(c.Nodes[lead].PM.Sessions(), func(s progmgr.SessionView) bool { return s.LHID == job.LHID }) {
		t.Errorf("the home leader (ws%d) does not supervise %v", lead, job.LHID)
	}
}
