package ipc

import (
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// TestDetectorFastFailAndClear exercises the per-host failure detector end
// to end: a powered-off station is condemned after SuspectAfterRetries
// silent retransmission intervals (far under the ~5 s per-send abort),
// every in-flight transaction addressed to it is failed at the moment of
// condemnation, later sends fail after a single probe interval, and the
// first packet heard from the revived station retracts the suspicion.
// Trace events and Stats counters must agree throughout.
func TestDetectorFastFailAndClear(t *testing.T) {
	r := newRig(t, 3, 24)
	tb := r.attachTrace()
	lhA, lhB, lhC := vid.LHID(10), vid.LHID(20), vid.LHID(30)
	r.place(lhA, 0)
	r.place(lhB, 1)
	r.place(lhC, 0)
	clientA := r.hosts[0].eng.NewPort(vid.NewPID(lhA, 16))
	clientC := r.hosts[0].eng.NewPort(vid.NewPID(lhC, 16))
	server := r.hosts[1].eng.NewPort(vid.NewPID(lhB, 16))
	echoServer(r.sim, server)
	victim := ethernet.MAC(2) // host 1's station address (newRig attaches i+1)

	// Warm up the binding so later sends transmit immediately, and leave
	// fresh "evidence of life" that the detector must wait out.
	r.sim.Spawn("warmup", func(tk *sim.Task) {
		if _, err := clientA.Send(tk, server.PID(), vid.Message{Op: testOp}); err != nil {
			t.Errorf("warmup send: %v", err)
		}
	})
	r.sim.RunFor(time.Second)
	r.hosts[1].eng.SetDown(true)

	// Two concurrent transactions to the dead station: the one whose
	// retransmission tick condemns it must drag the other down with it.
	var errA, errC error
	var elapsedA, elapsedC time.Duration
	r.sim.Spawn("clientA", func(tk *sim.Task) {
		start := tk.Now()
		_, errA = clientA.Send(tk, server.PID(), vid.Message{Op: testOp})
		elapsedA = tk.Now().Sub(start)
	})
	r.sim.Spawn("clientC", func(tk *sim.Task) {
		start := tk.Now()
		_, errC = clientC.Send(tk, server.PID(), vid.Message{Op: testOp})
		elapsedC = tk.Now().Sub(start)
	})
	r.sim.RunFor(10 * time.Second)

	window := time.Duration(params.SuspectAfterRetries) * params.RetransmitInterval
	budget := window + 500*time.Millisecond // scheduling slack on top of the window
	for _, c := range []struct {
		name    string
		err     error
		elapsed time.Duration
	}{{"A", errA, elapsedA}, {"C", errC, elapsedC}} {
		ce, ok := c.err.(vid.CodeError)
		if !ok || uint16(ce) != vid.CodeHostDown {
			t.Fatalf("client %s: want CodeHostDown, got %v", c.name, c.err)
		}
		if c.elapsed > budget {
			t.Errorf("client %s failed after %v; detection budget is %v", c.name, c.elapsed, budget)
		}
		if c.elapsed >= 5*time.Second {
			t.Errorf("client %s took %v — no faster than the plain send abort", c.name, c.elapsed)
		}
	}
	if !r.hosts[0].eng.Suspected(victim) {
		t.Fatal("station not suspected after fast-fail")
	}
	if s := r.hosts[0].eng.Suspects(); len(s) != 1 || s[0] != victim {
		t.Fatalf("Suspects() = %v, want [%v]", s, victim)
	}

	// With the suspicion standing, a new send is a single liveness probe:
	// one silent retransmission interval and it fails. The sends above
	// relocated and so dropped the victim's binding; pin it again, for an
	// unrouted transaction (mac == 0) can only abort by timeout —
	// "unlocated" is not "dead" (ROADMAP item 3's gap).
	r.hosts[0].eng.cacheInsert(lhB, victim)
	var errProbe error
	var elapsedProbe time.Duration
	r.sim.Spawn("probe", func(tk *sim.Task) {
		start := tk.Now()
		_, errProbe = clientA.Send(tk, server.PID(), vid.Message{Op: testOp})
		elapsedProbe = tk.Now().Sub(start)
	})
	r.sim.RunFor(5 * time.Second)
	if ce, ok := errProbe.(vid.CodeError); !ok || uint16(ce) != vid.CodeHostDown {
		t.Fatalf("probe: want CodeHostDown, got %v", errProbe)
	}
	if elapsedProbe > 2*params.RetransmitInterval {
		t.Errorf("probe against a suspected station took %v, want ~one interval", elapsedProbe)
	}

	// Revive the station. Its first packet — here a request of its own —
	// is evidence of life and must retract the suspicion.
	r.hosts[1].eng.SetDown(false)
	echoServer(r.sim, clientC)
	r.sim.Spawn("revived", func(tk *sim.Task) {
		if _, err := server.Send(tk, clientC.PID(), vid.Message{Op: testOp}); err != nil {
			t.Errorf("revived station's send: %v", err)
		}
	})
	r.sim.RunFor(5 * time.Second)
	if r.hosts[0].eng.Suspected(victim) {
		t.Fatal("suspicion not cleared by evidence of life")
	}
	r.sim.Spawn("after-clear", func(tk *sim.Task) {
		if _, err := clientA.Send(tk, server.PID(), vid.Message{Op: testOp}); err != nil {
			t.Errorf("send after clear: %v", err)
		}
	})
	r.sim.RunFor(5 * time.Second)

	// Trace/stats parity across every engine.
	var suspects, clears int64
	for _, h := range r.hosts {
		st := h.eng.Stats()
		suspects += st.HostSuspects
		clears += st.HostClears
	}
	if suspects == 0 || clears == 0 {
		t.Fatalf("detector paths not exercised: suspects=%d clears=%d", suspects, clears)
	}
	if got := tb.Count(trace.EvHostSuspect); got != suspects {
		t.Errorf("trace host-suspect events = %d, Stats.HostSuspects = %d", got, suspects)
	}
	if got := tb.Count(trace.EvHostClear); got != clears {
		t.Errorf("trace host-clear events = %d, Stats.HostClears = %d", got, clears)
	}
}

// TestDetectorLossyLinkNoFalsePositive pins the heard-veto: a station that
// keeps answering through moderate frame loss must never be condemned,
// because its replies — to anyone on this host — are station-wide evidence
// of life that resets the silence window.
func TestDetectorLossyLinkNoFalsePositive(t *testing.T) {
	r := newRig(t, 2, 25)
	tb := r.attachTrace()
	r.bus.SetLoss(ethernet.RandomLoss(r.sim, 0.15))
	lhA, lhB := vid.LHID(10), vid.LHID(20)
	r.place(lhA, 0)
	r.place(lhB, 1)
	client := r.hosts[0].eng.NewPort(vid.NewPID(lhA, 16))
	server := r.hosts[1].eng.NewPort(vid.NewPID(lhB, 16))
	echoServer(r.sim, server)

	done := 0
	r.sim.Spawn("client", func(tk *sim.Task) {
		for i := 0; i < 20; i++ {
			if _, err := client.Send(tk, server.PID(), vid.Message{Op: testOp}); err != nil {
				t.Errorf("send %d under loss: %v", i, err)
				return
			}
			done++
		}
	})
	r.sim.RunFor(5 * time.Minute)
	if done != 20 {
		t.Fatalf("only %d/20 transactions completed", done)
	}
	if r.hosts[0].eng.Stats().Retransmits == 0 {
		t.Fatal("no retransmissions under 35% loss; test premise broken")
	}
	if got := tb.Count(trace.EvHostSuspect); got != 0 {
		t.Fatalf("live-but-lossy peer was condemned %d times", got)
	}
}
