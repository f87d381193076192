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

// attachTrace wires a trace bus to the rig's segment and every engine.
func (r *rig) attachTrace() *trace.Bus {
	tb := trace.NewBus()
	r.bus.SetTraceBus(tb)
	for _, h := range r.hosts {
		h.eng.SetTraceBus(tb)
	}
	return tb
}

// TestBindingPromptedResendCounted is the regression test for the
// retransmit undercount: a send to an unknown binding transmits nothing
// (the locate broadcast goes out instead), and the arriving KLocateResp
// prompts the resend through a learnt binding — a path that used to
// bypass the Retransmits counter, which only the timer path incremented.
// Every executed resend must be counted, whichever path prompted it.
func TestBindingPromptedResendCounted(t *testing.T) {
	r := newRig(t, 3, 21)
	lhA, lhB := vid.LHID(10), vid.LHID(20)
	r.place(lhA, 0)
	r.place(lhB, 2)
	client := r.hosts[0].eng.NewPort(vid.NewPID(lhA, 16))
	server := r.hosts[2].eng.NewPort(vid.NewPID(lhB, 16))
	echoServer(r.sim, server)

	var err error
	var rtt time.Duration
	r.sim.Spawn("client", func(tk *sim.Task) {
		start := tk.Now()
		_, err = client.Send(tk, server.PID(), vid.Message{Op: testOp})
		rtt = tk.Now().Sub(start)
	})
	r.sim.RunFor(5 * time.Second)
	if err != nil {
		t.Fatalf("send failed: %v", err)
	}
	// The transaction must have completed before the first retransmission
	// interval elapsed, so the only resend was the binding-prompted one.
	if rtt >= params.RetransmitInterval {
		t.Fatalf("rtt %v not inside the first retransmit interval; test premise broken", rtt)
	}
	st := r.hosts[0].eng.Stats()
	if st.Locates == 0 {
		t.Fatal("no locate was broadcast; test premise broken")
	}
	if st.Retransmits == 0 {
		t.Fatal("binding-prompted resend was not counted in Stats.Retransmits")
	}
}

// TestTraceCountsMatchStats injects frame loss and a corrupt frame, then
// checks every trace-bus event counter against the corresponding Stats
// counter: the trace layer may have no blind spots — dropped frames,
// corrupt frames, and NACK-prompted fragment resends all publish events.
func TestTraceCountsMatchStats(t *testing.T) {
	r := newRig(t, 2, 22)
	tb := r.attachTrace()
	r.bus.SetLoss(ethernet.RandomLoss(r.sim, 0.15))
	lhA, lhB := vid.LHID(10), vid.LHID(20)
	r.place(lhA, 0)
	r.place(lhB, 1)
	client := r.hosts[0].eng.NewPort(vid.NewPID(lhA, 16))
	server := r.hosts[1].eng.NewPort(vid.NewPID(lhB, 16))
	echoServer(r.sim, server)

	// A raw station feeding garbage exercises the corrupt-frame drop path
	// (loss-injected frames vanish on the wire and never reach a host).
	raw := r.bus.Attach(ethernet.MAC(99))
	r.sim.After(50*time.Millisecond, func() {
		raw.StartSend(ethernet.Frame{Dst: 2, Payload: []byte{0xFF, 0x00, 0x01}}, nil)
	})

	done := 0
	r.sim.Spawn("client", func(tk *sim.Task) {
		for i := 0; i < 8; i++ {
			// Fragmented segments force NACK repair under loss.
			if _, err := client.Send(tk, server.PID(), vid.Message{Op: testOp, Seg: make([]byte, 8*1024)}); err == nil {
				done++
			}
		}
	})
	r.sim.RunFor(5 * time.Minute)
	if done != 8 {
		t.Fatalf("only %d/8 transactions completed", done)
	}

	var sum Stats
	for _, h := range r.hosts {
		st := h.eng.Stats()
		sum.TxPackets += st.TxPackets
		sum.RxPackets += st.RxPackets
		sum.RxCorrupt += st.RxCorrupt
		sum.Retransmits += st.Retransmits
		sum.ReplyPendings += st.ReplyPendings
		sum.Locates += st.Locates
		sum.LocalDeliveries += st.LocalDeliveries
	}
	checks := []struct {
		name  string
		kind  trace.Kind
		stats int64
	}{
		{"tx", trace.EvPktTx, sum.TxPackets},
		{"rx", trace.EvPktRx, sum.RxPackets},
		{"drop", trace.EvPktDrop, sum.RxCorrupt},
		{"retx", trace.EvPktRetx, sum.Retransmits},
		{"reply-pending", trace.EvReplyPending, sum.ReplyPendings},
		{"locate", trace.EvLocate, sum.Locates},
		{"local", trace.EvPktLocal, sum.LocalDeliveries},
	}
	for _, c := range checks {
		if got := tb.Count(c.kind); got != c.stats {
			t.Errorf("trace %s events = %d, Stats counter = %d", c.name, got, c.stats)
		}
	}
	bs := r.bus.Stats()
	if got := tb.Count(trace.EvFrameTx); got != bs.Frames {
		t.Errorf("frame-tx events = %d, bus frames = %d", got, bs.Frames)
	}
	if got := tb.Count(trace.EvFrameDrop); got != bs.Dropped {
		t.Errorf("frame-drop events = %d, bus dropped = %d", got, bs.Dropped)
	}
	if sum.RxCorrupt == 0 {
		t.Error("corrupt-frame path was not exercised")
	}
	if sum.Retransmits == 0 {
		t.Error("no retransmissions under 15% loss; test premise broken")
	}
}

// TestRetransmitCountedOncePerResend pins down double-counting: with a
// server that never answers until the second interval, the timer path
// drives resends, and each executed resend must bump the counter exactly
// once (trace retx events and the Stats counter must agree).
func TestRetransmitCountedOncePerResend(t *testing.T) {
	r := newRig(t, 2, 23)
	tb := r.attachTrace()
	lhA, lhB := vid.LHID(10), vid.LHID(20)
	r.place(lhA, 0)
	r.place(lhB, 1)
	client := r.hosts[0].eng.NewPort(vid.NewPID(lhA, 16))
	server := r.hosts[1].eng.NewPort(vid.NewPID(lhB, 16))
	r.sim.Spawn("slow", func(tk *sim.Task) {
		req := server.Receive(tk)
		tk.Sleep(3 * params.RetransmitInterval)
		server.Reply(tk, req, req.Msg)
	})
	var err error
	r.sim.Spawn("client", func(tk *sim.Task) {
		_, err = client.Send(tk, server.PID(), vid.Message{Op: testOp})
	})
	r.sim.RunFor(10 * time.Second)
	if err != nil {
		t.Fatalf("send failed: %v", err)
	}
	retx := r.hosts[0].eng.Stats().Retransmits + r.hosts[1].eng.Stats().Retransmits
	if retx == 0 {
		t.Fatal("no timer-driven retransmissions; test premise broken")
	}
	if got := tb.Count(trace.EvPktRetx); got != retx {
		t.Fatalf("trace retx events = %d, Stats.Retransmits = %d", got, retx)
	}
}
