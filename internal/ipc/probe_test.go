package ipc

import (
	"slices"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/packet"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// probeRig is bulkRig with the client's binding of the server learnt, so
// that no locate stretches the first round trip.
func probeRig(t *testing.T) (*rig, *Port, *Port) {
	r, client, server := bulkRig(t, 1)
	t.Cleanup(r.sim.Shutdown)
	client.eng.cacheInsert(server.PID().LH(), server.eng.MAC())
	return r, client, server
}

// warmUp answers n sends from client so its engine has a round-trip
// estimate of testOp, and returns the last one's round trip.
func warmUp(tk *sim.Task, t *testing.T, client, server *Port, n int) time.Duration {
	var rtt time.Duration
	for i := 0; i < n; i++ {
		start := tk.Now()
		if _, err := client.Send(tk, server.PID(), vid.Message{Op: testOp}); err != nil {
			t.Errorf("warm-up send %d: %v", i, err)
		}
		rtt = tk.Now().Sub(start)
	}
	return rtt
}

// dropReplyTo drops the first reply to the request the wire carries next
// once armed is set, and counts its drops.
func dropReplyTo(bus *ethernet.Bus, armed *bool) *int {
	var src vid.PID
	var txid uint32
	dropped := 0
	bus.SetLoss(func(f ethernet.Frame) bool {
		if !*armed || dropped > 0 {
			return false
		}
		p, err := packet.Unmarshal(f.Payload)
		switch {
		case err != nil:
		case p.Kind == packet.KRequest && src == vid.Nil:
			src, txid = p.Src, p.TxID
		case p.Kind == packet.KReply && p.Dst == src && p.TxID == txid:
			dropped++
			return true
		}
		return false
	})
	return &dropped
}

// TestLostReplyCostsAProbe: once the operation has a round-trip estimate, a
// lone send whose reply is lost is probed at about twice its round trip and
// answered from the reply cache, instead of waiting out a whole
// retransmission interval.
func TestLostReplyCostsAProbe(t *testing.T) {
	r, client, server := probeRig(t)
	echoServer(r.sim, server)
	armed := false
	dropped := dropReplyTo(r.bus, &armed)
	var warm, lost time.Duration
	var err error
	r.sim.Spawn("client", func(tk *sim.Task) {
		warm = warmUp(tk, t, client, server, 8)
		armed = true
		start := tk.Now()
		_, err = client.Send(tk, server.PID(), vid.Message{Op: testOp})
		lost = tk.Now().Sub(start)
	})
	r.sim.RunFor(5 * time.Second)
	if *dropped != 1 || err != nil {
		t.Fatalf("dropped %d replies; the send ended with %v", *dropped, err)
	}
	if lost > 3*warm {
		t.Errorf("a send whose reply was lost took %v, want at most 3× the %v round trip", lost, warm)
	}
	st, srv := client.eng.Stats(), server.eng.Stats()
	if st.Probes != 1 || st.Retransmits != 1 || srv.RepliesFromCache != 1 {
		t.Errorf("probes=%d retransmits=%d answers from the cache=%d, want 1, 1, 1",
			st.Probes, st.Retransmits, srv.RepliesFromCache)
	}
}

// TestDrainProbesItsTail: a full window mid-stream is covered by its other
// slots, but once it drains nothing follows its last transaction, and a
// lost last reply is recovered by the tail probe, not the interval.
func TestDrainProbesItsTail(t *testing.T) {
	r, client, server := probeRig(t)
	echoServer(r.sim, server)
	armed := false
	dropped := dropReplyTo(r.bus, &armed)
	var drain time.Duration
	var err error
	r.sim.Spawn("pusher", func(tk *sim.Task) {
		win := client.eng.NewWindow(client.PID().LH(), 4)
		defer win.Close()
		for i := 0; i < 16 && err == nil; i++ {
			armed = i == 15
			err = win.Send(tk, server.PID(), vid.Message{Op: testOp, W: [6]uint32{uint32(i)}})
		}
		if err != nil {
			return
		}
		start := tk.Now()
		err = win.Drain(tk)
		drain = tk.Now().Sub(start)
	})
	r.sim.RunFor(5 * time.Second)
	if *dropped != 1 || err != nil || drain == 0 {
		t.Fatalf("dropped %d replies; the window ended with %v after draining %v", *dropped, err, drain)
	}
	if drain >= params.RetransmitInterval/4 {
		t.Errorf("draining with the last reply lost took %v, want well inside the %v interval", drain, params.RetransmitInterval)
	}
	if st := client.eng.Stats(); st.Probes < 1 || st.Retransmits != st.Probes {
		t.Errorf("probes=%d retransmits=%d: want the loss repaired by probes alone", st.Probes, st.Retransmits)
	}
}

// TestHeldRequestGetsOneProbe: a request the server holds for most of a
// second is probed once, and the probe is answered by reply-pending like every
// retransmission after it. The probe is no tick: the interval's
// retransmissions keep their schedule, and the held send is neither
// suspected nor timed out.
func TestHeldRequestGetsOneProbe(t *testing.T) {
	r, client, server := probeRig(t)
	const hold = 900 * time.Millisecond
	held := false
	r.sim.Spawn("server", func(tk *sim.Task) {
		for {
			req := server.Receive(tk)
			if held {
				tk.Sleep(hold)
			}
			server.Reply(tk, req, req.Msg)
		}
	})
	tb := trace.NewBus()
	client.eng.SetTraceBus(tb)
	var retx []sim.Time
	tb.Subscribe(func(ev trace.Event) {
		if ev.Kind == trace.EvPktRetx {
			retx = append(retx, ev.At)
		}
	})
	var sent sim.Time
	var err error
	r.sim.Spawn("client", func(tk *sim.Task) {
		warmUp(tk, t, client, server, 8)
		held = true
		client.StartSend(tk, server.PID(), vid.Message{Op: testOp})
		sent = client.send.clientTxn.sent // the value holds its schedule
		_, err = client.AwaitReply(tk)
	})
	r.sim.RunFor(5 * time.Second)
	if err != nil {
		t.Fatalf("held send: %v", err)
	}
	st, srv := client.eng.Stats(), server.eng.Stats()
	ticks := int64(hold / params.RetransmitInterval)
	if st.Probes != 1 || st.Retransmits != 1+ticks || srv.ReplyPendings != 1+ticks {
		t.Errorf("probes=%d retransmits=%d reply-pendings=%d, want 1, %d, %d",
			st.Probes, st.Retransmits, srv.ReplyPendings, 1+ticks, 1+ticks)
	}
	if st.HostSuspects != 0 {
		t.Errorf("the held send's station was suspected %d times", st.HostSuspects)
	}
	if len(retx) == 0 || retx[0].Sub(sent) >= params.RetransmitInterval {
		t.Fatalf("retransmissions at %v after a send at %v: no probe", retx, sent)
	}
	for k, at := range retx[1:] {
		if want := sent.Add(time.Duration(k+1) * params.RetransmitInterval); at != want {
			t.Errorf("retransmission %d at %v, want the tick at %v", k+1, at, want)
		}
	}
}

// TestActivateRestartsTheInterval: a send restored quiesced (RestorePort,
// active=false) transmits nothing until Activate, which retransmits it at
// once and then ticks every interval from there, with no tail probe. A
// second Activate restarts the interval: one timer stays set, not two.
func TestActivateRestartsTheInterval(t *testing.T) {
	r, client, server := probeRig(t)
	echoServer(r.sim, server)
	held := server.eng.NewPort(vid.NewPID(server.PID().LH(), 17)) // never receives
	tb := trace.NewBus()
	client.eng.SetTraceBus(tb)
	var retx []sim.Time
	tb.Subscribe(func(ev trace.Event) {
		if ev.Kind == trace.EvPktRetx {
			retx = append(retx, ev.At)
		}
	})
	r.sim.Spawn("client", func(tk *sim.Task) { warmUp(tk, t, client, server, 8) })
	r.sim.RunFor(time.Second)
	warm := client.eng.Stats()

	p := client.eng.RestorePort(&PortState{
		PID: vid.NewPID(client.PID().LH(), 17), TxSeq: 1,
		Send: &SendState{TxID: 1, Dst: held.PID(), Msg: vid.Message{Op: testOp}},
	}, false)
	if !p.send.probed {
		t.Error("the restored send may still be probed")
	}
	r.sim.RunFor(time.Second)
	if st := client.eng.Stats(); len(retx) != 0 || st.TxPackets != warm.TxPackets {
		t.Fatalf("quiesced: %d retransmissions, %d packets", len(retx), st.TxPackets-warm.TxPackets)
	}

	first := r.sim.Now()
	p.Activate()
	r.sim.RunFor(300 * time.Millisecond)
	second, pending := r.sim.Now(), r.sim.Pending()
	p.Activate()
	r.sim.RunFor(900 * time.Millisecond)
	if n := r.sim.Pending(); n != pending {
		t.Errorf("%d events pending after the second Activate, %d before it", n, pending)
	}
	want := []sim.Time{first, first.Add(params.RetransmitInterval)}
	for k := range 5 {
		want = append(want, second.Add(time.Duration(k)*params.RetransmitInterval))
	}
	if !slices.Equal(retx, want) {
		t.Errorf("retransmissions at %v, want %v", retx, want)
	}
	if st := client.eng.Stats(); st.Probes != warm.Probes {
		t.Errorf("%d tail probes after restore", st.Probes-warm.Probes)
	}
}
