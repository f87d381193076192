package ipc

import (
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// TestClosedPortIsReusedOnlyOnceUnreachable: Close keeps a port's record
// for the next NewPortGen only when nothing can reach it any more. A port
// closed with a reply cached (its sweep pending), or with a retransmission
// job queued on netd after its transaction ended, is left to the
// collector; one closed once its cache is swept comes back as the next
// port made, which starts with no peers, replies or requests, numbers its
// transactions from its own generation, and serves.
func TestClosedPortIsReusedOnlyOnceUnreachable(t *testing.T) {
	r := newRig(t, 2, 3)
	t.Cleanup(r.sim.Shutdown)
	lhA, lhB := vid.LHID(10), vid.LHID(20)
	r.place(lhA, 0)
	r.place(lhB, 1)
	a, b := r.hosts[0].eng, r.hosts[1].eng

	// serveOne answers the next request on p, then ends.
	serveOne := func(p *Port) {
		r.sim.Spawn("serve-one", func(tk *sim.Task) {
			req := p.Receive(tk)
			m := req.Msg
			m.W[0]++
			p.Reply(tk, req, m)
		})
	}
	// call sends one request from p to dst on a task of its own; *got
	// holds the reply's W0, or 0 on an error.
	call := func(p *Port, dst vid.PID, got *uint32) {
		r.sim.Spawn("call", func(tk *sim.Task) {
			m, err := p.Send(tk, dst, vid.Message{Op: testOp, W: [6]uint32{41}})
			if *got = m.W[0]; err != nil {
				*got = 0
			}
		})
	}

	// A reply cached, its sweep pending.
	server := b.NewPort(vid.NewPID(lhB, 16))
	serveOne(server)
	var got uint32
	call(a.NewPort(vid.NewPID(lhA, 16)), server.PID(), &got)
	r.sim.RunFor(time.Second)
	if got != 42 || len(server.replies) != 1 || server.holds != 1 {
		t.Fatalf("first exchange: reply %d, %d replies cached, holds %d", got, len(server.replies), server.holds)
	}
	server.Close()
	if b.NewPort(vid.NewPID(lhB, 17)) == server {
		t.Fatal("a port closed with a reply cached was made into the next port")
	}

	// A retransmission job queued behind a busy netd when the transaction
	// is aborted, awaited and its port closed.
	client := a.NewPort(vid.NewPID(lhA, 17))
	dead := vid.NewPID(lhB, 99)
	r.bus.SetLoss(func(f ethernet.Frame) bool { return f.Src == a.MAC() })
	call(client, dead, &got)
	r.sim.RunFor(10 * time.Millisecond)
	a.jobs.Push(job{fn: func(tk *sim.Task) { tk.Sleep(2 * params.RetransmitInterval) }})
	r.sim.RunFor(params.RetransmitInterval + 10*time.Millisecond)
	if client.holds == 0 {
		t.Fatal("no retransmission queued behind the busy netd")
	}
	client.AbortTo(dead)
	r.sim.RunFor(time.Millisecond)
	if client.Sending() || client.holds == 0 {
		t.Fatalf("after the abort: sending %v, holds %d; want the transaction awaited and its job still queued", client.Sending(), client.holds)
	}
	client.Close()
	if a.NewPort(vid.NewPID(lhA, 18)) == client {
		t.Fatal("a port closed with a retransmission job queued was made into the next port")
	}
	r.bus.SetLoss(nil)
	r.sim.RunFor(3 * params.RetransmitInterval)

	// Swept, idle: reused, and clean.
	server = b.NewPort(vid.NewPID(lhB, 19))
	serveOne(server)
	call(a.NewPort(vid.NewPID(lhA, 19)), server.PID(), &got)
	r.sim.RunFor(2 * params.ReplyCacheTTL)
	if got != 42 || len(server.replies) != 0 || server.holds != 0 || len(server.peers) != 1 {
		t.Fatalf("swept exchange: reply %d, %d replies cached, holds %d, %d peers", got, len(server.replies), server.holds, len(server.peers))
	}
	server.Close()
	reused := b.NewPortGen(vid.NewPID(lhB, 21), 2)
	if reused != server {
		t.Fatal("a closed port nothing reaches was not made into the next port")
	}
	if reused.PID() != vid.NewPID(lhB, 21) || reused.txSeq != 2<<txGenBits || reused.closed ||
		len(reused.peers) != 0 || len(reused.replies) != 0 || len(reused.rq) != 0 {
		t.Fatalf("reused record: pid %v txSeq %#x closed %v, %d peers, %d replies, %d requests",
			reused.PID(), reused.txSeq, reused.closed, len(reused.peers), len(reused.replies), len(reused.rq))
	}
	serveOne(reused)
	got = 0
	call(a.NewPort(vid.NewPID(lhA, 21)), reused.PID(), &got)
	r.sim.RunFor(time.Second)
	if got != 42 {
		t.Fatalf("the reused port answered %d, want 42", got)
	}
}

// TestReleasedShortSegmentCarriesTheNext: a short request segment is copied
// out of its frame. A server that releases it (ReleaseSeg) gives the copy
// back to its Req, and the next short segment the Req carries lands in it,
// so that such a round trip allocates nothing; one the server keeps — by
// not releasing it, or through KeepSeg — keeps its bytes whatever arrives
// after it.
func TestReleasedShortSegmentCarriesTheNext(t *testing.T) {
	r, client, server := bulkRig(t, 2)
	t.Cleanup(r.sim.Shutdown)
	kept := map[uint32][]byte{}
	var released, landed *byte
	reuses := 0
	r.sim.Spawn("server", func(tk *sim.Task) {
		for {
			req := server.Receive(tk)
			k := req.Msg.W[0]
			if at := &req.Msg.Seg[0]; at == released {
				reuses++
			} else {
				landed = at
			}
			switch {
			case k < 10 && k%2 == 0:
				kept[k] = req.Msg.Seg
			case k < 10:
				kept[k] = server.KeepSeg(req)
			default:
				released = landed
				server.ReleaseSeg(req)
			}
			server.Reply(tk, req, vid.Message{W: [6]uint32{k}})
		}
	})
	var kick sim.WaitQ
	done := 0
	r.sim.Spawn("client", func(tk *sim.Task) {
		var seg []byte
		for k := uint32(0); ; k++ {
			kick.Wait(tk)
			seg = patterned(seg[:0], 40+int(k%8), int(k))
			if m, err := client.Send(tk, server.PID(), vid.Message{Op: testOp, W: [6]uint32{k}, Seg: seg}); err != nil || m.W[0] != k {
				t.Errorf("round trip %d: %v, %v", k, m, err)
			}
			done++
		}
	})
	roundTrip := func() {
		kick.WakeOne()
		r.sim.Run() // through the reply cache's sweep
	}
	r.sim.Run()
	for i := 0; i < 12; i++ {
		roundTrip()
	}
	if n := testing.AllocsPerRun(50, roundTrip); n != 0 {
		t.Fatalf("%v allocations per round trip with a released short segment, want 0", n)
	}
	if done != 63 || reuses < 50 {
		t.Fatalf("%d round trips, %d segments in the buffer released before; want 63 and at least 50", done, reuses)
	}
	for k := uint32(0); k < 10; k++ {
		if want := patterned(nil, 40+int(k%8), int(k)); string(kept[k]) != string(want) {
			t.Fatalf("segment %d the server kept changed: % x, want % x", k, kept[k], want)
		}
	}
}
