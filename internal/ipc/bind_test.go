package ipc

import (
	"testing"
	"time"

	"vsystem/internal/packet"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// A binding is learnt where it is made: a reply that names a logical host
// comes from the station that just made it resident, so its receiver binds
// it there, as it would from a locate response, and never broadcasts a
// locate for it.

// namingServer answers every request with a reply naming lh.
func namingServer(se *sim.Engine, p *Port, lh vid.LHID) {
	se.Spawn("namer", func(t *sim.Task) {
		for {
			r := p.Receive(t)
			p.ReplyNaming(t, r, vid.Message{Op: r.Msg.Op, W: [6]uint32{uint32(lh)}}, lh)
		}
	})
}

// TestReplyNamingBindsAtReceiver: the client learns the named logical
// host's station from the reply, and its first send there is no locate.
func TestReplyNamingBindsAtReceiver(t *testing.T) {
	r, client, server := bulkRig(t, 41)
	t.Cleanup(r.sim.Shutdown)
	const fresh = vid.LHID(21)
	r.place(fresh, 1)
	namingServer(r.sim, server, fresh)
	echoServer(r.sim, r.hosts[1].eng.NewPort(vid.NewPID(fresh, 16)))
	r.hosts[0].eng.cacheInsert(server.PID().LH(), 2) // the server's own binding is known

	var err error
	var named vid.Message
	r.sim.Spawn("client", func(tk *sim.Task) {
		if named, err = client.Send(tk, server.PID(), vid.Message{Op: testOp}); err == nil {
			_, err = client.Send(tk, vid.NewPID(vid.LHID(named.W[0]), 16), vid.Message{Op: testOp})
		}
	})
	r.sim.RunFor(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if mac, hit := r.hosts[0].eng.CacheLookup(fresh); !hit || mac != 2 {
		t.Fatalf("binding of the named logical host = %v,%v, want station 2", mac, hit)
	}
	if n := r.hosts[0].eng.Stats().Locates; n != 0 {
		t.Fatalf("%d locates broadcast; the reply named the logical host", n)
	}
}

// TestCachedReplyNamesItsLogicalHost: the first reply is lost, and the
// retransmission is answered from the reply cache. That copy names the
// logical host too.
func TestCachedReplyNamesItsLogicalHost(t *testing.T) {
	r, client, server := bulkRig(t, 42)
	t.Cleanup(r.sim.Shutdown)
	const fresh = vid.LHID(21)
	r.place(fresh, 1)
	namingServer(r.sim, server, fresh)
	r.hosts[0].eng.cacheInsert(server.PID().LH(), 2)
	dropped := dropKinds(r.bus, 1, packet.KReply)

	var err error
	r.sim.Spawn("client", func(tk *sim.Task) {
		_, err = client.Send(tk, server.PID(), vid.Message{Op: testOp})
	})
	r.sim.RunFor(5 * time.Second)
	if err != nil || *dropped != 1 {
		t.Fatalf("send: %v, %d replies dropped", err, *dropped)
	}
	if r.hosts[1].eng.Stats().RepliesFromCache == 0 {
		t.Fatal("the retransmission was not answered from the reply cache")
	}
	if mac, hit := r.hosts[0].eng.CacheLookup(fresh); !hit || mac != 2 {
		t.Fatalf("binding after a cache-answered duplicate = %v,%v, want station 2", mac, hit)
	}
}

// TestWindowToUnboundHostLocatesOnce: a window of params.CopyWindow opens
// on a logical host nobody has bound. Its first miss broadcasts the one
// locate, the other slots wait for that locate's answer, and the answer
// sends each of them (a retransmission each, the only one): every request
// crosses the wire once.
func TestWindowToUnboundHostLocatesOnce(t *testing.T) {
	r := newRig(t, 3, 44)
	t.Cleanup(r.sim.Shutdown)
	lhA, lhB := vid.LHID(10), vid.LHID(20)
	r.place(lhA, 0)
	r.place(lhB, 1)
	server := r.hosts[1].eng.NewPort(vid.NewPID(lhB, 16))
	served := 0
	r.sim.Spawn("server", func(tk *sim.Task) {
		for {
			req := server.Receive(tk)
			served++
			tk.Sleep(2 * time.Millisecond)
			server.Reply(tk, req, req.Msg)
		}
	})

	const n = 8
	var err error
	var elapsed time.Duration
	r.sim.Spawn("pusher", func(tk *sim.Task) {
		win := r.hosts[0].eng.NewWindow(lhA, params.CopyWindow)
		defer win.Close()
		t0 := tk.Now()
		for i := 0; i < n && err == nil; i++ {
			err = win.Send(tk, server.PID(), vid.Message{Op: testOp, W: [6]uint32{uint32(i)}})
		}
		if err == nil {
			err = win.Drain(tk)
		}
		elapsed = tk.Now().Sub(t0)
	})
	r.sim.RunFor(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	st := r.hosts[0].eng.Stats()
	if st.Locates != 1 {
		t.Errorf("%d locates broadcast for one logical host, want 1", st.Locates)
	}
	if st.Retransmits > n {
		t.Errorf("%d retransmissions for %d requests, want at most one each", st.Retransmits, n)
	}
	if got := st.TxByKind[packet.KRequest]; got != n {
		t.Errorf("%d request frames for %d requests, want %d", got, n, n)
	}
	if served != n {
		t.Errorf("server took %d requests, want %d", served, n)
	}
	if elapsed >= params.RetransmitInterval {
		t.Errorf("window drained in %v, want under one retransmission interval", elapsed)
	}
}
