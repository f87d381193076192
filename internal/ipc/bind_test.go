package ipc

import (
	"testing"
	"time"

	"vsystem/internal/packet"
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
