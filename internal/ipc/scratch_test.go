package ipc

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/packet"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// Every frame netd receives is decoded into the engine's one receive
// packet, and a request or reply a port transmits is a value on its stack
// that goes out through the one transmit packet. These tests hold the
// engine to that — no Packet allocated per frame, per member, per
// transmission — and to the other half of the bargain: what outlives the
// scratch (a relayed packet, here) is a copy.

// TestReceivedRequestAndReplyAllocateNoPacket: a word-only request that
// arrives and is queued costs its host one allocation, the Req the server
// will receive; a word-only reply that completes a send costs none, and one
// that completes a gather to a single process costs the slice it is
// returned in — there is nobody to tell apart, so no map of responders.
func TestReceivedRequestAndReplyAllocateNoPacket(t *testing.T) {
	r, client, server := bulkRig(t, 1)
	t.Cleanup(r.sim.Shutdown)

	var payload []byte
	req := packet.Packet{Kind: packet.KRequest, Src: client.PID(), Dst: server.PID(),
		Msg: vid.Message{Op: testOp, W: [6]uint32{1, 2, 3, 4, 5, 6}}}
	arrive := func() {
		req.TxID++
		payload = packet.AppendMarshal(payload[:0], &req)
		r.hosts[0].nic.StartSend(ethernet.Frame{Dst: 2, Payload: payload}, nil)
		r.sim.Run()
		if len(server.rq) != 1 || server.rq[0].txid != req.TxID || server.rq[0].Msg.W != req.Msg.W {
			t.Fatalf("request %d was not queued as sent: %d queued", req.TxID, len(server.rq))
		}
		server.rq = server.rq[:0]
	}
	arrive()
	if n := testing.AllocsPerRun(100, arrive); n != 1 {
		t.Fatalf("%v allocations per request received, want 1 (its Req)", n)
	}

	txn := new(sendTxn)
	rep := packet.Packet{Kind: packet.KReply, Src: server.PID(), Dst: client.PID(),
		Msg: vid.Message{Op: testOp, W: [6]uint32{6, 5, 4, 3, 2, 1}}}
	answer := func() {
		rep.TxID++
		*txn = sendTxn{clientTxn: clientTxn{txid: rep.TxID, dst: server.PID()}}
		client.send = txn
		payload = packet.AppendMarshal(payload[:0], &rep)
		r.hosts[1].nic.StartSend(ethernet.Frame{Dst: 1, Payload: payload}, nil)
		r.sim.Run()
		if !txn.done || txn.reply.W != rep.Msg.W {
			t.Fatalf("reply %d did not complete the send", rep.TxID)
		}
	}
	answer()
	if n := testing.AllocsPerRun(100, answer); n != 0 {
		t.Fatalf("%v allocations per reply received, want 0", n)
	}

	client.send = nil
	r.sim.Spawn("prober", func(tk *sim.Task) {
		client.StartGather(tk, server.PID(), vid.Message{Op: testOp}, time.Millisecond, nil)
	})
	r.sim.Run() // nobody serves it: the window closes it
	if probe := client.send; probe == nil || !probe.done || probe.seen != nil {
		t.Fatalf("a gather to one process keeps a map of responders: %+v", probe)
	}
	probed := func() {
		rep.TxID++
		*txn = sendTxn{clientTxn: clientTxn{txid: rep.TxID, dst: server.PID(), gather: true}}
		client.send = txn
		payload = packet.AppendMarshal(payload[:0], &rep)
		r.hosts[1].nic.StartSend(ethernet.Frame{Dst: 1, Payload: payload}, nil)
		r.sim.Run()
		if !txn.done || len(txn.replies) != 1 || txn.replies[0].Msg.W != rep.Msg.W || txn.seen != nil {
			t.Fatalf("reply %d did not end the gather with itself: %+v", rep.TxID, txn)
		}
	}
	probed()
	if n := testing.AllocsPerRun(100, probed); n != 1 {
		t.Fatalf("%v allocations per probe answer received, want 1 (the replies)", n)
	}
}

// TestGroupFanOutAllocatesNoPacket: a multicast query delivered to three
// local members costs three allocations, a Req each — not a decoded packet
// and a readdressed copy of it per member on top.
func TestGroupFanOutAllocatesNoPacket(t *testing.T) {
	r := newRig(t, 2, 1)
	t.Cleanup(r.sim.Shutdown)
	r.place(10, 0)
	r.place(20, 1)
	group := vid.NewPID(vid.GroupBit|9, 1)
	var members []*Port
	for i := 0; i < 3; i++ {
		p := r.hosts[1].eng.NewPort(vid.NewPID(20, uint16(16+i)))
		r.hosts[1].join(group, p.PID())
		members = append(members, p)
	}
	var payload []byte
	// Word-only, like a selection query: an inline segment would be copied
	// out of the frame, one allocation more.
	query := packet.Packet{Kind: packet.KRequest, Src: vid.NewPID(10, 16), Dst: group,
		Msg: vid.Message{Op: testOp, W: [6]uint32{7, 7, 7}}}
	ask := func() {
		query.TxID++
		payload = packet.AppendMarshal(payload[:0], &query)
		r.hosts[0].nic.StartSend(ethernet.Frame{Dst: ethernet.Multicast(uint16(group.LH())), Payload: payload}, nil)
		r.sim.Run()
		for i, m := range members {
			if len(m.rq) != 1 || m.rq[0].txid != query.TxID || m.rq[0].Msg.W != query.Msg.W {
				t.Fatalf("query %d did not reach member %d as sent", query.TxID, i)
			}
			m.rq = m.rq[:0]
		}
	}
	ask()
	if n := testing.AllocsPerRun(100, ask); n != 3 {
		t.Fatalf("%v allocations per query delivered to 3 members, want 3 (a Req each)", n)
	}
}

// TestForwardedPacketsSurviveTheScratch: host 2 holds forwarding addresses
// (ablation A2's path) both ways between a client on host 1 and a server on
// host 3, and is meanwhile sprayed with other requests, so that between
// decoding a packet to relay and transmitting it netd decodes several more
// into the same scratch. Every request and every reply must arrive as sent:
// what waits in the queue is a copy.
func TestForwardedPacketsSurviveTheScratch(t *testing.T) {
	r := newRig(t, 4, 5)
	t.Cleanup(r.sim.Shutdown)
	const lhClient, lhServer = vid.LHID(10), vid.LHID(30)
	r.place(lhClient, 0)
	r.place(lhServer, 2)
	client := r.hosts[0].eng.NewPort(vid.NewPID(lhClient, 16))
	server := r.hosts[2].eng.NewPort(vid.NewPID(lhServer, 16))
	relay := r.hosts[1].eng
	relay.SetForward(lhServer, 3)
	relay.SetForward(lhClient, 1)
	// Both ends believe the other lives on host 2 and never learn better:
	// every frame they get from each other comes from there, and, as in the
	// ablation, silence does not make them ask around.
	for _, end := range []*Engine{r.hosts[0].eng, r.hosts[2].eng} {
		end.NoRebind = true
	}
	r.hosts[0].eng.cacheInsert(lhServer, 2)
	r.hosts[2].eng.cacheInsert(lhClient, 2)

	body := func(k uint32, reply bool) vid.Message {
		m := vid.Message{Op: testOp, W: [6]uint32{k, k * 3, k * 5, k * 7, k * 11, k * 13}}
		if reply {
			m.W[0] = ^k
		}
		m.Seg = patterned(nil, 200+int(k)%700, int(k))
		return m
	}
	same := func(a, b vid.Message) bool { return a.Op == b.Op && a.W == b.W && bytes.Equal(a.Seg, b.Seg) }

	var serveErr, sendErr error
	r.sim.Spawn("server", func(tk *sim.Task) {
		for {
			req := server.Receive(tk)
			if k := req.Msg.W[0]; !same(req.Msg, body(k, false)) && serveErr == nil {
				serveErr = fmt.Errorf("request %d arrived as %v", k, req.Msg.W)
			}
			server.Reply(tk, req, body(req.Msg.W[0], true))
		}
	})
	const n = 40
	done := 0
	r.sim.Spawn("client", func(tk *sim.Task) {
		for k := uint32(1); k <= n && sendErr == nil; k++ {
			got, err := client.Send(tk, server.PID(), body(k, false))
			if err != nil {
				sendErr = err
			} else if !same(got, body(k, true)) {
				sendErr = fmt.Errorf("reply %d arrived as %v", k, got.W)
			}
			done++
		}
	})
	// The spray: a request for a logical host nobody has, from host 4 into
	// host 2, every millisecond — host 2's netd spends 0.7 ms on each, so
	// its queue always holds one when a relayed packet joins it.
	noise := packet.AppendMarshal(nil, &packet.Packet{
		Kind: packet.KRequest, TxID: 99, Src: vid.NewPID(40, 16), Dst: vid.NewPID(50, 16),
		Msg: vid.Message{Op: 0xBAD, W: [6]uint32{0xBAD, 0xBAD, 0xBAD, 0xBAD, 0xBAD, 0xBAD}, Seg: bytes.Repeat([]byte{0xBD}, 900)},
	})
	var spray func()
	spray = func() {
		if done < n {
			r.hosts[3].nic.StartSend(ethernet.Frame{Dst: 2, Payload: noise}, nil)
			r.sim.After(time.Millisecond, spray)
		}
	}
	spray()
	r.sim.RunFor(time.Minute)
	if serveErr != nil || sendErr != nil || done != n {
		t.Fatalf("%d of %d transactions; server saw: %v; client saw: %v", done, n, serveErr, sendErr)
	}
	if st := relay.Stats(); st.Forwarded < 2*n || st.DroppedStale == 0 {
		t.Fatalf("relay forwarded %d packets (want ≥ %d) and dropped %d of the spray", st.Forwarded, 2*n, st.DroppedStale)
	}
}
