package ipc

import (
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
// engine to that: no Packet allocated per frame, per member, per
// transmission.

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

// TestRemoteRoundTripAllocatesNothing: once a client and a server on two
// stations have exchanged one transaction, each further Send, Receive and
// Reply between them — the request and the reply on the wire, the send
// timer, the reply cache and its sweep — allocates nothing. The port reuses
// its finished transaction and the Reqs its server has answered, binds its
// timer callbacks once, and holds the cached reply by value.
func TestRemoteRoundTripAllocatesNothing(t *testing.T) {
	r, client, server := bulkRig(t, 1)
	t.Cleanup(r.sim.Shutdown)
	roundTripsAllocateNothing(t, r, client, server)
}

// TestLocalRoundTripAllocatesNothing: so does a transaction between two
// ports of one host, whose request and reply netd delivers from its queue
// in a packet record it takes back once dispatched.
func TestLocalRoundTripAllocatesNothing(t *testing.T) {
	r := newRig(t, 1, 1)
	t.Cleanup(r.sim.Shutdown)
	r.place(10, 0)
	r.place(20, 0)
	client := r.hosts[0].eng.NewPort(vid.NewPID(10, 16))
	server := r.hosts[0].eng.NewPort(vid.NewPID(20, 16))
	roundTripsAllocateNothing(t, r, client, server)
	if st := r.hosts[0].eng.Stats(); st.TxPackets != 0 {
		t.Fatalf("%d packets on the wire between two ports of one host", st.TxPackets)
	}
}

func roundTripsAllocateNothing(t *testing.T, r *rig, client, server *Port) {
	t.Helper()
	echoServer(r.sim, server)
	var kick sim.WaitQ
	done := 0
	r.sim.Spawn("client", func(tk *sim.Task) {
		for i := uint32(0); ; i++ {
			kick.Wait(tk)
			m, err := client.Send(tk, server.PID(), vid.Message{Op: testOp, W: [6]uint32{i}})
			if err != nil || m.W[0] != i+1 {
				t.Errorf("round trip %d: %v, %v", i, m, err)
			}
			done++
		}
	})
	roundTrip := func() {
		kick.WakeOne()
		r.sim.Run() // through the reply cache's sweep
	}
	r.sim.Run()
	roundTrip() // the first resolves the binding and makes what is reused
	roundTrip()
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Fatalf("%v allocations per round trip, want 0", n)
	}
	if done != 103 { // AllocsPerRun runs it once more than asked
		t.Fatalf("%d round trips completed, want 103", done)
	}
}

// BenchmarkReplyFrameDispatch: a word-only reply frame crossing the bus and
// completing a send — the bus's station lookup, netd's wake-up and CPU
// charge, the decode, the sender's liveness and binding refreshed, the
// addressee's residence checked — as TestReceivedRequestAndReplyAllocateNoPacket
// holds it to no allocation.
func BenchmarkReplyFrameDispatch(b *testing.B) {
	r, client, server := bulkRig(b, 1)
	b.Cleanup(r.sim.Shutdown)
	txn := new(sendTxn)
	rep := packet.Packet{Kind: packet.KReply, Src: server.PID(), Dst: client.PID(),
		Msg: vid.Message{Op: testOp, W: [6]uint32{6, 5, 4, 3, 2, 1}}}
	var payload []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.TxID++
		*txn = sendTxn{clientTxn: clientTxn{txid: rep.TxID, dst: server.PID()}}
		client.send = txn
		payload = packet.AppendMarshal(payload[:0], &rep)
		r.hosts[1].nic.StartSend(ethernet.Frame{Dst: 1, Payload: payload}, nil)
		r.sim.Run()
		if !txn.done {
			b.Fatalf("reply %d did not complete the send", rep.TxID)
		}
	}
}

// TestHeaderPacketsAllocateNoPacket: a load beacon sent, and a no-process
// answer to a request for a port that does not exist, travel in netd's job
// by value: neither allocates a packet. The beacon's multicast payload, which
// its receivers share, is left to the collector, as every such frame's is.
func TestHeaderPacketsAllocateNoPacket(t *testing.T) {
	r := newRig(t, 2, 1)
	t.Cleanup(r.sim.Shutdown)
	r.place(10, 0)
	r.place(20, 1)
	r.hosts[0].eng.SetLoadFunc(func() [6]uint32 { return [6]uint32{1, 2} })
	beacon := func() {
		r.hosts[0].eng.AdvertiseLoad(vid.NewPID(10, 1))
		r.sim.Run()
	}
	beacon()
	ad := packet.Packet{Kind: packet.KLoadAd, HasAd: true}
	var sink []byte
	marshal := testing.AllocsPerRun(100, func() { sink = packet.AppendMarshal(nil, &ad) })
	if n := testing.AllocsPerRun(100, beacon); n != marshal || len(sink) == 0 {
		t.Fatalf("%v allocations per beacon sent, want %v (its payload)", n, marshal)
	}

	var payload []byte
	req := packet.Packet{Kind: packet.KRequest, Src: vid.NewPID(10, 16), Dst: vid.NewPID(20, 99),
		Msg: vid.Message{Op: testOp}}
	noProc := func() {
		req.TxID++
		payload = packet.AppendMarshal(payload[:0], &req)
		r.hosts[0].nic.StartSend(ethernet.Frame{Dst: 2, Payload: payload}, nil)
		r.sim.Run()
	}
	noProc()
	sent := r.hosts[1].eng.Stats().TxByKind[packet.KNoProc]
	if n := testing.AllocsPerRun(100, noProc); n != 0 {
		t.Fatalf("%v allocations per no-process answer, want 0", n)
	}
	if got := r.hosts[1].eng.Stats().TxByKind[packet.KNoProc] - sent; got != 101 {
		t.Fatalf("%d no-process answers sent, want 101", got)
	}
}

// TestEnginesShareTheSegmentList: the engines of one cluster lend segment
// buffers from the segment's one list, so a buffer one host hands back is
// the next another host takes.
func TestEnginesShareTheSegmentList(t *testing.T) {
	r := newRig(t, 2, 1)
	t.Cleanup(r.sim.Shutdown)
	a, b := r.hosts[0].eng, r.hosts[1].eng
	buf := a.getSeg(vid.SegMax)
	a.putSeg(buf)
	if got := b.getSeg(vid.SegMax); &got[:1][0] != &buf[:1][0] {
		t.Fatal("a segment buffer handed back on one host is not the next another host takes")
	}
}
