package ipc

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/packet"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// Every rig poisons its free lists (newRig), so in these tests a buffer
// that goes back while something still reads it — or that something still
// writes after it went back — shows as wrong bytes, not as luck.

// patterned appends n bytes that identify segment k: what the sender
// encodes and what every later holder must still see.
func patterned(dst []byte, n, k int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, byte(i*7+k*31+i>>8))
	}
	return dst
}

// tapFrames calls see for every frame put on the wire, dropping none.
func tapFrames(bus *ethernet.Bus, see func(p *packet.Packet)) {
	bus.SetLoss(func(f ethernet.Frame) bool {
		if p, err := packet.Unmarshal(f.Payload); err == nil {
			see(p)
		}
		return false
	})
}

// copyingServer serves like a kernel server writing pages: it copies the
// request's segment out, gives the buffer back, works for a while — during
// which the buffer is already carrying the next request — and answers with
// a fragmented segment of its own derived from the request's number.
func copyingServer(se *sim.Engine, p *Port, got map[uint32][]byte) {
	se.Spawn("copying-server", func(t *sim.Task) {
		for {
			r := p.Receive(t)
			k := r.Msg.W[0]
			got[k] = append([]byte(nil), r.Msg.Seg...)
			p.ReleaseSeg(r)
			t.Sleep(3 * time.Millisecond)
			p.Reply(t, r, vid.Message{W: [6]uint32{k}, Seg: patterned(nil, 2500+int(k)%3000, int(k)+1000)})
		}
	})
}

// TestRecycledBuffersCarryEverySegmentIntact drives all three free lists at
// once, under loss and corruption: segments encoded into the window's
// buffers, reassembled at the server into buffers it hands straight back,
// answered by fragmented replies whose buffers the window hands back, every
// frame of it built in a recycled payload. Every segment must arrive as
// encoded, both ways, and the buffers must actually have gone round.
func TestRecycledBuffersCarryEverySegmentIntact(t *testing.T) {
	const n = 80
	r, _, server := bulkRig(t, 5)
	t.Cleanup(r.sim.Shutdown)
	r.bus.SetLoss(ethernet.RandomLoss(r.sim, 0.04))
	r.bus.SetCorrupt(func(ethernet.Frame) bool { return r.sim.Rand().Float64() < 0.02 })
	got := make(map[uint32][]byte)
	copyingServer(r.sim, server, got)

	size := func(k int) int { return 1500 + (k*2713)%(vid.SegMax-1500) }
	replies := 0
	var pushErr error
	r.sim.Spawn("pusher", func(tk *sim.Task) {
		win := r.hosts[0].eng.NewWindow(10, params.CopyWindow)
		defer win.Close()
		win.SetOnReply(func(req, reply vid.Message) {
			k := int(req.W[0])
			if !bytes.Equal(req.Seg, patterned(nil, size(k), k)) {
				pushErr = fmt.Errorf("request %d changed before its transaction was reaped", k)
			}
			if reply.W[0] != req.W[0] || !bytes.Equal(reply.Seg, patterned(nil, 2500+k%3000, k+1000)) {
				pushErr = fmt.Errorf("reply %d arrived damaged", k)
			}
			replies++
		})
		for k := 0; k < n && pushErr == nil; k++ {
			seg := patterned(win.SegBuf(), size(k), k)
			if err := win.Send(tk, server.PID(), vid.Message{Op: testOp, W: [6]uint32{uint32(k)}, Seg: seg}); err != nil {
				pushErr = err
			}
		}
		if err := win.Drain(tk); err != nil && pushErr == nil {
			pushErr = err
		}
	})
	r.sim.RunFor(10 * time.Minute)
	if pushErr != nil {
		t.Fatal(pushErr)
	}
	if replies != n || len(got) != n {
		t.Fatalf("%d replies, %d requests served, want %d of each", replies, len(got), n)
	}
	for k := 0; k < n; k++ {
		if !bytes.Equal(got[uint32(k)], patterned(nil, size(k), k)) {
			t.Fatalf("segment %d arrived damaged (first difference at byte %d)",
				k, firstDiff(got[uint32(k)], patterned(nil, size(k), k)))
		}
	}
	for i, h := range r.hosts {
		if h.eng.segs.Len() == 0 {
			t.Errorf("host %d: no segment buffer ever came back", i)
		}
	}
}

// TestTransmissionInProgressKeepsItsSegment: a transaction that ends while
// netd is part-way through sending its fragments — here failed from outside
// after the fifth — must not give its segment buffer back: the remaining
// fragments go out as the model has always sent them, from the segment as
// encoded, while the sender is already encoding the next one.
func TestTransmissionInProgressKeepsItsSegment(t *testing.T) {
	r, _, server := bulkRig(t, 9)
	t.Cleanup(r.sim.Shutdown)
	copyingServer(r.sim, server, make(map[uint32][]byte))
	eng := r.hosts[0].eng
	win := eng.NewWindow(10, 1)
	slot := win.ports[0]

	const segLen = 20*packet.FragChunk + 100
	want := patterned(nil, segLen, 1)
	frags := 0
	tapFrames(r.bus, func(p *packet.Packet) {
		if p.Kind != packet.KFrag || p.Src != slot.PID() || p.TxID != 1 {
			return
		}
		frags++
		if !bytes.Equal(p.Data, packet.FragOf(want, int(p.FragIdx))) {
			t.Errorf("fragment %d of the failed transaction went out with other bytes", p.FragIdx)
		}
		if frags == 5 {
			slot.AbortTo(server.PID())
		}
	})
	var first, second error
	r.sim.Spawn("pusher", func(tk *sim.Task) {
		// No binding is cached, so the first transmission is a locate and
		// the fragments go out from netd, prompted by the answer.
		first = win.Send(tk, server.PID(), vid.Message{Op: testOp, W: [6]uint32{1}, Seg: patterned(win.SegBuf(), segLen, 1)})
		first = win.Drain(tk)
		// Reaped; were the buffer back it would be poisoned by now, and this
		// would be encoded over it.
		second = win.Send(tk, server.PID(), vid.Message{Op: testOp, W: [6]uint32{2}, Seg: patterned(win.SegBuf(), segLen, 2)})
	})
	r.sim.RunFor(time.Minute)
	if first == nil || second != nil {
		t.Fatalf("first transaction: %v (want the injected failure); second: %v", first, second)
	}
	if frags != 21 {
		t.Fatalf("%d fragments of the failed transaction went out, want all 21", frags)
	}
}

// TestLateNackAndLateFragmentTouchNoRecycledBuffer: once a transaction has
// completed and both its buffers have gone back, a NACK for it is answered
// with nothing (there is no segment to repair from any more), and a
// duplicate of one of its fragments opens a reassembly of its own — it is
// not copied into the buffer that was delivered, which by now belongs to
// someone else — and expires there.
func TestLateNackAndLateFragmentTouchNoRecycledBuffer(t *testing.T) {
	r, _, server := bulkRig(t, 3)
	t.Cleanup(r.sim.Shutdown)
	got := make(map[uint32][]byte)
	copyingServer(r.sim, server, got)
	src, dst := r.hosts[0].eng, r.hosts[1].eng
	win := src.NewWindow(10, 1)
	slot := win.ports[0]

	const segLen = 6*packet.FragChunk + 9
	send := func(k int, d time.Duration) {
		t.Helper()
		var err error
		r.sim.Spawn("pusher", func(tk *sim.Task) {
			seg := patterned(win.SegBuf(), segLen, k)
			if err = win.Send(tk, server.PID(), vid.Message{Op: testOp, W: [6]uint32{uint32(k)}, Seg: seg}); err == nil {
				err = win.Drain(tk)
			}
		})
		r.sim.RunFor(d)
		if err != nil || !bytes.Equal(got[uint32(k)], patterned(nil, segLen, k)) {
			t.Fatalf("transfer %d: err %v, intact %v", k, err, bytes.Equal(got[uint32(k)], patterned(nil, segLen, k)))
		}
	}
	send(1, 300*time.Millisecond)
	if len(src.txBuf) != 0 || len(dst.reasm) != 0 {
		t.Fatalf("after completion: %d repair sources, %d reassemblies left", len(src.txBuf), len(dst.reasm))
	}
	if n := r.sim.Pending(); n != 2 {
		// What stays is the server's: its reply-cache sweep and the repair
		// source of its (fragmented) reply. The request's repair source and
		// both reassemblies took their timers with them.
		t.Errorf("%d events pending after a finished transfer, want 2", n)
	}

	// The NACK: from the server's station, for transaction 1.
	sent := 0
	tapFrames(r.bus, func(p *packet.Packet) {
		if p.Kind == packet.KFrag || p.Kind == packet.KRequest {
			sent++
		}
	})
	nack := packet.AppendMarshal(nil, &packet.Packet{
		Kind: packet.KFragNack, TxID: 1, Src: slot.PID(), Dst: server.PID(),
		OfKind: packet.KRequest, Missing: []uint16{0, 3, 6},
	})
	r.hosts[1].nic.StartSend(ethernet.Frame{Dst: 1, Payload: nack}, nil)
	r.sim.RunFor(time.Second)
	if sent != 0 {
		t.Fatalf("a NACK for a finished transaction drew %d frames", sent)
	}
	r.bus.SetLoss(nil)

	// The duplicate fragment: other bytes, same transaction.
	before := dst.segs.Len()
	dup := packet.AppendMarshal(nil, &packet.Packet{
		Kind: packet.KFrag, TxID: 1, Src: slot.PID(), Dst: server.PID(), OfKind: packet.KRequest,
		FragIdx: 2, FragCount: 7, Data: bytes.Repeat([]byte{0xEE}, packet.FragChunk),
	})
	r.hosts[0].nic.StartSend(ethernet.Frame{Dst: 2, Payload: dup}, nil)
	r.sim.RunFor(100 * time.Millisecond)
	if len(dst.reasm) != 1 || dst.segs.Len() != before-1 {
		t.Fatalf("late fragment: %d reassemblies open, free list %d → %d; want one, on a buffer of its own",
			len(dst.reasm), before, dst.segs.Len())
	}
	send(2, 10*time.Second) // reassembled beside the stale one, in a new buffer, delivered intact
	r.sim.RunFor(params.FragReassemblyTTL)
	if len(dst.reasm) != 0 || dst.segs.Len() != before+1 {
		t.Fatalf("after the TTL: %d reassemblies open, free list %d, want 0 and both buffers (%d)",
			len(dst.reasm), dst.segs.Len(), before+1)
	}
	send(3, 10*time.Second)
}
