package ipc

import (
	"testing"
	"time"

	"vsystem/internal/freelist"
	"vsystem/internal/packet"
	"vsystem/internal/vid"
)

// mustPanicDead runs use and fails unless it panics as a dead record does.
func mustPanicDead(t *testing.T, use func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := recover(); got != "freelist: a record is used after it was handed back" {
			t.Fatalf("use of a record handed back: recovered %v, want the dead-record panic", got)
		}
	}()
	use()
}

// TestDeadRecordPanics: on a poisoning list (every rig poisons), a record
// handed back early is dead, and the entry point a stale holder calls
// panics at once instead of acting on the record's next user. One row per
// record the engine reuses: each hands its record back, then uses it.
func TestDeadRecordPanics(t *testing.T) {
	lhA, lhB := vid.LHID(10), vid.LHID(20)
	rows := []struct {
		name string
		use  func(e *Engine, p *Port)
	}{
		{"Req/reply", func(e *Engine, p *Port) {
			r := e.reqs.Get()
			r.Src, r.txid = vid.NewPID(lhB, 16), 1
			e.reqs.Put(r)
			p.Reply(nil, r, vid.Message{})
		}},
		{"Req/drop", func(e *Engine, p *Port) {
			r := e.reqs.Get()
			r.Src, r.txid = vid.NewPID(lhB, 16), 1
			e.reqs.Put(r)
			p.Drop(r)
		}},
		{"sendTxn/step", func(e *Engine, p *Port) {
			p.send = e.txns.Get()
			e.txns.Put(p.send)
			p.AbortTo(vid.NewPID(lhB, 16))
		}},
		{"sendTxn/transmit", func(e *Engine, p *Port) {
			p.send = e.txns.Get()
			e.txns.Put(p.send)
			p.transmit(nil, true)
		}},
		{"fragSource", func(e *Engine, p *Port) {
			fs := e.repairs.Get()
			fs.refs = 1
			e.repairs.Put(fs)
			e.release(fs)
		}},
		{"reasmBuf", func(e *Engine, p *Port) {
			frag := packet.Packet{Kind: packet.KFrag, Src: vid.NewPID(lhB, 16), Dst: p.PID(), TxID: 1,
				OfKind: packet.KRequest, FragCount: 2, Data: []byte{1, 2, 3}}
			e.handleFrag(&frag)
			e.reasms.Put(e.reasm[reasmKey{src: frag.Src, dst: frag.Dst, txid: 1, kind: packet.KRequest}])
			frag.FragIdx = 1
			e.handleFrag(&frag)
		}},
		{"replySeg", func(e *Engine, p *Port) {
			rs := e.lendReply(e.getSeg(vid.SegMax))
			e.lent.Put(rs)
			e.letGo(rs)
		}},
		{"Port/send", func(e *Engine, p *Port) {
			p.Close()
			p.StartSend(nil, vid.NewPID(lhB, 16), vid.Message{Op: testOp})
		}},
		{"Port/receive", func(e *Engine, p *Port) {
			p.Close()
			p.Receive(nil)
		}},
		{"Port/receive-timeout", func(e *Engine, p *Port) {
			p.Close()
			p.ReceiveTimeout(nil, time.Second)
		}},
		{"sweep", func(e *Engine, p *Port) {
			sw := e.sweeps.Get()
			sw.p = p
			e.sweeps.Put(sw)
			sw.due()
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := newRig(t, 2, 1)
			t.Cleanup(r.sim.Shutdown)
			r.place(lhA, 0)
			e := r.hosts[0].eng
			p := e.NewPort(vid.NewPID(lhA, 16))
			mustPanicDead(t, func() { row.use(e, p) })
		})
	}
}

// TestHandedOutRecordLivesAgain: Get revives a dead record, so poisoning
// costs no allocation: the record a Put killed is the next one handed out,
// and it serves.
func TestHandedOutRecordLivesAgain(t *testing.T) {
	r := newRig(t, 1, 1)
	t.Cleanup(r.sim.Shutdown)
	e := r.hosts[0].eng
	rs := e.lendReply(e.getSeg(vid.SegMax))
	e.letGo(rs)
	again := e.lendReply(e.getSeg(vid.SegMax))
	if again != rs {
		t.Fatal("the record handed back last was not the next handed out")
	}
	freelist.Check(&e.lent, again)
	e.letGo(again)
}
