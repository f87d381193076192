package ipc

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/packet"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// Port is one process's attachment to the IPC engine: the kernel-side state
// of its current send transaction and its incoming-request queue. All
// blocking calls take the process's task.
//
// V semantics: a process has at most one outstanding Send (it blocks
// awaiting the reply), and serves requests one at a time — Receive then
// Reply. The port survives the process's migration as serializable state
// (see Snapshot/RestorePort).
type Port struct {
	eng *Engine
	pid vid.PID

	txSeq     uint32
	send      *sendTxn
	replyBuf  []byte // reassembly buffer the last reply's segment is a slice of, if any
	replyWait sim.WaitQ
	winq      *sim.WaitQ // owning bulk-transfer window's harvest queue, if any

	rq      []*Req
	reqWait sim.WaitQ
	peers   map[vid.PID]peer // what the port knows of each sender
	closed  bool
}

// sendTxn is a send transaction: its decision state and the engine's part.
type sendTxn struct {
	clientTxn
	msg   vid.Message
	reply vid.Message

	// One timer serves the transaction, set for its deadline (arm); fire is
	// its callback, made once.
	timer sim.Timer
	fire  func()

	// buf is the buffer msg.Seg was built in when it is the engine's to
	// reuse once the transaction is over (Window.SegBuf), else nil.
	// reading counts the tasks that are part-way through transmitting
	// msg.Seg — blocked between two frames, or before marshalling an inline
	// request — and so must still find it intact when they resume, however
	// the transaction has fared meanwhile.
	buf     []byte
	reading int

	// Gather mode (StartGather): every reply that arrives within the window.
	replies []GatherReply
	seen    map[vid.PID]bool         // group gather: responders already recorded (dedup)
	enough  func([]GatherReply) bool // group gather: closes it early once true; nil never
	// The window's expiry, a timer of its own: as a deadline of the value it
	// would be set at a tick, not at StartGather, reordering same-instant events.
	wtimer sim.Timer
}

// GatherReply is one responder's answer to a gathering send.
type GatherReply struct {
	Src vid.PID
	Msg vid.Message
}

// Req is a received request awaiting its reply. Servers that defer replies
// (for example the program manager holding a wait-for-program-exit request)
// hold several Reqs open at once, one per sender.
type Req struct {
	Src  vid.PID
	Msg  vid.Message
	txid uint32
	from ethernet.MAC
	buf  []byte // the reassembly buffer Msg.Seg is a slice of, if any
}

// TxID exposes the request's transaction id — stable across the sender's
// retransmissions, so servers can derive per-transaction deterministic
// choices from it (e.g. a response-dally slot).
func (r *Req) TxID() uint32 { return r.txid }

// HasPort reports whether a port is currently registered under the PID.
// Allocators of private port-id ranges (the pager's 0xF000 block) use it
// to skip ids whose previous incarnation still has a transaction parked.
func (e *Engine) HasPort(pid vid.PID) bool { return e.ports[pid] != nil }

// txGenBits is how many low bits of a transaction id count a port's own
// transactions; the bits above hold its PID's generation (NewPortGen).
const txGenBits = 20

// NewPort registers a port for the given PID. The PID's index must be a
// concrete process index (well-known indices are aliases resolved by the
// kernel, not real ports) unless the port is a host server registered by
// the kernel itself. It is NewPortGen at generation 0.
func (e *Engine) NewPort(pid vid.PID) *Port { return e.NewPortGen(pid, 0) }

// NewPortGen registers a port for the gen-th incarnation of pid: its
// transactions are numbered from gen<<txGenBits. A server remembers the
// last transaction id it saw from each PID for as long as it lives, and
// takes a lower or equal one for a retransmission; so an id recycled by
// its allocator (a workstation's logical-host slots) must come back under
// a higher generation, or the new owner's first transactions are dropped
// as stale, answered from the old owner's reply cache, or "reply pending"
// for ever. An incarnation numbers up to 2^txGenBits transactions, and a
// generation must not pass 2^(32-txGenBits) — 4096 re-mints of one id.
func (e *Engine) NewPortGen(pid vid.PID, gen uint32) *Port {
	if _, dup := e.ports[pid]; dup {
		panic(fmt.Sprintf("ipc: duplicate port %v", pid))
	}
	p := &Port{eng: e, pid: pid, txSeq: gen << txGenBits, peers: make(map[vid.PID]peer)}
	e.ports[pid] = p
	e.portList = append(e.portList, p)
	return p
}

// Close unregisters the port and stops its timers. Any queued requests are
// discarded; senders recover by retransmission (§3.1.3: "all queued
// messages are discarded and the remote senders are prompted to
// retransmit").
func (p *Port) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if p.send != nil {
		p.send.timer.Stop()
		p.send.wtimer.Stop()
	}
	delete(p.eng.ports, p.pid)
	p.eng.portList = slices.DeleteFunc(p.eng.portList, func(q *Port) bool { return q == p })
}

// PID returns the port's process identifier.
func (p *Port) PID() vid.PID { return p.pid }

// --------------------------------------------------------------- sending

// StartSend begins a message transaction to dst without waiting for the
// reply. The calling task is charged for any bulk fragmentation. A port
// has at most one outstanding send.
func (p *Port) StartSend(t *sim.Task, dst vid.PID, msg vid.Message) { p.startSend(t, dst, msg, nil) }

// startSend is StartSend for a message whose segment was built in buf, a
// buffer from the engine's free list that goes back there when the
// transaction is over (nil: the segment is the caller's own).
func (p *Port) startSend(t *sim.Task, dst vid.PID, msg vid.Message, buf []byte) {
	if dst.IsGroup() && len(msg.Seg) > packet.InlineSegMax {
		panic("ipc: group send with fragmented segment")
	}
	if len(msg.Seg) > vid.SegMax {
		panic(fmt.Sprintf("ipc: segment %d exceeds SegMax", len(msg.Seg)))
	}
	p.begin(t, &sendTxn{clientTxn: clientTxn{dst: dst}, msg: msg, buf: buf})
}

// begin numbers s, makes it the port's send transaction and transmits its
// request.
func (p *Port) begin(t *sim.Task, s *sendTxn) {
	if p.send != nil {
		panic(fmt.Sprintf("ipc: %v send started with send outstanding", p.pid))
	}
	p.txSeq++
	s.txid, s.group, s.lastAlive = p.txSeq, s.dst.IsGroup(), t.Now()
	p.send, p.replyBuf = s, nil
	p.transmit(t, false)
	ev := clientEv{kind: evSent, now: t.Now()}
	if p.winq == nil {
		// A lone send: a window's sends cover each other until it drains.
		ev.pto = p.eng.pto(s.msg.Op)
	}
	p.post(ev)
}

// StartGather begins a gathering send: the request is transmitted (and
// retransmitted) exactly like StartSend, but instead of completing on the
// first reply the transaction collects every distinct responder's reply
// until the window elapses: the group send the scheduling layer builds a
// cluster-load view from (§2.1).
//
// A gather to a single process has one possible responder, so its reply
// ends the gather; there the window bounds silence only — a dead or
// partitioned destination costs one window and reports CodeTimeout, where
// a plain Send would ride out its full abort timeout. Which of the two it
// is is read from dst. A group gather closes at the first reply after
// which enough, called with every reply so far in arrival order, reports
// true — a vote closes at its majority — and otherwise at its window, to
// the instant. With a nil enough it always runs its whole window, as a
// load query must: it cannot know how many members there are to hear.
//
// Replies must fit a single frame (selection answers are word-only);
// fragmented replies from concurrent responders would interleave in one
// reassembly window.
func (p *Port) StartGather(t *sim.Task, dst vid.PID, msg vid.Message, window time.Duration, enough func([]GatherReply) bool) {
	if len(msg.Seg) > packet.InlineSegMax {
		panic("ipc: gather send with fragmented segment")
	}
	s := &sendTxn{clientTxn: clientTxn{dst: dst, gather: true}, msg: msg}
	if dst.IsGroup() {
		s.seen, s.enough = make(map[vid.PID]bool), enough
	}
	p.begin(t, s)
	s.wtimer = p.eng.sim.After(window, func() {
		if p.send == s && !p.closed {
			p.post(clientEv{kind: evWindow, got: len(s.replies) > 0})
		}
	})
}

// AwaitGather blocks until the gather closes — its window elapses, its one
// destination answers, its close rule is met, or the transaction fails
// outright (no-process on a unicast probe) — returning the collected
// replies in arrival order. An empty gather reports timeout.
func (p *Port) AwaitGather(t *sim.Task) ([]GatherReply, error) {
	if s := p.send; s == nil || !s.gather {
		panic(fmt.Sprintf("ipc: %v AwaitGather without gathering send", p.pid))
	}
	s := p.await(t)
	if len(s.replies) == 0 && s.code != vid.CodeOK {
		return nil, vid.CodeError(s.code)
	}
	return s.replies, nil
}

// arm sets the timer of send s for its deadline when restart says it is
// spent (it fired, or an interval restarted) or the deadline moved earlier
// than was. A deadline that moved later (a probe spent before it came due)
// is not chased: the timer fires as a no-op and is set again then.
func (p *Port) arm(s *sendTxn, was sim.Time, restart bool) {
	if s.due == 0 || !restart && was != 0 && was <= s.due {
		return
	}
	if s.fire == nil {
		s.fire = func() { p.expire(s) }
	}
	s.timer.Stop()
	s.timer = p.eng.sim.At(s.due, s.fire)
}

// expire is the timer of send s; the step tells a tick from the tail probe.
func (p *Port) expire(s *sendTxn) {
	if e := p.eng; p.send == s && !p.closed {
		p.post(clientEv{kind: evTimer, now: e.sim.Now(), suspected: e.Suspected(s.mac), heard: e.heard[s.mac], noRebind: e.NoRebind})
	}
}

// post steps the port's send transaction, if any, by ev, carries out what
// the step decides, and then sets the timer for the deadline it leaves.
func (p *Port) post(ev clientEv) {
	s := p.send
	if s == nil {
		return
	}
	was, restart := s.due, ev.kind == evTimer
	var act clientAct
	s.clientTxn, act = s.step(ev)
	switch act {
	case actFinish:
		s.timer.Stop()
		s.wtimer.Stop()
		// Answered or not, the request will not be repaired again.
		p.eng.dropFragSource(reasmKey{src: p.pid, dst: s.dst, txid: s.txid, kind: packet.KRequest})
		p.replyWait.WakeAll()
		if p.winq != nil {
			p.winq.WakeAll()
		}
	case actSuspect:
		p.eng.suspectStation(s.mac, s.lastAlive)
	case actRelocate:
		p.eng.InvalidateCache(s.dst.LH())
		fallthrough
	case actRetry:
		p.retransmit(false)
		restart = true
	case actResend, actProbe:
		p.retransmit(act == actProbe)
	}
	p.arm(s, was, restart)
}

// retransmit re-sends the current request via the network daemon, which
// counts it once it executes; probe says it is the tail probe.
func (p *Port) retransmit(probe bool) {
	s := p.send
	p.eng.jobs.Push(job{fn: func(t *sim.Task) {
		if p.send == s && !s.done && !p.closed {
			p.eng.stats.Retransmits++
			if probe {
				p.eng.stats.Probes++
			}
			p.eng.publish(trace.Event{Kind: trace.EvPktRetx, Pkt: &packet.Packet{
				Kind: packet.KRequest, TxID: s.txid, Src: p.pid, Dst: s.dst,
			}})
			p.transmit(t, true)
		}
	}})
}

// transmit routes and transmits the current request. retrans indicates a
// retransmission, for which a fragmented segment resends only its summary
// (the receiver NACKs any missing fragments).
func (p *Port) transmit(t *sim.Task, retrans bool) {
	s := p.send
	s.reading++
	defer func() { s.reading-- }()
	// The packet is a value: what goes on the wire is marshalled from the
	// engine's transmit scratch, and only a local delivery, which is queued,
	// needs a packet of its own.
	pkt := packet.Packet{Kind: packet.KRequest, TxID: s.txid, Src: p.pid, Dst: s.dst, Msg: s.msg}
	mac, local, ok := p.eng.route(s.dst)
	if !ok {
		return // locate broadcast in flight; retry on next tick
	}
	if local || s.group {
		if s.group {
			// Wire multicast (member stations' receive filters accept it)
			// plus fan-out to local members.
			p.eng.sendNow(t, &pkt, mac)
		}
		cp := pkt
		s.buf = nil // the receivers get the segment itself, not a copy
		p.eng.emitLocal(&cp)
		return
	}
	// s.mac keeps the last station actually transmitted to. It survives a
	// route() miss on purpose: after LocateAfterRetries the binding is
	// invalidated, and continued silence must still condemn the station we
	// were talking to. A transaction that never resolved a route keeps
	// mac == 0 and can only abort by timeout ("unlocated" is not "dead").
	s.mac = mac
	key := reasmKey{src: p.pid, dst: s.dst, txid: s.txid, kind: packet.KRequest}
	if fs := p.eng.txBuf[key]; fs != nil && retrans {
		p.eng.cpu.Use(t, params.SmallPktSendCPU, params.PrioKernel)
		p.eng.transmitFrame(t, fs.summary, mac, false)
		return
	}
	if packet.NumFrags(len(s.msg.Seg)) > 0 {
		p.eng.sendFragged(t, &pkt, mac, s)
		return
	}
	p.eng.sendNow(t, &pkt, mac)
}

// AwaitReply blocks until the outstanding send completes, returning the
// reply message. On failure the error is a vid.CodeError (timeout,
// no-process, aborted).
func (p *Port) AwaitReply(t *sim.Task) (vid.Message, error) {
	if p.send == nil {
		panic(fmt.Sprintf("ipc: %v AwaitReply without send", p.pid))
	}
	s := p.await(t)
	if s.code != vid.CodeOK {
		return vid.Message{}, vid.CodeError(s.code)
	}
	return s.reply, nil
}

// await blocks until the send transaction is over, and ends it.
func (p *Port) await(t *sim.Task) *sendTxn {
	s := p.send
	for !s.done {
		p.replyWait.Wait(t)
	}
	p.send = nil
	return s
}

// ReleaseReply tells the port that the caller is finished with the segment
// of the reply its last AwaitReply (or Send) returned: it has copied out
// what it wants and kept no slice of it. If the segment was reassembled
// from fragments its buffer goes back to the engine for the next one.
// Never calling it is always safe — the segment then stays the caller's,
// and falls to the collector when dropped.
func (p *Port) ReleaseReply() {
	if p.replyBuf != nil {
		p.eng.segs.Put(p.replyBuf)
		p.replyBuf = nil
	}
}

// Sending reports whether a send transaction is outstanding.
func (p *Port) Sending() bool { return p.send != nil }

// Send performs a complete blocking message transaction.
func (p *Port) Send(t *sim.Task, dst vid.PID, msg vid.Message) (vid.Message, error) {
	p.StartSend(t, dst, msg)
	return p.AwaitReply(t)
}

// answered takes a reply the send transaction awaits, its segment a slice of
// the reassembly buffer lent if that is not nil. A gather keeps each
// responder's first reply (a retransmitted query is answered again from its
// reply cache) and asks its close rule whether they are enough.
func (p *Port) answered(src vid.PID, msg vid.Message, lent []byte) {
	s := p.send
	ev := clientEv{kind: evReply, txid: s.txid}
	switch {
	case !s.gather:
		s.reply, p.replyBuf = msg, lent
		if !s.group && s.mac != 0 {
			// A round trip over the wire: local deliveries are not probed.
			p.eng.sampleRTT(s.msg.Op, p.eng.sim.Now().Sub(s.sent))
		}
	case s.seen[src]:
		return
	default:
		s.replies = append(s.replies, GatherReply{Src: src, Msg: msg})
		if s.seen != nil {
			s.seen[src] = true
		}
		ev.enough = s.enough != nil && s.enough(s.replies)
	}
	p.post(ev)
}

// AbortTo ends the port's outstanding transaction with CodeAborted if it is
// addressed to dst: its owner has learnt from elsewhere that dst is dead
// (a restarted peer announced its new PID), and a dead PID is otherwise
// learnt only by riding out the whole abort timeout — V lets stale
// identities die silently.
func (p *Port) AbortTo(dst vid.PID) { p.post(clientEv{kind: evAbort, dst: dst}) }

// -------------------------------------------------------------- receiving

// serve steps what the port knows of src by ev and keeps the result.
func (p *Port) serve(src vid.PID, ev serverEv) serverAct {
	pr, act := p.peers[src].step(ev)
	p.peers[src] = pr
	return act
}

// request takes an arriving request, from station from, as what the port
// knows of its sender decides (peer.step).
func (p *Port) request(req *packet.Packet, from ethernet.MAC) {
	e := p.eng
	fs := e.txBuf[reasmKey{src: p.pid, dst: req.Src, txid: req.TxID, kind: packet.KReply}]
	pr, act := p.peers[req.Src].step(serverEv{
		kind: evRequest, now: e.sim.Now(), txid: req.TxID, local: from == e.nic.MAC(),
		held: fs != nil, sending: fs != nil && fs.sending,
	})
	switch act {
	case srvStale:
		e.stats.DroppedStale++
	case srvPending:
		e.replyPending(req, from)
	case srvAccept:
		// Only a request accepted as new is reassembled, and one whose
		// segment is not whole has not arrived: the peer stays as it was.
		lent, ok := e.completeSeg(req, from)
		if !ok {
			return
		}
		p.rq = append(p.rq, &Req{Src: req.Src, txid: req.TxID, Msg: req.Msg, from: from, buf: lent})
		p.reqWait.WakeOne()
	case srvSummary:
		e.stats.RepliesFromCache++
		e.emit(fs.summary, from)
	case srvWhole:
		e.stats.RepliesFromCache++
		src, c := req.Src, pr.cache
		e.jobs.Push(job{fn: func(t *sim.Task) { p.emitReply(t, src, c.txid, c.msg, c.lh, from) }})
	}
	p.peers[req.Src] = pr
}

// ReleaseSeg tells the port that the server is finished with the segment
// of a request it received: it has copied out what it wants and kept no
// slice of it. r.Msg.Seg is gone afterwards; if it was reassembled from
// fragments its buffer goes back to the engine for the next one. Never
// calling it is always safe — the segment then stays the server's, and
// falls to the collector when dropped.
func (p *Port) ReleaseSeg(r *Req) {
	r.Msg.Seg = nil
	if r.buf != nil {
		p.eng.segs.Put(r.buf)
		r.buf = nil
	}
}

// armSweep drops the cached reply c to src at the peer's deadline: one timer
// per entry, re-armed when answers from c have moved the deadline.
func (p *Port) armSweep(src vid.PID, c *cachedReply) {
	p.eng.sim.After(p.peers[src].deadline.Sub(p.eng.sim.Now()), func() {
		if p.serve(src, serverEv{kind: evSwept, now: p.eng.sim.Now(), cache: c}) == srvSweep {
			p.armSweep(src, c)
		}
	})
}

// Receive blocks until a request arrives. The request stays open (further
// retransmissions from its sender get reply-pending packets) until Reply.
func (p *Port) Receive(t *sim.Task) *Req {
	for len(p.rq) == 0 {
		p.reqWait.Wait(t)
	}
	return p.take()
}

// ReceiveTimeout is Receive with a deadline; nil if it expired.
func (p *Port) ReceiveTimeout(t *sim.Task, d time.Duration) *Req {
	deadline := t.Now().Add(d)
	for len(p.rq) == 0 {
		remain := deadline.Sub(t.Now())
		if remain <= 0 {
			return nil
		}
		if p.reqWait.WaitTimeout(t, remain) == sim.WakeTimeout && len(p.rq) == 0 {
			return nil
		}
	}
	return p.take()
}

func (p *Port) take() *Req {
	r := p.rq[0]
	p.rq = p.rq[1:]
	p.serve(r.Src, serverEv{kind: evReceived, req: r})
	return r
}

// Reply completes a received request. The reply is cached so duplicate
// retransmissions (including from a sender recovering after migration) can
// be answered without re-executing the operation.
func (p *Port) Reply(t *sim.Task, r *Req, msg vid.Message) { p.ReplyNaming(t, r, msg, 0) }

// ReplyNaming is Reply for a server that has just made logical host lh
// resident on this station (a program manager answering a create): the
// reply's header names lh, and its receiver learns the binding from it as
// from a locate response, so the next message it sends lh needs no locate.
// A cached copy names lh too.
func (p *Port) ReplyNaming(t *sim.Task, r *Req, msg vid.Message, lh vid.LHID) {
	c := &cachedReply{txid: r.txid, msg: msg, lh: lh}
	if p.serve(r.Src, serverEv{kind: evReplied, now: t.Now(), req: r, cache: c}) == srvSweep {
		p.armSweep(r.Src, c)
	}
	p.emitReply(t, r.Src, r.txid, msg, lh, r.from)
}

// emitReply routes and transmits a reply naming lh (0 for none).
func (p *Port) emitReply(t *sim.Task, dst vid.PID, txid uint32, msg vid.Message, lh vid.LHID, lastFrom ethernet.MAC) {
	pkt := packet.Packet{Kind: packet.KReply, TxID: txid, Src: p.pid, Dst: dst, LH: lh, Msg: msg}
	mac, local, ok := p.eng.route(dst)
	if !ok {
		// Sender location unknown (it migrated and our cache was
		// invalidated): fall back to where the request came from; a
		// duplicate request will refresh the route.
		mac = lastFrom
		local = mac == p.eng.nic.MAC()
	}
	if local {
		cp := pkt
		p.eng.emitLocal(&cp)
		return
	}
	if packet.NumFrags(len(msg.Seg)) > 0 {
		p.eng.sendFragged(t, &pkt, mac, nil)
		return
	}
	p.eng.sendNow(t, &pkt, mac)
}

// OpenRequest returns the open (received, unreplied) request from the given
// sender, if any. Used after a port restore to re-derive request handles.
func (p *Port) OpenRequest(src vid.PID) *Req { return p.peers[src].open }

// Drop abandons a received request without replying — a group member
// declining to answer a group query (host selection expects only willing
// hosts to respond, §2.1). The sender completes via another member's reply
// or aborts on its group timeout; duplicates of the dropped request are
// answered with reply-pending.
func (p *Port) Drop(r *Req) { p.serve(r.Src, serverEv{kind: evDropped, req: r}) }

// OpenRequests returns all open (received, unreplied) requests, ordered by
// sender for determinism. A restored server body uses this to finish
// requests that were mid-service when its logical host migrated.
func (p *Port) OpenRequests() []*Req {
	var out []*Req
	for _, src := range slices.Sorted(maps.Keys(p.peers)) {
		if r := p.peers[src].open; r != nil {
			out = append(out, r)
		}
	}
	return out
}
