package ipc

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/freelist"
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
	replyBuf  []byte // lent buffer the last reply's segment is a slice of, if any
	outBuf    []byte // lent by ReplyBuf for the next reply's segment
	replyWait sim.WaitQ
	winq      *sim.WaitQ // owning bulk-transfer window's harvest queue, if any

	// The send timer's and the gather window's callbacks, bound once, and
	// the transaction each was last set for: one that fires for an earlier
	// transaction finds another txid and does nothing.
	fire, shut     func()
	fireTx, shutTx uint32

	rq      []*Req
	reqWait sim.WaitQ
	peers   map[vid.PID]peer // what the port knows of each sender
	// replies holds the reply each peer's cache names, by value, while it
	// does; made at the first (most ports never reply). A port remembers
	// every sender it has heard for good, so the reply is kept apart from
	// peers, whose values stay small.
	replies map[vid.PID]cachedReply
	// holds counts what of the port's own may still reach it from the
	// engine: retransmission jobs and resends from the reply cache queued
	// on netd, and sweeps pending. A closed port is reused only at zero; a
	// job a crash discards never comes back, and keeps it from reuse.
	holds  int
	closed bool
}

// cachedReply is the reply last sent a sender.
type cachedReply struct {
	msg vid.Message
	lh  vid.LHID  // the logical host the reply names (ReplyNaming), 0 for none
	seg *replySeg // msg.Seg's lent buffer, held while cached (ReplyBuf)
}

// sendTxn is a send transaction: its decision state and the engine's part.
// What a finished one's callbacks still reach — timers, netd's
// retransmission jobs — tells it apart by txid.
type sendTxn struct {
	clientTxn
	msg   vid.Message
	reply vid.Message

	// One timer serves the transaction, set for its deadline (arm).
	timer sim.Timer

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

// sweep is one pending expiry of a reply cached for src: the reply to txid.
// Its callback is bound once; the engine keeps it for the next cached reply
// once the sweep is over.
type sweep struct {
	p    *Port
	src  vid.PID
	txid uint32
	fire func()
}

// GatherReply is one responder's answer to a gathering send.
type GatherReply struct {
	Src vid.PID
	Msg vid.Message
}

// Req is a received request awaiting its reply. Servers that defer replies
// (for example the program manager holding a wait-for-program-exit request)
// hold several Reqs open at once, one per sender. Reply, ReplyNaming or Drop
// hands the Req back to the engine for a request yet to arrive: a server
// reads nothing of it afterwards and answers it once, so one that holds
// Reqs in a list takes each out before it answers it. Under poisoning a
// second answer panics until the Req is reused; after that it answers the
// new request's sender.
type Req struct {
	Src   vid.PID
	Msg   vid.Message
	txid  uint32
	from  ethernet.MAC
	again bool
	buf   []byte // the lent buffer Msg.Seg is a slice of, if any (completeSeg)
	short []byte // a short segment's buffer a server released, for the next (takeInline)
}

// TxID exposes the request's transaction id — stable across the sender's
// retransmissions, so servers can derive per-transaction deterministic
// choices from it (e.g. a response-dally slot).
func (r *Req) TxID() uint32 { return r.txid }

// Again reports whether the port dropped an earlier copy of the request
// (Drop): this is the sender's retransmission, received as new.
func (r *Req) Again() bool { return r.again }

// clearReq readies a Req handed back (Reply, ReplyNaming, Drop) for the
// next request: its segment stays the server's unless it was released
// (ReleaseSeg), whose short buffer the Req keeps.
func clearReq(r *Req, _ bool) (*Req, bool) {
	*r = Req{short: r.short}
	return r, true
}

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
//
// The port may be made in the record of one closed before (Close): what is
// reused is storage, never identity.
func (e *Engine) NewPortGen(pid vid.PID, gen uint32) *Port {
	if _, dup := e.ports[pid]; dup {
		panic(fmt.Sprintf("ipc: duplicate port %v", pid))
	}
	p := e.closedPorts.Get()
	p.eng, p.pid, p.txSeq, p.closed = e, pid, gen<<txGenBits, false
	e.ports[pid] = p
	e.portList = append(e.portList, p)
	return p
}

// Close unregisters the port and stops its timers. Any queued requests are
// discarded; senders recover by retransmission (§3.1.3: "all queued
// messages are discarded and the remote senders are prompted to
// retransmit"). The engine keeps the record for a port yet to be made if
// nothing can reach it any more (reusePort): close a port once, and touch
// it no more — it may be another port's afterwards.
func (p *Port) Close() {
	if !p.closed {
		p.unregister()
		p.eng.closedPorts.Put(p)
	}
}

// unregister closes the port: it stops its timers and leaves the engine's
// tables.
func (p *Port) unregister() {
	p.closed = true
	if p.send != nil {
		p.send.timer.Stop()
		p.send.wtimer.Stop()
	}
	delete(p.eng.ports, p.pid)
	p.eng.portList = slices.DeleteFunc(p.eng.portList, func(q *Port) bool { return q == p })
}

// reusePort readies a closed port's record for the next NewPortGen, unless
// anything but its owner can still reach it: a transaction under way (a
// task may await it), a request queued, held open or awaited, a reply
// cached, or anything of its own queued on netd or pending (holds).
func reusePort(p *Port, _ bool) (*Port, bool) {
	if p.send != nil || len(p.rq) > 0 || p.reqWait.Len() > 0 || len(p.replies) > 0 || p.holds > 0 {
		return p, false
	}
	for _, pr := range p.peers {
		if pr.open != nil {
			return p, false
		}
	}
	clear(p.peers)
	p.replyBuf, p.outBuf, p.winq, p.fireTx, p.shutTx = nil, nil, nil, 0, 0
	return p, true
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
	s := p.fresh()
	s.clientTxn, s.msg, s.buf = clientTxn{dst: dst}, msg, buf
	p.begin(t, s)
}

// fresh returns a zeroed send transaction. A gather's replies are the
// caller's, so they are never reused.
func (p *Port) fresh() *sendTxn {
	s := p.eng.txns.Get()
	*s = sendTxn{}
	return s
}

// begin numbers s, makes it the port's send transaction and transmits its
// request.
func (p *Port) begin(t *sim.Task, s *sendTxn) {
	freelist.Check(&p.eng.closedPorts, p)
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
	s := p.fresh()
	s.clientTxn, s.msg = clientTxn{dst: dst, gather: true}, msg
	if dst.IsGroup() {
		s.seen, s.enough = make(map[vid.PID]bool), enough
	}
	p.begin(t, s)
	if p.shut == nil {
		p.shut = p.windowEnd
	}
	p.shutTx = s.txid
	s.wtimer = p.eng.sim.After(window, p.shut)
}

// windowEnd is the gather window's timer.
func (p *Port) windowEnd() {
	if s := p.send; s != nil && s.txid == p.shutTx && !p.closed {
		p.post(clientEv{kind: evWindow, got: len(s.replies) > 0})
	}
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
	if p.fire == nil {
		p.fire = p.expire
	}
	s.timer.Stop()
	p.fireTx = s.txid
	s.timer = p.eng.sim.At(s.due, p.fire)
}

// expire is the send timer; the step tells a tick from the tail probe.
func (p *Port) expire() {
	if s, e := p.send, p.eng; s != nil && s.txid == p.fireTx && !p.closed {
		p.post(clientEv{kind: evTimer, now: e.sim.Now(), suspected: e.Suspected(s.mac), heard: e.heard[s.mac]})
	}
}

// post steps the port's send transaction, if any, by ev, carries out what
// the step decides, and then sets the timer for the deadline it leaves.
func (p *Port) post(ev clientEv) {
	s := p.send
	if s == nil {
		return
	}
	freelist.Check(&p.eng.txns, s)
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
// counts it once it executes (resend); probe says it is the tail probe.
func (p *Port) retransmit(probe bool) {
	p.holds++
	p.eng.jobs.Push(job{retx: p, txid: p.send.txid, probe: probe})
}

// resend is a retransmission job on netd: it re-sends transaction txid if
// that is still the port's, and unfinished.
func (p *Port) resend(t *sim.Task, txid uint32, probe bool) {
	p.holds--
	s, e := p.send, p.eng
	if s == nil || s.txid != txid || s.done || p.closed {
		return
	}
	e.stats.Retransmits++
	if probe {
		e.stats.Probes++
	}
	// The transmit scratch is free: this task has not blocked since it was
	// last finished with, and subscribers keep nothing of Event.Pkt.
	e.tx = packet.Packet{Kind: packet.KRequest, TxID: txid, Src: p.pid, Dst: s.dst}
	e.publish(trace.Event{Kind: trace.EvPktRetx, Pkt: &e.tx})
	p.transmit(t, true)
}

// transmit routes and transmits the current request. retrans indicates a
// retransmission, for which a fragmented segment resends only its summary
// (the receiver NACKs any missing fragments).
func (p *Port) transmit(t *sim.Task, retrans bool) {
	s := p.send
	freelist.Check(&p.eng.txns, s)
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
		fs.refs++ // the transaction can end, and drop it, while the task is charged
		p.eng.cpu.Use(t, params.SmallPktSendCPU, params.PrioKernel)
		p.eng.transmitFrame(t, &fs.summary, mac, false)
		p.eng.release(fs)
		return
	}
	if packet.NumFrags(len(s.msg.Seg)) > 0 {
		p.eng.sendFragged(t, &pkt, mac, s, nil)
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

// await blocks until the send transaction is over, and ends it. The engine
// reuses s for a later send unless a task still reads its segment: the
// caller reads what it needs of s before it can block.
func (p *Port) await(t *sim.Task) *sendTxn {
	s := p.send
	for !s.done {
		p.replyWait.Wait(t)
	}
	p.send = nil
	if s.reading == 0 {
		p.eng.txns.Put(s)
	}
	return s
}

// ReleaseReply tells the port that the caller is finished with the segment
// of the reply its last AwaitReply (or Send) returned: it has copied out
// what it wants and kept no slice of it. If the segment lies in a buffer
// the engine lent — reassembled from fragments, or a long inline one in its
// frame — the buffer goes back for the next one. Never calling it is
// always safe — the segment then stays the caller's, and falls to the
// collector when dropped.
func (p *Port) ReleaseReply() {
	if p.replyBuf != nil {
		p.eng.putSeg(p.replyBuf)
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

// serve steps what the port knows of src by ev and keeps the result; a
// reply the step no longer caches is let go.
func (p *Port) serve(src vid.PID, ev serverEv) serverAct {
	was := p.peers[src]
	pr, act := was.step(ev)
	if was.cache != 0 && pr.cache == 0 {
		p.eng.letGo(p.replies[src].seg)
		delete(p.replies, src)
	}
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
	case srvAccept, srvAgain:
		// Only a request accepted as new is reassembled, and one whose
		// segment is not whole has not arrived: the peer stays as it was.
		r := e.reqs.Get()
		lent, ok := e.completeSeg(req, from, &r.short)
		if !ok {
			e.reqs.Put(r)
			return
		}
		*r = Req{Src: req.Src, txid: req.TxID, Msg: req.Msg, from: from, buf: lent, short: r.short, again: act == srvAgain}
		p.rq = append(p.rq, r)
		p.reqWait.WakeOne()
	case srvSummary:
		e.stats.RepliesFromCache++
		fs.refs++
		e.jobs.Push(job{sum: fs, dst: from})
	case srvWhole:
		e.stats.RepliesFromCache++
		src, txid, c := req.Src, pr.cache, p.replies[req.Src]
		c.seg.hold()
		p.holds++
		e.jobs.Push(job{fn: func(t *sim.Task) {
			p.emitReply(t, src, txid, c.msg, c.lh, from, c.seg)
			e.letGo(c.seg)
			p.holds--
		}})
	}
	p.peers[req.Src] = pr
}

// ReleaseSeg tells the port that the server is finished with the segment
// of a request it received: it has copied out what it wants and kept no
// slice of it. r.Msg.Seg is gone afterwards; if it lies in a buffer the
// engine lent — reassembled from fragments, or a long inline one in its
// frame — the buffer goes back for the next one. Never calling it is
// always safe — the segment then stays the server's, and falls to the
// collector when dropped.
func (p *Port) ReleaseSeg(r *Req) {
	r.Msg.Seg = nil
	switch {
	case cap(r.buf) >= lendInlineMin:
		p.eng.putSeg(r.buf)
	case r.buf != nil:
		r.short = r.buf // a short segment's copy: the Req's next one goes in it
	}
	r.buf = nil
}

// KeepSeg returns the segment of a request the server received as the
// server's own to keep: r.Msg.Seg itself — a short one was copied out of
// its frame — unless it lies in a buffer the engine lent, which is then
// copied out and handed back (ReleaseSeg).
func (p *Port) KeepSeg(r *Req) []byte {
	if cap(r.buf) < lendInlineMin {
		r.buf = nil
		return r.Msg.Seg
	}
	seg := slices.Clone(r.Msg.Seg)
	p.ReleaseSeg(r)
	r.Msg.Seg = seg
	return seg
}

// ReplyBuf returns an empty buffer the engine lends, of capacity at least
// n, to build the segment of the port's next reply in (Reply, ReplyNaming,
// from the same task before it blocks). A reply whose segment lies in it
// takes it: the buffer goes back once nothing reads the reply any more —
// the reply cache has swept it (ReplyCacheTTL after its last answer), the
// repair buffer of a fragmented one has expired, and no resend from the
// cache is under way. A local receiver gets a copy, as it keeps what it is
// given. The server must not touch the segment after the reply; a buffer
// the reply does not take goes back with it.
func (p *Port) ReplyBuf(n int) []byte {
	if cap(p.outBuf) < n {
		if p.outBuf != nil {
			p.eng.putSeg(p.outBuf)
		}
		p.outBuf = p.eng.getSeg(n)
	}
	return p.outBuf[:0]
}

// takeOutBuf hands the reply segment seg the buffer ReplyBuf lent, if seg
// lies in it (the reply's first holder), or else back to the engine.
func (p *Port) takeOutBuf(seg []byte) *replySeg {
	b := p.outBuf
	if b == nil {
		return nil
	}
	p.outBuf = nil
	if cap(seg) == 0 || &seg[:cap(seg)][cap(seg)-1] != &b[:cap(b)][cap(b)-1] {
		p.eng.putSeg(b)
		return nil
	}
	return p.eng.lendReply(b)
}

// cacheReply holds c as the reply to txid the peer src caches, in place of
// any it cached before, and arms its sweep.
func (p *Port) cacheReply(src vid.PID, txid uint32, c cachedReply) {
	if p.replies == nil {
		p.replies = make(map[vid.PID]cachedReply)
	}
	p.eng.letGo(p.replies[src].seg)
	p.replies[src] = c
	p.armSweep(src, txid)
}

// armSweep drops the reply to txid cached for src at the peer's deadline:
// one timer per entry, re-armed when answers from the cache have moved the
// deadline.
func (p *Port) armSweep(src vid.PID, txid uint32) {
	sw := p.eng.sweeps.Get()
	sw.p, sw.src, sw.txid = p, src, txid
	p.holds++
	sw.arm()
}

// arm sets the sweep's timer for its peer's deadline.
func (sw *sweep) arm() {
	p := sw.p
	p.eng.sim.After(p.peers[sw.src].deadline.Sub(p.eng.sim.Now()), sw.fire)
}

// due is the sweep's timer.
func (sw *sweep) due() {
	p := sw.p
	freelist.Check(&p.eng.sweeps, sw)
	if p.serve(sw.src, serverEv{kind: evSwept, now: p.eng.sim.Now(), txid: sw.txid}) == srvSweep {
		sw.arm()
		return
	}
	p.holds--
	p.eng.sweeps.Put(sw)
}

// Receive blocks until a request arrives. The request stays open (further
// retransmissions from its sender get reply-pending packets) until Reply.
func (p *Port) Receive(t *sim.Task) *Req {
	freelist.Check(&p.eng.closedPorts, p)
	for len(p.rq) == 0 {
		p.reqWait.Wait(t)
	}
	return p.take()
}

// ReceiveTimeout is Receive with a deadline; nil if it expired.
func (p *Port) ReceiveTimeout(t *sim.Task, d time.Duration) *Req {
	freelist.Check(&p.eng.closedPorts, p)
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
	n := copy(p.rq, p.rq[1:])
	p.rq[n] = nil
	p.rq = p.rq[:n]
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
	freelist.Check(&p.eng.reqs, r)
	src, txid, from := r.Src, r.txid, r.from
	lent := p.takeOutBuf(msg.Seg)
	if p.serve(src, serverEv{kind: evReplied, now: t.Now(), req: r}) == srvSweep {
		p.cacheReply(src, txid, cachedReply{msg: msg, lh: lh, seg: lent.hold()})
	}
	p.eng.reqs.Put(r)
	p.emitReply(t, src, txid, msg, lh, from, lent)
	p.eng.letGo(lent)
}

// emitReply routes and transmits a reply naming lh (0 for none), its
// segment in the lent buffer lent if that is not nil.
func (p *Port) emitReply(t *sim.Task, dst vid.PID, txid uint32, msg vid.Message, lh vid.LHID, lastFrom ethernet.MAC, lent *replySeg) {
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
		if lent != nil {
			cp.Msg.Seg = slices.Clone(msg.Seg)
		}
		p.eng.emitLocal(&cp)
		return
	}
	if packet.NumFrags(len(msg.Seg)) > 0 {
		p.eng.sendFragged(t, &pkt, mac, nil, lent)
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
// or aborts on its group timeout. The sender's next copy of the dropped
// request is received as new (Req.Again), so a member that can serve it by
// then answers it.
func (p *Port) Drop(r *Req) {
	freelist.Check(&p.eng.reqs, r)
	p.serve(r.Src, serverEv{kind: evDropped, req: r})
	p.eng.reqs.Put(r)
}

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
