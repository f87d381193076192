package ipc

import (
	"fmt"
	"sort"
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
	open    map[vid.PID]*Req // received, not yet replied; one per sender
	reqWait sim.WaitQ

	lastFrom   map[vid.PID]uint32
	replyCache map[vid.PID]*cachedReply
	closed     bool
}

type sendTxn struct {
	txid   uint32
	dst    vid.PID
	msg    vid.Message
	group  bool
	done   bool
	reply  vid.Message
	code   uint16 // failure code when done && code != OK
	silent int    // retransmissions since last evidence of life
	timer  sim.Timer

	// buf is the buffer msg.Seg was built in when it is the engine's to
	// reuse once the transaction is over (Window.SegBuf), else nil.
	// reading counts the tasks that are part-way through transmitting
	// msg.Seg — blocked between two frames, or before marshalling an inline
	// request — and so must still find it intact when they resume, however
	// the transaction has fared meanwhile.
	buf     []byte
	reading int

	// Failure-detector evidence: the station the request was last
	// transmitted to (0 until a unicast route resolved) and the last
	// moment the transaction had evidence the destination was alive.
	mac       ethernet.MAC
	lastAlive sim.Time

	// Gather mode (StartGather): collect every reply that arrives within
	// the window instead of completing on the first one.
	gather  bool
	replies []GatherReply
	seen    map[vid.PID]bool         // group gather: responders already recorded (dedup)
	enough  func([]GatherReply) bool // group gather: closes it early once true; nil never
	wtimer  sim.Timer                // window expiry
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

type cachedReply struct {
	txid    uint32
	msg     vid.Message
	lh      vid.LHID // the logical host the reply names (ReplyNaming), 0 for none
	expires sim.Time
}

// HasPort reports whether a port is currently registered under the PID.
// Allocators of private port-id ranges (the pager's 0xF000 block) use it
// to skip ids whose previous incarnation still has a transaction parked.
func (e *Engine) HasPort(pid vid.PID) bool {
	_, ok := e.ports[pid]
	return ok
}

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
	p := &Port{
		eng:        e,
		pid:        pid,
		txSeq:      gen << txGenBits,
		open:       make(map[vid.PID]*Req),
		lastFrom:   make(map[vid.PID]uint32),
		replyCache: make(map[vid.PID]*cachedReply),
	}
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
	for i, q := range p.eng.portList {
		if q == p {
			p.eng.portList = append(p.eng.portList[:i], p.eng.portList[i+1:]...)
			break
		}
	}
}

// PID returns the port's process identifier.
func (p *Port) PID() vid.PID { return p.pid }

// --------------------------------------------------------------- sending

// StartSend begins a message transaction to dst without waiting for the
// reply. The calling task is charged for any bulk fragmentation. A port
// has at most one outstanding send.
func (p *Port) StartSend(t *sim.Task, dst vid.PID, msg vid.Message) {
	p.startSend(t, dst, msg, nil)
}

// startSend is StartSend for a message whose segment was built in buf, a
// buffer from the engine's free list that goes back there when the
// transaction is over (nil: the segment is the caller's own).
func (p *Port) startSend(t *sim.Task, dst vid.PID, msg vid.Message, buf []byte) {
	if p.send != nil {
		panic(fmt.Sprintf("ipc: %v StartSend with send outstanding", p.pid))
	}
	if dst.IsGroup() && len(msg.Seg) > packet.InlineSegMax {
		panic("ipc: group send with fragmented segment")
	}
	if len(msg.Seg) > vid.SegMax {
		panic(fmt.Sprintf("ipc: segment %d exceeds SegMax", len(msg.Seg)))
	}
	p.txSeq++
	s := &sendTxn{txid: p.txSeq, dst: dst, msg: msg, group: dst.IsGroup(), lastAlive: t.Now(), buf: buf}
	p.send, p.replyBuf = s, nil
	p.transmitOn(t, false)
	p.armTimer()
}

// StartGather begins a gathering send: the request is transmitted (and
// retransmitted) exactly like StartSend, but instead of completing on the
// first reply the transaction collects every distinct responder's reply
// until the window elapses. This is the generalized group-send path the
// scheduling layer uses to build a cluster-load view from one multicast
// (§2.1). The first-reply fast path (StartSend/AwaitReply) is untouched.
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
	if p.send != nil {
		panic(fmt.Sprintf("ipc: %v StartGather with send outstanding", p.pid))
	}
	if len(msg.Seg) > packet.InlineSegMax {
		panic("ipc: gather send with fragmented segment")
	}
	p.txSeq++
	s := &sendTxn{
		txid: p.txSeq, dst: dst, msg: msg, lastAlive: t.Now(),
		group: dst.IsGroup(), gather: true,
	}
	if s.group {
		s.seen = make(map[vid.PID]bool)
		s.enough = enough
	}
	p.send, p.replyBuf = s, nil
	p.transmitOn(t, false)
	p.armTimer()
	s.wtimer = p.eng.sim.After(window, func() { p.endGather(s) })
}

// endGather closes a gathering send: its window has elapsed, its one
// possible responder has answered, or its replies are enough.
func (p *Port) endGather(s *sendTxn) {
	if p.send != s || s.done || p.closed {
		return
	}
	s.done = true
	s.timer.Stop()
	s.wtimer.Stop()
	if len(s.replies) == 0 {
		s.code = vid.CodeTimeout
	}
	p.replyWait.WakeAll()
}

// addGatherReply records one responder's reply, ignoring duplicates (a
// retransmitted query answered from the responder's reply cache). A gather
// to one process is over with it: nobody else can answer, and a duplicate
// that arrives later falls on the stale-txid check like any late reply. A
// group gather is over with it when its close rule says so.
func (p *Port) addGatherReply(src vid.PID, msg vid.Message) {
	s := p.send
	if s == nil || s.done || !s.gather || s.seen[src] {
		return
	}
	s.replies = append(s.replies, GatherReply{Src: src, Msg: msg})
	if !s.group || (s.enough != nil && s.enough(s.replies)) {
		p.endGather(s)
		return
	}
	s.seen[src] = true
}

// AwaitGather blocks until the gather closes — its window elapses, its one
// destination answers, its close rule is met, or the transaction fails
// outright (no-process on a unicast probe) — returning the collected
// replies in arrival order. An empty gather reports timeout.
func (p *Port) AwaitGather(t *sim.Task) ([]GatherReply, error) {
	s := p.send
	if s == nil || !s.gather {
		panic(fmt.Sprintf("ipc: %v AwaitGather without gathering send", p.pid))
	}
	for !s.done {
		p.replyWait.Wait(t)
	}
	p.send = nil
	if len(s.replies) == 0 && s.code != vid.CodeOK {
		return nil, vid.CodeError(s.code)
	}
	return s.replies, nil
}

// armTimer schedules the retransmission/abort timer for the current send.
func (p *Port) armTimer() {
	s := p.send
	s.timer = p.eng.sim.After(params.RetransmitInterval, func() { p.tick(s) })
}

// tick is one retransmission interval elapsing with no completion.
func (p *Port) tick(s *sendTxn) {
	if p.send != s || s.done || p.closed {
		return
	}
	s.silent++
	if !s.group && !s.gather && s.mac != 0 && p.eng.noteSilence(p, s) {
		// The destination's station is suspected dead: the transaction was
		// failed fast with CodeHostDown instead of riding out the abort.
		return
	}
	limit := params.AbortAfterRetries
	if s.group {
		limit = params.GroupAbortAfterRetries
	}
	if s.silent > limit && !s.gather {
		// Gathering sends never abort on silence: the window timer owns
		// their termination (an empty gather reports timeout there).
		p.failSend(s.txid, vid.CodeTimeout)
		return
	}
	if s.silent >= params.LocateAfterRetries && !s.group && !s.dst.IsGroup() && !p.eng.NoRebind {
		// §3.1.4: after a small number of unanswered retransmissions the
		// cache entry for the logical host is invalidated and the
		// reference is re-derived by broadcast.
		p.eng.InvalidateCache(s.dst.LH())
	}
	p.retransmit()
	p.armTimer()
}

// retransmit re-sends the current request via the network daemon. Both the
// timer path (tick) and the binding-prompted path (Engine.retryWaiters) go
// through here, so the resend is counted exactly once, when it actually
// executes.
func (p *Port) retransmit() {
	s := p.send
	if s == nil || s.done {
		return
	}
	p.eng.jobs.Push(job{fn: func(t *sim.Task) {
		if p.send == s && !s.done && !p.closed {
			p.eng.stats.Retransmits++
			p.eng.publish(trace.EvPktRetx, &packet.Packet{
				Kind: packet.KRequest, TxID: s.txid, Src: p.pid, Dst: s.dst,
			})
			p.transmitOn(t, true)
		}
	}})
}

// transmitOn routes and transmits the current request. retrans indicates a
// retransmission, for which a fragmented segment resends only its summary
// (the receiver NACKs any missing fragments).
func (p *Port) transmitOn(t *sim.Task, retrans bool) {
	s := p.send
	s.reading++
	p.transmit(t, s, retrans)
	s.reading--
}

func (p *Port) transmit(t *sim.Task, s *sendTxn, retrans bool) {
	// The packet is a value: what goes on the wire is marshalled from the
	// engine's transmit scratch, and only a local delivery, which is queued,
	// needs a packet of its own.
	pkt := packet.Packet{Kind: packet.KRequest, TxID: s.txid, Src: p.pid, Dst: s.dst, Msg: s.msg}
	if s.group {
		// Wire multicast (member stations' receive filters accept it)
		// plus fan-out to local members.
		p.eng.sendNow(t, &pkt, ethernet.Multicast(uint16(s.dst.LH())))
		local := pkt
		s.buf = nil // local members receive the segment itself, not a copy
		p.eng.emitLocal(&local)
		return
	}
	// s.mac keeps the last station actually transmitted to. It survives a
	// route() miss on purpose: after LocateAfterRetries the binding is
	// invalidated, and continued silence must still condemn the station we
	// were talking to. A transaction that never resolved a route keeps
	// mac == 0 and can only abort by timeout ("unlocated" is not "dead").
	mac, local, ok := p.eng.route(s.dst)
	if !ok {
		return // locate broadcast in flight; retry on next tick
	}
	if local {
		cp := pkt
		s.buf = nil // the receiver gets the segment itself, not a copy
		p.eng.emitLocal(&cp)
		return
	}
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
	s := p.send
	if s == nil {
		panic(fmt.Sprintf("ipc: %v AwaitReply without send", p.pid))
	}
	for !s.done {
		p.replyWait.Wait(t)
	}
	p.send = nil
	if s.code != vid.CodeOK {
		return vid.Message{}, vid.CodeError(s.code)
	}
	return s.reply, nil
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

// completeSend records the reply — whose segment is a slice of the
// reassembly buffer lent, if that is not nil — and wakes the sender.
func (p *Port) completeSend(msg vid.Message, lent []byte) {
	s := p.send
	if s == nil || s.done {
		return
	}
	s.done = true
	s.reply, p.replyBuf = msg, lent
	s.timer.Stop()
	s.wtimer.Stop()
	// The reply means the receiver had every fragment: no repair to come.
	p.eng.dropFragSource(reasmKey{src: p.pid, dst: s.dst, txid: s.txid, kind: packet.KRequest})
	p.replyWait.WakeAll()
	if p.winq != nil {
		p.winq.WakeAll()
	}
}

// failSend aborts the matching transaction with the given code.
func (p *Port) failSend(txid uint32, code uint16) {
	s := p.send
	if s == nil || s.done || s.txid != txid {
		return
	}
	s.done = true
	s.code = code
	s.timer.Stop()
	s.wtimer.Stop()
	p.eng.dropFragSource(reasmKey{src: p.pid, dst: s.dst, txid: s.txid, kind: packet.KRequest})
	p.replyWait.WakeAll()
	if p.winq != nil {
		p.winq.WakeAll()
	}
}

// AbortTo ends the port's outstanding transaction with CodeAborted if it is
// addressed to dst: its owner has learnt from elsewhere that dst is dead
// (a restarted peer announced its new PID), and a dead PID is otherwise
// learnt only by riding out the whole abort timeout — V lets stale
// identities die silently.
func (p *Port) AbortTo(dst vid.PID) {
	if s := p.send; s != nil && s.dst == dst {
		p.failSend(s.txid, vid.CodeAborted)
	}
}

// notePending resets the abort countdown: the destination is alive but not
// ready (busy, queued, or frozen). Group transactions ignore reply-pending:
// a member that received the query but declined to answer must not keep
// the sender waiting past its group timeout. Gathering sends ignore it too
// — their window is fixed regardless of responder liveness.
func (p *Port) notePending(txid uint32) {
	if s := p.send; s != nil && !s.done && s.txid == txid && !s.group && !s.gather {
		s.silent = 0
		s.lastAlive = p.eng.sim.Now()
	}
}

// -------------------------------------------------------------- receiving

type reqClass int

const (
	reqNew reqClass = iota
	reqDuplicate
	reqStale
)

// classify decides how to treat an arriving request relative to what this
// port has already seen from the sender.
func (p *Port) classify(src vid.PID, txid uint32) reqClass {
	last, seen := p.lastFrom[src]
	switch {
	case !seen || txid > last:
		return reqNew
	case txid == last:
		return reqDuplicate
	}
	return reqStale
}

// acceptRequest queues a new request — whose segment is a slice of the
// reassembly buffer lent, if that is not nil — and wakes a receiver.
func (p *Port) acceptRequest(src vid.PID, txid uint32, msg vid.Message, from ethernet.MAC, lent []byte) {
	p.lastFrom[src] = txid
	p.rq = append(p.rq, &Req{Src: src, txid: txid, Msg: msg, from: from, buf: lent})
	p.reqWait.WakeOne()
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

// answerDuplicate answers a retransmission of the last request its sender
// made — arriving at station from — with what the state of its reply
// allows, so that a reply crosses the wire once however often the request
// is retransmitted (§3.1.3):
//
//   - not replied yet (queued or being served): reply-pending;
//   - a fragmented reply still on its first transmission: reply-pending;
//   - a fragmented reply sent, its repair buffer still held: the summary
//     alone, to from — the sender NACKs what it lacks, and the repair
//     follows the NACK;
//   - otherwise — a one-frame reply, an expired repair buffer, a port
//     restored by migration (its state carries the reply cache, not the
//     repair buffer), or a sender now on this host: the whole reply again.
//
// Answering from the reply cache renews its retention: a retransmitting
// sender (for example one frozen mid-migration) keeps the reply alive
// until it can accept it.
func (p *Port) answerDuplicate(req *packet.Packet, from ethernet.MAC) {
	src := req.Src
	c := p.replyCache[src]
	if c == nil || c.txid != req.TxID {
		p.eng.replyPending(req, from)
		return
	}
	fs := p.eng.txBuf[reasmKey{src: p.pid, dst: src, txid: c.txid, kind: packet.KReply}]
	if fs != nil && fs.sending {
		p.eng.replyPending(req, from)
		return
	}
	p.eng.stats.RepliesFromCache++
	c.expires = p.eng.sim.Now().Add(params.ReplyCacheTTL)
	p.scheduleCacheSweep(src, c)
	if fs != nil && from != p.eng.nic.MAC() {
		p.eng.emit(fs.summary, from)
		return
	}
	p.eng.jobs.Push(job{fn: func(t *sim.Task) {
		p.emitReply(t, src, c.txid, c.msg, c.lh, from)
	}})
}

// scheduleCacheSweep arranges removal of a cache entry at its (renewable)
// expiry.
func (p *Port) scheduleCacheSweep(src vid.PID, c *cachedReply) {
	now := p.eng.sim.Now()
	p.eng.sim.After(c.expires.Sub(now), func() {
		if p.replyCache[src] != c {
			return
		}
		if p.eng.sim.Now() >= c.expires {
			delete(p.replyCache, src)
			return
		}
		p.scheduleCacheSweep(src, c)
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
	p.open[r.Src] = r
	return r
}

// Pending reports the number of queued (unreceived) requests.
func (p *Port) Pending() int { return len(p.rq) }

// Serving reports whether any received request awaits its Reply.
func (p *Port) Serving() bool { return len(p.open) > 0 }

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
	if p.open[r.Src] == r {
		delete(p.open, r.Src)
	}
	if last := p.lastFrom[r.Src]; last == r.txid {
		c := &cachedReply{txid: r.txid, msg: msg, lh: lh, expires: t.Now().Add(params.ReplyCacheTTL)}
		p.replyCache[r.Src] = c
		p.scheduleCacheSweep(r.Src, c)
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
func (p *Port) OpenRequest(src vid.PID) *Req { return p.open[src] }

// Drop abandons a received request without replying — a group member
// declining to answer a group query (host selection expects only willing
// hosts to respond, §2.1). The sender completes via another member's reply
// or aborts on its group timeout; duplicates of the dropped request are
// answered with reply-pending.
func (p *Port) Drop(r *Req) {
	if p.open[r.Src] == r {
		delete(p.open, r.Src)
	}
}

// OpenRequests returns all open (received, unreplied) requests, ordered by
// sender for determinism. A restored server body uses this to finish
// requests that were mid-service when its logical host migrated.
func (p *Port) OpenRequests() []*Req {
	out := make([]*Req, 0, len(p.open))
	for _, r := range p.open {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Src < out[j].Src })
	return out
}
