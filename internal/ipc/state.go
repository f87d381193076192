package ipc

import (
	"fmt"
	"maps"
	"slices"

	"vsystem/internal/params"
	"vsystem/internal/vid"
)

// PortState is the serializable kernel-side IPC state of a process: what
// migration carries to the new host when it "copies the logical host's
// state in the kernel server" (§3.1.3).
//
// The snapshot deliberately excludes the queue of delivered-but-unreceived
// requests: the paper discards those on deletion of the old copy and relies
// on sender retransmission. It includes the in-progress send transaction
// (so the process keeps retransmitting from its new host and can still
// collect the reply from the replier's cache), the request currently being
// served (so its eventual Reply carries the right transaction id), the
// per-sender duplicate-detection table and the reply cache (so
// non-idempotent operations are not re-executed when old clients
// retransmit to the new host).
//
// Open, Last and Cache are slices sorted by the peer's PID, never maps:
// the state crosses the wire inside the freeze window and RestorePort arms
// one sweep timer per cache entry, so neither the bytes nor the order of
// those timers may depend on map iteration.
type PortState struct {
	PID   vid.PID
	TxSeq uint32
	Send  *SendState
	Open  []CurState
	Last  []LastState
	Cache []CachedReplyState
}

// SendState is an in-progress (or completed-but-unconsumed) send
// transaction. Done with a reply covers the window where the reply arrived
// but the blocked process had not yet been resumed when the freeze took
// effect — the reply migrates with the process.
type SendState struct {
	TxID  uint32
	Dst   vid.PID
	Msg   vid.Message
	Group bool
	Done  bool
	Code  uint16
	Reply vid.Message
}

// CurState is a received request awaiting its reply.
type CurState struct {
	Src  vid.PID
	TxID uint32
	Msg  vid.Message
}

// LastState is one duplicate-detection entry: the newest transaction seen
// from Src.
type LastState struct {
	Src  vid.PID
	TxID uint32
}

// CachedReplyState is one reply-cache entry: the reply last sent to Src.
// The logical host a reply names (Port.ReplyNaming) is not carried: only a
// program manager names one, and it never migrates.
type CachedReplyState struct {
	Src  vid.PID
	TxID uint32
	Msg  vid.Message
}

// Snapshot captures the port's migratable state. The port must belong to a
// frozen logical host (no concurrent activity); queued requests are
// dropped per §3.1.3.
func (p *Port) Snapshot() *PortState {
	st := &PortState{PID: p.pid, TxSeq: p.txSeq}
	for _, src := range slices.Sorted(maps.Keys(p.peers)) {
		pr := p.peers[src]
		if pr.seen {
			st.Last = append(st.Last, LastState{Src: src, TxID: pr.last})
		}
		if c := pr.cache; c != nil {
			st.Cache = append(st.Cache, CachedReplyState{Src: src, TxID: c.txid, Msg: c.msg})
		}
		if r := pr.open; r != nil {
			st.Open = append(st.Open, CurState{Src: r.Src, TxID: r.txid, Msg: r.Msg})
		}
	}
	if s := p.send; s != nil {
		st.Send = &SendState{
			TxID: s.txid, Dst: s.dst, Msg: s.msg, Group: s.group,
			Done: s.done, Code: s.code, Reply: s.reply,
		}
	}
	return st
}

// RestorePort recreates a port from migrated state, activating an
// outstanding send at once if active. During a migration the new copy is
// restored *quiesced* (active=false): while both copies exist, only the
// original host acts for the process ("continues to retransmit to its
// replier periodically", §3.1.3); the new copy starts at Activate, on unfreeze.
func (e *Engine) RestorePort(st *PortState, active bool) *Port {
	if _, dup := e.ports[st.PID]; dup {
		panic(fmt.Sprintf("ipc: restore of existing port %v", st.PID))
	}
	p := e.NewPort(st.PID)
	p.txSeq = st.TxSeq
	for _, l := range st.Last {
		p.peers[l.Src] = peer{seen: true, last: l.TxID}
	}
	for _, v := range st.Cache {
		c, pr := &cachedReply{txid: v.TxID, msg: v.Msg}, p.peers[v.Src]
		pr.cache, pr.deadline = c, e.sim.Now().Add(params.ReplyCacheTTL)
		p.peers[v.Src] = pr
		p.armSweep(v.Src, c)
	}
	if s := st.Send; s != nil {
		c := clientTxn{txid: s.TxID, dst: s.Dst, group: s.Group, done: s.Done, code: s.Code, probed: true}
		p.send = &sendTxn{clientTxn: c, msg: s.Msg, reply: s.Reply}
		if active {
			p.Activate()
		}
	}
	for _, c := range st.Open {
		p.serve(c.Src, serverEv{kind: evReceived, req: &Req{Src: c.Src, txid: c.TxID, Msg: c.Msg, from: e.nic.MAC()}})
	}
	return p
}

// Activate (re)starts a restored port's outstanding send: it is retransmitted
// at once, and its interval and round trip start from here.
func (p *Port) Activate() {
	if !p.closed {
		p.post(clientEv{kind: evActivate, now: p.eng.sim.Now()})
	}
}

// Wire form of a PortState (inside kernel.LHState, DESIGN §10): PID and
// TxSeq words, a flag byte and the send transaction if there is one, then
// the three counted lists in key order. A message is vid.MessageLen bytes
// plus its segment.
const (
	curStateMin  = 8 + vid.MessageLen
	lastStateLen = 8
)

// AppendTo appends the state's wire form.
func (st *PortState) AppendTo(a *vid.Appender) {
	a.U32(uint32(st.PID))
	a.U32(st.TxSeq)
	a.Bool(st.Send != nil)
	if s := st.Send; s != nil {
		a.U32(s.TxID)
		a.U32(uint32(s.Dst))
		a.Bool(s.Group)
		a.Bool(s.Done)
		a.U16(s.Code)
		a.Message(&s.Msg)
		a.Message(&s.Reply)
	}
	a.Count(len(st.Open))
	for i := range st.Open {
		c := &st.Open[i]
		a.U32(uint32(c.Src))
		a.U32(c.TxID)
		a.Message(&c.Msg)
	}
	a.Count(len(st.Last))
	for _, l := range st.Last {
		a.U32(uint32(l.Src))
		a.U32(l.TxID)
	}
	a.Count(len(st.Cache))
	for i := range st.Cache {
		c := &st.Cache[i]
		a.U32(uint32(c.Src))
		a.U32(c.TxID)
		a.Message(&c.Msg)
	}
}

// ReadPortState takes one AppendTo form off r. A list whose keys are not
// strictly ascending is malformed: equal states have one encoding.
func ReadPortState(r *vid.Reader) *PortState {
	st := &PortState{PID: vid.PID(r.U32()), TxSeq: r.U32()}
	if r.Bool() {
		s := &SendState{TxID: r.U32(), Dst: vid.PID(r.U32())}
		s.Group, s.Done, s.Code = r.Bool(), r.Bool(), r.U16()
		s.Msg, s.Reply = r.Message(), r.Message()
		st.Send = s
	}
	var prev vid.PID
	ascending := func(i int, src vid.PID) {
		if i > 0 && src <= prev {
			r.Fail(vid.ErrMalformed)
		}
		prev = src
	}
	for i, n := 0, r.Count(curStateMin); i < n && r.Err() == nil; i++ {
		c := CurState{Src: vid.PID(r.U32()), TxID: r.U32(), Msg: r.Message()}
		ascending(i, c.Src)
		st.Open = append(st.Open, c)
	}
	for i, n := 0, r.Count(lastStateLen); i < n && r.Err() == nil; i++ {
		l := LastState{Src: vid.PID(r.U32()), TxID: r.U32()}
		ascending(i, l.Src)
		st.Last = append(st.Last, l)
	}
	for i, n := 0, r.Count(curStateMin); i < n && r.Err() == nil; i++ {
		c := CachedReplyState{Src: vid.PID(r.U32()), TxID: r.U32(), Msg: r.Message()}
		ascending(i, c.Src)
		st.Cache = append(st.Cache, c)
	}
	return st
}
