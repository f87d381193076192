// Package ipc implements the inter-kernel communication engine of the
// simulated V-System: network-transparent Send/Receive/Reply transactions
// between processes named by structured PIDs, with the mechanisms the
// paper's migration design depends on:
//
//   - retransmission with abort timeouts, and reply-pending packets that
//     suspend rather than abort operations on busy or frozen destinations
//     (§3.1.3), with one early tail probe, at the operation's measured
//     round trip, for a request nothing else in flight covers;
//   - reply caches, so a replier can satisfy duplicate requests — which is
//     how a migrated process recovers a reply that was discarded while its
//     logical host was frozen;
//   - a per-host cache of logical-host → physical-host bindings, refreshed
//     by broadcast locate requests, incoming traffic (load beacons
//     included, on stations that listen for them), new-binding notices and replies that name the logical
//     host they just created — the reference-rebinding mechanism of §3.1.4;
//   - process-group sends (broadcast on the wire, fanned out to local
//     members), used for decentralized host selection (§2.1);
//   - fragmentation of large segments into 1 KB frames with selective
//     NACK-based repair, modeling V's multi-packet bulk transfers.
//
// One Engine instance exists per physical host. It owns a "netd" task that
// models the kernel's network-input processing, charging CPU per packet at
// kernel priority.
package ipc

import (
	"fmt"
	"slices"
	"time"

	"vsystem/internal/cpu"
	"vsystem/internal/ethernet"
	"vsystem/internal/freelist"
	"vsystem/internal/packet"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// Resolver is the kernel-side view the engine needs to route and deliver.
type Resolver interface {
	// LHResident reports whether the logical host currently resides on
	// this physical host.
	LHResident(lh vid.LHID) bool
	// Frozen reports whether a resident logical host is frozen.
	Frozen(lh vid.LHID) bool
	// WellKnown maps a well-known local index (kernel server, program
	// manager) of a resident logical host to the concrete port PID.
	WellKnown(lh vid.LHID, idx uint16) (vid.PID, bool)
	// GroupMembers returns local ports belonging to a global group.
	GroupMembers(g vid.PID) []vid.PID
	// DeferWhenFrozen reports whether a request to dst with the given
	// operation must be deferred while dst's logical host is frozen.
	// §3.1.3 defers "requests that modify this logical host"; read-only
	// kernel-server operations (debugger reads, queries) pass through.
	DeferWhenFrozen(dst vid.PID, op uint16) bool
}

// Stats counts engine activity. Read it through Engine.Stats(), which
// returns a value snapshot: harnesses must never hold references into the
// live counters, whose fields update packet by packet.
type Stats struct {
	TxPackets        int64
	RxPackets        int64
	RxCorrupt        int64
	TxByKind         [16]int64
	RxByKind         [16]int64
	Retransmits      int64
	Probes           int64 // tail probes, counted in Retransmits too
	RepliesFromCache int64
	ReplyPendings    int64
	Locates          int64
	DroppedFrozen    int64
	DroppedStale     int64
	LocalDeliveries  int64

	// Binding-cache activity (§3.1.4). Hits and misses count route
	// lookups; invalidations count explicit discards (retransmission
	// overrun, experiments). A binding is never evicted, and a miss
	// broadcasts a locate (Locates) at most once per logical host per
	// RetransmitInterval.
	BindingHits          int64
	BindingMisses        int64
	BindingInvalidations int64

	// Failure-detector activity: stations this engine started suspecting
	// (params.SuspectAfterRetries unanswered retransmissions of a single
	// transaction) and suspicions cleared by evidence of life.
	HostSuspects int64
	HostClears   int64

	// Bulk-transfer window activity: transactions issued through windows
	// (migration copies, and every rsm heartbeat, append batch and snapshot
	// chunk; always equal to the EvCopyWindow trace count for this host)
	// and issue-time stalls with every window slot in flight.
	WindowSends  int64
	WindowStalls int64
}

// Engine is the per-host IPC engine.
type Engine struct {
	sim      *sim.Engine
	nic      *ethernet.NIC
	cpu      *cpu.CPU
	res      Resolver
	ports    map[vid.PID]*Port
	portList []*Port // registration order, for deterministic iteration
	// cache is the binding cache. Its keys are logical-host ids widened to
	// 32 bits, as every received frame looks one up and the runtime hashes
	// a 16-bit key through its generic path.
	cache map[uint32]binding
	jobs  sim.Queue[job]
	// Two scratch packets, so that the per-frame paths allocate no Packet.
	// Each is filled and finished with — traced (subscribers do not keep
	// Event.Pkt), marshalled, delivered by value or handed to the load sink
	// — by one task at a time: rx by netd alone, from decoding a frame (or
	// filling in a header-only packet delivered on this station) until it
	// is dispatched (netd blocks in between, and nothing else receives); tx
	// between two points where the sending task can block. Whatever outlives
	// that is a copy or lent: a message is taken out of rx by value, its
	// inline segment copied or lent with the frame (takeInline), and a
	// fragment's bytes go to their slot.
	rx packet.Packet // the packet netd is dispatching, of any kind
	tx packet.Packet // the packet or fragment about to be transmitted
	// rxLend is the payload of the frame netd is receiving while the frame
	// is Lent and no receiver has taken it: netd recycles it once the frame
	// is dealt with.
	rxLend []byte
	reasm  map[reasmKey]*reasmBuf
	txBuf  map[reasmKey]*fragSource
	// segs recycles segment-sized buffers, one list per cluster
	// (ethernet.NIC.SegBufs): the reassembly buffers handleFrag fills, which
	// come back from the consumers that copy a delivered segment out
	// (Port.ReleaseSeg, Port.ReleaseReply), the buffers a bulk-transfer
	// window lends its sender to encode into (Window.SegBuf), which come
	// back when their transaction is reaped, and the buffers a server builds
	// a long reply in (Port.ReplyBuf), which come back once nothing reads the
	// reply. Shorter lent buffers are frame payloads (putSeg).
	segs *freelist.Bytes
	// Records reused once finished with (DESIGN §8 has a row per list).
	reasms      freelist.List[*reasmBuf]
	repairs     freelist.List[*fragSource]
	lent        freelist.List[*replySeg]
	closedPorts freelist.ResetList[*Port] // closed ports nothing else reaches (Port.Close)
	reqs        freelist.ResetList[*Req]
	sweeps      freelist.List[*sweep]
	txns        freelist.List[*sendTxn]
	locals      freelist.List[*packet.Packet] // queued intra-host deliveries (emitLocal)
	// stations is what the failure detector knows of each station, indexed
	// by its address. It grows to the highest station heard from or
	// suspected, as frames arrive.
	stations []station
	rtts     map[uint32]rtt // op code → its round-trip estimate (tail probe)
	winSeq   uint32         // bulk-transfer window port allocation sequence
	stats    Stats
	trace    *trace.Bus       // nil until wired; nil bus is a no-op target
	down     bool             // crashed host: frames drop, queued work is discarded
	loadFn   func() [6]uint32 // kernel's load advertisement, stamped on replies
	loadSink func([6]uint32)  // consumer of received load advertisements

	// GroupIndirection models the local-group-id lookup for well-known
	// indices; when enabled each such delivery charges GroupIndirectCPU
	// (the paper's measured 100 µs, §4.1). Disabled for the ablation.
	GroupIndirection bool
}

// station is what the engine knows of one other station's liveness.
type station struct {
	heard     sim.Time // when the last packet from it arrived
	suspected bool     // condemned by the failure detector
}

// rtt is RFC 6298's round-trip estimate of one operation. Op spaces are
// partitioned by service, so an op code names one service's operation.
type rtt struct{ srtt, rttvar time.Duration }

type job struct {
	// Exactly one of out, hdr, sum, rx, local, retx and fn is set.
	out   *packet.Packet  // transmit to station dst (a fragment NACK)
	hdr   header          // a header-only packet (kind set): to station dst, delivered here if dst is this station
	sum   *fragSource     // transmit its summary to station dst (held for the job)
	dst   ethernet.MAC    // with out, hdr and sum
	rx    bool            // frame arrived
	probe bool            // with retx: the tail probe
	txid  uint32          // with retx
	frame ethernet.Frame  // with rx
	local *packet.Packet  // intra-host delivery
	retx  *Port           // retransmit the port's transaction txid (Port.resend)
	fn    func(*sim.Task) // arbitrary deferred kernel work
}

// header is a packet of a header-only kind — reply-pending, no-process, a
// locate or its answer, a binding notice — or a load beacon, carried in its
// job by value, so that sending one allocates nothing.
type header struct {
	kind     packet.Kind
	txid     uint32
	src, dst vid.PID
	lh       vid.LHID
	ad       [6]uint32 // a beacon's load
}

// packet expands the header into a packet.
func (h *header) packet() packet.Packet {
	return packet.Packet{Kind: h.kind, TxID: h.txid, Src: h.src, Dst: h.dst, LH: h.lh, Ad: h.ad, HasAd: h.kind == packet.KLoadAd}
}

// binding is what the engine knows of one logical host: the station it
// lives on (0 when unbound; stations are numbered from 1) and until when a
// miss broadcasts no further locate, one having been sent.
type binding struct {
	mac   ethernet.MAC
	quiet sim.Time
}

type reasmKey struct {
	src, dst vid.PID
	txid     uint32
	kind     packet.Kind
}

// reasmBuf collects the fragments of one segment. A fragment is copied
// once, into the slot its index names, so that when every fragment is a
// full chunk (all but the last, from any sender in the tree) seg is the
// segment, whatever order they came in. One that does not fit its slot is
// kept past the slots, and completeSeg joins the pieces. The engine reuses
// the record once the segment is complete or given up on.
type reasmBuf struct {
	eng    *Engine
	key    reasmKey
	seg    []byte     // len(frags) slots of FragChunk, then any misfits; from Engine.segs
	frags  []fragSpan // where each fragment's bytes are
	got    int
	timer  sim.Timer // gives up on the segment after FragReassemblyTTL
	expire func()    // the timer's callback, bound once
}

// giveUp is the reassembly timer: the segment never completed, so nothing
// else refers to its buffer.
func (b *reasmBuf) giveUp() {
	if e := b.eng; e.reasm[b.key] == b {
		delete(e.reasm, b.key)
		e.segs.Put(b.seg)
		b.seg = nil
		e.reasms.Put(b)
	}
}

// fragSpan locates one received fragment's bytes in reasmBuf.seg.
type fragSpan struct {
	at, n int
	have  bool
}

// fragSource is a fragmented segment kept for NACK repair: until its
// transaction completes (a request) or for ReplyCacheTTL (a reply). Repair
// goes to the station the NACK came from, which is not always the one the
// segment first went to: its receiver may have migrated meanwhile.
//
// The engine reuses the record once nothing holds it (refs): the repair
// table while the entry is in it, and every task part-way through reading
// its segment or summary — the first transmission, a repair, a summary
// queued for netd, a retransmitted summary.
type fragSource struct {
	eng     *Engine
	key     reasmKey
	seg     []byte
	summary packet.Packet
	txn     *sendTxn  // the send transaction seg belongs to; nil for a reply
	lent    *replySeg // seg's lent buffer, if a reply's built in one (Port.ReplyBuf)
	timer   sim.Timer // drops the entry after ReplyCacheTTL
	expire  func()    // the timer's callback, bound once
	sending bool      // the first transmission is still under way
	refs    int
}

// timeout is the repair buffer's timer.
func (fs *fragSource) timeout() {
	if e := fs.eng; e.txBuf[fs.key] == fs {
		e.dropFragSource(fs.key)
	}
}

// replySeg is a reply segment built in a buffer the engine lent its server
// (Port.ReplyBuf). Whatever reads the segment once the reply is sent holds
// it — the reply cache, the repair buffer, a resend from the cache under
// way, the reply itself until it has gone — and the last to let go hands
// the buffer back (Engine.letGo).
type replySeg struct {
	buf  []byte
	refs int
}

// hold adds a holder to a lent segment, if there is one, and returns it.
func (rs *replySeg) hold() *replySeg {
	if rs != nil {
		rs.refs++
	}
	return rs
}

// New creates the engine for one host and starts its network daemon.
func New(se *sim.Engine, nic *ethernet.NIC, c *cpu.CPU, res Resolver) *Engine {
	e := &Engine{
		sim:              se,
		nic:              nic,
		cpu:              c,
		res:              res,
		ports:            make(map[vid.PID]*Port),
		cache:            make(map[uint32]binding),
		reasm:            make(map[reasmKey]*reasmBuf),
		txBuf:            make(map[reasmKey]*fragSource),
		rtts:             make(map[uint32]rtt),
		segs:             nic.SegBufs(),
		GroupIndirection: true,
	}
	// Each bound is above the most its list held in bench's workloads.
	sw := se.Poison()
	e.reasms = freelist.NewList(16, func() *reasmBuf { b := new(reasmBuf); b.expire = b.giveUp; return b }, sw)
	e.repairs = freelist.NewList(128, func() *fragSource { fs := new(fragSource); fs.expire = fs.timeout; return fs }, sw)
	e.lent = freelist.NewList(512, func() *replySeg { return new(replySeg) }, sw)
	e.closedPorts = freelist.NewResetList(32, func() *Port { return &Port{peers: make(map[vid.PID]peer)} }, reusePort, sw)
	e.reqs = freelist.NewResetList(16, func() *Req { return new(Req) }, clearReq, sw)
	e.sweeps = freelist.NewList(512, func() *sweep { sw := new(sweep); sw.fire = sw.due; return sw }, sw)
	e.txns = freelist.NewList(16, func() *sendTxn { return new(sendTxn) }, sw)
	e.locals = freelist.NewList(16, func() *packet.Packet { return new(packet.Packet) }, sw)
	nic.SetRecv(func(f ethernet.Frame) {
		if e.down {
			nic.Recycle(f) // powered off: the NIC hears nothing
			return
		}
		e.jobs.Push(job{rx: true, frame: f})
	})
	se.Spawn(fmt.Sprintf("netd@%v", nic.MAC()), e.netd)
	return e
}

// SetDown marks the host as powered off (or back on). While down the
// engine neither receives frames nor executes queued protocol work, so a
// crashed host cannot answer locates or requests; unlike replacing the NIC
// callback this is reversible, which is what makes restart possible.
func (e *Engine) SetDown(down bool) { e.down = down }

// Reset clears all soft protocol state — binding cache, reassembly and
// repair buffers, round-trip estimates, and any protocol work still queued
// for netd from before the crash — and powers the engine back on. Called
// when a crashed host reboots: a fresh kernel remembers nothing, and
// pre-crash jobs must not execute on it (netd discards them only lazily,
// so a quick crash/restart could otherwise leave them live).
func (e *Engine) Reset() {
	e.down = false
	e.jobs.Clear()
	e.cache = make(map[uint32]binding)
	e.reasm = make(map[reasmKey]*reasmBuf)
	e.txBuf = make(map[reasmKey]*fragSource)
	e.stations = nil
	e.rtts = make(map[uint32]rtt)
}

// ClosePorts closes every port on the engine: at a crash, those of the
// bulk windows, which no process owns, die with the processes' own. None
// is kept for reuse: the tasks of the dead processes unwind afterwards,
// and one may close its port again.
func (e *Engine) ClosePorts() {
	for _, p := range slices.Clone(e.portList) {
		p.unregister()
	}
}

// putSeg hands a lent buffer back to the list it came from: a frame
// payload's (an inline segment lent with its frame, a short reply built in
// Port.ReplyBuf) or the segments'.
func (e *Engine) putSeg(b []byte) {
	if cap(b) < vid.SegMax {
		e.nic.Recycle(ethernet.Frame{Payload: b, Lent: true})
		return
	}
	e.segs.Put(b)
}

// getSeg lends an empty buffer for a segment of n bytes: a frame payload's
// for one carried inline, else one of vid.SegMax.
func (e *Engine) getSeg(n int) []byte {
	if n <= packet.InlineSegMax {
		return e.nic.FrameBuf()
	}
	return e.segs.Get()
}

// lendReply makes a holder record for a reply segment built in buf.
func (e *Engine) lendReply(buf []byte) *replySeg {
	rs := e.lent.Get()
	rs.buf, rs.refs = buf, 1
	return rs
}

// letGo drops one holder of a lent reply segment (nil: none); the last
// hands the buffer back.
func (e *Engine) letGo(rs *replySeg) {
	if rs == nil {
		return
	}
	freelist.Check(&e.lent, rs)
	if rs.refs--; rs.refs > 0 {
		return
	}
	e.putSeg(rs.buf)
	rs.buf = nil
	e.lent.Put(rs)
}

// MAC returns the host's station address.
func (e *Engine) MAC() ethernet.MAC { return e.nic.MAC() }

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// SetTraceBus wires the engine to the cluster's trace bus (nil to
// disable). Every packet movement — tx, rx, local delivery, corrupt-frame
// drop, retransmission, reply-pending, locate, binding broadcast — is
// published as a trace event.
func (e *Engine) SetTraceBus(b *trace.Bus) { e.trace = b }

// publish emits a trace event stamped with the current virtual time and
// this host's station address.
func (e *Engine) publish(ev trace.Event) {
	ev.At, ev.Host = e.sim.Now(), uint16(e.nic.MAC())
	e.trace.Publish(ev)
}

// CacheLookup exposes the logical-host cache (for tests and experiments).
// It does not touch the hit/miss counters.
func (e *Engine) CacheLookup(lh vid.LHID) (ethernet.MAC, bool) {
	mac := e.cache[uint32(lh)].mac
	return mac, mac != 0
}

// cacheInsert records (or refreshes) a binding. Every frame received
// refreshes its sender's, so an unchanged one is not written again.
func (e *Engine) cacheInsert(lh vid.LHID, mac ethernet.MAC) {
	if b := e.cache[uint32(lh)]; b.mac != mac {
		b.mac = mac
		e.cache[uint32(lh)] = b
	}
}

// InvalidateCache drops a binding — after unanswered retransmissions
// (§3.1.4) or from experiments forcing a locate. Counted and traced only
// when a binding was actually present.
func (e *Engine) InvalidateCache(lh vid.LHID) {
	b := e.cache[uint32(lh)]
	if b.mac == 0 {
		return
	}
	b.mac = 0
	e.cache[uint32(lh)] = b
	e.stats.BindingInvalidations++
	e.publish(trace.Event{Kind: trace.EvBindInvalidate, LH: lh})
}

// SetLoadFunc installs the kernel's load-advertisement source. When set,
// every outgoing (inter-host) reply is stamped with a fresh advertisement
// — load information piggybacks on traffic the host sends anyway.
func (e *Engine) SetLoadFunc(fn func() [6]uint32) { e.loadFn = fn }

// SetLoadSink installs the consumer of load advertisements received from
// other hosts (the scheduling layer's candidate cache).
func (e *Engine) SetLoadSink(fn func([6]uint32)) { e.loadSink = fn }

// AdvertiseLoad emits one load-advertisement beacon frame from src, the
// process that answers for the advertising host (vid.Nil for none), to
// vid.GroupLoadListeners: only stations that joined it take the frame, and
// they learn src's logical host's binding as from any incoming traffic. A
// no-op until SetLoadFunc is wired or while the host is down.
func (e *Engine) AdvertiseLoad(src vid.PID) {
	if e.loadFn == nil || e.down {
		return
	}
	e.jobs.Push(job{hdr: header{kind: packet.KLoadAd, src: src, ad: e.loadFn()},
		dst: ethernet.Multicast(uint16(vid.GroupLoadListeners.LH()))})
}

// BroadcastBinding announces that a logical host now resides on this host —
// the §3.1.4 optimization performed when a migrated logical host is
// unfrozen.
func (e *Engine) BroadcastBinding(lh vid.LHID) {
	e.publish(trace.Event{Kind: trace.EvRebind, LH: lh})
	e.jobs.Push(job{hdr: header{kind: packet.KBinding, lh: lh}, dst: ethernet.Broadcast})
}

// netd is the kernel network daemon: it serializes this host's protocol
// processing, charging CPU per packet.
func (e *Engine) netd(t *sim.Task) {
	for {
		j := e.jobs.Pop(t)
		if e.down {
			continue // in-flight kernel work dies with the host
		}
		switch {
		case j.out != nil:
			e.sendNow(t, j.out, j.dst)
		case j.hdr.kind != packet.KInvalid && j.dst == e.nic.MAC():
			e.cpu.Use(t, params.LocalDeliverCPU, params.PrioKernel)
			e.rx = j.hdr.packet()
			e.deliverLocal(t, &e.rx)
		case j.hdr.kind != packet.KInvalid:
			e.cpu.Use(t, params.SmallPktSendCPU, params.PrioKernel)
			e.tx = j.hdr.packet()
			e.transmitFrame(t, &e.tx, j.dst, false)
		case j.sum != nil:
			e.sendNow(t, &j.sum.summary, j.dst)
			e.release(j.sum)
		case j.rx:
			e.recvFrame(t, j.frame)
			// netd is a unicast frame's last holder, unless a receiver took
			// its payload with an inline segment (takeInline), and
			// recvFrame has copied out of it everything else that outlives
			// it: a fragment into its slot.
			if e.rxLend != nil {
				e.nic.Recycle(j.frame)
				e.rxLend = nil
			}
		case j.local != nil:
			cost := params.LocalDeliverCPU
			if n := len(j.local.Msg.Seg); n > 0 {
				cost += time.Duration((n+1023)/1024) * params.LocalCopyPerKB
			}
			e.cpu.Use(t, cost, params.PrioKernel)
			e.deliverLocal(t, j.local)
			// Dispatch keeps nothing of the packet: a message is taken out
			// by value, and its segment is the sender's, not the packet's.
			*j.local = packet.Packet{}
			e.locals.Put(j.local)
		case j.retx != nil:
			j.retx.resend(t, j.txid, j.probe)
		case j.fn != nil:
			j.fn(t)
		}
	}
}

// deliverLocal dispatches a packet sent on this station to itself, its CPU
// charged.
func (e *Engine) deliverLocal(t *sim.Task, p *packet.Packet) {
	e.stats.LocalDeliveries++
	e.publish(trace.Event{Kind: trace.EvPktLocal, Pkt: p})
	e.dispatch(t, p, e.nic.MAC())
}

// emitLocal queues a copy of a packet for intra-host delivery, in a
// record netd hands back once the packet is dispatched.
func (e *Engine) emitLocal(p *packet.Packet) {
	cp := e.locals.Get()
	*cp = *p
	e.jobs.Push(job{local: cp})
}

// sendNow marshals and transmits a (non-fragmented) packet, charging CPU.
// It keeps no reference to *p, which may live on the caller's stack: the
// packet goes through the transmit scratch, filled only once the charge —
// where the task blocks and another may transmit — is behind it.
func (e *Engine) sendNow(t *sim.Task, p *packet.Packet, dst ethernet.MAC) {
	e.cpu.Use(t, params.SmallPktSendCPU, params.PrioKernel)
	e.tx = *p
	e.transmitFrame(t, &e.tx, dst, false)
}

// transmitFrame marshals p and puts it on the wire. If wait is true the
// task blocks until the frame clears the medium (bulk pacing). A frame for
// one station is built in a buffer from the segment's free list, which
// that station's netd hands back; one for several is shared by them all and
// left to the collector.
func (e *Engine) transmitFrame(t *sim.Task, p *packet.Packet, dst ethernet.MAC, wait bool) {
	if p.Kind == packet.KReply && e.loadFn != nil {
		// Piggyback a fresh load advertisement on the reply (re-stamped on
		// every retransmission, so receivers always see current load).
		p.Ad = e.loadFn()
		p.HasAd = true
	}
	e.stats.TxPackets++
	e.stats.TxByKind[p.Kind]++
	e.publish(trace.Event{Kind: trace.EvPktTx, Pkt: p})
	f := ethernet.Frame{Dst: dst, Lent: dst != ethernet.Broadcast && !dst.IsMulticast()}
	if f.Lent {
		f.Payload = e.nic.FrameBuf()
	}
	f.Payload = packet.AppendMarshal(f.Payload, p)
	if wait {
		e.nic.Send(t, f)
	} else {
		e.nic.StartSend(f, nil)
	}
}

// sendFragged transmits a packet whose segment exceeds the inline limit:
// the caller's task pushes one full-size frame per fragment, charging
// BulkSendCPU and waiting out each frame's wire time (this serialization is
// what yields the paper's ≈3 s/Mbyte inter-host copy rate), then the
// summary packet. The fragment source is retained for NACK repair; txn is
// the send transaction the segment belongs to, nil for a reply, and lent
// the reply segment's lent buffer, if any.
func (e *Engine) sendFragged(t *sim.Task, p *packet.Packet, dst ethernet.MAC, txn *sendTxn, lent *replySeg) {
	seg := p.Msg.Seg
	n := packet.NumFrags(len(seg))
	key := reasmKey{src: p.Src, dst: p.Dst, txid: p.TxID, kind: p.Kind}
	e.dropFragSource(key)
	fs := e.repairs.Get()
	fs.eng, fs.key, fs.seg, fs.summary, fs.txn, fs.lent, fs.sending = e, key, seg, *p, txn, lent.hold(), true
	fs.summary.Msg.Seg = nil
	fs.summary.SegLen = uint32(len(seg))
	fs.summary.FragCount = uint16(n)
	fs.refs = 2 // the repair table's and this transmission's
	e.txBuf[key] = fs
	for i := 0; i < n; i++ {
		e.cpu.Use(t, params.BulkSendCPU, params.PrioKernel)
		e.sendFrag(t, key, seg, i, dst)
	}
	e.cpu.Use(t, params.SmallPktSendCPU, params.PrioKernel)
	e.transmitFrame(t, &fs.summary, dst, false)
	fs.sending = false
	if e.txBuf[key] == fs {
		// Bound how long the repair buffer is retained.
		fs.timer = e.sim.After(params.ReplyCacheTTL, fs.expire)
	}
	e.release(fs)
}

// dropFragSource forgets the repair buffer kept under key, if any, and its
// expiry timer with it.
func (e *Engine) dropFragSource(key reasmKey) {
	if fs := e.txBuf[key]; fs != nil {
		fs.timer.Stop()
		delete(e.txBuf, key)
		e.release(fs)
	}
}

// release drops one holder of a repair buffer; the last lets go of its
// lent segment, if any, and keeps the record for the next.
func (e *Engine) release(fs *fragSource) {
	freelist.Check(&e.repairs, fs)
	if fs.refs--; fs.refs > 0 {
		return
	}
	e.letGo(fs.lent)
	fs.seg, fs.summary, fs.txn, fs.lent, fs.timer = nil, packet.Packet{}, nil, nil, sim.Timer{}
	e.repairs.Put(fs)
}

// sendFrag transmits fragment i of the segment of the logical packet key
// names, waiting out its wire time.
func (e *Engine) sendFrag(t *sim.Task, key reasmKey, seg []byte, i int, dst ethernet.MAC) {
	e.tx = packet.Packet{
		Kind:      packet.KFrag,
		TxID:      key.txid,
		Src:       key.src,
		Dst:       key.dst,
		OfKind:    key.kind,
		FragIdx:   uint16(i),
		FragCount: uint16(packet.NumFrags(len(seg))),
		Data:      packet.FragOf(seg, i),
	}
	e.transmitFrame(t, &e.tx, dst, true)
}

// resendFrags services a FragNack from station to: retransmit the missing
// fragments and the summary there. Runs on netd.
func (e *Engine) resendFrags(t *sim.Task, key reasmKey, missing []uint16, to ethernet.MAC) {
	src := e.txBuf[key]
	if src == nil {
		return
	}
	src.refs++ // netd blocks between fragments, and the entry can be dropped under it
	defer e.release(src)
	if src.txn != nil {
		// netd blocks between fragments, and the transaction can end under
		// it: its segment buffer must not be reused before this returns.
		src.txn.reading++
		defer func() { src.txn.reading-- }()
	}
	n := packet.NumFrags(len(src.seg))
	for _, idx := range missing {
		if int(idx) >= n {
			continue
		}
		e.cpu.Use(t, params.BulkSendCPU, params.PrioKernel)
		e.stats.Retransmits++
		e.publish(trace.Event{Kind: trace.EvPktRetx, Pkt: &src.summary})
		e.sendFrag(t, key, src.seg, int(idx), to)
	}
	e.cpu.Use(t, params.SmallPktSendCPU, params.PrioKernel)
	e.transmitFrame(t, &src.summary, to, false)
}

// recvFrame processes one arriving frame on netd.
func (e *Engine) recvFrame(t *sim.Task, f ethernet.Frame) {
	// Every kind is decoded in place: nothing below keeps the packet.
	p := &e.rx
	e.rxLend = nil
	if f.Lent {
		e.rxLend = f.Payload
	}
	err := packet.UnmarshalInto(p, f.Payload)
	switch {
	case len(f.Payload) >= 512:
		e.cpu.Use(t, params.BulkRecvCPU, params.PrioKernel)
	case err == nil && p.Kind == packet.KLoadAd:
		// Beacons take the interrupt-level fast path: a fixed-format
		// datagram consumed in place (no reply, no reassembly, no
		// process delivery), so load dissemination does not tax every
		// listening kernel at full packet-dispatch cost.
		e.cpu.Use(t, params.LoadAdRecvCPU, params.PrioKernel)
	default:
		e.cpu.Use(t, params.SmallPktRecvCPU, params.PrioKernel)
	}
	if err != nil {
		// Corrupt frame: count and trace the drop, then discard.
		e.stats.RxCorrupt++
		e.publish(trace.Event{Kind: trace.EvPktDrop, Size: len(f.Payload), Peer: uint16(f.Src)})
		return
	}
	e.stats.RxPackets++
	e.stats.RxByKind[p.Kind]++
	e.publish(trace.Event{Kind: trace.EvPktRx, Pkt: p})
	e.dispatch(t, p, f.Src)
}

// dispatch routes a decoded packet (from the wire or delivered locally).
func (e *Engine) dispatch(t *sim.Task, p *packet.Packet, from ethernet.MAC) {
	// Any packet from a station is evidence of life: it vetoes suspicion
	// formation (clientTxn.step) and retracts a standing suspicion.
	if from != e.nic.MAC() {
		st := e.station(from)
		st.heard = e.sim.Now()
		if st.suspected {
			e.clearSuspicion(st, from)
		}
	}
	// Learn bindings from incoming traffic (§3.1.4: "the cache is also
	// updated based on incoming requests").
	if from != e.nic.MAC() && p.Src != vid.Nil && !p.Src.IsGroup() && !e.res.LHResident(p.Src.LH()) {
		e.cacheInsert(p.Src.LH(), from)
	}
	if p.HasAd && from != e.nic.MAC() && e.loadSink != nil {
		e.loadSink(p.Ad)
	}
	switch p.Kind {
	case packet.KFrag:
		e.handleFrag(p)
	case packet.KRequest:
		e.deliverRequest(t, p, from)
	case packet.KReply:
		e.deliverReply(t, p, from)
	case packet.KReplyPending:
		if port := e.ports[p.Dst]; port != nil {
			port.post(clientEv{kind: evPending, txid: p.TxID, now: e.sim.Now()})
		}
	case packet.KNoProc:
		if port := e.ports[p.Dst]; port != nil {
			port.post(clientEv{kind: evNoProc, txid: p.TxID})
		}
	case packet.KLocateReq:
		// A host answers for every resident logical host, frozen or not:
		// during a migration the original host remains authoritative (and
		// keeps deferring operations with reply-pending packets) until the
		// old copy is deleted (§3.1.3).
		if e.res.LHResident(p.LH) {
			e.jobs.Push(job{hdr: header{kind: packet.KLocateResp, lh: p.LH}, dst: from})
		}
	case packet.KLocateResp, packet.KBinding:
		// A transaction addressed to the logical host retransmits now that
		// its binding is known, instead of waiting out its interval.
		e.cacheInsert(p.LH, from)
		for _, port := range e.portList {
			port.post(clientEv{kind: evBound, lh: p.LH})
		}
	case packet.KFragNack:
		// p.Src is the original packet's source (us); p.Dst the nacker.
		e.resendFrags(t, reasmKey{src: p.Src, dst: p.Dst, txid: p.TxID, kind: p.OfKind}, p.Missing, from)
	}
}

// maxFrags is the most fragments a segment can have. A packet announcing
// more is malformed: it gets neither a reassembly buffer nor a NACK (whose
// list of that many gaps would not fit a frame).
const maxFrags = (vid.SegMax + packet.FragChunk - 1) / packet.FragChunk

// A buffer from Engine.segs (capacity vid.SegMax) has a slot for every
// fragment of the longest segment.
const _ = uint(vid.SegMax - maxFrags*packet.FragChunk)

// handleFrag stores a fragment for reassembly. A fragment of a reply is
// evidence that its request arrived: it cancels the request's tail probe.
func (e *Engine) handleFrag(p *packet.Packet) {
	if p.OfKind == packet.KReply {
		if port := e.ports[p.Dst]; port != nil {
			port.post(clientEv{kind: evFrag, txid: p.TxID})
		}
	}
	key := reasmKey{src: p.Src, dst: p.Dst, txid: p.TxID, kind: p.OfKind}
	buf := e.reasm[key]
	if buf == nil {
		if p.FragCount > maxFrags {
			return
		}
		n := int(p.FragCount)
		buf = e.reasms.Get()
		// Whatever the buffer's last user left in it is never read: join
		// exposes only bytes a fragment was copied over.
		buf.eng, buf.key, buf.seg, buf.got = e, key, e.segs.Get()[:n*packet.FragChunk], 0
		buf.frags = slices.Grow(buf.frags[:0], n)[:n]
		clear(buf.frags)
		e.reasm[key] = buf
		buf.timer = e.sim.After(params.FragReassemblyTTL, buf.expire)
	}
	freelist.Check(&e.reasms, buf)
	i := int(p.FragIdx)
	if i >= len(buf.frags) || buf.frags[i].have {
		return
	}
	at := i * packet.FragChunk
	if len(p.Data) <= packet.FragChunk {
		copy(buf.seg[at:], p.Data)
	} else {
		at = len(buf.seg)
		buf.seg = append(buf.seg, p.Data...)
	}
	buf.frags[i] = fragSpan{at: at, n: len(p.Data), have: true}
	buf.got++
}

// completeSeg attempts to attach a fragmented segment to its summary
// packet, and makes an inline one outlive its frame (takeInline). It
// reports false (after NACKing the gaps) if fragments are missing. lent is
// the reassembly buffer, or the frame's payload, when p.Msg.Seg is now a
// slice of it: whoever the message is delivered to may hand it back
// (putSeg) once nothing refers to the segment any more. short is where a
// request's Req keeps a buffer for a short segment (takeInline), nil for a
// reply.
func (e *Engine) completeSeg(p *packet.Packet, from ethernet.MAC, short *[]byte) (lent []byte, ok bool) {
	if p.FragCount == 0 {
		return e.takeInline(p, short), true
	}
	if p.FragCount > maxFrags {
		return nil, false
	}
	key := reasmKey{src: p.Src, dst: p.Dst, txid: p.TxID, kind: p.Kind}
	buf := e.reasm[key]
	if buf == nil || buf.got < int(p.FragCount) {
		var missing []uint16
		for i := 0; i < int(p.FragCount); i++ {
			if buf == nil || i >= len(buf.frags) || !buf.frags[i].have {
				missing = append(missing, uint16(i))
			}
		}
		e.jobs.Push(job{out: &packet.Packet{
			Kind:    packet.KFragNack,
			TxID:    p.TxID,
			Src:     p.Src,
			Dst:     p.Dst,
			OfKind:  p.Kind,
			Missing: missing,
		}, dst: from})
		return nil, false
	}
	seg, alias := buf.join()
	if uint32(len(seg)) > p.SegLen {
		seg = seg[:p.SegLen]
	}
	p.Msg.Seg = seg
	p.FragCount = 0
	delete(e.reasm, key)
	buf.timer.Stop()
	lent = buf.seg
	if !alias {
		e.segs.Put(buf.seg)
		lent = nil
	}
	buf.seg = nil
	e.reasms.Put(buf)
	return lent, true
}

// lendInlineMin is the shortest inline segment lent to its receiver in its
// frame's payload instead of copied out. A receiver that never hands the
// payload back then makes the frame list allocate one, under three times
// what the copy would have.
const lendInlineMin = packet.InlineSegMax/2 + 1

// takeInline makes an inline segment of a packet netd is receiving outlive
// the frame, whose payload it is a slice of: a long one is lent in the
// payload, if the frame is Lent (returned), and a short one copied out. A
// short request segment is copied into *short, the buffer its Req kept
// from the last one a server released, if it has room, and lent too
// (returned): a server that releases it (ReleaseSeg) gives it back to the
// Req. A packet delivered on this station carries its sender's segment
// itself.
func (e *Engine) takeInline(p *packet.Packet, short *[]byte) []byte {
	if p != &e.rx || len(p.Msg.Seg) == 0 {
		return nil
	}
	if e.rxLend != nil && len(p.Msg.Seg) >= lendInlineMin {
		buf := e.rxLend
		e.rxLend = nil
		return buf
	}
	if short == nil || len(p.Msg.Seg) >= lendInlineMin {
		p.Msg.Seg = slices.Clone(p.Msg.Seg)
		return nil
	}
	b := append((*short)[:0], p.Msg.Seg...)
	*short, p.Msg.Seg = nil, b
	return b
}

// join returns the received fragments' bytes in index order: seg itself
// (alias true) when they lie end to end from its start, else a
// concatenation (a missing fragment's span is empty).
func (b *reasmBuf) join() (joined []byte, alias bool) {
	end := 0
	for _, f := range b.frags {
		if f.at != end {
			var out []byte
			for _, f := range b.frags {
				out = append(out, b.seg[f.at:f.at+f.n]...)
			}
			return out, false
		}
		end += f.n
	}
	return b.seg[:end:end], true
}

// deliverRequest handles an arriving KRequest.
func (e *Engine) deliverRequest(t *sim.Task, p *packet.Packet, from ethernet.MAC) {
	dst := p.Dst
	if dst.IsGroup() {
		// Each member gets the packet as it arrived, readdressed: whatever
		// delivering it to one member changed is put back for the next.
		arrived := *p
		for _, member := range e.res.GroupMembers(dst) {
			*p = arrived
			p.Dst = member
			e.deliverRequest(t, p, from)
		}
		return
	}
	lh := dst.LH()
	if !e.res.LHResident(lh) {
		e.stats.DroppedStale++
		return // stale routing; the sender will locate and retry
	}
	if e.res.Frozen(lh) && e.res.DeferWhenFrozen(dst, p.Msg.Op) {
		// §3.1.3: requests that modify a frozen logical host are
		// deferred; the kernel answers retransmissions with
		// reply-pending packets so the sender neither aborts nor
		// completes. Read-only operations (debugger queries) proceed.
		e.stats.DroppedFrozen++
		e.replyPending(p, from)
		return
	}
	if dst.IsWellKnown() {
		concrete, ok := e.res.WellKnown(lh, dst.Index())
		if !ok {
			e.answer(packet.KNoProc, p, from)
			return
		}
		if e.GroupIndirection {
			// The paper's measured 100 µs local-group-identifier
			// indirection on every kernel-server/team-server operation.
			e.cpu.Use(t, params.GroupIndirectCPU, params.PrioKernel)
		}
		dst = concrete
	}
	port := e.ports[dst]
	if port == nil {
		e.answer(packet.KNoProc, p, from)
		return
	}
	port.request(p, from)
}

// deliverReply handles an arriving KReply. A reply that names a logical
// host (Port.ReplyNaming) comes from the station that host lives on, so the
// binding is learnt as from a locate response.
func (e *Engine) deliverReply(t *sim.Task, p *packet.Packet, from ethernet.MAC) {
	if p.LH != 0 && from != e.nic.MAC() && !e.res.LHResident(p.LH) {
		e.cacheInsert(p.LH, from)
	}
	lh := p.Dst.LH()
	if !e.res.LHResident(lh) {
		e.stats.DroppedStale++
		return
	}
	if e.res.Frozen(lh) {
		// §3.1.3: replies to a frozen logical host are discarded; the
		// migrated process's continued retransmission will recover the
		// reply from the replier's cache after unfreezing.
		e.stats.DroppedFrozen++
		return
	}
	port := e.ports[p.Dst]
	if port == nil || port.send == nil || !port.send.awaits(p.TxID) {
		return // duplicate or stale reply
	}
	lent, ok := e.completeSeg(p, from, nil)
	if !ok {
		return
	}
	port.answered(p.Src, p.Msg, lent)
}

// replyPending emits a reply-pending packet for the given request.
func (e *Engine) replyPending(p *packet.Packet, from ethernet.MAC) {
	e.stats.ReplyPendings++
	e.publish(trace.Event{Kind: trace.EvReplyPending, Pkt: p})
	e.answer(packet.KReplyPending, p, from)
}

// answer sends the sender of request p, at station from (this one for a
// local sender), a packet of the kind given: reply-pending, or no-process
// (the destination does not exist).
func (e *Engine) answer(kind packet.Kind, p *packet.Packet, from ethernet.MAC) {
	e.jobs.Push(job{hdr: header{kind: kind, txid: p.TxID, src: p.Dst, dst: p.Src}, dst: from})
}

// route decides where a destination PID currently lives. ok=false means
// the logical host is unbound and the caller should rely on retransmission:
// a locate is broadcast unless one went out less than a RetransmitInterval
// ago, whose answer (evBound) resends every transaction waiting on lh.
func (e *Engine) route(dst vid.PID) (mac ethernet.MAC, local, ok bool) {
	lh := dst.LH()
	if dst.IsGroup() {
		// Group traffic rides Ethernet multicast: only member stations'
		// receive filters accept it (§2.1's "multicast to the program
		// manager group" without waking every kernel on the segment).
		return ethernet.Multicast(uint16(lh)), false, true
	}
	if e.res.LHResident(lh) {
		return e.nic.MAC(), true, true
	}
	b := e.cache[uint32(lh)]
	if b.mac != 0 {
		e.stats.BindingHits++
		e.publish(trace.Event{Kind: trace.EvBindHit, LH: lh})
		return b.mac, false, true
	}
	e.stats.BindingMisses++
	e.publish(trace.Event{Kind: trace.EvBindMiss, LH: lh})
	now := e.sim.Now()
	if now < b.quiet {
		return 0, false, false
	}
	b.quiet = now.Add(params.RetransmitInterval)
	e.cache[uint32(lh)] = b
	e.stats.Locates++
	e.publish(trace.Event{Kind: trace.EvLocate, LH: lh})
	e.jobs.Push(job{hdr: header{kind: packet.KLocateReq, lh: lh}, dst: ethernet.Broadcast})
	return 0, false, false
}

// ------------------------------------------------------------- tail probe

// sampleRTT folds a round trip r of operation op into its estimate with
// RFC 6298's gains of 1/8 and 1/4; the first sample sets srtt = r and
// rttvar = r/2. A sample of a retransmitted request may be too long — V
// answers a transaction once — which can only delay a probe.
func (e *Engine) sampleRTT(op uint16, r time.Duration) {
	est, ok := e.rtts[uint32(op)]
	if !ok {
		e.rtts[uint32(op)] = rtt{srtt: r, rttvar: r / 2}
		return
	}
	e.rtts[uint32(op)] = rtt{srtt: (7*est.srtt + r) / 8, rttvar: (3*est.rttvar + (est.srtt - r).Abs()) / 4}
}

// pto is op's probe timeout, max(2·srtt, srtt + 4·rttvar), or 0 before its first sample.
func (e *Engine) pto(op uint16) time.Duration {
	est := e.rtts[uint32(op)]
	return max(2*est.srtt, est.srtt+4*est.rttvar)
}

// ------------------------------------------------------- failure detector
//
// The engine keeps a per-station suspicion table. SuspectAfterRetries
// unanswered retransmissions of one transaction condemn its whole station
// (clientTxn.step), failing every transaction to it fast (CodeHostDown)
// instead of letting each ride out its own ~5 s abort. *Any* packet from the
// station clears the suspicion (§3.1.3's "evidence of life", host-wide).

// station returns the engine's record of a station, growing the table to
// reach it.
func (e *Engine) station(mac ethernet.MAC) *station {
	if int(mac) >= len(e.stations) {
		e.stations = slices.Grow(e.stations, int(mac)+1-len(e.stations))[:mac+1]
	}
	return &e.stations[mac]
}

// lookStation returns the engine's record of a station without growing the
// table: the zero record for one never heard from nor suspected.
func (e *Engine) lookStation(mac ethernet.MAC) station {
	if int(mac) < len(e.stations) {
		return e.stations[mac]
	}
	return station{}
}

// Suspected reports whether the station is currently suspected dead.
func (e *Engine) Suspected(mac ethernet.MAC) bool { return e.lookStation(mac).suspected }

// Suspects returns the currently suspected stations in ascending order.
func (e *Engine) Suspects() []ethernet.MAC {
	var out []ethernet.MAC
	for mac, st := range e.stations {
		if st.suspected {
			out = append(out, ethernet.MAC(mac))
		}
	}
	return out
}

// suspectStation condemns a station and fails every in-flight transaction
// addressed to it. The published event's Size carries the detection latency
// (silence since the witnessing transaction's last evidence of life) in
// microseconds.
func (e *Engine) suspectStation(mac ethernet.MAC, lastAlive sim.Time) {
	st := e.station(mac)
	if st.suspected {
		return
	}
	now := e.sim.Now()
	st.suspected = true
	e.stats.HostSuspects++
	e.publish(trace.Event{Kind: trace.EvHostSuspect, Peer: uint16(mac), Size: int(now.Sub(lastAlive) / time.Microsecond)})
	for _, port := range e.portList {
		port.post(clientEv{kind: evSuspect, mac: mac})
	}
}

// clearSuspicion retracts st's standing suspicion of mac on evidence of
// life.
func (e *Engine) clearSuspicion(st *station, mac ethernet.MAC) {
	st.suspected = false
	e.stats.HostClears++
	e.publish(trace.Event{Kind: trace.EvHostClear, Peer: uint16(mac)})
}
