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
	"maps"
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
	Forwarded        int64
	DroppedFrozen    int64
	DroppedStale     int64
	LocalDeliveries  int64

	// Binding-cache activity (§3.1.4). Hits and misses count route
	// lookups; invalidations count explicit discards (retransmission
	// overrun, experiments); evictions count LRU displacement at
	// params.BindingCacheCap.
	BindingHits          int64
	BindingMisses        int64
	BindingInvalidations int64
	BindingEvictions     int64

	// Failure-detector activity: stations this engine started suspecting
	// (params.SuspectAfterRetries unanswered retransmissions of a single
	// transaction) and suspicions cleared by evidence of life.
	HostSuspects int64
	HostClears   int64

	// Bulk-transfer window activity: transactions issued through copy
	// windows (always equal to the EvCopyWindow trace count for this host)
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
	cache    map[vid.LHID]*bindEntry
	cacheSeq uint64 // recency clock for LRU eviction
	cacheCap int    // binding-cache capacity (params.BindingCacheCap default)
	jobs     sim.Queue[job]
	// Two scratch packets, so that the per-frame paths allocate no Packet.
	// Each is filled and finished with — traced (subscribers do not keep
	// Event.Pkt), marshalled, delivered by value or handed to the load sink
	// — by one task at a time: rx by netd alone, from decoding a frame until
	// recvFrame returns (netd blocks in between, and nothing else receives);
	// tx between two points where the sending task can block. Whatever
	// outlives that is a copy: a message is taken out of rx by value, a
	// fragment's bytes go to their slot, and a packet relayed through a
	// forwarding address is copied to be queued.
	rx    packet.Packet // the frame netd is receiving, of any kind
	tx    packet.Packet // the packet or fragment about to be transmitted
	reasm map[reasmKey]*reasmBuf
	txBuf map[reasmKey]*fragSource
	// segs recycles segment-sized buffers: the reassembly buffers handleFrag
	// fills, which come back from the consumers that copy a delivered
	// segment out (Port.ReleaseSeg, Port.ReleaseReply), and the buffers a
	// bulk-transfer window lends its sender to encode into (Window.SegBuf),
	// which come back when their transaction is reaped.
	segs     *freelist.Bytes
	forward  map[vid.LHID]ethernet.MAC
	suspects map[ethernet.MAC]sim.Time // station → when suspicion began
	heard    map[ethernet.MAC]sim.Time // station → last packet received from it
	rtts     map[uint16]rtt            // op code → its round-trip estimate (tail probe)
	winSeq   uint32                    // bulk-transfer window port allocation sequence
	stats    Stats
	trace    *trace.Bus       // nil until wired; nil bus is a no-op target
	down     bool             // crashed host: frames drop, queued work is discarded
	loadFn   func() [6]uint32 // kernel's load advertisement, stamped on replies
	loadSink func([6]uint32)  // consumer of received load advertisements

	// NoRebind disables the logical-host rebinding machinery (cache
	// invalidation after unanswered retransmissions): the Demos/MP
	// comparator, which relies on forwarding addresses instead (§5).
	NoRebind bool

	// GroupIndirection models the local-group-id lookup for well-known
	// indices; when enabled each such delivery charges GroupIndirectCPU
	// (the paper's measured 100 µs, §4.1). Disabled for the ablation.
	GroupIndirection bool
}

// rtt is RFC 6298's round-trip estimate of one operation. Op spaces are
// partitioned by service, so an op code names one service's operation.
type rtt struct{ srtt, rttvar time.Duration }

type job struct {
	// Exactly one of out, rx, local and fn is set.
	out   *packet.Packet  // transmit to station dst
	dst   ethernet.MAC    // with out
	rx    bool            // frame arrived
	frame ethernet.Frame  // with rx
	local *packet.Packet  // intra-host delivery
	fn    func(*sim.Task) // arbitrary deferred kernel work
}

// bindEntry is one logical-host→station binding with its LRU recency
// stamp (unique per touch, so eviction has a single deterministic victim).
type bindEntry struct {
	mac  ethernet.MAC
	used uint64
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
// kept past the slots, and completeSeg joins the pieces.
type reasmBuf struct {
	seg   []byte     // len(frags) slots of FragChunk, then any misfits; from Engine.segs
	frags []fragSpan // where each fragment's bytes are
	got   int
	timer sim.Timer // gives up on the segment after FragReassemblyTTL
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
type fragSource struct {
	seg     []byte
	summary *packet.Packet
	txn     *sendTxn  // the send transaction seg belongs to; nil for a reply
	timer   sim.Timer // drops the entry after ReplyCacheTTL
	sending bool      // the first transmission is still under way
}

// segBufsKept bounds an engine's free list of segment buffers: a window's
// worth in flight plus the one being encoded or consumed, for a host that
// is source and destination of a copy at once, rounded (256 KB at most).
const segBufsKept = 8

// New creates the engine for one host and starts its network daemon.
func New(se *sim.Engine, nic *ethernet.NIC, c *cpu.CPU, res Resolver) *Engine {
	e := &Engine{
		sim:              se,
		nic:              nic,
		cpu:              c,
		res:              res,
		ports:            make(map[vid.PID]*Port),
		cache:            make(map[vid.LHID]*bindEntry),
		cacheCap:         params.BindingCacheCap,
		reasm:            make(map[reasmKey]*reasmBuf),
		txBuf:            make(map[reasmKey]*fragSource),
		forward:          make(map[vid.LHID]ethernet.MAC),
		suspects:         make(map[ethernet.MAC]sim.Time),
		heard:            make(map[ethernet.MAC]sim.Time),
		rtts:             make(map[uint16]rtt),
		segs:             freelist.New(vid.SegMax, segBufsKept),
		GroupIndirection: true,
	}
	nic.SetRecv(func(f ethernet.Frame) {
		if e.down {
			return // powered off: the NIC hears nothing
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
// repair buffers, forwarding addresses, round-trip estimates, and any
// protocol work still queued for netd from before the crash — and powers
// the engine back on. Called when a crashed host reboots: a fresh kernel
// remembers nothing, and pre-crash jobs must not execute on it (netd
// discards them only lazily, so a quick crash/restart could otherwise
// leave them live).
func (e *Engine) Reset() {
	e.down = false
	e.jobs.Clear()
	e.cache = make(map[vid.LHID]*bindEntry)
	e.reasm = make(map[reasmKey]*reasmBuf)
	e.txBuf = make(map[reasmKey]*fragSource)
	e.forward = make(map[vid.LHID]ethernet.MAC)
	e.suspects = make(map[ethernet.MAC]sim.Time)
	e.heard = make(map[ethernet.MAC]sim.Time)
	e.rtts = make(map[uint16]rtt)
}

// PoisonFreed makes the engine overwrite every segment buffer handed back
// to its free list, so that a test reading one after its release fails
// instead of passing by luck.
func (e *Engine) PoisonFreed() { e.segs.PoisonFreed() }

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
// It does not touch recency or the hit/miss counters.
func (e *Engine) CacheLookup(lh vid.LHID) (ethernet.MAC, bool) {
	if be, ok := e.cache[lh]; ok {
		return be.mac, true
	}
	return 0, false
}

// CacheLen reports how many bindings are cached.
func (e *Engine) CacheLen() int { return len(e.cache) }

// SetBindingCacheCap resizes the binding cache. A server host answering N
// clients needs at least N reply-path bindings live at once: with fewer,
// every reply past the capacity evicts a binding another reply is about to
// need, each miss costs a locate broadcast, and under a full-cluster burst
// (boot registration, a select multicast's replies) the herd of 200 ms
// retransmissions regenerates the misses faster than locates resolve them —
// a livelock, not a slowdown. A host that listens for load beacons also
// holds one binding per beaconing station (the beacon's Src). Clusters therefore size
// the cache to the machine count; values below the params default are
// ignored.
func (e *Engine) SetBindingCacheCap(n int) {
	if n > e.cacheCap {
		e.cacheCap = n
	}
}

// cacheInsert records (or refreshes) a binding, evicting the least
// recently used entry when the cache is at capacity.
func (e *Engine) cacheInsert(lh vid.LHID, mac ethernet.MAC) {
	e.cacheSeq++
	if be := e.cache[lh]; be != nil {
		be.mac = mac
		be.used = e.cacheSeq
		return
	}
	if len(e.cache) >= e.cacheCap {
		var victim vid.LHID
		oldest := uint64(1<<64 - 1)
		for l, be := range e.cache {
			if be.used < oldest {
				oldest, victim = be.used, l
			}
		}
		delete(e.cache, victim)
		e.stats.BindingEvictions++
	}
	e.cache[lh] = &bindEntry{mac: mac, used: e.cacheSeq}
}

// InvalidateCache drops a binding — after unanswered retransmissions
// (§3.1.4) or from experiments forcing a locate. Counted and traced only
// when a binding was actually present.
func (e *Engine) InvalidateCache(lh vid.LHID) {
	if _, ok := e.cache[lh]; !ok {
		return
	}
	delete(e.cache, lh)
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
	e.emit(&packet.Packet{Kind: packet.KLoadAd, Src: src, Ad: e.loadFn(), HasAd: true},
		ethernet.Multicast(uint16(vid.GroupLoadListeners.LH())))
}

// BroadcastBinding announces that a logical host now resides on this host —
// the §3.1.4 optimization performed when a migrated logical host is
// unfrozen.
func (e *Engine) BroadcastBinding(lh vid.LHID) {
	e.publish(trace.Event{Kind: trace.EvRebind, LH: lh})
	e.emit(&packet.Packet{Kind: packet.KBinding, LH: lh}, ethernet.Broadcast)
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
		case j.rx:
			e.recvFrame(t, j.frame)
			// netd is a unicast frame's last holder, and recvFrame has
			// copied out of the payload everything that outlives it: an
			// inline segment in Unmarshal, a fragment into its slot.
			e.nic.Recycle(j.frame)
		case j.local != nil:
			cost := params.LocalDeliverCPU
			if n := len(j.local.Msg.Seg); n > 0 {
				cost += time.Duration((n+1023)/1024) * params.LocalCopyPerKB
			}
			e.cpu.Use(t, cost, params.PrioKernel)
			e.stats.LocalDeliveries++
			e.publish(trace.Event{Kind: trace.EvPktLocal, Pkt: j.local})
			e.dispatch(t, j.local, e.nic.MAC())
		case j.fn != nil:
			j.fn(t)
		}
	}
}

// emit queues a packet for transmission by netd.
func (e *Engine) emit(p *packet.Packet, dst ethernet.MAC) { e.jobs.Push(job{out: p, dst: dst}) }

// emitLocal queues a packet for intra-host delivery.
func (e *Engine) emitLocal(p *packet.Packet) { e.jobs.Push(job{local: p}) }

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
// the send transaction the segment belongs to, nil for a reply.
func (e *Engine) sendFragged(t *sim.Task, p *packet.Packet, dst ethernet.MAC, txn *sendTxn) {
	seg := p.Msg.Seg
	n := packet.NumFrags(len(seg))
	key := reasmKey{src: p.Src, dst: p.Dst, txid: p.TxID, kind: p.Kind}
	summary := *p
	summary.Msg.Seg = nil
	summary.SegLen = uint32(len(seg))
	summary.FragCount = uint16(n)
	e.dropFragSource(key)
	fs := &fragSource{seg: seg, summary: &summary, txn: txn, sending: true}
	e.txBuf[key] = fs
	for i := 0; i < n; i++ {
		e.cpu.Use(t, params.BulkSendCPU, params.PrioKernel)
		e.sendFrag(t, key, seg, i, dst)
	}
	e.cpu.Use(t, params.SmallPktSendCPU, params.PrioKernel)
	e.transmitFrame(t, &summary, dst, false)
	fs.sending = false
	if e.txBuf[key] == fs {
		// Bound how long the repair buffer is retained.
		fs.timer = e.sim.After(params.ReplyCacheTTL, func() {
			if e.txBuf[key] == fs {
				delete(e.txBuf, key)
			}
		})
	}
}

// dropFragSource forgets the repair buffer kept under key, if any, and its
// expiry timer with it.
func (e *Engine) dropFragSource(key reasmKey) {
	if fs := e.txBuf[key]; fs != nil {
		fs.timer.Stop()
		delete(e.txBuf, key)
	}
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
		e.publish(trace.Event{Kind: trace.EvPktRetx, Pkt: src.summary})
		e.sendFrag(t, key, src.seg, int(idx), to)
	}
	e.cpu.Use(t, params.SmallPktSendCPU, params.PrioKernel)
	e.transmitFrame(t, src.summary, to, false)
}

// recvFrame processes one arriving frame on netd.
func (e *Engine) recvFrame(t *sim.Task, f ethernet.Frame) {
	// Every kind is decoded in place: nothing below keeps the packet.
	p := &e.rx
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
		e.heard[from] = e.sim.Now()
		e.clearSuspicion(from)
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
			e.emit(&packet.Packet{Kind: packet.KLocateResp, LH: p.LH}, from)
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
		// Whatever the buffer's last user left in it is never read: join
		// exposes only bytes a fragment was copied over.
		buf = &reasmBuf{seg: e.segs.Get()[:n*packet.FragChunk], frags: make([]fragSpan, n)}
		e.reasm[key] = buf
		buf.timer = e.sim.After(params.FragReassemblyTTL, func() {
			if e.reasm[key] == buf {
				delete(e.reasm, key)
				e.segs.Put(buf.seg) // never delivered: nothing else refers to it
			}
		})
	}
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
// packet. It reports false (after NACKing the gaps) if fragments are
// missing. lent is the reassembly buffer when p.Msg.Seg is now a slice of
// it: whoever the message is delivered to may hand it back to e.segs once
// nothing refers to the segment any more.
func (e *Engine) completeSeg(p *packet.Packet, from ethernet.MAC) (lent []byte, ok bool) {
	if p.FragCount == 0 {
		return nil, true
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
		e.emit(&packet.Packet{
			Kind:    packet.KFragNack,
			TxID:    p.TxID,
			Src:     p.Src,
			Dst:     p.Dst,
			OfKind:  p.Kind,
			Missing: missing,
		}, from)
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
	if !alias {
		e.segs.Put(buf.seg)
		return nil, true
	}
	return buf.seg, true
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
		if fwd, ok := e.forward[lh]; ok {
			// Demos/MP-style forwarding address: relay to the host the
			// logical host moved to (§5). A residual dependency: the
			// relay fails if this host is rebooted.
			e.stats.Forwarded++
			relayed := *p // the queue outlives the packet netd decoded into
			e.emit(&relayed, fwd)
			return
		}
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
// binding is learnt as from a locate response; a relayed one no longer does,
// and the relay strips the name.
func (e *Engine) deliverReply(t *sim.Task, p *packet.Packet, from ethernet.MAC) {
	if p.LH != 0 && from != e.nic.MAC() && !e.res.LHResident(p.LH) {
		e.cacheInsert(p.LH, from)
	}
	lh := p.Dst.LH()
	if !e.res.LHResident(lh) {
		if fwd, ok := e.forward[lh]; ok {
			e.stats.Forwarded++
			relayed := *p
			relayed.LH = 0
			e.emit(&relayed, fwd)
			return
		}
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
	lent, ok := e.completeSeg(p, from)
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

// answer sends the sender of request p, at station from, a packet of the
// kind given: reply-pending, or no-process (the destination does not exist).
func (e *Engine) answer(kind packet.Kind, p *packet.Packet, from ethernet.MAC) {
	out := &packet.Packet{Kind: kind, TxID: p.TxID, Src: p.Dst, Dst: p.Src}
	if from == e.nic.MAC() {
		e.emitLocal(out)
	} else {
		e.emit(out, from)
	}
}

// route decides where a destination PID currently lives. ok=false means a
// locate was broadcast and the caller should rely on retransmission.
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
	if be, hit := e.cache[lh]; hit {
		e.cacheSeq++
		be.used = e.cacheSeq
		e.stats.BindingHits++
		e.publish(trace.Event{Kind: trace.EvBindHit, LH: lh})
		return be.mac, false, true
	}
	e.stats.BindingMisses++
	e.publish(trace.Event{Kind: trace.EvBindMiss, LH: lh})
	e.stats.Locates++
	e.publish(trace.Event{Kind: trace.EvLocate, LH: lh})
	e.emit(&packet.Packet{Kind: packet.KLocateReq, LH: lh}, ethernet.Broadcast)
	return 0, false, false
}

// ------------------------------------------------------------- tail probe

// sampleRTT folds a round trip r of operation op into its estimate with
// RFC 6298's gains of 1/8 and 1/4; the first sample sets srtt = r and
// rttvar = r/2. A sample of a retransmitted request may be too long — V
// answers a transaction once — which can only delay a probe.
func (e *Engine) sampleRTT(op uint16, r time.Duration) {
	est, ok := e.rtts[op]
	if !ok {
		e.rtts[op] = rtt{srtt: r, rttvar: r / 2}
		return
	}
	e.rtts[op] = rtt{srtt: (7*est.srtt + r) / 8, rttvar: (3*est.rttvar + (est.srtt - r).Abs()) / 4}
}

// pto is op's probe timeout, max(2·srtt, srtt + 4·rttvar), or 0 before its first sample.
func (e *Engine) pto(op uint16) time.Duration {
	est := e.rtts[op]
	return max(2*est.srtt, est.srtt+4*est.rttvar)
}

// ------------------------------------------------------- failure detector
//
// The engine keeps a per-station suspicion table. SuspectAfterRetries
// unanswered retransmissions of one transaction condemn its whole station
// (clientTxn.step), failing every transaction to it fast (CodeHostDown)
// instead of letting each ride out its own ~5 s abort. *Any* packet from the
// station clears the suspicion (§3.1.3's "evidence of life", host-wide).

// Suspected reports whether the station is currently suspected dead.
func (e *Engine) Suspected(mac ethernet.MAC) bool {
	_, bad := e.suspects[mac]
	return bad
}

// Suspects returns the currently suspected stations in ascending order.
func (e *Engine) Suspects() []ethernet.MAC {
	return slices.Sorted(maps.Keys(e.suspects))
}

// suspectStation condemns a station and fails every in-flight transaction
// addressed to it. The published event's Size carries the detection latency
// (silence since the witnessing transaction's last evidence of life) in
// microseconds.
func (e *Engine) suspectStation(mac ethernet.MAC, lastAlive sim.Time) {
	if _, dup := e.suspects[mac]; dup {
		return
	}
	now := e.sim.Now()
	e.suspects[mac] = now
	e.stats.HostSuspects++
	e.publish(trace.Event{Kind: trace.EvHostSuspect, Peer: uint16(mac), Size: int(now.Sub(lastAlive) / time.Microsecond)})
	for _, port := range e.portList {
		port.post(clientEv{kind: evSuspect, mac: mac})
	}
}

// clearSuspicion retracts a standing suspicion on evidence of life.
func (e *Engine) clearSuspicion(mac ethernet.MAC) {
	if _, bad := e.suspects[mac]; !bad {
		return
	}
	delete(e.suspects, mac)
	e.stats.HostClears++
	e.publish(trace.Event{Kind: trace.EvHostClear, Peer: uint16(mac)})
}

// SetForward installs a forwarding address for a migrated-away logical
// host (the Demos/MP comparator). Pass the zero MAC to clear.
func (e *Engine) SetForward(lh vid.LHID, mac ethernet.MAC) {
	if mac == 0 {
		delete(e.forward, lh)
		return
	}
	e.forward[lh] = mac
}
