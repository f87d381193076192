// Package ethernet simulates a shared 10 Mbit/s Ethernet segment: a single
// broadcast medium on which frames serialize, with optional loss injection.
//
// The model is deliberately simple — FIFO access to the medium rather than
// CSMA/CD — because the behaviours the reproduction depends on are frame
// serialization at 10 Mbit/s, broadcast/multicast delivery, and packet
// loss. Propagation delay on a building-scale segment (< 10 µs) is folded
// into the per-frame overhead.
package ethernet

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"vsystem/internal/freelist"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// MAC is a station address on the segment.
type MAC uint16

// Broadcast addresses every station.
const Broadcast MAC = 0xFFFF

// MulticastBit marks a multicast (group) address. Station addresses are
// small integers and never carry it.
const MulticastBit MAC = 0x8000

// Multicast forms the multicast address for a group id.
func Multicast(id uint16) MAC { return MAC(id) | MulticastBit }

// IsMulticast reports whether the address is a multicast group address.
func (m MAC) IsMulticast() bool { return m != Broadcast && m&MulticastBit != 0 }

func (m MAC) String() string {
	if m == Broadcast {
		return "mac:*"
	}
	if m.IsMulticast() {
		return fmt.Sprintf("mac:g%02x", uint16(m&^MulticastBit))
	}
	return fmt.Sprintf("mac:%02x", uint16(m))
}

// Frame is one unit of transmission.
type Frame struct {
	Src, Dst MAC
	Payload  []byte
	// Lent marks a Payload that was built in a buffer from the segment's
	// free list (NIC.FrameBuf) and has had one holder at a time since: the
	// sender, the bus, the one station the frame is addressed to. Whoever
	// holds such a frame last may hand the buffer back with NIC.Recycle;
	// the bus does for one it drops or delivers to nobody. The bus clears
	// the mark on a frame with several receivers, and on the copy it
	// delivers in place of a corrupted frame.
	Lent bool
}

// Size returns the payload size in bytes.
func (f Frame) Size() int { return len(f.Payload) }

// LossFunc decides whether a frame is dropped in transit. It may be nil (no
// loss). It is consulted once per frame; a dropped frame still occupies the
// medium for its transmission time.
type LossFunc func(f Frame) bool

// CutFunc decides whether delivery of a frame from src to dst is suppressed
// (a network partition). It may be nil (no cuts). It is consulted once per
// receiver at delivery time; a cut frame still occupies the medium.
type CutFunc func(src, dst MAC) bool

// CorruptFunc decides whether a frame is mangled in transit: the frame is
// delivered, but with its first payload byte zeroed, so the receiver's
// packet layer rejects it as corrupt. It may be nil (no corruption). Like
// LossFunc it is consulted once per frame.
type CorruptFunc func(f Frame) bool

// Stats aggregates segment-level counters.
type Stats struct {
	Frames     int64
	Bytes      int64
	Dropped    int64
	Corrupted  int64
	Cut        int64 // suppressed deliveries (per receiver)
	Broadcasts int64
	BusyTime   time.Duration
}

// Bus is the shared segment.
type Bus struct {
	eng *sim.Engine
	// stations is indexed by station address, so that a frame finds its
	// receiver without hashing the address; nil where none is attached.
	stations []*NIC
	order    []*NIC // attach order, for deterministic broadcast delivery
	// members lists each multicast address's subscribed stations in attach
	// order: a group frame visits its members, not the whole segment. A
	// join or leave replaces the list, so a delivery loop never sees it
	// change under it. Keyed by the address widened to 32 bits, which the
	// runtime hashes without its generic path.
	members   map[uint32][]*NIC
	busyUntil sim.Time
	// flight holds the frames on the wire, oldest first. busyUntil only
	// moves forward, so frames leave the wire in the order they entered it
	// and each one's delivery event (arrived, bound once) takes the head.
	flight  sim.Queue[inflight]
	arrived func()
	// bufs recycles the payloads of unicast frames. The bus lends them,
	// and takes back one it is the last holder of: a frame it drops, or
	// one the station it is addressed to does not take.
	bufs *freelist.Bytes
	// pages recycles the page frames of the cluster's address spaces, and
	// segs the message segment buffers of its IPC engines. Neither crosses
	// the wire; the lists hang here because the segment is the one thing
	// every kernel of a cluster is built on.
	pages   *freelist.Bytes
	segs    *freelist.Bytes
	loss    LossFunc
	cut     CutFunc
	corrupt CorruptFunc
	stats   Stats
	trace   *trace.Bus // nil until wired; nil bus is a no-op target
}

// station returns the NIC attached at an address (nil for none).
func (b *Bus) station(mac MAC) *NIC {
	if int(mac) < len(b.stations) {
		return b.stations[mac]
	}
	return nil
}

// inflight is a transmitted frame awaiting delivery at its transmission
// end, with the fate decided for it at transmit time.
type inflight struct {
	f                  Frame
	dropped, corrupted bool
}

// NewBus creates an empty segment on the engine.
func NewBus(eng *sim.Engine) *Bus {
	b := &Bus{
		eng:     eng,
		members: make(map[uint32][]*NIC),
		bufs:    freelist.New(params.FrameMTU, frameBufsKept, eng.Poison()),
		pages:   freelist.New(params.PageSize, pageFramesKept, eng.Poison()),
		segs:    freelist.New(vid.SegMax, segBufsKept, eng.Poison()),
	}
	b.arrived = b.arrive
	return b
}

// The bounds of the cluster's lists, whatever its host count, each above
// the most it held in bench's workloads (DESIGN §8).
const (
	frameBufsKept  = 512  // frames in flight and queued, short replies cached: 768 KB
	pageFramesKept = 1024 // frames of spaces released and not yet remade: 1 MB
	segBufsKept    = 64   // copies' segments and reassemblies, long replies cached: 2 MB
)

// FrameBufs returns the segment's free list of frame payloads (NIC.FrameBuf).
func (b *Bus) FrameBufs() *freelist.Bytes { return b.bufs }

// PageFrames returns the cluster's free list of page frames, which the
// kernels attached to the segment make their address spaces on.
func (b *Bus) PageFrames() *freelist.Bytes { return b.pages }

// SetLoss installs a loss model. RandomLoss(p, eng) is the common choice.
func (b *Bus) SetLoss(f LossFunc) { b.loss = f }

// Loss returns the installed loss model (nil if none) so a fault injector
// can save and restore it around a loss burst.
func (b *Bus) Loss() LossFunc { return b.loss }

// SetCut installs a partition model consulted per receiver at delivery
// time (nil to clear).
func (b *Bus) SetCut(f CutFunc) { b.cut = f }

// SetCorrupt installs a corruption model (nil to clear).
func (b *Bus) SetCorrupt(f CorruptFunc) { b.corrupt = f }

// Corrupt returns the installed corruption model (nil if none).
func (b *Bus) Corrupt() CorruptFunc { return b.corrupt }

// Stats returns a copy of the segment counters.
func (b *Bus) Stats() Stats { return b.stats }

// SetTraceBus wires the segment to the cluster's trace bus (nil to
// disable): every frame transmission and every in-transit loss is
// published.
func (b *Bus) SetTraceBus(t *trace.Bus) { b.trace = t }

// RandomLoss returns a LossFunc dropping each frame independently with
// probability p, drawing from the engine's deterministic random source.
func RandomLoss(eng *sim.Engine, p float64) LossFunc {
	return func(Frame) bool { return eng.Rand().Float64() < p }
}

// Attach creates a NIC with the given address. Addresses must be unique.
func (b *Bus) Attach(mac MAC) *NIC {
	if mac == Broadcast {
		panic("ethernet: cannot attach the broadcast address")
	}
	if b.station(mac) != nil {
		panic(fmt.Sprintf("ethernet: duplicate station %v", mac))
	}
	n := &NIC{bus: b, mac: mac, seq: len(b.order)}
	n.sent = n.wakeSender
	if int(mac) >= len(b.stations) {
		b.stations = slices.Grow(b.stations, int(mac)+1-len(b.stations))[:mac+1]
	}
	b.stations[mac] = n
	b.order = append(b.order, n)
	return n
}

// transmit serializes the frame on the medium and schedules delivery at
// transmission end. It returns the instant the medium becomes free.
func (b *Bus) transmit(f Frame) sim.Time {
	if len(f.Payload) > params.FrameMTU {
		panic(fmt.Sprintf("ethernet: frame payload %d exceeds MTU", len(f.Payload)))
	}
	if f.Dst == Broadcast || f.Dst.IsMulticast() {
		f.Lent = false // every receiver aliases the payload: nobody is last
	}
	now := b.eng.Now()
	start := b.busyUntil
	if start < now {
		start = now
	}
	wire := params.WireTime(len(f.Payload))
	end := start.Add(wire)
	b.busyUntil = end
	b.stats.Frames++
	b.stats.Bytes += int64(len(f.Payload))
	b.stats.BusyTime += wire
	dropped := b.loss != nil && b.loss(f)
	if dropped {
		b.stats.Dropped++
	}
	// Corruption is decided once per frame, at transmit time, so the random
	// draw order is independent of how many receivers exist.
	corrupted := !dropped && b.corrupt != nil && b.corrupt(f)
	if corrupted {
		b.stats.Corrupted++
		mangled := make([]byte, len(f.Payload))
		copy(mangled, f.Payload)
		if len(mangled) > 0 {
			mangled[0] = 0 // an invalid packet kind: rejected on receive
		}
		f.Payload, f.Lent = mangled, false
	}
	b.trace.Publish(trace.Event{
		At: start, Host: uint16(f.Src), Kind: trace.EvFrameTx,
		Size: len(f.Payload), Peer: uint16(f.Dst),
	})
	b.flight.Push(inflight{f: f, dropped: dropped, corrupted: corrupted})
	b.eng.At(end, b.arrived)
	return end
}

// arrive runs at the transmission end of the oldest frame in flight and
// delivers it to its receivers.
func (b *Bus) arrive() {
	fl, ok := b.flight.TryPop()
	if !ok {
		panic("ethernet: delivery event with no frame in flight")
	}
	f, end := fl.f, b.eng.Now()
	if fl.dropped {
		b.trace.Publish(trace.Event{
			At: end, Host: uint16(f.Src), Kind: trace.EvFrameDrop,
			Size: len(f.Payload), Peer: uint16(f.Dst),
		})
		b.recycle(f)
		return
	}
	if fl.corrupted {
		b.trace.Publish(trace.Event{
			At: end, Host: uint16(f.Src), Kind: trace.EvFrameCorrupt,
			Size: len(f.Payload), Peer: uint16(f.Dst),
		})
	}
	if f.Dst == Broadcast {
		b.stats.Broadcasts++
		for _, n := range b.order {
			if n.mac != f.Src && n.recv != nil && !b.severed(f.Src, n.mac, len(f.Payload)) {
				n.deliver(f)
			}
		}
		return
	}
	if f.Dst.IsMulticast() {
		// Hardware multicast filter: only subscribed stations take the
		// receive interrupt. The frame still occupies the shared medium
		// like any other.
		b.stats.Broadcasts++
		for _, n := range b.members[uint32(f.Dst)] {
			if n.mac != f.Src && n.recv != nil && !b.severed(f.Src, n.mac, len(f.Payload)) {
				n.deliver(f)
			}
		}
		return
	}
	if n := b.station(f.Dst); n != nil && n.recv != nil && !b.severed(f.Src, f.Dst, len(f.Payload)) {
		n.deliver(f)
		return
	}
	b.recycle(f)
}

// recycle hands a frame's payload back to the free list if it came from
// there (Frame.Lent).
func (b *Bus) recycle(f Frame) {
	if f.Lent {
		b.bufs.Put(f.Payload)
	}
}

// severed applies the partition model to one delivery, counting and
// tracing suppressed ones.
func (b *Bus) severed(src, dst MAC, size int) bool {
	if b.cut == nil || !b.cut(src, dst) {
		return false
	}
	b.stats.Cut++
	b.trace.Publish(trace.Event{
		At: b.eng.Now(), Host: uint16(src), Kind: trace.EvFrameCut,
		Size: size, Peer: uint16(dst),
	})
	return true
}

// NIC is one station's interface.
type NIC struct {
	bus  *Bus
	mac  MAC
	seq  int // attach order on the bus
	recv func(Frame)

	// Tasks blocked in Send, oldest first, and the callback that wakes the
	// oldest when its frame leaves the wire, bound at Attach. The frames leave in
	// the order they were sent, and senders lists the tasks in that order,
	// killed ones included, which sendq no longer holds.
	senders sim.Queue[*sim.Task]
	sendq   sim.WaitQ
	sent    func()

	txFrames int64
	rxFrames int64
	txBytes  int64
	rxBytes  int64
}

// MAC returns the station address.
func (n *NIC) MAC() MAC { return n.mac }

// JoinMulticast programs the address into the receive filter. Frames to
// unsubscribed multicast addresses never reach this station's receive
// callback — the cost of a group send scales with the member count, not
// the segment population.
func (n *NIC) JoinMulticast(m MAC) {
	if !m.IsMulticast() {
		panic(fmt.Sprintf("ethernet: JoinMulticast(%v): not a multicast address", m))
	}
	ms := n.bus.members[uint32(m)]
	if i, in := n.member(ms); !in {
		n.bus.members[uint32(m)] = slices.Insert(slices.Clip(ms), i, n)
	}
}

// LeaveMulticast removes the address from the receive filter.
func (n *NIC) LeaveMulticast(m MAC) {
	ms := n.bus.members[uint32(m)]
	if i, in := n.member(ms); in {
		n.bus.members[uint32(m)] = slices.Delete(slices.Clone(ms), i, i+1)
	}
}

// member finds the NIC's place in a member list.
func (n *NIC) member(ms []*NIC) (int, bool) {
	return slices.BinarySearchFunc(ms, n.seq, func(x *NIC, seq int) int { return cmp.Compare(x.seq, seq) })
}

// SetRecv installs the delivery callback, invoked at frame arrival time on
// the engine goroutine.
func (n *NIC) SetRecv(fn func(Frame)) { n.recv = fn }

func (n *NIC) deliver(f Frame) {
	n.rxFrames++
	n.rxBytes += int64(len(f.Payload))
	n.recv(f)
}

// FrameBuf returns an empty buffer of capacity params.FrameMTU from the
// segment's free list, for building the payload of a frame addressed to
// one station; send it with Lent set.
func (n *NIC) FrameBuf() []byte { return n.bus.bufs.Get() }

// SegBufs returns the cluster's free list of message segment buffers
// (capacity vid.SegMax), which the IPC engines of the kernels attached to
// the segment share.
func (n *NIC) SegBufs() *freelist.Bytes { return n.bus.segs }

// Recycle hands a received frame's payload back to the segment's free list
// if it came from there (Frame.Lent). The caller must be the frame's last
// holder and must have let go of everything that aliases the payload.
// Not calling it is always safe: the payload falls to the collector.
func (n *NIC) Recycle(f Frame) { n.bus.recycle(f) }

// StartSend queues the frame for transmission and returns immediately; done
// (which may be nil) runs when the frame has left the wire.
func (n *NIC) StartSend(f Frame, done func()) {
	f.Src = n.mac
	n.txFrames++
	n.txBytes += int64(len(f.Payload))
	end := n.bus.transmit(f)
	if done != nil {
		n.bus.eng.At(end, done)
	}
}

// Send transmits the frame and blocks the calling task until it has left
// the wire, modeling a sender that does not overlap protocol processing of
// the next packet with the transmission of the current one (as the paper's
// 68010-class hosts could not).
func (n *NIC) Send(t *sim.Task, f Frame) {
	n.senders.Push(t)
	n.StartSend(f, n.sent)
	n.sendq.Wait(t)
}

// wakeSender runs when the oldest frame sent by Send has left the wire, and
// wakes the task that sent it, unless it was killed meanwhile.
func (n *NIC) wakeSender() {
	if t, _ := n.senders.TryPop(); !t.Killed() {
		n.sendq.WakeOne()
	}
}

// Counters reports frames sent and received by this NIC.
func (n *NIC) Counters() (tx, rx int64) { return n.txFrames, n.rxFrames }

// ByteCounters reports payload bytes sent and received by this NIC — the
// per-station hot-spot measure (file server, home program manager) that
// segment-level totals cannot attribute.
func (n *NIC) ByteCounters() (tx, rx int64) { return n.txBytes, n.rxBytes }
