// Package trace is the cluster-wide observability layer of the simulated
// V-System: a deterministic, allocation-light event bus that every
// substrate layer publishes into. A layer's counters are read from its own
// typed Stats(), not through the bus.
//
// The paper's headline results — millisecond freeze times, ≈3 s/Mbyte copy
// rates, "usually 2 pre-copy iterations were useful" (§3.1.2, §4.1) — are
// observability claims, so the reproduction carries a first-class trace
// subsystem rather than ad-hoc hooks:
//
//   - ethernet publishes frame transmissions and in-transit losses;
//   - ipc publishes packet send/receive/local-delivery, corrupt-frame
//     drops, retransmissions (timer-driven, binding-prompted, and
//     NACK-repair), reply-pending deferrals, locate broadcasts, and
//     new-binding broadcasts (§3.1.3, §3.1.4);
//   - kernel publishes freeze/unfreeze transitions and scheduler
//     dispatches;
//   - core publishes migration *phase spans*: host selection, each
//     pre-copy round with its dirty Kbytes, the freeze window, the frozen
//     residue copy, the kernel-state + LHID swap, and the rebinding
//     unfreeze (§3.1.2).
//
// One Bus exists per cluster. Publishing is cheap when nobody listens: a
// nil *Bus is a valid no-op target, and a live Bus without subscribers
// only bumps a per-kind counter. Subscribers run synchronously in
// subscription order on the simulation goroutine, so traces are exactly
// reproducible for a fixed seed. The bus only observes: no part of the
// simulated system subscribes, so nothing learns through it what a real
// workstation could not; its subscribers are the harness — experiments,
// tools, benchmarks and the fault injector.
package trace

import (
	"fmt"
	"time"

	"vsystem/internal/packet"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// Kind classifies an instantaneous event.
type Kind uint8

const (
	// EvFrameTx: ethernet put a frame on the wire.
	EvFrameTx Kind = iota
	// EvFrameDrop: the loss model discarded a frame in transit.
	EvFrameDrop
	// EvPktTx: ipc transmitted a packet.
	EvPktTx
	// EvPktRx: ipc received and decoded a packet.
	EvPktRx
	// EvPktLocal: ipc delivered a packet intra-host.
	EvPktLocal
	// EvPktDrop: ipc dropped a corrupt frame before decoding.
	EvPktDrop
	// EvPktRetx: ipc retransmitted (timer tick, binding prompt, or
	// fragment-NACK repair).
	EvPktRetx
	// EvReplyPending: ipc answered a deferred request with reply-pending
	// (busy or frozen destination, §3.1.3).
	EvReplyPending
	// EvLocate: ipc broadcast a locate request for an unknown binding.
	EvLocate
	// EvRebind: ipc broadcast a new logical-host binding (§3.1.4).
	EvRebind
	// EvFreeze: kernel froze a logical host.
	EvFreeze
	// EvUnfreeze: kernel unfroze a logical host.
	EvUnfreeze
	// EvDispatch: the CPU scheduler granted a slice — at most a quantum,
	// or, to a request with nothing queued at its priority or above, all
	// it still needs, however many quanta.
	EvDispatch
	// EvFrameCut: a network partition suppressed delivery of a frame to
	// one receiver (the frame still occupied the medium).
	EvFrameCut
	// EvFrameCorrupt: the corruption model mangled a frame in transit;
	// the receiver will count it as an RxCorrupt drop.
	EvFrameCorrupt
	// EvHostCrash: a workstation powered off (all logical hosts died).
	EvHostCrash
	// EvHostRestart: a crashed workstation rebooted with a fresh system
	// logical host and re-announced itself.
	EvHostRestart
	// EvPartition: the fault injector split the segment into two sets
	// that can no longer exchange frames.
	EvPartition
	// EvHeal: the fault injector removed all active partitions.
	EvHeal
	// EvMigFault: the fault injector fired a step armed at a migration
	// phase, usually killing a participant (Host is the step's target, Prio
	// carries the phase, Size the pre-copy round).
	EvMigFault
	// EvBindHit: the IPC binding cache resolved a logical host (§3.1.4).
	EvBindHit
	// EvBindMiss: the binding cache had no entry; a locate follows unless
	// one for the same logical host went out less than a
	// RetransmitInterval ago.
	EvBindMiss
	// EvBindInvalidate: a binding was discarded (retransmission overrun or
	// an explicit rebind).
	EvBindInvalidate
	// EvSelectQuery: the scheduling layer started a host-selection query
	// (Size carries the memory requirement in KB).
	EvSelectQuery
	// EvSelectCandidate: selection considered one candidate host (LH its
	// system logical host, Size its ready-queue depth, Prio 1 if it came
	// from the warm cache rather than a fresh multicast response).
	EvSelectCandidate
	// EvSelectChoice: selection committed to a host (LH the chosen system
	// logical host, Prio 1 if chosen warm — without a multicast).
	EvSelectChoice
	// EvSelectProbe: a directed probe of one cached candidate ended (Host
	// the prober, LH the candidate's system logical host, Prio 1 if it
	// answered — Size then carries the Ready it reported — and 0 if it
	// refused or stayed silent for the whole probe window).
	EvSelectProbe
	// EvHostSuspect: the failure detector on Host started suspecting the
	// station Peer after SuspectAfterRetries unanswered retransmissions
	// (Size carries the detection latency — silence since last evidence of
	// life — in microseconds).
	EvHostSuspect
	// EvHostClear: evidence of life (any packet from Peer) cleared a
	// standing suspicion on Host.
	EvHostClear
	// EvLeaseExpire: a supervised exec-session's lease with its hosting
	// manager expired or was refused; the session is broken (LH the
	// session's current logical host, Peer the hosting station).
	EvLeaseExpire
	// EvExecRestart: a broken session was re-executed from its file-server
	// image on a new host (LH the new logical host, Peer the new hosting
	// station, Prio the incarnation number).
	EvExecRestart
	// EvCopyWindow: the bulk-transfer engine issued a transaction — a
	// migration's copy, or an rsm heartbeat, append batch or snapshot
	// chunk (Host the issuing station, Size the number of
	// transactions in flight after the issue — the window occupancy, Peer
	// the destination). The per-engine Stats.WindowSends counter must
	// always equal the count of these events; tests hold the two to parity.
	EvCopyWindow
	// EvRemoteFault: a demand fault on a migrated program's address space
	// parked the faulting process and fetched the page remotely — from the
	// post-copy source receptacle or, for a flush migration, the file
	// server (Host the faulting station, LH the program's logical host,
	// Size the page number). The per-program PagerStats.Faults counters
	// must in aggregate equal the count of these events; tests hold the
	// two to parity.
	EvRemoteFault
	// EvElect: a replica of a consensus-backed service won an election
	// and became leader (LH the replica group's id, Prio the term, Size
	// the replica id). Each replica's rsm Stats.Elections counter must
	// equal the count of these events it published; tests hold the two to
	// parity.
	EvElect
	// EvCommit: a replica's commit index advanced (LH the replica group's
	// id, Size the number of newly committed entries, Prio the term).
	// Published by every replica — leaders on majority match, followers on
	// learning the leader's commit index — so the cluster-wide count is
	// the sum of per-replica Stats.Commits; parity-tested.
	EvCommit
	// EvFailover: a newly elected leader displaced a previously known,
	// different leader — a real failover rather than the boot election
	// (LH the replica group's id, Prio the term, Size the new leader's
	// replica id, Peer the old leader's replica id). Parity-tested
	// against Stats.Failovers.
	EvFailover

	numKinds
)

var kindNames = [numKinds]string{
	"frame-tx", "frame-drop", "tx", "rx", "local", "drop", "retx",
	"reply-pending", "locate", "rebind", "freeze", "unfreeze", "dispatch",
	"frame-cut", "frame-corrupt", "host-crash", "host-restart",
	"partition", "heal", "mig-fault", "bind-hit", "bind-miss",
	"bind-invalidate", "select-query", "select-candidate", "select-choice",
	"select-probe", "host-suspect", "host-clear", "lease-expire",
	"exec-restart", "copy-window", "remote-fault", "elect", "commit",
	"failover",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one instantaneous occurrence published by a layer. Packet
// events carry the decoded packet; frame events only its size (ethernet
// sits below the packet layer); kernel events carry the logical host.
//
// Pkt is valid for the duration of the subscriber call only: ipc reuses
// the packet behind a beacon or a fragment for the next one. A subscriber
// that wants anything of it later copies those fields out.
type Event struct {
	At   sim.Time
	Host uint16 // station MAC of the publishing host (0: none)
	Kind Kind
	Pkt  *packet.Packet // packet events; nil otherwise
	LH   vid.LHID       // freeze/unfreeze/locate/rebind events
	Prio int            // EvDispatch: priority level granted
	Size int            // frame payload bytes (frame events)
	Peer uint16         // destination MAC (frame events)
}

// Phase labels one migration phase span (§3.1.2).
type Phase uint8

const (
	// PhaseSelect: locating a willing host and initializing the new
	// copy's descriptors.
	PhaseSelect Phase = iota
	// PhasePrecopy: one pre-copy round (Round, KB filled in).
	PhasePrecopy
	// PhaseFreeze: the freeze window — Freeze until the unfreeze of the
	// new copy is acknowledged. It encloses residue, swap and rebind.
	PhaseFreeze
	// PhaseResidue: copying the frozen dirty residue.
	PhaseResidue
	// PhaseSwap: kernel/program-manager state copy and the LHID change.
	PhaseSwap
	// PhaseRebind: unfreezing the new copy and broadcasting the binding.
	PhaseRebind
	// PhasePostSwapPull: the post-copy residue window — from the commit of
	// the identity swap until the source receptacle has pushed out (or the
	// destination has pulled) every remaining page. The guest runs
	// throughout; only individual faulting references stall.
	PhasePostSwapPull

	numPhases
)

var phaseNames = [numPhases]string{
	"select", "precopy", "freeze", "residue", "swap", "rebind",
	"postswap-pull",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Span is one completed migration phase.
type Span struct {
	LH    vid.LHID
	Phase Phase
	Round int     // pre-copy round number (0-based); 0 otherwise
	KB    float64 // Kbytes moved during the span, where known
	Start sim.Time
	End   sim.Time
}

// Dur returns the span's length in virtual time.
func (s Span) Dur() time.Duration { return s.End.Sub(s.Start) }

func (s Span) String() string {
	return fmt.Sprintf("%v %v[%d] %.1fKB %v→%v (%v)",
		s.LH, s.Phase, s.Round, s.KB, s.Start, s.End, s.Dur())
}

// Bus is the cluster's event bus. The zero value is
// ready to use; a nil *Bus is a valid no-op publish target, so layers can
// publish unconditionally whether or not tracing is wired up.
type Bus struct {
	subs     []func(Event)
	spanSubs []func(Span)
	spans    []Span
	counts   [numKinds]int64
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe adds an event listener, invoked synchronously for every
// published event in subscription order.
func (b *Bus) Subscribe(fn func(Event)) { b.subs = append(b.subs, fn) }

// SubscribeSpans adds a span listener.
func (b *Bus) SubscribeSpans(fn func(Span)) { b.spanSubs = append(b.spanSubs, fn) }

// Publish delivers an event to all subscribers and bumps its kind
// counter. Publishing to a nil bus is a no-op.
func (b *Bus) Publish(ev Event) {
	if b == nil {
		return
	}
	b.counts[ev.Kind]++
	for _, fn := range b.subs {
		fn(ev)
	}
}

// PublishSpan records a completed migration phase span and notifies span
// subscribers. Publishing to a nil bus is a no-op.
func (b *Bus) PublishSpan(s Span) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, s)
	for _, fn := range b.spanSubs {
		fn(s)
	}
}

// Count reports how many events of the kind have been published.
func (b *Bus) Count(k Kind) int64 {
	if b == nil {
		return 0
	}
	return b.counts[k]
}

// Spans returns a copy of every span published so far, in publication
// order (spans are published at phase end, so ordered by End time).
func (b *Bus) Spans() []Span {
	if b == nil {
		return nil
	}
	out := make([]Span, len(b.spans))
	copy(out, b.spans)
	return out
}

// SpansFor returns the published spans of one logical host.
func (b *Bus) SpansFor(lh vid.LHID) []Span {
	var out []Span
	if b == nil {
		return nil
	}
	for _, s := range b.spans {
		if s.LH == lh {
			out = append(out, s)
		}
	}
	return out
}
