// Package params centralizes every calibration constant of the simulated
// substrate. Each constant is annotated with the paper measurement it is
// calibrated against (Theimer, Lantz, Cheriton, SOSP '85, §4), so the
// experiment harness can cite the provenance of its expectations.
//
// The hardware being modeled is the paper's: SUN workstations with a 10 MHz
// 68010 (~1 MIPS) and 2 MB of memory on a 10 Mbit/s Ethernet.
package params

import "time"

// ---------------------------------------------------------------- hardware

const (
	// PageSize is the memory page granularity; dirty bits are kept per
	// page. 1 KB matches the granularity of the paper's Kbyte figures.
	PageSize = 1024

	// WorkstationMemory is the per-workstation physical memory (2 MB).
	WorkstationMemory = 2 * 1024 * 1024

	// InstrTime is the virtual cost of one VVM instruction: a 10 MHz
	// 68010 delivers roughly 1 MIPS.
	InstrTime = 1 * time.Microsecond

	// CPUQuantum is the scheduling quantum of the per-workstation CPU.
	// Preemption decisions are made at quantum boundaries.
	CPUQuantum = 1 * time.Millisecond
)

// CPU priorities, highest first. The pre-copy operation runs at PrioSystem:
// "executed at a higher priority than all other programs on the originating
// host" (§3.1.2); locally invoked programs outrank guests: "priority
// scheduling for locally invoked programs" (§2).
const (
	PrioKernel = iota // kernel server, network processing
	PrioSystem        // program manager, migration pre-copy, servers
	PrioLocal         // programs invoked by the workstation's owner
	PrioGuest         // remotely executed programs
	NumPrios
)

// ---------------------------------------------------------------- ethernet

const (
	// EthernetBitsPerSec is the raw medium rate (10 Mbit/s).
	EthernetBitsPerSec = 10_000_000

	// FrameOverheadBytes is preamble(8) + MAC header(14) + CRC(4) +
	// inter-frame gap(12).
	FrameOverheadBytes = 38

	// FrameMTU is the largest frame payload (Ethernet payload limit).
	FrameMTU = 1500
)

// ------------------------------------------------------- protocol CPU costs
//
// The 68010 could not keep a 10 Mbit Ethernet busy; measured V transfer
// rates are dominated by per-packet software cost. These constants are
// calibrated so that:
//
//   - inter-host address-space copy ≈ 3 s per Mbyte (§3.1, §4.1):
//     per 1 KB page ≈ BulkSendCPU + wire(1062 B ≈ 0.85 ms) ≈ 3.0 ms;
//   - program loading ≈ 330 ms per 100 KB (§4.1): the bulk path plus
//     FileServerBlockCPU per block ≈ 3.3 ms/KB;
//   - a remote Send-Receive-Reply round trip lands in the low
//     milliseconds, as measured for V on this hardware.
const (
	// SmallPktSendCPU is kernel CPU to emit a small (non-fragmented)
	// packet.
	SmallPktSendCPU = 700 * time.Microsecond

	// SmallPktRecvCPU is kernel CPU to accept and dispatch a small packet.
	SmallPktRecvCPU = 700 * time.Microsecond

	// LoadAdRecvCPU is kernel CPU to consume a load-advertisement beacon:
	// a fixed-format datagram folded into the load cache at interrupt
	// level — no reply, no reassembly, no process delivery. Charging the
	// full SmallPktRecvCPU here makes the 1 Hz beacon a 35% CPU tax on
	// every listening kernel of a 500-host cluster (N beacons/s × 700 µs);
	// the fast path keeps dissemination affordable. Only stations that
	// select under a load-aware policy listen (vid.GroupLoadListeners).
	LoadAdRecvCPU = 100 * time.Microsecond

	// BulkSendCPU is kernel CPU per full-size (1 KB payload) data frame.
	BulkSendCPU = 2150 * time.Microsecond

	// BulkRecvCPU is kernel CPU per received full-size data frame.
	BulkRecvCPU = 600 * time.Microsecond

	// LocalDeliverCPU is the cost of an intra-host message delivery.
	LocalDeliverCPU = 300 * time.Microsecond

	// LocalCopyPerKB is the additional intra-host cost per Kbyte of
	// message segment (a memory-to-memory copy on a ~1 MIPS machine).
	LocalCopyPerKB = 100 * time.Microsecond

	// FileServerBlockCPU is extra file-server CPU per 1 KB block read or
	// written (buffer-cache lookup, disk scheduling).
	FileServerBlockCPU = 300 * time.Microsecond
)

// --------------------------------------------------------- retransmission

const (
	// RetransmitInterval is the gap between retransmissions of an
	// unanswered request. A request nothing else in flight covers (a lone
	// send, or a copy window's tail once it drains) is first probed once,
	// max(2·srtt, srtt + 4·rttvar) of its operation's round trip after it
	// was sent (ipc's tail probe, RFC 8985 §7), when that comes sooner;
	// the probe is no tick, and the intervals, relocation, abort and the
	// failure detector count from the first transmission as before.
	RetransmitInterval = 200 * time.Millisecond

	// LocateAfterRetries: after this many unanswered retransmissions the
	// logical-host cache entry is invalidated and the reference is
	// broadcast (§3.1.4 "small number of retransmissions").
	LocateAfterRetries = 3

	// AbortAfterRetries: a transaction with no evidence of life (no
	// reply-pending packets) for this many retransmissions aborts.
	AbortAfterRetries = 25

	// GroupAbortAfterRetries bounds group sends, which legitimately may
	// have no responder.
	GroupAbortAfterRetries = 3

	// ReplyCacheTTL is how long a replier retains the last reply for
	// retransmission to a duplicate request.
	ReplyCacheTTL = 4 * time.Second

	// FragReassemblyTTL bounds how long a partially reassembled
	// multi-frame packet is retained.
	FragReassemblyTTL = 2 * time.Second
)

// ------------------------------------------------------ measured-cost knobs
//
// Each of these reproduces a specific measured figure from §4.1/§4.2.

const (
	// KernelOpCPU: base cost of a kernel-server operation (dispatch,
	// validation, table updates).
	KernelOpCPU = 1 * time.Millisecond

	// SelectProbeCPU: program-manager CPU to evaluate a host-selection
	// query (load/memory check plus scheduling delay). Calibrated so the
	// first response to a multicast selection request arrives in ≈23 ms.
	SelectProbeCPU = 19 * time.Millisecond

	// EnvSetupCPU: program-manager + kernel-server CPU to create a new
	// execution environment (address space, initial process, argument
	// and environment initialization). Paired with EnvDestroyCPU it is
	// calibrated to the paper's 40 ms setup+destroy figure.
	EnvSetupCPU = 22 * time.Millisecond

	// EnvDestroyCPU: CPU to tear an execution environment down.
	EnvDestroyCPU = 12 * time.Millisecond

	// KernelStateBaseCPU: fixed cost of copying a logical host's kernel
	// server + program manager state ("14 milliseconds plus ...").
	KernelStateBaseCPU = 11 * time.Millisecond

	// KernelStatePerItemCPU: "... an additional 9 milliseconds for each
	// process and address space".
	KernelStatePerItemCPU = 8 * time.Millisecond

	// FrozenCheckCPU: "13 microseconds is added to several kernel
	// operations to test whether a process is frozen" (§4.1). Charged on
	// every freeze-gated kernel operation when migration support is
	// enabled.
	FrozenCheckCPU = 13 * time.Microsecond

	// GroupIndirectCPU: "the overhead of identifying the team servers and
	// kernel servers by local group identifiers adds about 100
	// microseconds to every kernel server or team server operation".
	GroupIndirectCPU = 100 * time.Microsecond
)

// ------------------------------------------------------------- migration

// The pre-copy stopping policy is the paper's key design choice (§3.1.2).
// The first four are the defaults of the core.Options fields of the same
// names: a cluster is booted with its own values, which is how the ablation
// experiments sweep them; nothing here is ever written.
const (
	// PrecopyMaxRounds bounds pre-copy iterations: an initial full copy
	// plus up to two passes over modified pages. The paper found "usually
	// 2 pre-copy iterations were useful"; further passes shave little off
	// the residue but delay the migration.
	PrecopyMaxRounds = 3

	// PrecopyStopKB: stop iterating when the dirty residue is at most
	// this many Kbytes (further rounds cannot shrink it usefully).
	PrecopyStopKB = 16.0

	// PrecopyMinShrink: stop iterating when a round fails to shrink the
	// dirty set to at most this fraction of the previous round.
	PrecopyMinShrink = 0.7

	// CopyWindow is how many KsWritePages transactions the bulk-transfer
	// engine keeps in flight during address-space copies (and the flush
	// policy's page-out). 1 degenerates to the paper's stop-and-wait copy
	// loop; ~4 is enough to hide the reply-latency gap between runs and
	// keep the destination kernel server busy. Swept by E10. The
	// replication layer's catch-up stream always uses this value.
	CopyWindow = 4

	// HybridSampleInterval is how long the hybrid policy tracks dirty bits
	// (while the program runs) to identify the hot working set it
	// pre-copies before the identity swap. Long enough for a hot loop to
	// touch its whole set at Table 4-1 rates, short compared to a full
	// pre-copy round.
	HybridSampleInterval = 400 * time.Millisecond

	// FetchRunPages is how many pages a post-copy destination demand-fetches
	// per KsFetchPage request: the faulted page plus read-ahead. Max
	// kernel.MaxRunPages (the reply must encode as one page run).
	FetchRunPages = 8

	// ResidueDrainTimeout bounds how long a post-copy destination holds
	// the source's drain request for the last deferred pages to become
	// resident before declaring the residue lost. Orders of magnitude
	// above a healthy drain (milliseconds); it only fires when the
	// destination stops making progress entirely.
	ResidueDrainTimeout = 30 * time.Second
)

// SelectTimeout is how long a host-selection query waits for its first
// response before retrying.
const SelectTimeout = 500 * time.Millisecond

// ----------------------------------------------------------- host selection
//
// The decentralized scheduling layer (internal/sched) keeps a TTL'd cache
// of per-host load advertisements so that warm-cache selection can skip
// the multicast query entirely (all but a station's first selection).

const (
	// SchedCacheTTL is how long a cached load advertisement is considered
	// fresh enough to select on. Advertisements refresh continuously from
	// reply traffic and the periodic beacon.
	SchedCacheTTL = 2 * time.Second

	// SchedNegTTL is how long a host that refused (or failed to answer) a
	// direct probe stays negatively cached and is skipped by warm-cache
	// selection.
	SchedNegTTL = 2 * time.Second

	// SchedPlacementHold is how long the selector inflates a chosen host's
	// cached ready-queue depth after placing work there, bridging the gap
	// until the new program shows up in that host's own advertisements
	// (avoids the herd effect of several quick placements all picking the
	// same momentarily least-loaded host).
	SchedPlacementHold = 1 * time.Second

	// LoadBeaconInterval is the period of the load-advertisement beacon,
	// sent to the stations that listen for it. Beacons run only when a
	// load-aware selection policy is configured; the paper-baseline
	// first-response policy generates no extra traffic.
	LoadBeaconInterval = 1 * time.Second

	// SelectGatherWindow is how long a gathering selection query collects
	// multicast responses before choosing (every idle manager answers in
	// ≈23 ms; the window adds slack for queueing and reply serialization).
	SelectGatherWindow = 80 * time.Millisecond

	// SelectProbeWindow bounds the *silence* of a direct (unicast) probe of
	// a cached candidate: an answer ends the probe when it arrives (≈25 ms),
	// and silence past the window negatively caches the candidate instead
	// of riding out a full send abort.
	SelectProbeWindow = 150 * time.Millisecond

	// SelectRandomK is the default sample size of the RandomK policy
	// (power-of-K-choices: probe K random candidates, take the least
	// loaded of them).
	SelectRandomK = 2

	// SelectDallyPerHost scales the multicast select-response dally window
	// with cluster size: hosts answering a multicast query delay their
	// reply by a deterministic slot in [0, hosts × SelectDallyPerHost),
	// spreading the reply implosion that otherwise jams the shared segment
	// when hundreds of probes finish simultaneously. Unicast probes are
	// never dallied.
	SelectDallyPerHost = 100 * time.Microsecond

	// SelectDallyMax caps the dally window so the slowest slot (plus the
	// ≈19 ms probe evaluation) still lands inside SelectGatherWindow.
	SelectDallyMax = 60 * time.Millisecond

	// SelectDallyMinHosts is the cluster size below which replies are not
	// dallied: small clusters cannot implode, and the paper's measured
	// selection times (≈23 ms on a handful of machines) stay exact.
	SelectDallyMinHosts = 64

	// SelectReplyTarget is the expected number of responders to a
	// multicast select query on a large cluster. The query carries a
	// reply-permille; each manager hashes (MAC, TxID) against it and most
	// stay silent — without thinning, a 500-host cluster answers every
	// placement with ~500 replies the submitter's kernel must digest at
	// SmallPktRecvCPU each, and every host pays the ~19 ms probe
	// evaluation. Thinned-out hosts drop the query before evaluating.
	// Gated by SelectDallyMinHosts like the dally; unicast probes are
	// never thinned.
	SelectReplyTarget = 32
)

// --------------------------------------------------------- fault tolerance

const (
	// MigrateMaxAttempts bounds how many destinations a migration tries
	// before giving up (the paper's implementation "simply gives up" after
	// the first failure, §3.1.3; retrying to an alternate host preserves
	// its safety property — the original is unfrozen between attempts).
	MigrateMaxAttempts = 3

	// MigrateRetryBackoff is the delay before retrying a failed migration
	// to an alternate host, doubled per attempt.
	MigrateRetryBackoff = 500 * time.Millisecond

	// OrphanAdoptDelay: after an incoming migration receptacle assumes its
	// final identity (the LHID swap), the destination waits this long for
	// the source's unfreeze/assume messages before it starts *probing* the
	// source. Adoption is never taken on this delay alone — the destination
	// unfreezes the copy only when the source positively reports the
	// original gone, or after OrphanProbeAttempts consecutive unanswered
	// probes (each a full send abort, ~5 s), so a source that is merely
	// slow or briefly unreachable cannot race it into split-brain. Much
	// longer than the normal swap→unfreeze gap (milliseconds).
	OrphanAdoptDelay = 1 * time.Second

	// OrphanProbeAttempts: consecutive unanswered liveness probes of the
	// source (each one riding out a full send abort, AbortAfterRetries ×
	// RetransmitInterval ≈ 5 s) after which the destination presumes the
	// source dead and adopts the orphaned copy. Two attempts give ≈10 s of
	// continuous silence — comfortably longer than the source's own send
	// abort, so a live source always gets to resolve the hand-over first.
	// A partition that outlasts this window can still yield two live
	// copies; that residual ambiguity is inherent to fail-stop detection
	// by timeout.
	OrphanProbeAttempts = 2

	// OrphanSilence is the continuous probe-silence window orphan adoption
	// waits out before presuming the source dead. Historically this was
	// OrphanProbeAttempts full send aborts; with the failure detector
	// failing probes fast (CodeHostDown after SuspectAfterRetries ticks)
	// the window is enforced by the clock instead of by counting aborts,
	// preserving the ≈10 s split-brain guard.
	OrphanSilence = OrphanProbeAttempts * AbortAfterRetries * RetransmitInterval

	// SuspectAfterRetries: after this many consecutive unanswered
	// retransmissions of any single transaction to a station, the failure
	// detector suspects the whole station and fails every in-flight
	// transaction to it with CodeHostDown (detection ≈ 1 s versus the ~5 s
	// individual send abort). Reply-pending packets and any other traffic
	// from the station reset the evidence.
	SuspectAfterRetries = 5

	// LeaseInterval is the heartbeat period of the exec-session lease the
	// originating program manager exchanges with the hosting program
	// manager for every supervised remote job.
	LeaseInterval = 1 * time.Second

	// ExecMaxRestarts bounds how many times a supervised session is
	// re-executed from its file-server image after its hosting workstation
	// is lost.
	ExecMaxRestarts = 2

	// ExecRestartBackoff is the delay before a failed recovery attempt is
	// retried, doubled per accumulated restart.
	ExecRestartBackoff = 500 * time.Millisecond

	// WaitMaxMoves caps how many CodeMoved redirects (or transport-error
	// retargets to the home manager) a single Wait follows before giving
	// up, so a buggy or split-brain manager pair cannot bounce a waiter
	// forever.
	WaitMaxMoves = 8

	// ReceptacleTTL is the *inactivity* bound on an incoming migration
	// receptacle that never assumed its final identity: if no state writes
	// (page runs, kernel state) arrive for this long, the source is
	// presumed dead mid-copy and the frozen placeholder is destroyed so it
	// cannot pin memory forever. A slow but live transfer keeps re-arming
	// the reaper with every arriving page run.
	ReceptacleTTL = 30 * time.Second
)

// ------------------------------------------------------------- replication
//
// The replicated-state-machine layer (internal/rsm) that backs the home
// program-manager group and the replicated file/name servers. Timeouts are
// sized against the ipc substrate: a heartbeat is a unicast transaction
// that survives one 200 ms retransmission under loss, so the election
// timeout must exceed a couple of worst-case heartbeat gaps or 5 % frame
// loss triggers spurious elections.

const (
	// RsmHeartbeatInterval is the leader's empty-append period per
	// follower; it doubles as the replication workers' retry pacing.
	RsmHeartbeatInterval = 150 * time.Millisecond

	// RsmElectionTimeoutMin is the minimum leader-silence window before a
	// replica campaigns. Several heartbeat periods plus retransmission
	// slack, so one lost heartbeat frame never forces an election.
	RsmElectionTimeoutMin = 800 * time.Millisecond

	// RsmElectionTimeoutSpread is the width of the randomized addition to
	// the election timeout. The draw is a deterministic hash of (station,
	// term), so timeouts stagger differently every term — the classic
	// split-vote breaker — while staying seed-reproducible.
	RsmElectionTimeoutSpread = 400 * time.Millisecond

	// RsmGatherWindow bounds the silence a multicast vote gather waits out:
	// a pre-vote or vote closes at its majority, or at a reply carrying a
	// later term, and runs to the window only while a majority has not
	// answered — a dead or partitioned member. Long enough to catch one
	// retransmission of the request, short against the election timeout.
	// The rejoin hello, which cannot know how many will answer, runs it
	// whole.
	RsmGatherWindow = 250 * time.Millisecond

	// RsmBatchEntries caps the log entries carried by one append; larger
	// backlogs switch the replication worker to the windowed catch-up
	// pipeline.
	RsmBatchEntries = 16

	// RsmBatchBytes caps the command bytes in one append batch so the
	// encoded request stays within a single message segment.
	RsmBatchBytes = 24 * 1024

	// RsmSnapshotEntries is the applied-log length that triggers
	// compaction into a state-machine snapshot.
	RsmSnapshotEntries = 64

	// RsmSnapChunkBytes is the payload size of one snapshot catch-up
	// chunk (must stay well under vid.SegMax with its header).
	RsmSnapChunkBytes = 16 * 1024

	// RsmMaxCmd bounds one replicated command so an append carrying it
	// plus framing still fits a single message segment.
	RsmMaxCmd = 24 * 1024

	// RsmSubmitTimeout bounds how long a Submit waits for its entry to
	// commit. A leader cut off from the majority (a stale minority
	// leader) hits this instead of blocking forever — the fence that
	// keeps it from acting on uncommitted intents.
	RsmSubmitTimeout = 3 * time.Second

	// RsmSyncWindow is how recently a follower must have heard from the
	// leader (and be applied up to the leader's commit index) to answer
	// reads; beyond it the follower stays silent and reads fall to the
	// leader.
	RsmSyncWindow = 3 * RsmHeartbeatInterval

	// RsmStickyLeader is how recently a replica must have heard from a
	// live leader to deny pre-vote probes. It is deliberately shorter than
	// RsmElectionTimeoutMin by two heartbeats: a follower whose own
	// election deadline just fired has necessarily gone at least
	// (timeout - one peer-skew heartbeat) without leader contact, so its
	// first pre-vote round is granted, while a healthy leader heartbeating
	// every RsmHeartbeatInterval keeps every follower inside the window
	// and disruptors fenced out.
	RsmStickyLeader = RsmElectionTimeoutMin - 2*RsmHeartbeatInterval

	// RsmFailoverBudget is the asserted bound on leader failover: crash →
	// election timeout (min+spread) → election → barrier commit, plus
	// slack. An election whose gathers close at their majorities takes a
	// few ms, so the three windows and the slack are headroom now: for a
	// round that does not close early — a loser that waits out the dead
	// member's silence — and for retransmissions under loss. The F3
	// experiment and the bench failover workload hold every observed
	// failover under this; the worst seen is 1.13 s.
	RsmFailoverBudget = RsmElectionTimeoutMin + RsmElectionTimeoutSpread +
		3*RsmGatherWindow + 550*time.Millisecond
)

// WireTime returns the transmission time of a frame with n payload bytes on
// the shared Ethernet.
func WireTime(n int) time.Duration {
	bits := (n + FrameOverheadBytes) * 8
	return time.Duration(float64(bits) / EthernetBitsPerSec * float64(time.Second))
}
