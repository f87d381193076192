// Package rsm is a deterministic replicated-state-machine layer over the V
// ipc transport — the consensus substrate that removes the home services'
// last single points of failure (ROADMAP item 2, the paper's §2.3 residual
// -dependency stance taken to its conclusion).
//
// The protocol is Raft-shaped: a replica set of N (typically 3) elects a
// leader with randomized election timeouts, the leader replicates a command
// log to its followers, and a command is applied to the deterministic state
// machine exactly when it commits on a majority. Each follower has one feed
// from the leader, an ipc.Window that carries its heartbeats, appends,
// catch-up batches and snapshot chunks alike — at size 1 the paper's
// stop-and-wait copy loop — and one rule reads every reply. Rejoining
// replicas catch up from the log or, past a compaction point, from a
// snapshot.
//
// Determinism: every timeout is drawn from the simulated clock, and the
// "randomized" election timeout is a hash of (station, replica id, term) —
// staggered per term like a random draw, but byte-reproducible for a fixed
// seed. State machines must be deterministic functions of the command
// sequence; anything time-like a command needs (lease stamps) must ride
// inside the command, never be read from the applying replica's clock.
//
// Durability model: each replica's persistent state (term, vote, log,
// snapshot) lives in a Store owned by the cluster harness — the simulation
// analog of the replica's disk. A crash kills the replica's processes; a
// restart re-attaches the same Store, so Raft's safety argument (a vote,
// once cast, survives reboot) holds across crash/rejoin cycles.
package rsm

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"vsystem/internal/ipc"
	"vsystem/internal/kernel"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// Replication protocol operations (0xA0 region).
const (
	// OpVote: Seg=VoteReq → Seg=VoteReply.
	OpVote uint16 = 0xA0 + iota
	// OpAppend: Seg=AppendReq → W0=term, W1=ok, W2=match index (ok) or
	// retry-from hint (reject).
	OpAppend
	// OpSnap: Seg=SnapChunk → W0=term, W1=ok, W2=the snapshot's last index
	// from the chunk that completes the install (its match), 0 otherwise.
	OpSnap
	// OpHello: a (re)joining replica announcing itself — W0=id, W1=its
	// replica-process PID, W2=its service PID → same words for the
	// responder, plus W3=leader id+1 (0 unknown), W4=term, W5=leader PID.
	OpHello
)

// StateMachine is the deterministic service state a replica set agrees on.
// Apply runs in commit order on every replica and returns the result bytes
// handed back to the leader-side submitter; it may charge simulated CPU
// against the given task but must not depend on wall/sim time or host
// identity for its state transitions.
type StateMachine interface {
	Apply(t *sim.Task, cmd []byte) []byte
	Snapshot() []byte
	Restore(snap []byte)
}

// Config wires one replica of a replica set.
type Config struct {
	Name   string  // service name (process labels, diagnostics)
	Group  vid.PID // the set's private replication group
	ID     int     // this replica's stable index, 0..N-1
	N      int     // replica-set size
	SvcPID vid.PID // co-located service process, advertised as redirect hint
	// OnLeading, when set, is called each time IsLeader may have changed:
	// when this replica's term-start barrier applies, and when it steps
	// down from the leader role. It runs inside one of the replica's
	// processes and must not block.
	OnLeading func()
}

// Store is a replica's durable state — the harness-owned stand-in for its
// disk. It must be created once per replica slot and re-passed to New on
// every restart of that replica's host.
type Store struct {
	Term      uint32
	VotedFor  int32 // replica id, -1 = none
	SnapData  []byte
	SnapIndex uint32 // index the snapshot covers through (0 = none)
	SnapTerm  uint32
	Log       []Entry // Log[i] holds index SnapIndex+1+i
}

// NewStore returns an empty durable store for one replica slot.
func NewStore() *Store { return &Store{VotedFor: -1} }

// Stats counts a replica's consensus activity; each counter is held to
// parity with the trace events the replica publishes.
type Stats struct {
	Elections    int64 // EvElect parity
	Failovers    int64 // EvFailover parity
	Commits      int64 // EvCommit parity (commit-index advances)
	Applied      int64
	SnapSends    int64
	SnapInstalls int64
}

type role uint8

const (
	follower role = iota
	candidate
	leader
)

func (r role) String() string {
	switch r {
	case leader:
		return "leader"
	case candidate:
		return "candidate"
	default:
		return "follower"
	}
}

// ErrNotLeader is returned by Submit on a non-leader replica; callers
// redirect to LeaderSvcPID (CodeNotLeader on the wire) or fall back to a
// group send.
var ErrNotLeader = errors.New("rsm: not leader")

// ErrTimeout is returned when a submitted entry fails to commit within
// params.RsmSubmitTimeout — the fate of every proposal made by a leader
// that has lost its majority (the stale-leader fence).
var ErrTimeout = errors.New("rsm: submit timed out awaiting commit")

// ErrTooBig is returned for commands over params.RsmMaxCmd.
var ErrTooBig = errors.New("rsm: command exceeds RsmMaxCmd")

type snapIn struct {
	term      uint32
	lastIndex uint32
	lastTerm  uint32
	total     uint32
	buf       []byte
	got       map[uint32]bool
	have      uint32
}

// Replica is one member of a replicated state machine.
type Replica struct {
	host *kernel.Host
	cfg  Config
	sm   StateMachine
	st   *Store

	proc     *kernel.Process // consensus process: receives every request
	candProc *kernel.Process // campaign process: runs the election rounds
	feeds    []*feed         // replication feed per peer (nil at ID)

	role     role
	leaderID int // last known leader, -1
	peerPID  []vid.PID
	svcPID   []vid.PID

	commit       uint32
	applied      uint32
	applying     bool
	leaderCommit uint32 // leader's commit index as last advertised

	electionDeadline  sim.Time
	lastLeaderContact sim.Time
	rounds            uint32    // campaign attempts, restaggers retry timeouts
	campaigning       bool      // a campaign round's gather is open
	electWake         sim.WaitQ // campaign process: deadline moved earlier, or leadership lost

	// leader volatile state
	nextIndex  []uint32
	matchIndex []uint32
	match      []uint32 // advanceCommit's sorted copy of matchIndex
	barrier    uint32   // index of this term's no-op fence entry

	repWake   sim.WaitQ // replication workers: new work / leadership
	applyWake sim.WaitQ // Submit waiters
	pending   map[uint32]struct{}
	results   map[uint32][]byte

	snap *snapIn

	stats Stats
}

// New attaches a replica to a host: restores the state machine from the
// durable store, spawns the consensus process, the campaign process and
// one replication worker per peer, and joins the set's replication group.
// The same Store must be re-passed on every restart of this replica slot.
func New(h *kernel.Host, cfg Config, sm StateMachine, store *Store) *Replica {
	if cfg.N < 1 || cfg.ID < 0 || cfg.ID >= cfg.N {
		panic(fmt.Sprintf("rsm: bad replica config id=%d n=%d", cfg.ID, cfg.N))
	}
	r := &Replica{
		host:     h,
		cfg:      cfg,
		sm:       sm,
		st:       store,
		leaderID: -1,
		peerPID:  make([]vid.PID, cfg.N),
		svcPID:   make([]vid.PID, cfg.N),
		feeds:    make([]*feed, cfg.N),
		pending:  make(map[uint32]struct{}),
		results:  make(map[uint32][]byte),
	}
	r.svcPID[cfg.ID] = cfg.SvcPID
	if store.SnapIndex > 0 {
		sm.Restore(store.SnapData)
	}
	r.commit = store.SnapIndex
	r.applied = store.SnapIndex
	r.resetElectionTimer(h.Eng.Now())
	r.proc = h.SpawnServer(fmt.Sprintf("rsm-%s-%d", cfg.Name, cfg.ID), 64*1024, r.run)
	h.JoinGroup(cfg.Group, r.proc.PID())
	r.candProc = h.SpawnServer(fmt.Sprintf("rsm-%s-%d-cand", cfg.Name, cfg.ID), 16*1024, r.elect)
	for p := 0; p < cfg.N; p++ {
		if p == cfg.ID {
			continue
		}
		peer := p
		r.feeds[peer] = &feed{win: h.IPC.NewWindow(h.SystemLH().ID(), params.CopyWindow)}
		r.feeds[peer].win.SetOnReply(func(_, rep vid.Message) { r.heard(peer, rep) })
		h.SpawnServer(fmt.Sprintf("rsm-%s-%d-rep%d", cfg.Name, cfg.ID, peer),
			16*1024, func(ctx *kernel.ProcCtx) { r.replicate(ctx, peer) })
	}
	return r
}

// ---------------------------------------------------------------- accessors

// ID returns the replica's stable index.
func (r *Replica) ID() int { return r.cfg.ID }

// PID returns the consensus process's identifier.
func (r *Replica) PID() vid.PID { return r.proc.PID() }

// Term returns the replica's current term.
func (r *Replica) Term() uint32 { return r.st.Term }

// Role returns the replica's current role as a string (tools).
func (r *Replica) Role() string { return r.role.String() }

// CommitIndex returns the replica's commit index.
func (r *Replica) CommitIndex() uint32 { return r.commit }

// AppliedIndex returns the replica's applied index.
func (r *Replica) AppliedIndex() uint32 { return r.applied }

// Stats returns a snapshot of the consensus counters.
func (r *Replica) Stats() Stats { return r.stats }

// IsLeader reports fenced leadership: the replica holds the role AND its
// term-start barrier has committed, so a majority has acknowledged this
// term. Services gate externally visible leader actions on this, never on
// the raw role.
func (r *Replica) IsLeader() bool {
	return r.role == leader && r.barrier > 0 && r.applied >= r.barrier
}

// LeaderID returns the last known leader's replica id, or -1.
func (r *Replica) LeaderID() int {
	if r.role == leader {
		return r.cfg.ID
	}
	return r.leaderID
}

// LeaderSvcPID returns the co-located service process of the last known
// leader (the CodeNotLeader redirect hint), or vid.Nil.
func (r *Replica) LeaderSvcPID() vid.PID {
	id := r.LeaderID()
	if id < 0 {
		return vid.Nil
	}
	return r.svcPID[id]
}

// Synced reports whether this replica may answer reads: it is the leader,
// or a follower with fresh leader contact that has applied everything the
// leader had committed as of that contact. Stale or partitioned followers
// stay silent and reads fall to the leader.
func (r *Replica) Synced(now sim.Time) bool {
	if r.role == leader {
		return r.IsLeader()
	}
	if r.snap != nil || r.applied < r.leaderCommit {
		return false
	}
	return r.leaderID >= 0 && now.Sub(r.lastLeaderContact) <= params.RsmSyncWindow
}

// ------------------------------------------------------------------ log ops

func (r *Replica) lastIndex() uint32 { return r.st.SnapIndex + uint32(len(r.st.Log)) }

func (r *Replica) lastTerm() uint32 {
	if len(r.st.Log) > 0 {
		return r.st.Log[len(r.st.Log)-1].Term
	}
	return r.st.SnapTerm
}

// termAt returns the term of the entry at idx, or 0 when unknown
// (compacted away or beyond the tail).
func (r *Replica) termAt(idx uint32) uint32 {
	switch {
	case idx == r.st.SnapIndex:
		return r.st.SnapTerm
	case idx > r.st.SnapIndex && idx <= r.lastIndex():
		return r.st.Log[idx-r.st.SnapIndex-1].Term
	default:
		return 0
	}
}

func (r *Replica) entryAt(idx uint32) Entry { return r.st.Log[idx-r.st.SnapIndex-1] }

func (r *Replica) appendLocal(cmd []byte) uint32 {
	r.st.Log = append(r.st.Log, Entry{Term: r.st.Term, Cmd: cmd})
	idx := r.lastIndex()
	r.matchIndex[r.cfg.ID] = idx
	return idx
}

// ----------------------------------------------------------------- main loop

// run is the consensus process. It answers every request and sends none —
// the campaign process (elect) and the replication workers (replicate) do
// the sending — so nothing it does waits on a peer, and a vote is answered
// even while this replica's own gather is open.
func (r *Replica) run(ctx *kernel.ProcCtx) {
	for {
		req := ctx.Receive()
		if req.Src == ctx.PID() || req.Src == r.candProc.PID() {
			// own group-delivered request (vote/hello multicast loopback)
			r.proc.Port().Drop(req)
			continue
		}
		switch req.Msg.Op {
		case OpVote:
			r.handleVote(ctx, req)
		case OpAppend:
			r.handleAppend(ctx, req)
		case OpSnap:
			r.handleSnap(ctx, req)
		case OpHello:
			r.handleHello(ctx, req)
		default:
			ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
		}
	}
}

// electionTimeout derives this term's randomized timeout: a deterministic
// hash of (station, id, term, campaign round) spread over
// RsmElectionTimeoutSpread, so colliding candidates stagger differently
// every attempt. The round counter matters because failed pre-votes leave
// the term unchanged — without it two colliding pre-voters would retry in
// lockstep forever.
func (r *Replica) electionTimeout() time.Duration {
	x := uint32(r.host.NIC.MAC())*2654435761 + uint32(r.cfg.ID)*97 +
		r.st.Term*40503 + r.rounds*7919
	x ^= x >> 13
	x *= 2246822519
	x ^= x >> 11
	spread := uint32(params.RsmElectionTimeoutSpread / time.Millisecond)
	return params.RsmElectionTimeoutMin + time.Duration(x%spread)*time.Millisecond
}

func (r *Replica) resetElectionTimer(now sim.Time) {
	next := now.Add(r.electionTimeout())
	if next < r.electionDeadline {
		r.electWake.WakeAll() // the campaign process sleeps until the old one
	}
	r.electionDeadline = next
}

// stepDown adopts a higher term and reverts to follower.
func (r *Replica) stepDown(term uint32, now sim.Time) {
	wasLeader := r.role == leader
	// Clear the vote only when adopting a strictly higher term: a same-term
	// step-down (candidate yielding to the term's elected leader) must keep
	// VotedFor, or the one-vote-per-term invariant breaks.
	if term > r.st.Term {
		r.st.Term = term
		r.st.VotedFor = -1
	}
	r.role = follower
	r.barrier = 0
	r.resetElectionTimer(now)
	if wasLeader {
		// fail Submit waiters promptly, park the workers, rearm the campaign
		r.applyWake.WakeAll()
		r.repWake.WakeAll()
		r.electWake.WakeAll()
		r.notifyLeading()
	}
}

func (r *Replica) notifyLeading() {
	if r.cfg.OnLeading != nil {
		r.cfg.OnLeading()
	}
}

func (r *Replica) learnPeer(id int, pid, svc vid.PID) {
	if id < 0 || id >= r.cfg.N || id == r.cfg.ID {
		return
	}
	old := r.peerPID[id]
	changed := pid != vid.Nil && old != pid
	if pid != vid.Nil {
		r.peerPID[id] = pid
	}
	if svc != vid.Nil {
		r.svcPID[id] = svc
	}
	if changed {
		if old != vid.Nil {
			// The peer restarted and its old PID is dead: end the feed's
			// transactions to it now, where they would ride out the whole
			// abort timeout before the worker reads the new one.
			r.feeds[id].win.AbortTo(old)
		}
		r.repWake.WakeAll()
	}
}

func (r *Replica) publish(kind trace.Kind, prio, size, peer int) {
	r.host.Trace().Publish(trace.Event{
		At:   r.host.Eng.Now(),
		Host: uint16(r.host.NIC.MAC()),
		Kind: kind,
		LH:   r.cfg.Group.LH(),
		Prio: prio,
		Size: size,
		Peer: uint16(peer),
	})
}

// hello announces a (re)joining replica to the group so live peers learn
// its fresh process PIDs, and adopts whatever term/leader the replies
// reveal. At boot all replicas gather simultaneously and the replies miss
// their windows — the peer tables fill from the requests instead.
func (r *Replica) hello(ctx *kernel.ProcCtx) {
	reps, err := ctx.SendGather(r.cfg.Group, vid.Message{
		Op: OpHello,
		W: [6]uint32{uint32(r.cfg.ID), uint32(r.proc.PID()),
			uint32(r.cfg.SvcPID)},
	}, params.RsmGatherWindow, nil)
	if err != nil {
		return
	}
	for _, g := range reps {
		m := g.Msg
		if !m.OK() {
			continue
		}
		r.learnPeer(int(m.W[0]), vid.PID(m.W[1]), vid.PID(m.W[2]))
		if m.W[4] > r.st.Term {
			r.stepDown(m.W[4], ctx.Now())
		}
		if lid := int(m.W[3]) - 1; lid >= 0 && lid < r.cfg.N && r.role != leader {
			r.leaderID = lid
			r.learnPeer(lid, vid.PID(m.W[5]), vid.Nil)
		}
	}
}

func (r *Replica) handleHello(ctx *kernel.ProcCtx, req *ipc.Req) {
	m := req.Msg
	r.learnPeer(int(m.W[0]), vid.PID(m.W[1]), vid.PID(m.W[2]))
	ctx.Reply(req, vid.Message{Op: OpHello, W: [6]uint32{
		uint32(r.cfg.ID), uint32(r.proc.PID()), uint32(r.cfg.SvcPID),
		uint32(r.LeaderID() + 1), r.st.Term, uint32(r.leaderPIDHint()),
	}})
}

func (r *Replica) leaderPIDHint() vid.PID {
	if r.role == leader {
		return r.proc.PID()
	}
	if r.leaderID >= 0 {
		return r.peerPID[r.leaderID]
	}
	return vid.Nil
}

// ----------------------------------------------------------------- election

// elect is the campaign process. It says hello, then sleeps until the
// election deadline and runs a campaign round whenever it passes. The
// rounds run here, not in the consensus process, so that a campaigning
// replica still answers its peers' votes: two survivors whose timers fire
// a few ms apart then settle in one round instead of each waiting out the
// other's gather.
func (r *Replica) elect(ctx *kernel.ProcCtx) {
	r.hello(ctx)
	for {
		if r.role == leader {
			r.electWake.Wait(ctx.Task())
			continue
		}
		if d := r.electionDeadline.Sub(ctx.Now()); d > 0 {
			r.electWake.WaitTimeout(ctx.Task(), d)
			continue
		}
		r.campaign(ctx)
	}
}

// campaign runs a pre-vote round and, if a majority would elect us, a real
// election. Pre-vote (Ongaro §9.6) keeps a rejoining or partitioned replica
// from inflating the cluster term and deposing a healthy leader: the probe
// carries term+1 but nobody's persistent state moves until a majority has
// confirmed it would grant. Each gather closes at its majority, or at a
// reply carrying a later term; the window bounds only the silence of a
// dead member.
func (r *Replica) campaign(ctx *kernel.ProcCtx) {
	r.rounds++
	r.campaigning = true
	defer func() { r.campaigning = false }()
	deadline := r.electionDeadline
	if !r.preVote(ctx) || r.electionDeadline != deadline {
		// Lost, or the consensus process reset the timer while we polled:
		// a leader spoke, or we voted for another candidate.
		r.resetElectionTimer(ctx.Now())
		return
	}
	r.st.Term++
	r.st.VotedFor = int32(r.cfg.ID)
	r.role = candidate
	r.resetElectionTimer(ctx.Now())
	term := r.st.Term
	reps := r.poll(ctx, VoteReq{Term: term}, term)
	if r.role != candidate || r.st.Term != term {
		return // a leader emerged while we gathered
	}
	granted, later := r.tally(reps, term)
	if later > 0 {
		r.stepDown(later, ctx.Now())
		return
	}
	if granted*2 <= r.cfg.N {
		return // no majority this round; the next timeout re-campaigns
	}
	r.becomeLeader(ctx)
}

// preVote polls the group at term+1 without mutating anyone's state.
// Returns true when a majority would grant a real vote.
func (r *Replica) preVote(ctx *kernel.ProcCtx) bool {
	term := r.st.Term
	granted, later := r.tally(r.poll(ctx, VoteReq{Term: term + 1, Pre: true}, term), term)
	if later > 0 {
		// the cluster has moved on — adopt its term, stay follower
		r.stepDown(later, ctx.Now())
		return false
	}
	return granted*2 > r.cfg.N
}

// poll multicasts a vote request (the candidate fields filled in here) and
// gathers the answers until a majority grants, a reply carries a term past
// base, or the window ends. It learns every responder's PIDs. An empty
// gather's timeout is no answer, which tally counts as no votes.
func (r *Replica) poll(ctx *kernel.ProcCtx, q VoteReq, base uint32) []ipc.GatherReply {
	q.Cand = uint32(r.cfg.ID)
	q.CandPID = uint32(r.proc.PID())
	q.SvcPID = uint32(r.cfg.SvcPID)
	q.LastIndex = r.lastIndex()
	q.LastTerm = r.lastTerm()
	reps, _ := ctx.SendGather(r.cfg.Group, vid.Message{Op: OpVote, Seg: EncodeVoteReq(q)},
		params.RsmGatherWindow, func(reps []ipc.GatherReply) bool {
			granted, later := r.tally(reps, base)
			return later > 0 || granted*2 > r.cfg.N
		})
	for _, g := range reps {
		if vr, derr := DecodeVoteReply(g.Msg.Seg); derr == nil && g.Msg.OK() {
			r.learnPeer(int(vr.Voter), vid.PID(vr.VoterPID), vid.PID(vr.SvcPID))
		}
	}
	return reps
}

// tally counts the votes in a gather's replies, our own included, and
// returns the highest term past base that a reply carries (0: none). A
// voter answers with its own term, which is at most base when it grants:
// the candidate's term for a vote, the one before it for a pre-vote.
func (r *Replica) tally(reps []ipc.GatherReply, base uint32) (granted int, later uint32) {
	granted = 1
	for _, g := range reps {
		vr, err := DecodeVoteReply(g.Msg.Seg)
		if err != nil || !g.Msg.OK() {
			continue
		}
		switch {
		case vr.Term > base:
			later = max(later, vr.Term)
		case vr.Granted && int(vr.Voter) != r.cfg.ID:
			granted++
		}
	}
	return granted, later
}

func (r *Replica) becomeLeader(ctx *kernel.ProcCtx) {
	prev := r.leaderID
	r.role = leader
	r.leaderID = r.cfg.ID
	r.nextIndex = make([]uint32, r.cfg.N)
	r.matchIndex = make([]uint32, r.cfg.N)
	for i := range r.nextIndex {
		r.nextIndex[i] = r.lastIndex() + 1
	}
	r.matchIndex[r.cfg.ID] = r.lastIndex()
	r.stats.Elections++
	r.publish(trace.EvElect, int(r.st.Term), r.cfg.ID, 0)
	if prev >= 0 && prev != r.cfg.ID {
		r.stats.Failovers++
		r.publish(trace.EvFailover, int(r.st.Term), r.cfg.ID, prev)
	}
	// Term-start barrier: an empty entry committed in the new term. It
	// fences leadership (IsLeader waits for it) and pulls any earlier-term
	// entries to commit, per the Raft commit rule.
	r.barrier = r.appendLocal(nil)
	r.advanceCommit(ctx.Task())
	r.repWake.WakeAll()
}

func (r *Replica) handleVote(ctx *kernel.ProcCtx, req *ipc.Req) {
	vr, err := DecodeVoteReq(req.Msg.Seg)
	if err != nil {
		ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
		return
	}
	r.learnPeer(int(vr.Cand), vid.PID(vr.CandPID), vid.PID(vr.SvcPID))
	upToDate := vr.LastTerm > r.lastTerm() ||
		(vr.LastTerm == r.lastTerm() && vr.LastIndex >= r.lastIndex())
	if vr.Pre {
		// Pre-vote probe: answer whether we WOULD grant, touching nothing.
		// A replica that is the leader, or has heard from one within the
		// sticky window, denies — this is what fences rejoin disruption.
		liveLeader := r.role == leader || (r.leaderID >= 0 &&
			ctx.Now().Sub(r.lastLeaderContact) < params.RsmStickyLeader)
		// Two replicas polling at once would each grant the other, both
		// stand at the same term and split the vote: a campaigning replica
		// outranks a higher-id candidate, unless that one's log is strictly
		// fresher — a stale low-id rejoiner must not hold off a fresh
		// survivor that it would itself refuse.
		fresher := vr.LastTerm > r.lastTerm() ||
			(vr.LastTerm == r.lastTerm() && vr.LastIndex > r.lastIndex())
		outranked := r.campaigning && int(vr.Cand) > r.cfg.ID && !fresher
		ctx.Reply(req, vid.Message{Op: OpVote, Seg: EncodeVoteReply(VoteReply{
			Term:     r.st.Term,
			Granted:  vr.Term >= r.st.Term && upToDate && !liveLeader && !outranked,
			Voter:    uint32(r.cfg.ID),
			VoterPID: uint32(r.proc.PID()),
			SvcPID:   uint32(r.cfg.SvcPID),
		})})
		return
	}
	if vr.Term > r.st.Term {
		r.stepDown(vr.Term, ctx.Now())
	}
	granted := false
	if vr.Term == r.st.Term && upToDate &&
		(r.st.VotedFor < 0 || r.st.VotedFor == int32(vr.Cand)) {
		granted = true
		r.st.VotedFor = int32(vr.Cand)
		r.resetElectionTimer(ctx.Now())
	}
	ctx.Reply(req, vid.Message{Op: OpVote, Seg: EncodeVoteReply(VoteReply{
		Term:     r.st.Term,
		Granted:  granted,
		Voter:    uint32(r.cfg.ID),
		VoterPID: uint32(r.proc.PID()),
		SvcPID:   uint32(r.cfg.SvcPID),
	})})
}

// -------------------------------------------------------- follower append/snap

// leaderContact is the preamble of every message a leader's feed carries.
// A message from a stale term is refused with this replica's own term
// (false). Otherwise the replica steps down to the leader's term, records
// the leader and resets its election timer.
func (r *Replica) leaderContact(ctx *kernel.ProcCtx, req *ipc.Req, term, leader, leaderPID, svcPID uint32) bool {
	if term < r.st.Term {
		ctx.Reply(req, vid.Message{Op: req.Msg.Op, W: [6]uint32{r.st.Term}})
		return false
	}
	if term > r.st.Term || r.role != follower {
		r.stepDown(term, ctx.Now())
	}
	r.leaderID = int(leader)
	r.learnPeer(int(leader), vid.PID(leaderPID), vid.PID(svcPID))
	r.resetElectionTimer(ctx.Now())
	r.lastLeaderContact = ctx.Now()
	return true
}

func (r *Replica) handleAppend(ctx *kernel.ProcCtx, req *ipc.Req) {
	// The log keeps the entries' commands, slices of the segment: a copy
	// of it, if it lies in a buffer the engine lent (KeepSeg).
	a, err := DecodeAppendReq(ctx.KeepSeg(req))
	if err != nil {
		ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
		return
	}
	if !r.leaderContact(ctx, req, a.Term, a.Leader, a.LeaderPID, a.SvcPID) {
		return
	}
	r.leaderCommit = a.Commit

	// log consistency check
	if a.PrevIndex > r.lastIndex() ||
		(a.PrevIndex >= r.st.SnapIndex && r.termAt(a.PrevIndex) != a.PrevTerm) {
		hint := r.lastIndex() + 1
		if a.PrevIndex < hint {
			hint = a.PrevIndex // conflicting term: back the leader up
		}
		if hint <= r.st.SnapIndex {
			hint = r.st.SnapIndex + 1
		}
		ctx.Reply(req, vid.Message{Op: OpAppend, W: [6]uint32{r.st.Term, 0, hint}})
		return
	}
	idx := a.PrevIndex
	for _, e := range a.Entries {
		idx++
		if idx <= r.st.SnapIndex {
			continue // compacted away: necessarily identical
		}
		if idx <= r.lastIndex() {
			if r.termAt(idx) == e.Term {
				continue
			}
			r.st.Log = r.st.Log[:idx-r.st.SnapIndex-1]
		}
		r.st.Log = append(r.st.Log, e)
	}
	match := a.PrevIndex + uint32(len(a.Entries))
	if c := min(a.Commit, r.lastIndex()); c > r.commit {
		r.noteCommit(ctx.Task(), c)
	}
	ctx.Reply(req, vid.Message{Op: OpAppend, W: [6]uint32{r.st.Term, 1, match}})
}

func (r *Replica) handleSnap(ctx *kernel.ProcCtx, req *ipc.Req) {
	c, err := DecodeSnapChunk(req.Msg.Seg)
	if err != nil {
		ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
		return
	}
	if !r.leaderContact(ctx, req, c.Term, c.Leader, c.LeaderPID, c.SvcPID) {
		return
	}
	if c.LastIndex <= r.applied {
		// stale transfer: already at or past this snapshot
		r.snap = nil
		ctx.Reply(req, vid.Message{Op: OpSnap, W: [6]uint32{r.st.Term, 1}})
		return
	}
	if r.snap == nil || r.snap.term != c.Term ||
		r.snap.lastIndex != c.LastIndex || r.snap.total != c.Total {
		r.snap = &snapIn{
			term: c.Term, lastIndex: c.LastIndex, lastTerm: c.LastTerm,
			total: c.Total, buf: make([]byte, c.Total),
			got: make(map[uint32]bool),
		}
	}
	s := r.snap
	if !s.got[c.Offset] {
		s.got[c.Offset] = true
		copy(s.buf[c.Offset:], c.Data)
		s.have += uint32(len(c.Data))
	}
	ctx.ReleaseSeg(req) // the chunk is copied out

	var match uint32
	if s.have >= s.total {
		r.installSnapshot(s)
		match = s.lastIndex
	}
	ctx.Reply(req, vid.Message{Op: OpSnap, W: [6]uint32{r.st.Term, 1, match}})
}

func (r *Replica) installSnapshot(s *snapIn) {
	r.sm.Restore(s.buf)
	r.st.SnapData = s.buf
	r.st.SnapIndex = s.lastIndex
	r.st.SnapTerm = s.lastTerm
	r.st.Log = nil
	r.applied = s.lastIndex
	if s.lastIndex > r.commit {
		r.commit = s.lastIndex
	}
	r.snap = nil
	r.stats.SnapInstalls++
	r.applyWake.WakeAll()
}

// ------------------------------------------------------------ commit + apply

// noteCommit advances the commit index and applies; every replica counts
// and publishes its own advances (EvCommit parity).
func (r *Replica) noteCommit(t *sim.Task, to uint32) {
	if to <= r.commit {
		return
	}
	advanced := to - r.commit
	r.commit = to
	r.stats.Commits++
	r.publish(trace.EvCommit, int(r.st.Term), int(advanced), 0)
	r.applyAll(t)
}

// advanceCommit recomputes the leader's commit index from the majority
// match (only entries of the current term commit by counting, per Raft).
func (r *Replica) advanceCommit(t *sim.Task) {
	if r.role != leader {
		return
	}
	r.match = append(r.match[:0], r.matchIndex...)
	slices.Sort(r.match)
	cand := r.match[(r.cfg.N-1)/2]
	if cand > r.commit && r.termAt(cand) == r.st.Term {
		r.noteCommit(t, cand)
	}
}

func (r *Replica) applyAll(t *sim.Task) {
	if r.applying {
		return // an apply loop further up the stack will drain the rest
	}
	r.applying = true
	for r.applied < r.commit {
		idx := r.applied + 1
		e := r.entryAt(idx)
		var res []byte
		if len(e.Cmd) > 0 {
			res = r.sm.Apply(t, e.Cmd)
		}
		r.applied = idx
		r.stats.Applied++
		if idx == r.barrier && r.role == leader {
			r.notifyLeading() // fenced from here on
		}
		if _, want := r.pending[idx]; want {
			r.results[idx] = res
		}
		r.applyWake.WakeAll()
	}
	r.applying = false
	r.maybeCompact()
}

// maybeCompact folds the applied log prefix into a state-machine snapshot
// once it exceeds RsmSnapshotEntries, trimming replay cost and switching
// far-behind rejoiners to snapshot catch-up.
func (r *Replica) maybeCompact() {
	if r.applied-r.st.SnapIndex < uint32(params.RsmSnapshotEntries) {
		return
	}
	term := r.termAt(r.applied)
	snap := r.sm.Snapshot()
	r.st.Log = append([]Entry(nil), r.st.Log[r.applied-r.st.SnapIndex:]...)
	r.st.SnapData = snap
	r.st.SnapIndex = r.applied
	r.st.SnapTerm = term
}

// ------------------------------------------------------------------- submit

// Submit proposes a command and blocks until it commits and applies,
// returning the state machine's result. ErrNotLeader redirects the caller;
// ErrTimeout means the entry could not reach a majority in time (it may
// still commit later — commands must be idempotent under client retry,
// which the home services' keyed mutations are).
func (r *Replica) Submit(ctx *kernel.ProcCtx, cmd []byte) ([]byte, error) {
	if len(cmd) > params.RsmMaxCmd {
		return nil, ErrTooBig
	}
	if r.role != leader {
		return nil, ErrNotLeader
	}
	term := r.st.Term
	idx := r.appendLocal(cmd)
	r.pending[idx] = struct{}{}
	defer delete(r.pending, idx)
	r.advanceCommit(ctx.Task()) // N=1 degenerate case commits immediately
	r.repWake.WakeAll()
	deadline := ctx.Now().Add(params.RsmSubmitTimeout)
	for r.applied < idx {
		if r.role != leader || r.st.Term != term {
			return nil, ErrNotLeader
		}
		left := deadline.Sub(ctx.Now())
		if left <= 0 {
			return nil, ErrTimeout
		}
		r.applyWake.WaitTimeout(ctx.Task(), left)
	}
	res := r.results[idx]
	delete(r.results, idx)
	// Re-validate after the wait: if we were deposed while blocked, a new
	// leader may have overwritten the uncommitted entry at idx and committed
	// its own past it — applied>=idx then holds the OTHER entry's result.
	// Still holding leadership in the proposal term proves the entry at idx
	// is the one appended above; anything else is not a success.
	if r.role != leader || r.st.Term != term {
		return nil, ErrNotLeader
	}
	return res, nil
}

// -------------------------------------------------------- leader replication

// feed is the leader's one line to a follower: a window of CopyWindow
// slots that carries heartbeats, appends and snapshot chunks alike for the
// replication worker's whole life, and what the pass in flight has heard.
type feed struct {
	win     *ipc.Window
	term    uint32 // the pass's term
	later   uint32 // the highest term a reply carried past it
	refused bool   // a reply refused a batch; nextIndex holds its hint
}

// replicate is the per-peer worker loop: a pass through the peer's feed
// whenever there is work, else every heartbeat interval.
func (r *Replica) replicate(ctx *kernel.ProcCtx, peer int) {
	for {
		if r.role != leader {
			r.repWake.Wait(ctx.Task())
			continue
		}
		pid := r.peerPID[peer]
		if pid == vid.Nil {
			r.repWake.WaitTimeout(ctx.Task(), params.RsmHeartbeatInterval)
			continue
		}
		term := r.st.Term
		r.ship(ctx, peer, pid)
		if r.role == leader && r.st.Term == term && r.peerPID[peer] != vid.Nil &&
			(r.peerPID[peer] != pid || r.nextIndex[peer] <= r.lastIndex()) {
			continue // the peer restarted, or backlog remains: keep streaming
		}
		r.repWake.WaitTimeout(ctx.Task(), params.RsmHeartbeatInterval)
	}
}

// ship is one pass through peer's feed. While the peer needs entries the
// log has compacted away it sends the snapshot's chunks; otherwise it
// sends append batches to the end of the log — at least one, so an empty
// batch is the heartbeat. nextIndex advances as each batch is sent, and
// heard reads every reply. A transport failure rolls nextIndex back to the
// entry after the peer's match, but never behind where the pass began.
func (r *Replica) ship(ctx *kernel.ProcCtx, peer int, pid vid.PID) {
	f := r.feeds[peer]
	t := ctx.Task()
	f.term, f.later, f.refused = r.st.Term, 0, false
	begin := r.nextIndex[peer]
	live := func() bool { return f.later == 0 && !f.refused && r.role == leader && r.st.Term == f.term }
	if begin <= r.st.SnapIndex {
		c := SnapChunk{
			Term: f.term, Leader: uint32(r.cfg.ID),
			LeaderPID: uint32(r.proc.PID()), SvcPID: uint32(r.cfg.SvcPID),
			LastIndex: r.st.SnapIndex, LastTerm: r.st.SnapTerm, Total: uint32(len(r.st.SnapData)),
		}
		data := r.st.SnapData // a compaction mid-pass replaces r.st.SnapData
		for c.Offset = 0; live(); c.Offset += uint32(params.RsmSnapChunkBytes) {
			c.Data = data[c.Offset:min(c.Offset+uint32(params.RsmSnapChunkBytes), c.Total)]
			if f.win.Send(t, pid, vid.Message{Op: OpSnap, Seg: EncodeSnapChunk(c)}) != nil {
				break
			}
			if c.Offset+uint32(len(c.Data)) == c.Total {
				r.stats.SnapSends++
				r.nextIndex[peer] = c.LastIndex + 1
				break
			}
		}
	} else {
		for live() && r.nextIndex[peer] > r.st.SnapIndex {
			msg, n := r.buildAppend(peer)
			if f.win.Send(t, pid, msg) != nil || f.refused {
				break
			}
			r.nextIndex[peer] += n
			if r.nextIndex[peer] > r.lastIndex() {
				break
			}
		}
	}
	err := f.win.Drain(t)
	if f.later > r.st.Term {
		r.stepDown(f.later, ctx.Now())
		return
	}
	if r.role != leader || r.st.Term != f.term {
		return
	}
	if err != nil && !f.refused {
		r.nextIndex[peer] = max(r.matchIndex[peer]+1, begin)
	}
	r.advanceCommit(t)
}

// heard is the reply rule for every message a feed carries. W0 is the
// follower's term: a later one steps the leader down once the pass has
// drained. W1 says accepted or refused, and W2 carries the match (an
// append, or the snapshot chunk that completed the install; 0 from every
// other chunk) or the index to retry from. Replies that land after the
// pass's term ended are dropped.
func (r *Replica) heard(peer int, rep vid.Message) {
	f := r.feeds[peer]
	switch {
	case r.role != leader || r.st.Term != f.term:
	case rep.W[0] > f.term:
		f.later = max(f.later, rep.W[0])
	case rep.W[1] == 0:
		r.nextIndex[peer] = min(r.nextIndex[peer], rep.W[2])
		f.refused = true
	default:
		r.matchIndex[peer] = max(r.matchIndex[peer], rep.W[2])
	}
}

func (r *Replica) buildAppend(peer int) (vid.Message, uint32) {
	prev := r.nextIndex[peer] - 1
	a := AppendReq{
		Term:      r.st.Term,
		Leader:    uint32(r.cfg.ID),
		LeaderPID: uint32(r.proc.PID()),
		SvcPID:    uint32(r.cfg.SvcPID),
		PrevIndex: prev,
		PrevTerm:  r.termAt(prev),
		Commit:    r.commit,
	}
	bytes := 0
	for idx := prev + 1; idx <= r.lastIndex() && len(a.Entries) < params.RsmBatchEntries; idx++ {
		e := r.entryAt(idx)
		if bytes > 0 && bytes+len(e.Cmd) > params.RsmBatchBytes {
			break
		}
		bytes += len(e.Cmd) + 8
		a.Entries = append(a.Entries, e)
	}
	return vid.Message{Op: OpAppend, Seg: EncodeAppendReq(a)}, uint32(len(a.Entries))
}
