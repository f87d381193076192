package rsm

import (
	"vsystem/internal/ipc"
	"vsystem/internal/kernel"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// Machine is a service's state machine over typed commands C. A server
// mutates its state only by handing a command to Service.Commit, which
// calls Apply — directly when the server runs alone, on every replica in
// commit order when it is replicated. Apply must be a deterministic
// function of the command sequence (timestamps ride in the command).
// Encode/Decode are the command's log form, used only by replicated
// servers; Decode rejects malformed bytes. LeaderOnly classifies a request
// operation: true means only the fenced leader may serve it, false means a
// caught-up follower may too. Snapshot must be byte-deterministic (no map
// iteration order); Restore must be all-or-nothing.
type Machine[C any] interface {
	Apply(cmd C) []byte
	Snapshot() []byte
	Restore(snap []byte)
	Encode(cmd C) []byte
	Decode(b []byte) (C, bool)
	LeaderOnly(op uint16) bool
}

// Service is the front end a home server's request loop talks to, the same
// whether or not the server is replicated: Admit decides whether this
// server may answer a request (and disposes of it when not), Commit is the
// one mutation path, Refuse maps a failed commit to a reply. NewService
// yields an unreplicated server, for which Admit is always true and Commit
// applies in place; Replicate turns it into a replica-set member.
type Service[C any] struct {
	proc    *kernel.Process
	m       Machine[C]
	unicast uint32
	rep     *Replica
}

// NewService fronts the server process proc with machine m. unicast is
// the request W5 mask by which a client marks a request addressed to this
// one server rather than to the service's group (0: the service is only
// ever group-addressed); it selects how a replica declines.
func NewService[C any](proc *kernel.Process, m Machine[C], unicast uint32) *Service[C] {
	return &Service[C]{proc: proc, m: m, unicast: unicast}
}

// Replicate makes the server member cfg.ID of a cfg.N-replica set: it
// joins client, the group the service's clients address, and attaches a
// Replica over cfg.Group that carries m from the durable store. The caller
// owns store — the member's disk — and re-passes it on every restart. A
// server that acts on Leading without being asked sets cfg.OnLeading to
// hear when it flips.
func (s *Service[C]) Replicate(h *kernel.Host, client vid.PID, cfg Config, store *Store) {
	h.JoinGroup(client, s.proc.PID())
	cfg.SvcPID = s.proc.PID()
	s.rep = New(h, cfg, logged[C]{s.m}, store)
}

// logged adapts a typed Machine to the Replica's byte-command interface.
type logged[C any] struct{ m Machine[C] }

func (l logged[C]) Apply(_ *sim.Task, b []byte) []byte {
	cmd, ok := l.m.Decode(b)
	if !ok {
		return nil
	}
	return l.m.Apply(cmd)
}
func (l logged[C]) Snapshot() []byte { return l.m.Snapshot() }
func (l logged[C]) Restore(b []byte) { l.m.Restore(b) }

// Replica returns the consensus replica (nil when unreplicated).
func (s *Service[C]) Replica() *Replica { return s.rep }

// Leading reports whether this server acts for the service: always when
// unreplicated, else only as the fenced leader.
func (s *Service[C]) Leading() bool { return s.rep == nil || s.rep.IsLeader() }

// LeaderSvc returns the leader's service PID as this replica knows it
// (vid.Nil when unknown or unreplicated).
func (s *Service[C]) LeaderSvc() vid.PID {
	if s.rep == nil {
		return vid.Nil
	}
	return s.rep.LeaderSvcPID()
}

// Admit reports whether this server may answer req: leader-only operations
// need the fenced leader, everything else a leader or a caught-up
// follower. A request it may not answer is declined here and the caller
// moves on to the next one.
func (s *Service[C]) Admit(ctx *kernel.ProcCtx, req *ipc.Req) bool {
	if s.Leading() || (!s.m.LeaderOnly(req.Msg.Op) && s.rep.Synced(ctx.Now())) {
		return true
	}
	s.decline(ctx, req)
	return false
}

// decline disposes of a request this replica may not answer: a unicast
// request gets CodeNotLeader with the leader's service PID in W4, a
// group-addressed one is dropped in silence so that the reply of a replica
// that can serve is the first the client sees. The client's next copy of a
// dropped request comes back through Admit, so a replica fenced as leader
// since then serves it.
func (s *Service[C]) decline(ctx *kernel.ProcCtx, req *ipc.Req) {
	if req.Msg.W[5]&s.unicast != 0 {
		ctx.Reply(req, vid.Message{Op: req.Msg.Op, Code: vid.CodeNotLeader,
			W: [6]uint32{0, 0, 0, 0, uint32(s.LeaderSvc())}})
		return
	}
	s.proc.Port().Drop(req)
}

// Commit is the single mutation path. An unreplicated server applies cmd
// in place: no encoding, no virtual time, always nil error. A replicated
// one proposes it through the log and returns once it has applied here;
// an error means the mutation did not happen under this server's
// leadership and the caller must not act on it.
func (s *Service[C]) Commit(ctx *kernel.ProcCtx, cmd C) ([]byte, error) {
	if s.rep == nil {
		return s.m.Apply(cmd), nil
	}
	return s.rep.Submit(ctx, s.m.Encode(cmd))
}

// Refuse answers a request whose Commit failed: lost leadership declines
// like Admit (the client retries against the group and reaches the new
// leader), anything else reports a timeout.
func (s *Service[C]) Refuse(ctx *kernel.ProcCtx, req *ipc.Req, err error) {
	if err == ErrNotLeader {
		s.decline(ctx, req)
		return
	}
	ctx.Reply(req, vid.ErrMsg(vid.CodeTimeout))
}
