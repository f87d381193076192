package progmgr

import (
	"maps"
	"slices"

	"vsystem/internal/ipc"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// The session registry: the supervisor's record of every remote job this
// home watches, as a state machine over hgCmd commands (an rsm.Machine).
// The manager changes it only through PM.commit, which an unreplicated
// manager applies in place and a home-group member commits through the
// group's log — so a failed leader's successor resumes supervision from
// the committed registry. It holds no reference to the manager: it can be
// driven, snapshotted and replayed on its own.

// Session states.
type sessionState uint8

const (
	sessionActive sessionState = iota
	sessionBroken
	sessionDone
	sessionFailed
)

func (s sessionState) String() string {
	switch s {
	case sessionActive:
		return "active"
	case sessionBroken:
		return "broken"
	case sessionDone:
		return "done"
	default:
		return "failed"
	}
}

// session is the originating manager's record of one supervised remote
// job: the replicated record plus what only the acting leader holds.
type session struct {
	homeSessRec
	waiters []*ipc.Req // held until recovery resolves; not replicated
}

// homeSessRec is the replicated part of a session and, as is, its snapshot
// form. All of it changes only in registry methods, except LastRenew, which
// the acting leader also refreshes on plain lease renewals without a log
// entry (a promoted follower sees a stale value and simply renews at once).
type homeSessRec struct {
	Orig        vid.LHID // LHID at first execution — the callers' handle
	Cur         vid.LHID // current incarnation's LHID
	PID         vid.PID
	Name        string
	Args        []string
	Stdout      vid.PID
	MinMem      uint32
	HostPM      vid.PID
	HostLH      vid.LHID // hosting workstation's system LH
	Incarnation int      // 1 for the first execution
	Restarts    int      // recovery attempts consumed
	MaxRestarts int
	State       sessionState
	ExitCode    uint32
	LastRenew   sim.Time
	NextRetry   sim.Time // earliest next recovery attempt (broken only)
}

// hgKind enumerates session-registry mutations.
type hgKind uint8

const (
	hgSupervise hgKind = iota + 1 // Sess, At: new session, active (ignored if the LHID is taken)
	hgRenewed                     // At, HostPM, HostLH, NewLH: lease renewed (follows moves)
	hgBreak                       // At: lease lost, retry at At
	hgRetryAt                     // At: recovery attempt failed, back off
	hgIntent                      // Attempt: about to re-execute (the fence)
	hgRebind                      // NewLH, NewPID, HostPM, HostLH, At: re-executed
	hgDone                        // Code: exited
	hgFailed                      // restarts exhausted
	hgForget                      // drop the record: its LHID was recycled for a new job
)

// hgCmd is one registry mutation. Timestamps ride in the command — Apply
// must never read the clock, or replicas would diverge.
type hgCmd struct {
	Kind    hgKind
	Orig    vid.LHID
	Sess    *SessionInfo
	At      int64 // sim.Time
	HostPM  uint32
	HostLH  uint32
	NewLH   uint32
	NewPID  uint32
	Code    uint32
	Attempt int
}

type registry struct {
	sessions map[vid.LHID]*session // by original LHID
	alias    map[vid.LHID]vid.LHID // later incarnations' LHIDs → original
	// changed, when set, is called after every mutation — Apply or
	// Restore — so that whoever acts on session deadlines can look again.
	changed func()
}

func newRegistry() *registry {
	return &registry{sessions: make(map[vid.LHID]*session), alias: make(map[vid.LHID]vid.LHID)}
}

// lookup resolves a session by any of its incarnations' LHIDs.
func (r *registry) lookup(lhid vid.LHID) *session {
	if orig, ok := r.alias[lhid]; ok {
		lhid = orig
	}
	return r.sessions[lhid]
}

// ids lists the sessions' original LHIDs in sorted order — map iteration
// order must reach neither the wire nor a snapshot.
// The lease worker calls it every pass, so it sizes the slice up front.
func (r *registry) ids() []vid.LHID {
	ids := make([]vid.LHID, 0, len(r.sessions))
	for id := range r.sessions {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (r *registry) notify() {
	if r.changed != nil {
		r.changed()
	}
}

// LeaderOnly: every home-group operation needs the fenced leader.
func (r *registry) LeaderOnly(uint16) bool { return true }

func (r *registry) Encode(c hgCmd) []byte { return encodeCmd(&c) }

func (r *registry) Decode(b []byte) (hgCmd, bool) {
	c, err := decodeCmd(b)
	return c, err == nil
}

// Apply performs one mutation. Transitions that no longer make sense —
// the session resolved or moved on while the command was in flight — are
// ignored, never errors: the committer re-reads the session afterwards.
func (r *registry) Apply(c hgCmd) []byte {
	defer r.notify()
	if c.Kind == hgSupervise {
		// A registration is retried by its agent until a leader commits
		// it: only the first copy registers.
		if si := c.Sess; si != nil && r.sessions[si.LHID] == nil {
			r.sessions[si.LHID] = &session{homeSessRec: homeSessRec{
				Orig: si.LHID, Cur: si.LHID, PID: si.PID,
				Name: si.Name, Args: si.Args, Stdout: si.Stdout, MinMem: si.MinMem,
				HostPM: si.HostPM, HostLH: si.HostLH,
				Incarnation: 1, MaxRestarts: si.MaxRestarts,
				State: sessionActive, LastRenew: sim.Time(c.At),
			}}
		}
		return nil
	}
	s := r.sessions[c.Orig]
	if s == nil {
		return nil
	}
	resolved := s.State == sessionDone || s.State == sessionFailed
	switch c.Kind {
	case hgRenewed:
		if resolved {
			return nil
		}
		s.HostPM, s.HostLH = vid.PID(c.HostPM), vid.LHID(c.HostLH)
		if nl := vid.LHID(c.NewLH); nl != 0 && nl != s.Cur {
			// Repoint at the new incarnation, keeping old LHIDs resolvable
			// for handles issued earlier.
			if nl != s.Orig {
				r.alias[nl] = s.Orig
			}
			s.Cur, s.PID = nl, vid.NewPID(nl, vid.IdxFirstProcess)
		}
		s.State = sessionActive
		s.LastRenew = sim.Time(c.At)
	case hgBreak:
		if s.State == sessionActive {
			s.State = sessionBroken
			s.NextRetry = sim.Time(c.At)
		}
	case hgRetryAt:
		if s.State == sessionBroken {
			s.NextRetry = sim.Time(c.At)
		}
	case hgIntent:
		if s.Restarts < c.Attempt {
			s.Restarts = c.Attempt
		}
	case hgRebind:
		if resolved {
			return nil
		}
		nl := vid.LHID(c.NewLH)
		if nl != s.Orig && nl != s.Cur {
			r.alias[nl] = s.Orig
		}
		s.Cur, s.PID = nl, vid.PID(c.NewPID)
		s.HostPM, s.HostLH = vid.PID(c.HostPM), vid.LHID(c.HostLH)
		s.Incarnation++
		s.State = sessionActive
		s.LastRenew = sim.Time(c.At)
	case hgDone:
		if !resolved {
			s.State = sessionDone
			s.ExitCode = c.Code
		}
	case hgFailed:
		if s.State != sessionDone {
			s.State = sessionFailed
		}
	case hgForget:
		delete(r.sessions, c.Orig)
	}
	return nil
}

// homeSnap is the registry's deterministic snapshot form: sessions and
// aliases as sorted slices (map iteration order must not reach the wire).
type homeSnap struct {
	Sessions []homeSessRec
	Aliases  []homeAliasRec
}

type homeAliasRec struct{ From, To vid.LHID }

func (r *registry) Snapshot() []byte {
	var snap homeSnap
	for _, id := range r.ids() {
		snap.Sessions = append(snap.Sessions, r.sessions[id].homeSessRec)
	}
	for _, f := range slices.Sorted(maps.Keys(r.alias)) {
		snap.Aliases = append(snap.Aliases, homeAliasRec{From: f, To: r.alias[f]})
	}
	return encodeSnap(&snap)
}

func (r *registry) Restore(b []byte) {
	snap, err := decodeSnap(b)
	if err != nil {
		return
	}
	defer r.notify()
	r.sessions = make(map[vid.LHID]*session, len(snap.Sessions))
	r.alias = make(map[vid.LHID]vid.LHID, len(snap.Aliases))
	for _, rec := range snap.Sessions {
		r.sessions[rec.Orig] = &session{homeSessRec: rec}
	}
	for _, a := range snap.Aliases {
		r.alias[a.From] = a.To
	}
}
