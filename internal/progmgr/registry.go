package progmgr

import (
	"cmp"
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

// resolved reports whether the session has its fate: done or failed.
func (s *session) resolved() bool { return s.State == sessionDone || s.State == sessionFailed }

// homeSessRec is the replicated part of a session, as its snapshot record
// holds it. All of it changes only in registry methods, except LastRenew,
// which the acting leader also refreshes on plain lease renewals without a
// log entry (a promoted follower sees a stale value and simply renews at once).
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
	sessions []*session     // sorted by original LHID, as a snapshot lists them
	aliases  []homeAliasRec // later incarnations' LHIDs → original, sorted by From
	// changed, when set, is called after every mutation — Apply or
	// Restore — so that whoever acts on session deadlines can look again.
	changed func()
}

type homeAliasRec struct{ From, To vid.LHID }

func newRegistry() *registry { return &registry{} }

// find returns the index of the session orig, or where it would go.
func (r *registry) find(orig vid.LHID) (int, bool) {
	return slices.BinarySearchFunc(r.sessions, orig, func(s *session, id vid.LHID) int { return cmp.Compare(s.Orig, id) })
}

func (r *registry) findAlias(from vid.LHID) (int, bool) {
	return slices.BinarySearchFunc(r.aliases, from, func(a homeAliasRec, id vid.LHID) int { return cmp.Compare(a.From, id) })
}

// session returns the session whose original LHID is orig.
func (r *registry) session(orig vid.LHID) *session {
	if i, ok := r.find(orig); ok {
		return r.sessions[i]
	}
	return nil
}

// sessionAt is session(orig) for a caller that found orig at index i
// earlier: while the list has not moved, that is where it still is.
func (r *registry) sessionAt(i int, orig vid.LHID) *session {
	if i < len(r.sessions) && r.sessions[i].Orig == orig {
		return r.sessions[i]
	}
	return r.session(orig)
}

// lookup resolves a session by any of its incarnations' LHIDs.
func (r *registry) lookup(lhid vid.LHID) *session {
	if i, ok := r.findAlias(lhid); ok {
		lhid = r.aliases[i].To
	}
	return r.session(lhid)
}

// alias keeps from resolvable to the session orig.
func (r *registry) alias(from, orig vid.LHID) {
	if i, ok := r.findAlias(from); ok {
		r.aliases[i].To = orig
	} else {
		r.aliases = slices.Insert(r.aliases, i, homeAliasRec{from, orig})
	}
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
		// it: only the first copy registers. Its LHID, if recycled, stops
		// resolving to the earlier job it was an alias of.
		if si := c.Sess; si != nil && r.session(si.LHID) == nil {
			i, _ := r.find(si.LHID)
			r.aliases = slices.DeleteFunc(r.aliases, func(a homeAliasRec) bool { return a.From == si.LHID })
			r.sessions = slices.Insert(r.sessions, i, &session{homeSessRec: homeSessRec{
				Orig: si.LHID, Cur: si.LHID, PID: si.PID,
				Name: si.Name, Args: si.Args, Stdout: si.Stdout, MinMem: si.MinMem,
				HostPM: si.HostPM, HostLH: si.HostLH,
				Incarnation: 1, MaxRestarts: si.MaxRestarts,
				State: sessionActive, LastRenew: sim.Time(c.At),
			}})
		}
		return nil
	}
	i, ok := r.find(c.Orig)
	if !ok {
		return nil
	}
	s := r.sessions[i]
	resolved := s.resolved()
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
				r.alias(nl, s.Orig)
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
			r.alias(nl, s.Orig)
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
		r.sessions = slices.Delete(r.sessions, i, i+1)
		r.aliases = slices.DeleteFunc(r.aliases, func(a homeAliasRec) bool { return a.To == c.Orig })
	}
	return nil
}

// Snapshot encodes the registry as is: its lists are already in order.
func (r *registry) Snapshot() []byte { return encodeSnap(r) }

func (r *registry) Restore(b []byte) {
	if snap, err := decodeSnap(b); err == nil {
		r.sessions, r.aliases = snap.sessions, snap.aliases
		r.notify()
	}
}
