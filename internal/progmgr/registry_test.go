package progmgr

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"vsystem/internal/kernel"
	"vsystem/internal/rsm"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// The registry is driven here with no cluster, no manager and no clock:
// every hgKind from every sessionState, through the two paths a command
// can take — the unreplicated Service.Commit (typed, applied in place) and
// the replicated one (log form, replayed onto a registry restored from a
// snapshot). Both must leave the same registry, and the transitions that
// must be ignored must change nothing.

const (
	tOrig vid.LHID = 0x0501
	tNew  vid.LHID = 0x0602
)

var tSess = SessionInfo{
	LHID: tOrig, PID: vid.NewPID(tOrig, vid.IdxFirstProcess), Name: "job", Args: []string{"-x"},
	Stdout: 0x00010011, MinMem: 4096, HostPM: 0x00050002, HostLH: 0x0500, MaxRestarts: 3,
}

// setup returns the commands that bring a fresh registry's one session
// into state st (with one restart attempt already consumed).
func setup(st sessionState) []hgCmd {
	cmds := []hgCmd{
		{Kind: hgSupervise, Sess: &tSess, At: 100},
		{Kind: hgIntent, Orig: tOrig, Attempt: 1},
	}
	switch st {
	case sessionBroken:
		cmds = append(cmds, hgCmd{Kind: hgBreak, Orig: tOrig, At: 200})
	case sessionDone:
		cmds = append(cmds, hgCmd{Kind: hgDone, Orig: tOrig, Code: 9})
	case sessionFailed:
		cmds = append(cmds, hgCmd{Kind: hgFailed, Orig: tOrig})
	}
	return cmds
}

func TestRegistryEveryKindFromEveryState(t *testing.T) {
	type want struct {
		state       sessionState
		cur         vid.LHID
		hostLH      vid.LHID
		incarnation int
		restarts    int
		exitCode    uint32
		lastRenew   sim.Time
		nextRetry   sim.Time
		aliased     bool
	}
	states := []sessionState{sessionActive, sessionBroken, sessionDone, sessionFailed}
	cases := []struct {
		name string
		pre  []hgCmd // applied just before cmd, same way
		cmd  hgCmd
		// edit turns the session as setup(from) left it into what the
		// command must make of it; from the states in ignored the command
		// must change nothing at all.
		edit    func(from sessionState, w *want)
		ignored map[sessionState]bool
	}{
		{
			name:    "duplicate supervise",
			cmd:     hgCmd{Kind: hgSupervise, Sess: &tSess, At: 300},
			ignored: map[sessionState]bool{sessionActive: true, sessionBroken: true, sessionDone: true, sessionFailed: true},
		},
		{
			name: "forget, then supervise (recycled LHID)",
			pre:  []hgCmd{{Kind: hgForget, Orig: tOrig}},
			cmd:  hgCmd{Kind: hgSupervise, Sess: &tSess, At: 300},
			edit: func(_ sessionState, w *want) {
				*w = want{state: sessionActive, cur: tOrig, hostLH: tSess.HostLH, incarnation: 1, lastRenew: 300}
			},
		},
		{
			name: "renewed, followed a move to a new LHID",
			cmd:  hgCmd{Kind: hgRenewed, Orig: tOrig, At: 300, HostPM: 0x00060002, HostLH: 0x0600, NewLH: uint32(tNew)},
			edit: func(_ sessionState, w *want) {
				w.state, w.cur, w.hostLH, w.lastRenew, w.aliased = sessionActive, tNew, 0x0600, 300, true
			},
			ignored: map[sessionState]bool{sessionDone: true, sessionFailed: true},
		},
		{
			name:    "break",
			cmd:     hgCmd{Kind: hgBreak, Orig: tOrig, At: 300},
			edit:    func(_ sessionState, w *want) { w.state, w.nextRetry = sessionBroken, 300 },
			ignored: map[sessionState]bool{sessionBroken: true, sessionDone: true, sessionFailed: true},
		},
		{
			name:    "retry-at",
			cmd:     hgCmd{Kind: hgRetryAt, Orig: tOrig, At: 300},
			edit:    func(_ sessionState, w *want) { w.nextRetry = 300 },
			ignored: map[sessionState]bool{sessionActive: true, sessionDone: true, sessionFailed: true},
		},
		{
			name: "intent",
			cmd:  hgCmd{Kind: hgIntent, Orig: tOrig, Attempt: 2},
			edit: func(_ sessionState, w *want) { w.restarts = 2 },
		},
		{
			name:    "stale intent",
			cmd:     hgCmd{Kind: hgIntent, Orig: tOrig, Attempt: 1},
			ignored: map[sessionState]bool{sessionActive: true, sessionBroken: true, sessionDone: true, sessionFailed: true},
		},
		{
			name: "rebind",
			cmd: hgCmd{Kind: hgRebind, Orig: tOrig, At: 300, NewLH: uint32(tNew),
				NewPID: uint32(vid.NewPID(tNew, vid.IdxFirstProcess)), HostPM: 0x00060002, HostLH: 0x0600},
			edit: func(_ sessionState, w *want) {
				w.state, w.cur, w.hostLH, w.lastRenew, w.aliased = sessionActive, tNew, 0x0600, 300, true
				w.incarnation++
			},
			ignored: map[sessionState]bool{sessionDone: true, sessionFailed: true},
		},
		{
			name:    "done",
			cmd:     hgCmd{Kind: hgDone, Orig: tOrig, Code: 4},
			edit:    func(_ sessionState, w *want) { w.state, w.exitCode = sessionDone, 4 },
			ignored: map[sessionState]bool{sessionDone: true, sessionFailed: true},
		},
		{
			name:    "failed",
			cmd:     hgCmd{Kind: hgFailed, Orig: tOrig},
			edit:    func(_ sessionState, w *want) { w.state = sessionFailed },
			ignored: map[sessionState]bool{sessionDone: true},
		},
		{
			name:    "unknown session",
			cmd:     hgCmd{Kind: hgDone, Orig: 0x0777, Code: 1},
			ignored: map[sessionState]bool{sessionActive: true, sessionBroken: true, sessionDone: true, sessionFailed: true},
		},
	}
	for _, tc := range cases {
		for _, from := range states {
			t.Run(fmt.Sprintf("%s/from-%v", tc.name, from), func(t *testing.T) {
				// Path 1: unreplicated Commit, typed commands applied in place.
				solo := newRegistry()
				svc := rsm.NewService[hgCmd](nil, solo, 0)
				for _, c := range setup(from) {
					svc.Commit(nil, c)
				}
				before := string(solo.Snapshot())
				s := solo.session(tOrig)
				w := want{state: s.State, cur: s.Cur, hostLH: s.HostLH, incarnation: s.Incarnation,
					restarts: s.Restarts, exitCode: s.ExitCode, lastRenew: s.LastRenew, nextRetry: s.NextRetry}
				for _, c := range append(tc.pre, tc.cmd) {
					if _, err := svc.Commit(nil, c); err != nil {
						t.Fatalf("solo commit: %v", err)
					}
				}
				if tc.ignored[from] {
					if string(solo.Snapshot()) != before {
						t.Fatal("ignored transition changed the registry")
					}
				} else {
					tc.edit(from, &w)
				}
				s = solo.session(tOrig)
				got := want{state: s.State, cur: s.Cur, hostLH: s.HostLH, incarnation: s.Incarnation,
					restarts: s.Restarts, exitCode: s.ExitCode, lastRenew: s.LastRenew, nextRetry: s.NextRetry,
					aliased: solo.lookup(tNew) == s}
				if got != w {
					t.Fatalf("after command:\n got %+v\nwant %+v", got, w)
				}
				if solo.lookup(tOrig) != s {
					t.Fatal("original LHID no longer resolves to the session")
				}

				// Path 2: log form, onto a registry restored from a snapshot.
				replay := func(r *registry, c hgCmd) {
					d, ok := r.Decode(r.Encode(c))
					if !ok {
						t.Fatalf("command %+v does not survive its log form", c)
					}
					r.Apply(d)
				}
				first := newRegistry()
				for _, c := range setup(from) {
					replay(first, c)
				}
				restored := newRegistry()
				restored.Restore(first.Snapshot())
				for _, c := range append(tc.pre, tc.cmd) {
					replay(restored, c)
				}
				if string(restored.Snapshot()) != string(solo.Snapshot()) {
					t.Fatal("solo Commit and snapshot→restore→replay left different registries")
				}
			})
		}
	}
}

// TestRecycledLHIDDropsStaleAlias: an LHID that a moved or re-executed job
// once had is recycled for a new job's first incarnation. A lookup by it —
// a home PmWaitProgram on the new job — must find the new session, not the
// earlier job's fate; and a forgotten session leaves no alias behind.
func TestRecycledLHIDDropsStaleAlias(t *testing.T) {
	r := newRegistry()
	for _, c := range []hgCmd{
		{Kind: hgSupervise, Sess: &tSess, At: 100},
		{Kind: hgRebind, Orig: tOrig, At: 200, NewLH: uint32(tNew), NewPID: uint32(vid.NewPID(tNew, vid.IdxFirstProcess))},
		{Kind: hgDone, Orig: tOrig, Code: 9},
	} {
		r.Apply(c)
	}
	if s := r.lookup(tNew); s == nil || s.Orig != tOrig {
		t.Fatalf("before recycling, %v resolves to %+v, want the session %v", tNew, s, tOrig)
	}
	next := tSess
	next.LHID, next.PID = tNew, vid.NewPID(tNew, vid.IdxFirstProcess)
	r.Apply(hgCmd{Kind: hgSupervise, Sess: &next, At: 300})
	if s := r.lookup(tNew); s == nil || s.Orig != tNew || s.State != sessionActive {
		t.Fatalf("after recycling, %v resolves to %+v, want the new job's active session", tNew, s)
	}
	r.Apply(hgCmd{Kind: hgRebind, Orig: tNew, At: 400, NewLH: 0x0703, NewPID: uint32(vid.NewPID(0x0703, vid.IdxFirstProcess))})
	r.Apply(hgCmd{Kind: hgForget, Orig: tNew})
	if s := r.lookup(0x0703); s != nil {
		t.Fatalf("a forgotten session still resolves by its alias: %+v", s)
	}
	if s := r.lookup(tOrig); s == nil || s.State != sessionDone {
		t.Fatalf("the earlier job is no longer found by its own LHID: %+v", s)
	}
}

// refRegistry is the registry as a map plus sorted ids — the form it once
// had — with the same transitions: the oracle of the differential test.
type refRegistry struct {
	sessions map[vid.LHID]*homeSessRec
	alias    map[vid.LHID]vid.LHID
}

func (f *refRegistry) apply(c hgCmd) {
	if c.Kind == hgSupervise {
		if si := c.Sess; si != nil && f.sessions[si.LHID] == nil {
			delete(f.alias, si.LHID)
			f.sessions[si.LHID] = &homeSessRec{Orig: si.LHID, Cur: si.LHID, PID: si.PID,
				Name: si.Name, Args: si.Args, Stdout: si.Stdout, MinMem: si.MinMem,
				HostPM: si.HostPM, HostLH: si.HostLH, Incarnation: 1, MaxRestarts: si.MaxRestarts,
				State: sessionActive, LastRenew: sim.Time(c.At)}
		}
		return
	}
	s := f.sessions[c.Orig]
	if s == nil {
		return
	}
	resolved := s.State == sessionDone || s.State == sessionFailed
	nl := vid.LHID(c.NewLH)
	switch {
	case (c.Kind == hgRenewed || c.Kind == hgRebind) && !resolved:
		if c.Kind == hgRebind || nl != 0 && nl != s.Cur {
			if nl != s.Orig && nl != s.Cur {
				f.alias[nl] = s.Orig
			}
			s.Cur, s.PID = nl, vid.PID(c.NewPID)
			if c.Kind == hgRenewed {
				s.PID = vid.NewPID(nl, vid.IdxFirstProcess)
			}
		}
		if c.Kind == hgRebind {
			s.Incarnation++
		}
		s.HostPM, s.HostLH = vid.PID(c.HostPM), vid.LHID(c.HostLH)
		s.State, s.LastRenew = sessionActive, sim.Time(c.At)
	case c.Kind == hgBreak && s.State == sessionActive:
		s.State, s.NextRetry = sessionBroken, sim.Time(c.At)
	case c.Kind == hgRetryAt && s.State == sessionBroken:
		s.NextRetry = sim.Time(c.At)
	case c.Kind == hgIntent:
		s.Restarts = max(s.Restarts, c.Attempt)
	case c.Kind == hgDone && !resolved:
		s.State, s.ExitCode = sessionDone, c.Code
	case c.Kind == hgFailed && s.State != sessionDone:
		s.State = sessionFailed
	case c.Kind == hgForget:
		delete(f.sessions, c.Orig)
		maps.DeleteFunc(f.alias, func(_, to vid.LHID) bool { return to == c.Orig })
	}
}

func (f *refRegistry) lookup(lhid vid.LHID) *homeSessRec {
	if orig, ok := f.alias[lhid]; ok {
		lhid = orig
	}
	return f.sessions[lhid]
}

// snapshot lists the sessions and aliases by sorted key and encodes them.
func (f *refRegistry) snapshot() []byte {
	var r registry
	for _, id := range slices.Sorted(maps.Keys(f.sessions)) {
		r.sessions = append(r.sessions, &session{homeSessRec: *f.sessions[id]})
	}
	for _, from := range slices.Sorted(maps.Keys(f.alias)) {
		r.aliases = append(r.aliases, homeAliasRec{from, f.alias[from]})
	}
	return encodeSnap(&r)
}

// TestRegistryMatchesMapReference drives random command sequences, with
// snapshot round trips among them, through the registry and through the
// map-based reference: after every step both resolve every LHID to equal
// records, visit their sessions in the same order and snapshot to the same
// bytes.
func TestRegistryMatchesMapReference(t *testing.T) {
	lhids := []vid.LHID{0x0101, 0x0102, 0x0103, 0x0201, 0x0202, 0x0301, 0x0302}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func() vid.LHID { return lhids[rng.Intn(len(lhids))] }
		r := newRegistry()
		ref := &refRegistry{sessions: map[vid.LHID]*homeSessRec{}, alias: map[vid.LHID]vid.LHID{}}
		for step := 0; step < 400; step++ {
			c := hgCmd{Kind: hgKind(1 + rng.Intn(int(hgForget))), Orig: pick(), At: int64(step),
				HostPM: rng.Uint32(), HostLH: uint32(pick()), Code: uint32(rng.Intn(4)), Attempt: rng.Intn(4)}
			if lh := pick(); rng.Intn(4) > 0 {
				c.NewLH, c.NewPID = uint32(lh), uint32(vid.NewPID(lh, vid.IdxFirstProcess))
			}
			if c.Kind == hgSupervise && rng.Intn(10) > 0 {
				si := tSess
				si.LHID, si.PID, si.MaxRestarts = c.Orig, vid.NewPID(c.Orig, vid.IdxFirstProcess), rng.Intn(3)
				c.Sess = &si
			}
			r.Apply(c)
			ref.apply(c)
			switch rng.Intn(8) {
			case 0:
				r.Restore(r.Snapshot())
			case 1:
				restored := newRegistry()
				restored.Restore(r.Snapshot())
				r = restored
			}

			var order []vid.LHID
			for _, s := range r.sessions {
				order = append(order, s.Orig)
			}
			if want := slices.Sorted(maps.Keys(ref.sessions)); !slices.Equal(order, want) {
				t.Fatalf("seed %d step %d (%+v): sessions visited as %v, want %v", seed, step, c, order, want)
			}
			for _, lh := range lhids {
				got, want := r.lookup(lh), ref.lookup(lh)
				if (got == nil) != (want == nil) || got != nil && !reflect.DeepEqual(got.homeSessRec, *want) {
					t.Fatalf("seed %d step %d (%+v): lookup(%v) = %+v, want %+v", seed, step, c, lh, got, want)
				}
			}
			if !bytes.Equal(r.Snapshot(), ref.snapshot()) {
				t.Fatalf("seed %d step %d (%+v): snapshots differ", seed, step, c)
			}
		}
	}
}

// Restore is all-or-nothing: a snapshot that does not parse leaves the
// registry as it was.
func TestRegistryRestoreRejectsGarbage(t *testing.T) {
	r := newRegistry()
	for _, c := range setup(sessionBroken) {
		r.Apply(c)
	}
	before := string(r.Snapshot())
	r.Restore([]byte("not a snapshot"))
	if string(r.Snapshot()) != before {
		t.Fatal("a malformed snapshot changed the registry")
	}
}

// A PmSupervise for an LHID already in the registry is a retry (the agent
// re-asks after a lost reply): it is answered OK and changes nothing, so
// it cannot reset a session that has moved on. The agent's own Supervise call is never a retry — LHIDs
// recycle, so it names a new job — and replaces the record.
func TestSuperviseRetryNeverReplaces(t *testing.T) {
	r := newRig(t, 2, 1)
	pm := r.pms[0]
	si := tSess
	si.HostPM, si.HostLH = r.pms[1].PID(), r.ws[1].SystemLH().ID()
	var afterRetry, afterCall string
	r.agent(0, func(ctx *kernel.ProcCtx) {
		ask := vid.Message{Op: PmSupervise, Seg: EncodeSessionInfo(&si)}
		if m, err := ctx.Send(pm.PID(), ask); err != nil || !m.OK() {
			t.Errorf("supervise: %v %v", m, err)
			return
		}
		if err := pm.commit(ctx, hgCmd{Kind: hgBreak, Orig: si.LHID, At: int64(ctx.Now())}); err != nil {
			t.Errorf("break: %v", err)
			return
		}
		if m, err := ctx.Send(pm.PID(), ask); err != nil || !m.OK() {
			t.Errorf("retried supervise: %v %v", m, err)
			return
		}
		afterRetry = pm.Sessions()[0].State
		pm.Supervise(ctx, si)
		afterCall = pm.Sessions()[0].State
	})
	r.eng.RunFor(200 * time.Millisecond)
	if afterRetry != "broken" {
		t.Errorf("after a retried PmSupervise the session is %q, want broken (retry must not re-register)", afterRetry)
	}
	if afterCall != "active" {
		t.Errorf("after a local Supervise the session is %q, want active (a recycled LHID is a new job)", afterCall)
	}
}
