package progmgr

import (
	"fmt"
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
				s := solo.sessions[tOrig]
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
				s = solo.sessions[tOrig]
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
