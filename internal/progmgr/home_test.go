package progmgr

import (
	"testing"
	"time"

	"vsystem/internal/kernel"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// TestExitBeforeSuperviseAnsweredByTheRenewal: a program whose exit note
// reaches its home before the home has registered its session (the note
// finds no session and is dropped) is still answered within one renewal
// round trip of its wait, not a lease interval later. The home holds the
// waiter and renews at once, and the hosting manager's fate says exited.
func TestExitBeforeSuperviseAnsweredByTheRenewal(t *testing.T) {
	r := newRig(t, 2, 7)
	var reply vid.Message
	var err error
	var lhid vid.LHID
	var asked, answered sim.Time
	r.agent(0, func(ctx *kernel.ProcCtx) {
		m, e := ctx.Send(r.pms[1].PID(), vid.Message{
			Op: PmCreateProgram, W: [6]uint32{0, 1, uint32(r.pms[0].PID())}, Seg: []byte("job"),
		})
		if e != nil || !m.OK() {
			t.Errorf("create: %v %v", m, e)
			return
		}
		pid := vid.PID(m.W[0])
		lhid = vid.LHID(m.W[1])
		if sm, e := ctx.Send(kernel.KernelServerPID(lhid), vid.Message{
			Op: kernel.KsStartProcess, W: [6]uint32{uint32(pid)},
		}); e != nil || !sm.OK() {
			t.Errorf("start: %v %v", sm, e)
			return
		}
		ctx.Sleep(3 * time.Second) // the 2 s job exits, and its note finds no session
		r.pms[0].Supervise(ctx, SessionInfo{LHID: lhid, PID: pid, Name: "job",
			HostPM: r.pms[1].PID(), HostLH: r.ws[1].SystemLH().ID(), MaxRestarts: 1})
		asked = ctx.Now()
		reply, err = ctx.Send(r.pms[0].PID(), vid.Message{Op: PmWaitProgram, W: [6]uint32{uint32(lhid), 0, 0, 0, 0, PmWaitHome}})
		answered = ctx.Now()
	})
	r.eng.RunFor(5 * time.Second)
	if err != nil || !reply.OK() || reply.W[0] != 0 {
		t.Fatalf("wait answered %+v, %v; want the exit, code 0", reply, err)
	}
	if lag := answered.Sub(asked); lag > 10*time.Millisecond {
		t.Errorf("wait answered %v after it was asked, want within one renewal round trip", lag)
	}
	if v := r.pms[0].Sessions(); len(v) != 1 || v[0].State != "done" {
		t.Errorf("sessions = %+v, want one done", v)
	}
}

// TestNoteFromSupersededIncarnationIgnored: once a session has re-executed
// its program, an exit note about the incarnation it replaced says nothing
// of the session, and only the current incarnation's note ends it.
func TestNoteFromSupersededIncarnationIgnored(t *testing.T) {
	r := newRig(t, 2, 7)
	const newLH = vid.LHID(0x0306)
	home := r.pms[0]
	var states []string
	var codes []uint32
	r.agent(1, func(ctx *kernel.ProcCtx) {
		si := tSess
		home.reg.Apply(hgCmd{Kind: hgSupervise, Sess: &si, At: int64(ctx.Now())})
		home.reg.Apply(hgCmd{Kind: hgRebind, Orig: si.LHID, At: int64(ctx.Now()),
			NewLH: uint32(newLH), NewPID: uint32(vid.NewPID(newLH, vid.IdxFirstProcess)),
			HostPM: uint32(r.pms[1].PID()), HostLH: uint32(r.ws[1].SystemLH().ID())})
		for _, n := range []struct {
			lh   vid.LHID
			code uint32
		}{{si.LHID, 7}, {newLH, 3}} {
			if m, err := ctx.Send(home.PID(), vid.Message{Op: PmNoteExited, W: [6]uint32{uint32(n.lh), n.code}}); err != nil || !m.OK() {
				t.Errorf("note %v: %v %v", n.lh, m, err)
			}
			v := home.Sessions()[0]
			states, codes = append(states, v.State), append(codes, v.ExitCode)
		}
	})
	r.eng.RunFor(500 * time.Millisecond)
	if len(states) != 2 || states[0] != "active" || states[1] != "done" || codes[1] != 3 {
		t.Fatalf("after each note the session was %v with codes %v; want active, then done with 3", states, codes)
	}
}
