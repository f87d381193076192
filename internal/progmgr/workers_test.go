package progmgr

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"vsystem/internal/kernel"
	"vsystem/internal/packet"
	"vsystem/internal/params"
	"vsystem/internal/rsm"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
	"vsystem/internal/workload"
)

// The lease worker parks until the earliest deadline it actually holds.
// These tests pin each kind of deadline and that a missed one would show:
// nothing else wakes the worker in them.

// requestTimes records when requests with the given op leave any of the
// rig's workstations.
func requestTimes(r *rig, op uint16) *[]sim.Time {
	tb := trace.NewBus()
	for _, h := range r.ws {
		h.AttachTrace(tb)
	}
	var at []sim.Time
	tb.Subscribe(func(ev trace.Event) {
		if ev.Kind == trace.EvPktTx && ev.Pkt.Kind == packet.KRequest && ev.Pkt.Msg.Op == op {
			at = append(at, ev.At)
		}
	})
	return &at
}

// TestLeaseDeadlineTable drives leaseDeadline over a registry with no
// cluster behind it: it is the minimum over what the worker acts on, and
// nothing when there is nothing — the worker then parks for ever.
func TestLeaseDeadlineTable(t *testing.T) {
	r := newRig(t, 1, 1)
	pm := r.pms[0]
	if at, ok := pm.leaseDeadline(); ok {
		t.Fatalf("idle manager has a deadline at %v", at)
	}
	si := tSess
	pm.reg.Apply(hgCmd{Kind: hgSupervise, Sess: &si, At: 1000})
	if at, ok := pm.leaseDeadline(); !ok || at != sim.Time(1000).Add(params.LeaseInterval) {
		t.Fatalf("active session: deadline %v %v, want LastRenew+LeaseInterval", at, ok)
	}
	pm.reg.Apply(hgCmd{Kind: hgBreak, Orig: si.LHID, At: 77})
	if at, ok := pm.leaseDeadline(); !ok || at != 77 {
		t.Fatalf("broken session: deadline %v %v, want NextRetry", at, ok)
	}
	pm.reg.Apply(hgCmd{Kind: hgDone, Orig: si.LHID})
	if at, ok := pm.leaseDeadline(); ok {
		t.Fatalf("finished session leaves a deadline at %v", at)
	}
	pm.reapQ = append(pm.reapQ, &reapJob{next: 900}, &reapJob{next: 300})
	if at, ok := pm.leaseDeadline(); !ok || at != 300 {
		t.Fatalf("reap queue: deadline %v %v, want the earlier job's", at, ok)
	}
}

// TestLeaseRenewedAtExactlyItsDeadline supervises one long job and checks
// that every heartbeat leaves a frozen check and a send charge — the same
// sub-millisecond lag each time — after LastRenew + LeaseInterval. A
// 10 ms poll put each one up to 10 ms late, by a different amount.
func TestLeaseRenewedAtExactlyItsDeadline(t *testing.T) {
	r := newRig(t, 2, 5)
	img := workload.Image(workload.Spec{Name: "long", HotKB: 8, HotRateKBps: 40, DurationMs: 4500}, 0)
	r.fs.Put("long", img.Encode())
	renews := requestTimes(r, PmRenewLease)
	pm := r.pms[0]
	var lhid vid.LHID
	r.agent(0, func(ctx *kernel.ProcCtx) {
		m, err := ctx.Send(r.pms[1].PID(), vid.Message{
			Op: PmCreateProgram, W: [6]uint32{0, 1}, Seg: []byte("long"),
		})
		if err != nil || !m.OK() {
			t.Errorf("create: %v %v", m, err)
			return
		}
		pid := vid.PID(m.W[0])
		lhid = vid.LHID(m.W[1])
		if sm, err := ctx.Send(kernel.KernelServerPID(lhid), vid.Message{
			Op: kernel.KsStartProcess, W: [6]uint32{uint32(pid)},
		}); err != nil || !sm.OK() {
			t.Errorf("start: %v %v", sm, err)
			return
		}
		pm.Supervise(ctx, SessionInfo{
			LHID: lhid, PID: pid, Name: "long",
			HostPM: r.pms[1].PID(), HostLH: r.ws[1].SystemLH().ID(),
		})
	})
	// Each renewal's deadline is read off the session just before it fires.
	var due []sim.Time
	var watch func()
	watch = func() {
		if s := pm.reg.lookup(lhid); s != nil && s.State == sessionActive {
			if d := s.LastRenew.Add(params.LeaseInterval); len(due) == 0 || due[len(due)-1] != d {
				due = append(due, d)
			}
		}
		r.eng.After(100*time.Millisecond, watch)
	}
	r.eng.After(500*time.Millisecond, watch)
	r.eng.RunFor(4 * time.Second)

	if len(*renews) < 3 {
		t.Fatalf("%d lease renewals in 4 s, want at least 3", len(*renews))
	}
	for i, at := range *renews {
		if i >= len(due) {
			break
		}
		if late := at.Sub(due[i]); late < 0 || late >= time.Millisecond {
			t.Errorf("renewal %d left at %v, %v after its deadline %v; want within 1 ms", i, at, late, due[i])
		}
	}
}

// TestSessionsDueTogetherRenewInLHIDOrder registers three sessions out of
// order, all due at one instant: one pass renews them in LHID order, the
// order the registry holds them in.
func TestSessionsDueTogetherRenewInLHIDOrder(t *testing.T) {
	r := newRig(t, 2, 3)
	tb := trace.NewBus()
	for _, h := range r.ws {
		h.AttachTrace(tb)
	}
	var order []vid.LHID
	tb.Subscribe(func(ev trace.Event) {
		if ev.Kind == trace.EvPktTx && ev.Pkt.Kind == packet.KRequest && ev.Pkt.Msg.Op == PmRenewLease {
			if lh := vid.LHID(ev.Pkt.Msg.W[0]); !slices.Contains(order, lh) {
				order = append(order, lh)
			}
		}
	})
	for _, lh := range []vid.LHID{0x0503, 0x0501, 0x0502} {
		si := tSess
		si.LHID, si.PID = lh, vid.NewPID(lh, vid.IdxFirstProcess)
		si.HostPM, si.HostLH = r.pms[1].PID(), r.ws[1].SystemLH().ID()
		r.pms[0].reg.Apply(hgCmd{Kind: hgSupervise, Sess: &si})
	}
	r.eng.RunFor(params.LeaseInterval + 100*time.Millisecond)
	if want := []vid.LHID{0x0501, 0x0502, 0x0503}; !slices.Equal(order, want) {
		t.Fatalf("sessions due together renewed in the order %v, want %v", order, want)
	}
}

// TestIdleLeasePassAllocatesNothing: a pass over 150 resolved sessions —
// the history a home keeps until their LHIDs recycle — and the deadline the
// worker then parks until allocate nothing once the pass's id buffer has
// grown.
func TestIdleLeasePassAllocatesNothing(t *testing.T) {
	r := newRig(t, 1, 1)
	pm := r.pms[0]
	for i := 0; i < 150; i++ {
		si := tSess
		si.LHID = vid.LHID(0x0200 + i)
		pm.reg.Apply(hgCmd{Kind: hgSupervise, Sess: &si})
		pm.reg.Apply(hgCmd{Kind: hgDone, Orig: si.LHID})
	}
	allocs := -1.0
	r.agent(0, func(ctx *kernel.ProcCtx) {
		allocs = testing.AllocsPerRun(50, func() {
			pm.leasePass(ctx)
			pm.leaseDeadline()
		})
	})
	r.eng.RunFor(10 * time.Millisecond)
	if allocs != 0 {
		t.Fatalf("an idle lease pass allocates %v times, want 0", allocs)
	}
}

// TestReapJobsDueTogetherGoInOnePass queues two remote destructions for
// the same instant: the second must follow the first's reply directly,
// not wait for another wake-up.
func TestReapJobsDueTogetherGoInOnePass(t *testing.T) {
	r := newRig(t, 2, 9)
	sent := requestTimes(r, PmDestroyProgram)
	r.eng.After(333*time.Millisecond, func() {
		r.pms[0].ReapRemote(r.pms[1].PID(), vid.LHID(0x0155))
		r.pms[0].ReapRemote(r.pms[1].PID(), vid.LHID(0x0156))
	})
	r.eng.RunFor(time.Second)
	if len(*sent) != 2 {
		t.Fatalf("%d destroy requests sent, want 2", len(*sent))
	}
	first, second := (*sent)[0], (*sent)[1]
	// The first send pays a locate round trip for the cold binding.
	if lag := first.Sub(sim.Time(333 * time.Millisecond)); lag > 5*time.Millisecond {
		t.Errorf("first destroy left %v after it was queued, want < 5 ms", lag)
	}
	// One round trip to an idle manager is a few milliseconds; a worker
	// that took one job per wake-up would need a second wake-up.
	if gap := second.Sub(first); gap > 8*time.Millisecond {
		t.Errorf("second destroy left %v after the first, want one round trip", gap)
	}
	if n := len(r.pms[0].reapQ); n != 0 {
		t.Errorf("%d jobs still queued after both were answered", n)
	}
}

// TestFollowerHandsHeldWaiterToGroupAtOnce pins the wake a held waiter
// gives the lease worker. A home-group follower acts on no session, so its
// worker holds no deadline; a PmWaitProgram that reaches it for a session
// it believes broken must still be pointed back at the group straight
// away, not whenever the registry next changes.
func TestFollowerHandsHeldWaiterToGroupAtOnce(t *testing.T) {
	r := newRig(t, 4, 11)
	img := workload.Image(workload.Spec{Name: "long", HotKB: 8, HotRateKBps: 40, DurationMs: 20000}, 0)
	r.fs.Put("long", img.Encode())
	for i := 0; i < 3; i++ {
		r.pms[i].EnableHomeGroup(i, 3, rsm.NewStore())
	}
	r.eng.RunFor(2500 * time.Millisecond) // first election

	var follower *PM
	for _, pm := range r.pms[:3] {
		if !pm.svc.Leading() {
			follower = pm
			break
		}
	}
	var reply vid.Message
	var err error
	var asked, answered sim.Time
	r.agent(3, func(ctx *kernel.ProcCtx) {
		m, e := ctx.Send(r.pms[3].PID(), vid.Message{
			Op: PmCreateProgram, W: [6]uint32{0, 1}, Seg: []byte("long"),
		})
		if e != nil || !m.OK() {
			err = fmt.Errorf("create: %v %v", m, e)
			return
		}
		pid, lhid := vid.PID(m.W[0]), vid.LHID(m.W[1])
		if sm, e := ctx.Send(kernel.KernelServerPID(lhid), vid.Message{
			Op: kernel.KsStartProcess, W: [6]uint32{uint32(pid)},
		}); e != nil || !sm.OK() {
			err = fmt.Errorf("start: %v %v", sm, e)
			return
		}
		si := SessionInfo{LHID: lhid, PID: pid, Name: "long",
			HostPM: r.pms[3].PID(), HostLH: r.ws[3].SystemLH().ID()}
		if m, e := ctx.Send(vid.GroupHomePMs, vid.Message{Op: PmSupervise, Seg: EncodeSessionInfo(&si)}); e != nil || !m.OK() {
			err = fmt.Errorf("supervise: %v %v", m, e)
			return
		}
		ctx.Sleep(300 * time.Millisecond) // the record reaches every member
		// Only this follower applies a break: the leader goes on renewing,
		// leader-locally, and commits nothing.
		follower.reg.Apply(hgCmd{Kind: hgBreak, Orig: lhid, At: int64(ctx.Now())})
		ctx.Sleep(200 * time.Millisecond)
		asked = ctx.Now()
		reply, err = ctx.Send(follower.PID(), vid.Message{Op: PmWaitProgram, W: [6]uint32{uint32(lhid)}})
		answered = ctx.Now()
	})
	r.eng.RunFor(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if answered == 0 {
		t.Fatal("the follower still holds the waiter: its lease worker was not woken")
	}
	if reply.Code != CodeMoved || vid.PID(reply.W[1]) != vid.GroupHomePMs {
		t.Fatalf("waiter answered %v, want a redirect to the home group", reply)
	}
	if lag := answered.Sub(asked); lag > 10*time.Millisecond {
		t.Fatalf("waiter redirected after %v, want one round trip", lag)
	}
}
