package progmgr

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/fileserver"
	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/packet"
	"vsystem/internal/params"
	"vsystem/internal/sched"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
	"vsystem/internal/workload"
)

type rig struct {
	eng *sim.Engine
	bus *ethernet.Bus
	ws  []*kernel.Host
	pms []*PM
	fs  *fileserver.Server
	fsh *kernel.Host
}

func newRig(t *testing.T, n int, seed int64) *rig {
	t.Helper()
	eng := sim.NewEngine(seed)
	bus := ethernet.NewBus(eng)
	r := &rig{eng: eng, bus: bus}
	for i := 0; i < n; i++ {
		h := kernel.NewHost(eng, bus, i, "ws"+string(rune('0'+i)))
		r.ws = append(r.ws, h)
		r.pms = append(r.pms, Start(h))
	}
	r.fsh = kernel.NewHost(eng, bus, n, "fserv")
	r.fs = fileserver.Start(r.fsh)
	img := workload.Image(workload.Spec{Name: "job", HotKB: 8, HotRateKBps: 40, DurationMs: 2000}, 0)
	r.fs.Put("job", img.Encode())
	return r
}

// agent runs fn as a client process on workstation i.
func (r *rig) agent(i int, fn func(ctx *kernel.ProcCtx)) {
	r.ws[i].SpawnServer("agent", 8192, fn)
}

func TestCreateStartWait(t *testing.T) {
	r := newRig(t, 2, 1)
	var exit uint32
	var err error
	r.agent(0, func(ctx *kernel.ProcCtx) {
		m, e := ctx.Send(r.pms[1].PID(), vid.Message{
			Op: PmCreateProgram, W: [6]uint32{0, 1}, Seg: []byte("job"),
		})
		if e != nil || !m.OK() {
			err = e
			return
		}
		pid, lhid := vid.PID(m.W[0]), vid.LHID(m.W[1])
		if sm, e := ctx.Send(kernel.KernelServerPID(lhid), vid.Message{
			Op: kernel.KsStartProcess, W: [6]uint32{uint32(pid)},
		}); e != nil || !sm.OK() {
			err = e
			return
		}
		wm, e := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmWaitProgram, W: [6]uint32{uint32(lhid)}})
		if e != nil || !wm.OK() {
			err = e
			return
		}
		exit = wm.W[0]
	})
	r.eng.RunFor(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if exit != 0 {
		t.Fatalf("exit = %d", exit)
	}
	// The program's logical host must be gone after exit (memory freed).
	for _, lh := range r.ws[1].LHs() {
		if !lh.System() {
			t.Fatalf("leftover logical host %v (%s)", lh.ID(), lh.Name())
		}
	}
}

// TestExitTeardownPaidAfterTheAnswer: the reaper answers an exit first and
// pays for the teardown after. The logical host stays resident, holding
// its memory, for EnvDestroyCPU after the wait reply leaves; then it is
// destroyed and the workstation's free memory is what it was before the
// program was created.
func TestExitTeardownPaidAfterTheAnswer(t *testing.T) {
	r := newRig(t, 2, 22)
	tb := trace.NewBus()
	for _, h := range r.ws {
		h.AttachTrace(tb)
	}
	ws1 := r.ws[1]
	free0 := ws1.MemFree()
	var lhid vid.LHID
	resident := func() bool { _, ok := ws1.LookupLH(lhid); return ok }
	var answered, atAnswer, beforePaid, afterPaid bool
	var freeAtAnswer, freeAfter uint32
	tb.Subscribe(func(ev trace.Event) {
		if p := ev.Pkt; ev.Kind == trace.EvPktTx && !answered && p.Kind == packet.KReply &&
			p.Src == r.pms[1].PID() && p.Msg.Op == PmWaitProgram {
			answered, atAnswer, freeAtAnswer = true, resident(), ws1.MemFree()
			r.eng.After(params.EnvDestroyCPU-time.Microsecond, func() { beforePaid = resident() })
			r.eng.After(params.EnvDestroyCPU+2*time.Millisecond, func() {
				afterPaid, freeAfter = resident(), ws1.MemFree()
			})
		}
	})
	r.agent(0, func(ctx *kernel.ProcCtx) {
		m, err := ctx.Send(r.pms[1].PID(), vid.Message{
			Op: PmCreateProgram, W: [6]uint32{0, 1}, Seg: []byte("job"),
		})
		if err != nil || !m.OK() {
			t.Errorf("create: %v %v", m, err)
			return
		}
		lhid = vid.LHID(m.W[1])
		if sm, err := ctx.Send(kernel.KernelServerPID(lhid), vid.Message{
			Op: kernel.KsStartProcess, W: [6]uint32{m.W[0]},
		}); err != nil || !sm.OK() {
			t.Errorf("start: %v %v", sm, err)
			return
		}
		ctx.Send(r.pms[1].PID(), vid.Message{Op: PmWaitProgram, W: [6]uint32{uint32(lhid)}})
	})
	r.eng.RunFor(time.Minute)
	if !answered {
		t.Fatal("the exit was never answered")
	}
	if !atAnswer || freeAtAnswer >= free0 {
		t.Fatalf("at the answer: resident=%v, free %d of %d bytes; want the logical host resident and its memory held",
			atAnswer, freeAtAnswer, free0)
	}
	if !beforePaid {
		t.Fatalf("logical host destroyed less than EnvDestroyCPU (%v) after the answer: the teardown was not paid", params.EnvDestroyCPU)
	}
	if afterPaid {
		t.Fatal("logical host still resident EnvDestroyCPU + 2ms after the answer")
	}
	if freeAfter != free0 {
		t.Fatalf("free memory %d bytes after the teardown, want %d as before the program", freeAfter, free0)
	}
}

func TestCreateUnknownImage(t *testing.T) {
	r := newRig(t, 2, 2)
	var code uint16 = 0xFFFF
	r.agent(0, func(ctx *kernel.ProcCtx) {
		m, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmCreateProgram, Seg: []byte("ghost")})
		if err == nil {
			code = m.Code
		}
	})
	r.eng.RunFor(time.Minute)
	if code != vid.CodeNotFound {
		t.Fatalf("code = %d, want not-found", code)
	}
}

// TestPinnedLoadSendsNoStat: a manager's first load stats through the
// file-server group to find a server; after that its first read is its
// stat. The file server receives one request for an image of one segment
// or less and two for an image of exactly two segments — no stat.
func TestPinnedLoadSendsNoStat(t *testing.T) {
	r := newRig(t, 2, 3)
	small := workload.Image(workload.Spec{Name: "small", HotKB: 8, HotRateKBps: 40, DurationMs: 2000}, 0)
	big := workload.Image(workload.Spec{Name: "big", HotKB: 8, HotRateKBps: 40, DurationMs: 2000}, 0)
	big.Pad = uint32(2*vid.SegMax - big.Size())
	r.fs.Put("small", small.Encode())
	r.fs.Put("big", big.Encode())
	if small.Size() > vid.SegMax || big.Size() != 2*vid.SegMax {
		t.Fatalf("images of %d and %d bytes, want ≤ %d and %d", small.Size(), big.Size(), vid.SegMax, 2*vid.SegMax)
	}

	// Requests are counted once: a lone send's tail probe is another copy
	// of the same transaction.
	type load struct{ stats, groupStats, reads int }
	var cur load
	seen := map[[2]uint32]bool{}
	tb := trace.NewBus()
	r.fsh.AttachTrace(tb)
	tb.Subscribe(func(ev trace.Event) {
		p := ev.Pkt
		if ev.Kind != trace.EvPktRx || p.Kind != packet.KRequest || seen[[2]uint32{uint32(p.Src), p.TxID}] {
			return
		}
		seen[[2]uint32{uint32(p.Src), p.TxID}] = true
		switch p.Msg.Op {
		case fileserver.OpStat:
			cur.stats++
			if p.Dst == vid.GroupFileServers {
				cur.groupStats++
			}
		case fileserver.OpRead:
			cur.reads++
		}
	})
	var loads []load
	r.agent(0, func(ctx *kernel.ProcCtx) {
		for _, name := range []string{"small", "small", "big"} {
			cur = load{}
			m, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmCreateProgram, Seg: []byte(name)})
			if err != nil || !m.OK() {
				t.Errorf("create %s: %v %v", name, m, err)
				return
			}
			loads = append(loads, cur)
		}
	})
	r.eng.RunFor(time.Minute)
	want := []load{
		{stats: 1, groupStats: 1, reads: 1}, // first load: the group stat finds a server
		{reads: 1},                          // pinned, one segment: the read is the stat
		{reads: 2},                          // pinned, two segments
	}
	if len(loads) != len(want) {
		t.Fatalf("%d loads finished, want %d", len(loads), len(want))
	}
	for i, w := range want {
		if loads[i] != w {
			t.Errorf("load %d: file server received %+v, want %+v", i+1, loads[i], w)
		}
	}
}

// TestDeclineHintRepinsWithoutAStat: a manager pinned to a follower that
// declines its read with CodeNotLeader and the leader in W4 re-pins to that
// leader and sends it the read at once — one unicast, no second group
// stat. The follower here is a stand-in that wins the group stat (it
// answers without computing) and declines every read.
func TestDeclineHintRepinsWithoutAStat(t *testing.T) {
	r := newRig(t, 2, 5)
	img, _ := r.fs.Get("job")
	fh := kernel.NewHost(r.eng, r.bus, 3, "follower")
	var follower vid.PID
	follower = fh.SpawnServer("follower", 8192, func(ctx *kernel.ProcCtx) {
		for {
			req := ctx.Receive()
			switch req.Msg.Op {
			case fileserver.OpStat:
				ctx.Reply(req, vid.Message{Op: req.Msg.Op, W: [6]uint32{0: uint32(len(img)), 5: uint32(follower)}})
			default:
				ctx.Reply(req, vid.Message{Op: req.Msg.Op, Code: vid.CodeNotLeader,
					W: [6]uint32{4: uint32(r.fs.PID())}})
			}
		}
	}).PID()
	fh.JoinGroup(vid.GroupFileServers, follower)

	type req struct {
		op       uint16
		dst      vid.PID
		unicast  bool
		declined bool // sent after the follower declined
	}
	var sent []req // the manager's file-server requests, each once
	declined := false
	seen := map[[2]uint32]bool{}
	tb := trace.NewBus()
	r.ws[1].AttachTrace(tb)
	fh.AttachTrace(tb)
	tb.Subscribe(func(ev trace.Event) {
		p := ev.Pkt
		switch {
		case ev.Kind == trace.EvPktTx && p.Kind == packet.KRequest && p.Src == r.pms[1].PID() &&
			!seen[[2]uint32{uint32(p.Src), p.TxID}]:
			seen[[2]uint32{uint32(p.Src), p.TxID}] = true
			sent = append(sent, req{p.Msg.Op, p.Dst, p.Msg.W[5]&fileserver.FsUnicast != 0, declined})
		case ev.Kind == trace.EvPktTx && p.Kind == packet.KReply && p.Src == follower && p.Msg.Code == vid.CodeNotLeader:
			declined = true
		}
	})
	r.agent(0, func(ctx *kernel.ProcCtx) {
		if m, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmCreateProgram, Seg: []byte("job")}); err != nil || !m.OK() {
			t.Errorf("create: %v %v", m, err)
		}
	})
	r.eng.RunFor(time.Minute)
	want := []req{
		{op: fileserver.OpStat, dst: vid.GroupFileServers},
		{op: fileserver.OpRead, dst: follower, unicast: true},
		{op: fileserver.OpRead, dst: r.fs.PID(), unicast: true, declined: true},
	}
	if !reflect.DeepEqual(sent, want) {
		t.Fatalf("manager sent %+v, want %+v", sent, want)
	}
}

func TestSelectHostRespondsWhenIdle(t *testing.T) {
	r := newRig(t, 3, 3)
	var got vid.Message
	var err error
	var elapsed time.Duration
	r.agent(0, func(ctx *kernel.ProcCtx) {
		t0 := ctx.Now()
		got, err = ctx.Send(vid.GroupProgramManagers, vid.Message{
			Op: PmSelectHost,
			W:  [6]uint32{64 * 1024, uint32(r.ws[0].SystemLH().ID())},
		})
		elapsed = ctx.Now().Sub(t0)
	})
	r.eng.RunFor(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if vid.LHID(got.W[0]) == r.ws[0].SystemLH().ID() {
		t.Fatal("excluded host responded")
	}
	// First response ≈ the paper's 23 ms.
	if elapsed < 15*time.Millisecond || elapsed > 40*time.Millisecond {
		t.Fatalf("selection took %v, want ≈23ms", elapsed)
	}
}

// TestBusyHostEvaluatesAQueryOnce: a busy host refuses a first-response
// query after evaluating it, and refuses the query's next copy without
// evaluating it again; once its CPU is idle it evaluates the copy after
// that and answers it.
func TestBusyHostEvaluatesAQueryOnce(t *testing.T) {
	r := newRig(t, 2, 4)
	const idleAt = 350 * time.Millisecond // between the copies sent at 200 and 400 ms
	r.eng.Spawn("owner", func(tk *sim.Task) { r.ws[1].CPU.Use(tk, idleAt, params.PrioLocal) })
	var got vid.Message
	var err error
	r.agent(0, func(ctx *kernel.ProcCtx) {
		got, err = ctx.Send(vid.GroupProgramManagers, vid.Message{
			Op: PmSelectHost,
			W:  [6]uint32{64 * 1024, uint32(r.ws[0].SystemLH().ID())},
		})
	})
	r.eng.RunFor(time.Second)
	if err != nil || vid.LHID(got.W[0]) != r.ws[1].SystemLH().ID() {
		t.Fatalf("select = %v, %v; want ws1 once its owner's program is done", err, vid.LHID(got.W[0]))
	}
	// Three copies reached ws1: the first and the third were evaluated.
	if busy := r.ws[1].CPU.Busy(params.PrioSystem); busy < 2*params.SelectProbeCPU || busy >= 3*params.SelectProbeCPU {
		t.Errorf("ws1's manager computed %v; want two evaluations of %v", busy, params.SelectProbeCPU)
	}
}

func TestSelectHostSilentWhenNoMemory(t *testing.T) {
	r := newRig(t, 2, 4)
	var err error
	r.agent(0, func(ctx *kernel.ProcCtx) {
		_, err = ctx.Send(vid.GroupProgramManagers, vid.Message{
			Op: PmSelectHost,
			W:  [6]uint32{64 * 1024 * 1024, uint32(r.ws[0].SystemLH().ID())},
		})
	})
	r.eng.RunFor(time.Minute)
	if err == nil {
		t.Fatal("selection with impossible memory requirement succeeded")
	}
}

func TestQueryHostByName(t *testing.T) {
	r := newRig(t, 3, 5)
	var got vid.Message
	var err error
	r.agent(0, func(ctx *kernel.ProcCtx) {
		got, err = ctx.Send(vid.GroupProgramManagers, vid.Message{
			Op: PmQueryHost, Seg: []byte("WS2"), // case-insensitive
		})
	})
	r.eng.RunFor(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if vid.LHID(got.W[0]) != r.ws[2].SystemLH().ID() {
		t.Fatalf("resolved %v, want ws2's system LH", vid.LHID(got.W[0]))
	}
}

func TestInitMigrationChecksMemory(t *testing.T) {
	r := newRig(t, 2, 6)
	var ok, refused bool
	r.agent(0, func(ctx *kernel.ProcCtx) {
		req := &InitReq{
			Name: "incoming", Guest: true, FinalLH: 0x0133,
			Spaces: []kernel.SpaceDesc{{ID: 1, Size: 256 * 1024}},
		}
		m, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmInitMigration, Seg: EncodeInitReq(req)})
		ok = err == nil && m.OK()
		if ok {
			// The placeholder must exist, frozen, with the space installed.
			lh, found := r.ws[1].LookupLH(vid.LHID(m.W[0]))
			if !found || !lh.Frozen() {
				ok = false
			}
		}
		huge := &InitReq{
			Name: "huge", FinalLH: 0x0134,
			Spaces: []kernel.SpaceDesc{{ID: 1, Size: 64 * 1024 * 1024}},
		}
		m2, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmInitMigration, Seg: EncodeInitReq(huge)})
		refused = err == nil && m2.Code == vid.CodeNoMemory
	})
	r.eng.RunFor(time.Minute)
	if !ok {
		t.Fatal("valid init-migration failed")
	}
	if !refused {
		t.Fatal("oversized init-migration accepted")
	}
}

// stubMigrator stands in for core's migration engine: it reports the
// program moved to manager to, or fails with err.
type stubMigrator struct {
	to      vid.PID
	err     error
	backoff time.Duration // how long a failing Migrate runs, as between attempts
}

func (m stubMigrator) Migrate(ctx *kernel.ProcCtx, pm *PM, lh *kernel.LogicalHost) ([]byte, vid.PID, error) {
	if m.err != nil {
		ctx.Sleep(m.backoff)
		return nil, vid.Nil, m.err
	}
	pm.Host().DestroyLH(lh)
	return nil, m.to, nil
}

// TestMigrateKillAfterGuestExited: migrateprog -n asks to move a program
// that exits while the migration backs off between attempts. The reaper
// retires it and answers its held waiter; the failed migration then finds
// it gone and neither destroys nor retires it again, and answers that the
// program is off this host. The waiter hears one reply, the exit's own
// code, and a later wait hears that code too.
func TestMigrateKillAfterGuestExited(t *testing.T) {
	r := newRig(t, 2, 11)
	t.Cleanup(r.eng.Shutdown)
	r.pms[1].Migrator = stubMigrator{err: vid.CodeError(vid.CodeRefused), backoff: 5 * time.Second}
	tb := trace.NewBus()
	r.ws[1].AttachTrace(tb)
	var waiter vid.PID
	waitReplies := 0
	tb.Subscribe(func(ev trace.Event) {
		if p := ev.Pkt; ev.Kind == trace.EvPktTx && p.Kind == packet.KReply && waiter != vid.Nil && p.Dst == waiter {
			waitReplies++
		}
	})
	var lhid vid.LHID
	var waited, migrated, later vid.Message
	r.agent(0, func(ctx *kernel.ProcCtx) {
		m, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmCreateProgram, W: [6]uint32{0, 1}, Seg: []byte("job")})
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
		r.agent(0, func(w *kernel.ProcCtx) {
			waiter = w.PID()
			waited, _ = w.Send(r.pms[1].PID(), vid.Message{Op: PmWaitProgram, W: [6]uint32{uint32(lhid)}})
		})
		ctx.Sleep(100 * time.Millisecond)
		migrated, _ = ctx.Send(r.pms[1].PID(), vid.Message{Op: PmMigrateProgram, W: [6]uint32{uint32(lhid), 1}})
		later, _ = ctx.Send(r.pms[1].PID(), vid.Message{Op: PmWaitProgram, W: [6]uint32{uint32(lhid)}})
	})
	r.eng.RunFor(20 * time.Second)
	if waitReplies != 1 || !waited.OK() || waited.W[0] != 0 {
		t.Errorf("held waiter heard %d replies, the last %v; want one, exit code 0", waitReplies, waited)
	}
	if !migrated.OK() || migrated.W[0] != 1 {
		t.Errorf("migrateprog -n of an exited program answered %v, want W0=1 (gone)", migrated)
	}
	if !later.OK() || later.W[0] != 0 {
		t.Errorf("a later wait answered %v, want exit code 0", later)
	}
}

// TestFateTable asks a manager PmWaitProgram and PmRenewLease about one
// program in each state the manager can know it in, and pins every answer
// (DESIGN §6 has the table). A held waiter is one the manager keeps until
// the program's fate is known.
func TestFateTable(t *testing.T) {
	type answer struct {
		held bool
		code uint16
		w    [3]uint32
	}
	held := answer{held: true}
	ok := func(w ...uint32) answer {
		var a answer
		copy(a.w[:], w)
		return a
	}
	moved := func(pm vid.PID, lh vid.LHID) answer {
		return answer{code: CodeMoved, w: [3]uint32{0, uint32(pm), uint32(lh)}}
	}
	refused := func(code uint16) answer { return answer{code: code} }

	// fx is what a row's setup leaves: the manager to ask, the LHID to ask
	// about, and the LHID a re-execution gave the program.
	type fx struct {
		ask   int
		lh    vid.LHID
		newLH vid.LHID
	}
	create := func(ctx *kernel.ProcCtx, r *rig, i int, prog string, start bool) (vid.PID, vid.LHID) {
		m, err := ctx.Send(r.pms[i].PID(), vid.Message{
			Op: PmCreateProgram, W: [6]uint32{0, 1}, Seg: []byte(prog),
		})
		if err != nil || !m.OK() {
			t.Errorf("create: %v %v", m, err)
		}
		pid, lhid := vid.PID(m.W[0]), vid.LHID(m.W[1])
		if start {
			if sm, err := ctx.Send(kernel.KernelServerPID(lhid), vid.Message{
				Op: kernel.KsStartProcess, W: [6]uint32{uint32(pid)},
			}); err != nil || !sm.OK() {
				t.Errorf("start: %v %v", sm, err)
			}
		}
		return pid, lhid
	}
	// supervised leaves a long program running on ws1 under ws0's
	// supervision, and asks ws0.
	supervised := func(ctx *kernel.ProcCtx, r *rig) fx {
		pid, lhid := create(ctx, r, 1, "long", true)
		r.pms[0].Supervise(ctx, SessionInfo{LHID: lhid, PID: pid, Name: "long",
			HostPM: r.pms[1].PID(), HostLH: r.ws[1].SystemLH().ID()})
		return fx{ask: 0, lh: lhid}
	}

	rows := []struct {
		name  string
		setup func(ctx *kernel.ProcCtx, r *rig) fx
		want  func(r *rig, f fx) (wait, renew answer)
	}{
		{"running", func(ctx *kernel.ProcCtx, r *rig) fx {
			_, lhid := create(ctx, r, 1, "long", true)
			return fx{ask: 1, lh: lhid}
		}, func(*rig, fx) (answer, answer) { return held, ok(0, 1) }},

		{"incoming receptacle", func(ctx *kernel.ProcCtx, r *rig) fx {
			req := &InitReq{Name: "incoming", Guest: true, FinalLH: 0x0177,
				Spaces: []kernel.SpaceDesc{{ID: 1, Size: 32 * 1024}}}
			if m, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmInitMigration, Seg: EncodeInitReq(req)}); err != nil || !m.OK() {
				t.Errorf("init migration: %v %v", m, err)
			}
			return fx{ask: 1, lh: 0x0177}
		}, func(*rig, fx) (answer, answer) { return refused(vid.CodeNotFound), ok(0, 1) }},

		{"exited", func(ctx *kernel.ProcCtx, r *rig) fx {
			_, lhid := create(ctx, r, 1, "job", true)
			ctx.Sleep(5 * time.Second)
			return fx{ask: 1, lh: lhid}
		}, func(*rig, fx) (answer, answer) { return ok(0), ok(0, 2, 0) }},

		{"destroyed", func(ctx *kernel.ProcCtx, r *rig) fx {
			_, lhid := create(ctx, r, 1, "long", true)
			if m, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmDestroyProgram, W: [6]uint32{uint32(lhid)}}); err != nil || !m.OK() {
				t.Errorf("destroy: %v %v", m, err)
			}
			return fx{ask: 1, lh: lhid}
		}, func(*rig, fx) (answer, answer) { return ok(0xDEAD), ok(0, 2, 0xDEAD) }},

		{"migrated", func(ctx *kernel.ProcCtx, r *rig) fx {
			r.pms[1].Migrator = stubMigrator{to: r.pms[0].PID()}
			_, lhid := create(ctx, r, 1, "long", false)
			if m, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmMigrateProgram, W: [6]uint32{uint32(lhid)}}); err != nil || !m.OK() {
				t.Errorf("migrate: %v %v", m, err)
			}
			return fx{ask: 1, lh: lhid}
		}, func(r *rig, _ fx) (answer, answer) {
			return moved(r.pms[0].PID(), 0), moved(r.pms[0].PID(), 0)
		}},

		{"re-executed", func(ctx *kernel.ProcCtx, r *rig) fx {
			// An eviction that cannot migrate re-executes the program on the
			// one other workstation.
			r.pms[1].Migrator = stubMigrator{err: vid.CodeError(vid.CodeRefused)}
			r.pms[1].Selector = sched.NewSelector(sched.FirstResponse{}, sched.NewCache(r.eng.Now),
				vid.GroupProgramManagers, PmSelectHost, uint16(r.ws[1].NIC.MAC()), nil, rand.New(rand.NewSource(1)), r.eng.Poison())
			_, lhid := create(ctx, r, 1, "long", true)
			if m, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmMigrateProgram}); err != nil || !m.OK() {
				t.Errorf("evict: %v %v", m, err)
			}
			ctx.Sleep(time.Second)
			f := fx{ask: 1, lh: lhid}
			for _, lh := range r.ws[0].LHs() {
				if !lh.System() {
					f.newLH = lh.ID()
				}
			}
			return f
		}, func(r *rig, f fx) (answer, answer) {
			return moved(r.pms[0].PID(), f.newLH), moved(r.pms[0].PID(), f.newLH)
		}},

		{"lost", func(ctx *kernel.ProcCtx, r *rig) fx {
			_, lhid := create(ctx, r, 1, "long", true)
			r.pms[1].abortGuest(ctx.Task(), lhid)
			return fx{ask: 1, lh: lhid}
		}, func(*rig, fx) (answer, answer) { return refused(vid.CodeAborted), refused(vid.CodeNotFound) }},

		// The supervisor holds a waiter until the session resolves.
		{"supervised active", supervised, func(*rig, fx) (answer, answer) {
			return held, refused(vid.CodeNotFound)
		}},

		{"supervised broken", func(ctx *kernel.ProcCtx, r *rig) fx {
			f := supervised(ctx, r)
			r.pms[0].reg.Apply(hgCmd{Kind: hgBreak, Orig: f.lh, At: int64(ctx.Now().Add(time.Hour))})
			return f
		}, func(*rig, fx) (answer, answer) { return held, refused(vid.CodeNotFound) }},

		{"supervised done", func(ctx *kernel.ProcCtx, r *rig) fx {
			f := supervised(ctx, r)
			r.pms[0].NoteExited(ctx, f.lh, 7)
			return f
		}, func(*rig, fx) (answer, answer) { return ok(7), refused(vid.CodeNotFound) }},

		{"supervised failed", func(ctx *kernel.ProcCtx, r *rig) fx {
			f := supervised(ctx, r)
			r.pms[0].reg.Apply(hgCmd{Kind: hgFailed, Orig: f.lh})
			return f
		}, func(*rig, fx) (answer, answer) { return refused(vid.CodeAborted), refused(vid.CodeNotFound) }},

		// The session outranks the lost guest. Its waiter asks for a renewal
		// at once, ws1 knows nothing of the program, and the session, with
		// no selector to re-execute it, fails.
		{"supervised answers before lost", func(ctx *kernel.ProcCtx, r *rig) fx {
			pid, lhid := create(ctx, r, 0, "long", true)
			r.pms[0].abortGuest(ctx.Task(), lhid)
			r.pms[0].Supervise(ctx, SessionInfo{LHID: lhid, PID: pid, Name: "long",
				HostPM: r.pms[1].PID(), HostLH: r.ws[1].SystemLH().ID()})
			return fx{ask: 0, lh: lhid}
		}, func(*rig, fx) (answer, answer) { return refused(vid.CodeAborted), refused(vid.CodeNotFound) }},

		{"unknown", func(*kernel.ProcCtx, *rig) fx {
			return fx{ask: 1, lh: 0x7777}
		}, func(*rig, fx) (answer, answer) { return refused(vid.CodeNotFound), refused(vid.CodeNotFound) }},
	}

	got := func(m vid.Message) answer { return answer{code: m.Code, w: [3]uint32{m.W[0], m.W[1], m.W[2]}} }
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := newRig(t, 2, 7)
			img := workload.Image(workload.Spec{Name: "long", HotKB: 8, HotRateKBps: 40, DurationMs: 60000}, 0)
			r.fs.Put("long", img.Encode())
			var f fx
			wait, renew := held, held
			r.agent(0, func(ctx *kernel.ProcCtx) {
				f = row.setup(ctx, r)
				ask := r.pms[f.ask].PID()
				if m, err := ctx.Send(ask, vid.Message{Op: PmRenewLease, W: [6]uint32{uint32(f.lh)}}); err == nil {
					renew = got(m)
				}
				r.agent(0, func(ctx *kernel.ProcCtx) {
					if m, err := ctx.Send(ask, vid.Message{Op: PmWaitProgram, W: [6]uint32{uint32(f.lh)}}); err == nil {
						wait = got(m)
					}
				})
			})
			r.eng.RunFor(10 * time.Second)
			wantWait, wantRenew := row.want(r, f)
			if wait != wantWait {
				t.Errorf("PmWaitProgram answered %+v, want %+v", wait, wantWait)
			}
			if renew != wantRenew {
				t.Errorf("PmRenewLease answered %+v, want %+v", renew, wantRenew)
			}
		})
	}
}

func TestQueryProgramsListing(t *testing.T) {
	r := newRig(t, 2, 8)
	var listing string
	r.agent(0, func(ctx *kernel.ProcCtx) {
		m, err := ctx.Send(r.pms[1].PID(), vid.Message{
			Op: PmCreateProgram, W: [6]uint32{0, 1}, Seg: []byte("job"),
		})
		if err != nil || !m.OK() {
			return
		}
		l, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmQueryPrograms})
		if err == nil {
			listing = l.SegString()
		}
	})
	r.eng.RunFor(time.Minute)
	if !strings.Contains(listing, "job") {
		t.Fatalf("listing = %q", listing)
	}
}

func TestDestroyProgramNotifiesWaiters(t *testing.T) {
	r := newRig(t, 2, 9)
	var waitCode uint32
	var destroyed bool
	r.agent(0, func(ctx *kernel.ProcCtx) {
		m, err := ctx.Send(r.pms[1].PID(), vid.Message{
			Op: PmCreateProgram, W: [6]uint32{0, 1}, Seg: []byte("job"),
		})
		if err != nil || !m.OK() {
			return
		}
		lhid := m.W[1]
		// Start it so it's a live program, then destroy it mid-run.
		ctx.Send(kernel.KernelServerPID(vid.LHID(lhid)), vid.Message{
			Op: kernel.KsStartProcess, W: [6]uint32{m.W[0]},
		})
		// A second client waits.
		r.agent(0, func(w *kernel.ProcCtx) {
			wm, err := w.Send(r.pms[1].PID(), vid.Message{Op: PmWaitProgram, W: [6]uint32{lhid}})
			if err == nil {
				waitCode = wm.W[0]
			}
		})
		ctx.Sleep(300 * time.Millisecond)
		dm, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmDestroyProgram, W: [6]uint32{lhid}})
		destroyed = err == nil && dm.OK()
	})
	r.eng.RunFor(time.Minute)
	if !destroyed {
		t.Fatal("destroy failed")
	}
	if waitCode != 0xDEAD {
		t.Fatalf("waiter got %#x, want 0xDEAD", waitCode)
	}
}

func TestMigrateWithoutMigratorRefused(t *testing.T) {
	r := newRig(t, 2, 10)
	var code uint16 = 0xFFFF
	r.agent(0, func(ctx *kernel.ProcCtx) {
		m, err := ctx.Send(r.pms[1].PID(), vid.Message{
			Op: PmCreateProgram, W: [6]uint32{0, 1}, Seg: []byte("job"),
		})
		if err != nil || !m.OK() {
			return
		}
		mm, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmMigrateProgram, W: [6]uint32{m.W[1]}})
		if err == nil {
			code = mm.Code
		}
	})
	r.eng.RunFor(time.Minute)
	if code != vid.CodeRefused {
		t.Fatalf("code = %d, want refused", code)
	}
}

// TestReceptacleReapIsInactivityBased: the receptacle TTL is an inactivity
// timeout, not a deadline on the whole transfer. A slow but live copy —
// one page run every 20 s, well under the 30 s TTL — must keep the frozen
// placeholder alive past 30 s (a fixed TTL would reap it mid-transfer),
// while a receptacle whose writes stop is reaped once the TTL of idleness
// elapses.
func TestReceptacleReapIsInactivityBased(t *testing.T) {
	r := newRig(t, 2, 11)
	page := make([]byte, params.PageSize)
	var initErr, writeErr error
	var tempLH vid.LHID
	r.agent(0, func(ctx *kernel.ProcCtx) {
		req := &InitReq{
			Name: "slowcopy", Guest: true, FinalLH: 0x0155,
			SrcLH:  r.ws[0].SystemLH().ID(),
			Spaces: []kernel.SpaceDesc{{ID: 1, Size: 32 * 1024}},
		}
		m, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmInitMigration, Seg: EncodeInitReq(req)})
		if err != nil || !m.OK() {
			initErr = err
			return
		}
		tempLH = vid.LHID(m.W[0])
		targetKS := kernel.KernelServerPID(vid.LHID(m.W[1]))
		// Last write lands at t≈60 s; the receptacle then goes idle and
		// must be reaped at t≈90 s.
		for i := 0; i < 3; i++ {
			ctx.Sleep(20 * time.Second)
			run := kernel.AppendPageRun(nil, 1, []mem.PageNo{mem.PageNo(i)}, [][]byte{page})
			wm, err := ctx.Send(targetKS, vid.Message{
				Op: kernel.KsWritePages, W: [6]uint32{uint32(tempLH)}, Seg: run,
			})
			if writeErr == nil && (err != nil || !wm.OK()) {
				writeErr = vid.CodeError(wm.Code)
				if err != nil {
					writeErr = err
				}
			}
		}
	})
	var aliveAt70, goneAt95 bool
	r.eng.After(70*time.Second, func() {
		_, aliveAt70 = r.ws[1].LookupLH(tempLH)
	})
	r.eng.After(95*time.Second, func() {
		_, stillThere := r.ws[1].LookupLH(tempLH)
		goneAt95 = !stillThere
	})
	r.eng.RunFor(100 * time.Second)
	if initErr != nil || writeErr != nil {
		t.Fatalf("init=%v write=%v", initErr, writeErr)
	}
	if !aliveAt70 {
		t.Fatal("receptacle reaped while page runs were still arriving")
	}
	if !goneAt95 {
		t.Fatal("idle receptacle never reaped")
	}
}

// TestWaiterReplyComesFromPMPort: a deferred PmWaitProgram answer is sent
// by the reaper worker, but it must be emitted from the program manager's
// own service port — the one the request arrived on. A reply emitted from
// the worker's port leaves the PM port's open-request entry and reply
// cache untouched, so if that single reply packet is lost the waiter's
// retransmissions are answered with reply-pending forever and the wait
// never completes.
func TestWaiterReplyComesFromPMPort(t *testing.T) {
	r := newRig(t, 2, 21)
	tb := trace.NewBus()
	for _, h := range r.ws {
		h.AttachTrace(tb)
	}
	var replySrc vid.PID
	tb.Subscribe(func(ev trace.Event) {
		if ev.Pkt != nil && ev.Pkt.Kind == packet.KReply && ev.Pkt.Msg.Op == PmWaitProgram {
			replySrc = ev.Pkt.Src
		}
	})
	var waited bool
	r.agent(0, func(ctx *kernel.ProcCtx) {
		m, e := ctx.Send(r.pms[1].PID(), vid.Message{
			Op: PmCreateProgram, W: [6]uint32{0, 1}, Seg: []byte("job"),
		})
		if e != nil || !m.OK() {
			return
		}
		pid, lhid := vid.PID(m.W[0]), vid.LHID(m.W[1])
		if sm, e := ctx.Send(kernel.KernelServerPID(lhid), vid.Message{
			Op: kernel.KsStartProcess, W: [6]uint32{uint32(pid)},
		}); e != nil || !sm.OK() {
			return
		}
		if wm, e := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmWaitProgram, W: [6]uint32{uint32(lhid)}}); e == nil && wm.OK() {
			waited = true
		}
	})
	r.eng.RunFor(time.Minute)
	if !waited {
		t.Fatal("wait did not complete")
	}
	if replySrc != r.pms[1].PID() {
		t.Fatalf("wait reply emitted from %v, want the PM port %v", replySrc, r.pms[1].PID())
	}
}
