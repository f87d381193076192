package progmgr

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"vsystem/internal/fileserver"
	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// TestSteadyFaultsAllocateNothing: once a manager has served a few faults,
// a flush page-in from the file server's paging store and a post-copy
// demand fetch from a source receptacle allocate nothing — the pager's
// ports are records the engine recycled, its requests are built in a call
// the pager kept, the pages land in frames and a chunk the space had — so
// long as the servers have heard every pager id before: each keeps what it
// knows of a sender for good, so the warm-up runs the pager's ids through
// once. Each fault is followed through the reply caches' sweeps.
//
// Not parallel: the allocation counters are the process's.
func TestSteadyFaultsAllocateNothing(t *testing.T) {
	r := newRig(t, 2, 5)
	t.Cleanup(r.eng.Shutdown)
	r.eng.PoisonFreed()
	src, dst := r.ws[0], r.ws[1]
	recep, _ := src.CreateLH("receptacle", true)
	srcAS, err := recep.CreateSpace(8 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for pn := mem.PageNo(0); pn < 4; pn++ {
		srcAS.InstallPage(pn, bytes.Repeat([]byte{byte(pn + 1)}, mem.PageSize))
	}
	guest, _ := dst.CreateLH("guest", true)
	as, err := guest.CreateSpace(srcAS.Size())
	if err != nil || as.ID != srcAS.ID {
		t.Fatalf("guest space %v, %v", as, err)
	}
	pg := r.pms[1].paging()
	in := &inbound{
		final: recep.ID(), lh: guest, sources: PagesInReceptacle | PagesInStore,
		srcKS: kernel.KernelServerPID(src.SystemLH().ID()), recep: recep.ID(),
	}

	var kick sim.WaitQ
	var faultErr error
	faults := 0
	dst.SpawnServer("faulter", 4096, func(ctx *kernel.ProcCtx) {
		// The flush image: every page of the receptacle's space paged out.
		pages := srcAS.AppendAllPages(nil)
		data := make([][]byte, len(pages))
		for i, pn := range pages {
			data[i] = srcAS.PageView(pn)
		}
		seg := kernel.AppendPageRun(append(fileserver.AppendPagePrefix(nil, recep.ID()), 0), srcAS.ID, pages, data)
		var m vid.Message
		if m, faultErr = ctx.Send(r.fs.PID(), vid.Message{Op: fileserver.OpPageOutRun, Seg: seg}); faultErr == nil {
			faultErr = m.Err()
		}
		for faultErr == nil {
			kick.Wait(ctx.Task())
			if err := pg.pageIn(ctx.Task(), recep.ID(), as, 2); err != nil || as.PageView(2)[0] != 3 {
				faultErr = fmt.Errorf("fault %d: page-in of page 2: present %v, %v", faults, as.Present(2), err)
			}
			pg.fetch(ctx.Task(), in, as, 0)
			for pn := mem.PageNo(0); pn < 8; pn++ {
				if want := pn < 4; as.Present(pn) != want || want && as.PageView(pn)[0] != byte(pn+1) {
					faultErr = fmt.Errorf("fault %d: demand fetch left page %d present %v", faults, pn, as.Present(pn))
				}
				as.Drop(pn)
			}
			faults++
		}
	})
	// fault has the faulter take one fault, and runs on for settle.
	fault := func(settle time.Duration) func() {
		return func() {
			kick.WakeOne()
			for done, t0 := faults, r.eng.Now(); faults == done && faultErr == nil && r.eng.Now().Sub(t0) < time.Minute; {
				r.eng.RunFor(10 * time.Millisecond)
			}
			r.eng.RunFor(settle)
		}
	}
	r.eng.RunFor(5 * time.Second)   // boot and the page-out
	for i := 0; i < 0x1000/2; i++ { // two pager ids a fault: once round the block
		fault(0)()
	}
	fault(2 * params.ReplyCacheTTL)() // through the sweeps
	fault(2 * params.ReplyCacheTTL)()
	if n := testing.AllocsPerRun(20, fault(2*params.ReplyCacheTTL)); n != 0 {
		t.Errorf("%v allocations per page-in and demand fetch, want 0", n)
	}
	if faultErr != nil || faults != 0x1000/2+23 {
		t.Fatalf("%d faults served, want %d: %v", faults, 0x1000/2+23, faultErr)
	}
}

// TestDeadPagerCallPanics: on a poisoning list, a pager call handed back
// while its fault still holds it is dead, and sending through it panics
// instead of using the port of the manager's next fault.
func TestDeadPagerCallPanics(t *testing.T) {
	t.Parallel()
	r := newRig(t, 1, 1)
	t.Cleanup(r.eng.Shutdown)
	r.eng.PoisonFreed()
	pg := r.pms[0].paging()
	call := pg.call(nil)
	pg.calls.Put(call)
	defer func() {
		if got := recover(); got != "freelist: a record is used after it was handed back" {
			t.Fatalf("send through a pager call handed back: recovered %v, want the dead-record panic", got)
		}
	}()
	call.Send(vid.NewPID(1, 1), vid.Message{})
}

// TestPagerPIDWrapSkipsLivePorts regresses the pager port-id wrap: the
// bare 12-bit sequence recycles after 4096 allocations, and allocating an
// id whose previous user still holds its port open used to panic inside
// NewPort. The allocator must skip live ids and keep going, and an id it
// hands out again after a wrap comes under the next generation.
func TestPagerPIDWrapSkipsLivePorts(t *testing.T) {
	t.Parallel()
	r := newRig(t, 2, 45)
	t.Cleanup(r.eng.Shutdown)
	pg, h := r.pms[0].paging(), r.ws[0]

	// Hold a port open at the id the wrapped sequence will hit first.
	held, gen := pg.pid()
	port := h.IPC.NewPortGen(held, gen)
	defer port.Close()

	// Drive the sequence through a full wrap; every returned id must be
	// allocatable (NewPortGen panics on collision) and never the held one.
	gens := map[vid.PID]uint32{held: gen}
	for i := 0; i < 0x1001; i++ {
		pid, g := pg.pid()
		if pid == held {
			t.Fatalf("allocator returned live id %v after %d allocations", pid, i)
		}
		if prev, seen := gens[pid]; seen && g <= prev {
			t.Fatalf("id %v came back at generation %d after %d", pid, g, prev)
		}
		gens[pid] = g
		p := h.IPC.NewPortGen(pid, g)
		p.Close()
	}
}

// TestDrainHeldUntilResidentOrDeadline drives PmAwaitResidue against a
// hand-made paged-in copy, one case per way a held drain ends: its listed
// page becomes resident (answered then, with the copy's fault accounting
// in the reply's words, and the fault path retired), it never does
// (answered CodeTimeout at ResidueDrainTimeout, the guest aborted as
// lost), and the source declares the residue lost (W2, the guest aborted
// at once).
func TestDrainHeldUntilResidentOrDeadline(t *testing.T) {
	for _, tc := range []struct {
		name    string
		lost    bool
		install time.Duration // when page 5 arrives; 0: never
		code    uint16
		after   time.Duration // the answer's delay
		gone    bool
	}{
		{"resident", false, time.Second, vid.CodeOK, time.Second, false},
		{"deadline", false, 0, vid.CodeTimeout, params.ResidueDrainTimeout, true},
		{"lost", true, 0, vid.CodeOK, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 2, 3)
			t.Cleanup(r.eng.Shutdown)
			r.eng.PoisonFreed()
			dst, pm := r.ws[1], r.pms[1]
			var lhid vid.LHID
			var asked, answered sim.Time
			var reply vid.Message
			var err error
			r.agent(0, func(ctx *kernel.ProcCtx) {
				m, e := ctx.Send(pm.PID(), vid.Message{Op: PmCreateProgram, W: [6]uint32{0, 1}, Seg: []byte("job")})
				if e != nil || !m.OK() {
					err = vid.SendErr(m, e)
					return
				}
				lhid = vid.LHID(m.W[1])
				lh, _ := dst.LookupLH(lhid)
				as := lh.Spaces()[0]
				as.Drop(5)
				in := &inbound{final: lhid, lh: lh, sources: PagesInReceptacle | PagesInStore,
					stats: PagerStats{Faults: 3, StallTime: 5 * time.Second, PullKB: 2 * pageKB, FetchWireBytes: 777}}
				pm.paging().guests[lhid] = in
				as.SetFault(func(mem.PageNo) []byte { return nil })
				if tc.install > 0 {
					r.eng.After(tc.install, func() {
						as.InstallPage(5, bytes.Repeat([]byte{9}, mem.PageSize))
						pm.pg.wake.WakeOne() // as a fault's install does
					})
				}
				w2 := uint32(0)
				if tc.lost {
					w2 = 1
				}
				asked = ctx.Now()
				seg := vid.Appender{}
				seg.U32(as.ID)
				seg.U32(5)
				reply, err = ctx.Send(pm.PID(), vid.Message{Op: PmAwaitResidue, W: [6]uint32{uint32(lhid), 4, w2}, Seg: seg.B})
				answered = ctx.Now()
			})
			r.eng.RunFor(time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if reply.Code != tc.code {
				t.Fatalf("drain answered %v, want %v", reply.Err(), vid.CodeError(tc.code))
			}
			if d := answered.Sub(asked); d < tc.after || d > tc.after+50*time.Millisecond {
				t.Errorf("drain answered after %v, want %v", d, tc.after)
			}
			if _, ok := dst.LookupLH(lhid); ok == tc.gone {
				t.Errorf("guest resident %v after the drain, want %v", ok, !tc.gone)
			}
			if tc.lost {
				return
			}
			stall := time.Duration(uint64(reply.W[2])<<32 | uint64(reply.W[1]))
			if reply.W[0] != 3 || stall != 5*time.Second || reply.W[3] != 2 || reply.W[4] != 777 {
				t.Errorf("reply words %v (stall %v), want 3 faults, 5 s, 2 pages, 777 bytes", reply.W, stall)
			}
			if st := pm.pg.guests[lhid].stats; st.PushKB != 4*pageKB || st.Aborted != tc.gone {
				t.Errorf("stats %+v: want 4 pages pushed, aborted %v", st, tc.gone)
			}
			if lh, ok := dst.LookupLH(lhid); ok && lh.Spaces()[0].PageView(7)[0] != 0 {
				t.Error("an absent page reads non-zero after the fault path retired")
			}
		})
	}
}
