package core

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

// TestSteadyFaultsAllocateNothing: once a node has served a few faults, a
// flush page-in from the file server's paging store and a post-copy demand
// fetch from a source receptacle allocate nothing — the pager's ports are
// records the engine recycled, its requests are built in a call the node
// kept, the pages land in frames and a chunk the space had — so long as
// the servers have heard every pager id before: each keeps what it knows of
// a sender for good, so the warm-up runs the node's pager ids through once.
// Each fault is followed through the reply caches' sweeps.
//
// Not parallel: the allocation counters are the process's.
func TestSteadyFaultsAllocateNothing(t *testing.T) {
	c := boot(t, Options{Workstations: 2, Seed: 5})
	src, dst := c.Node(0), c.Node(1)
	recep := src.Host.CreateLH("receptacle", true)
	srcAS, err := recep.CreateSpace(8 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for pn := mem.PageNo(0); pn < 4; pn++ {
		srcAS.InstallPage(pn, bytes.Repeat([]byte{byte(pn + 1)}, mem.PageSize))
	}
	guest := dst.Host.CreateLH("guest", true)
	as, err := guest.CreateSpace(srcAS.Size())
	if err != nil || as.ID != srcAS.ID {
		t.Fatalf("guest space %v, %v", as, err)
	}
	at := &copyAttempt{
		mg: dst.PM.Migrator.(*Migrator), rep: &MigrationReport{}, finalID: recep.ID(),
		residue: &residueState{
			node: dst, srcKS: kernel.KernelServerPID(src.Host.SystemLH().ID()),
			id: recep.ID(), stats: &PagerStats{},
		},
	}

	var kick sim.WaitQ
	var faultErr error
	faults := 0
	dst.Host.SpawnServer("faulter", 4096, func(ctx *kernel.ProcCtx) {
		// The flush image: every page of the receptacle's space paged out.
		win := dst.Host.IPC.NewWindow(dst.Host.SystemLH().ID(), 2)
		at.ctx, at.win = ctx, win
		_, faultErr = at.sendRuns(c.FS.PID(),
			vid.Message{Op: fileserver.OpPageOutRun, W: [6]uint32{5: fileserver.FsUnicast}},
			string(appendPagePrefix(nil, recep.ID())), []spacePages{{srcAS, srcAS.AppendAllPages(nil)}}, nil)
		win.Close()
		for faultErr == nil {
			kick.Wait(ctx.Task())
			if !at.pageIn(ctx.Task(), dst, as, 2) || as.PageView(2)[0] != 3 {
				faultErr = fmt.Errorf("fault %d: page-in of page 2: present %v", faults, as.Present(2))
			}
			at.demandFetch(ctx.Task(), as, 0)
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
			for done, t0 := faults, c.Sim.Now(); faults == done && faultErr == nil && c.Sim.Now().Sub(t0) < time.Minute; {
				c.Run(10 * time.Millisecond)
			}
			c.Run(settle)
		}
	}
	c.Run(5 * time.Second)          // boot and the page-out
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

// TestDeadPagerCallPanics: on a poisoning list (boot poisons), a pager call
// handed back while its fault still holds it is dead, and sending through
// it panics instead of using the port of the node's next fault.
func TestDeadPagerCallPanics(t *testing.T) {
	t.Parallel()
	n := boot(t, Options{Workstations: 1, Seed: 1}).Node(0)
	call := n.call(nil)
	n.pagerCalls.Put(call)
	defer func() {
		if got := recover(); got != "freelist: a record is used after it was handed back" {
			t.Fatalf("send through a pager call handed back: recovered %v, want the dead-record panic", got)
		}
	}()
	call.Send(vid.NewPID(1, 1), vid.Message{})
}
