package kernel

import (
	"bytes"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/mem"
	"vsystem/internal/packet"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// readPagesRig is two hosts on a poisoning segment: a guest space on b
// whose pages hold a byte pattern, read from a through b's kernel server.
type readPagesRig struct {
	c    *cluster
	a, b *Host
	lh   *LogicalHost
	as   *mem.AddressSpace
}

func newReadPagesRig(t *testing.T, seed int64) *readPagesRig {
	c := newCluster(2, seed)
	t.Cleanup(c.sim.Shutdown)
	c.sim.PoisonFreed()
	r := &readPagesRig{c: c, a: c.hosts[0], b: c.hosts[1]}
	r.lh, _ = r.b.CreateLH("debuggee", true)
	as, err := r.lh.CreateSpace(8 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	r.as = as
	r.fill(t, 1)
	return r
}

// fill writes pattern v over pages 0 and 1.
func (r *readPagesRig) fill(t *testing.T, v byte) {
	for pn := mem.PageNo(0); pn < 2; pn++ {
		if err := r.as.InstallPage(pn, bytes.Repeat([]byte{v + byte(pn)}, mem.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
}

// read is a KsReadPages of pages 0 and 1: a run of two bodies, fragmented.
func (r *readPagesRig) read(ctx *ProcCtx) (vid.Message, error) {
	return ctx.Send(KernelServerPID(r.b.SystemLH().ID()), vid.Message{
		Op: KsReadPages, W: [6]uint32{uint32(r.lh.ID()), r.as.ID, 0, 2},
	})
}

// runHolds reports whether seg is a run of pages 0 and 1 holding pattern
// v, decoded into run.
func runHolds(run *PageRun, seg []byte, v byte) bool {
	if run.Decode(seg) != nil || len(run.Pages) != 2 {
		return false
	}
	for i, d := range run.Data {
		for _, b := range d {
			if b != v+byte(i) {
				return false
			}
		}
	}
	return true
}

// TestSteadyReadPagesAllocatesNothing: a KsReadPages round trip whose run is
// fragmented — encoded in a buffer the server's port lends, cached, kept for
// repair, reassembled and handed back by the reader — allocates nothing once
// the reply cache has swept it and its repair buffer has expired.
func TestSteadyReadPagesAllocatesNothing(t *testing.T) {
	r := newReadPagesRig(t, 3)
	var kick sim.WaitQ
	var run PageRun
	done := 0
	r.a.SpawnServer("reader", 4096, func(ctx *ProcCtx) {
		for {
			kick.Wait(ctx.Task())
			m, err := r.read(ctx)
			if err != nil || !m.OK() || !runHolds(&run, m.Seg, 1) {
				t.Errorf("read %d: %v %v", done, m.Err(), err)
			}
			ctx.ReleaseReply()
			done++
		}
	})
	roundTrip := func() {
		kick.WakeOne()
		r.c.sim.RunFor(2 * params.ReplyCacheTTL) // through the sweep and the repair buffer's expiry
	}
	r.c.sim.RunFor(time.Second)
	roundTrip() // the first resolves the binding and makes what is reused
	roundTrip()
	if n := testing.AllocsPerRun(20, roundTrip); n != 0 {
		t.Fatalf("%v allocations per KsReadPages round trip, want 0", n)
	}
	if done != 23 {
		t.Fatalf("%d round trips completed, want 23", done)
	}
}

// TestCachedReadPagesReplyKeepsItsBytes: a reply built in a lent buffer
// keeps its bytes while the reply cache holds it, after its repair buffer
// has expired and the kernel server has served the next run. The first
// reader's fragments are lost until then, so its retransmissions are
// answered from the cache: its repair buffer's summary first, then — the
// repair buffer expired — the whole cached reply again.
func TestCachedReadPagesReplyKeepsItsBytes(t *testing.T) {
	r := newReadPagesRig(t, 4)
	var first vid.PID
	lossy := true
	r.c.bus.SetLoss(func(f ethernet.Frame) bool {
		p, err := packet.Unmarshal(f.Payload)
		return lossy && err == nil && p.Kind == packet.KFrag && p.OfKind == packet.KReply && p.Dst == first
	})
	var got vid.Message
	var gotErr error
	at := r.c.sim.Now()
	first = r.a.SpawnServer("first", 4096, func(ctx *ProcCtx) {
		got, gotErr = r.read(ctx)
	}).PID()
	var second vid.Message
	r.a.SpawnServer("second", 4096, func(ctx *ProcCtx) {
		// Past the first reply's repair buffer, before the next retransmission.
		ctx.Sleep(params.ReplyCacheTTL + 50*time.Millisecond)
		r.fill(t, 0x40)
		second, _ = r.read(ctx)
	})
	r.c.sim.At(at.Add(params.ReplyCacheTTL+100*time.Millisecond), func() { lossy = false })
	r.c.sim.RunFor(10 * time.Second)
	var run PageRun
	if !runHolds(&run, second.Seg, 0x40) {
		t.Fatalf("the second read: %v, want the pages as rewritten", second.Err())
	}
	if gotErr != nil || !got.OK() {
		t.Fatalf("the first read: %v %v", got.Err(), gotErr)
	}
	if !runHolds(&run, got.Seg, 1) {
		t.Fatal("the first read, answered from the reply cache, carries other bytes than the run it was served")
	}
}
