package ethernet

import (
	"slices"
	"testing"
	"time"

	"vsystem/internal/freelist"
	"vsystem/internal/params"
	"vsystem/internal/sim"
)

func TestUnicastDelivery(t *testing.T) {
	e := sim.NewEngine(1)
	bus := NewBus(e)
	a := bus.Attach(1)
	b := bus.Attach(2)
	var got []Frame
	b.SetRecv(func(f Frame) { got = append(got, f) })
	a.StartSend(Frame{Dst: 2, Payload: []byte("hello")}, nil)
	e.Run()
	if len(got) != 1 || string(got[0].Payload) != "hello" || got[0].Src != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestWireTimeCalibration(t *testing.T) {
	// A 1024-byte payload should occupy the 10 Mbit medium for
	// (1024+38)*8/10e6 s ≈ 850 µs.
	w := params.WireTime(1024)
	if w < 840*time.Microsecond || w > 860*time.Microsecond {
		t.Fatalf("WireTime(1024) = %v, want ≈850µs", w)
	}
}

func TestFrameSerialization(t *testing.T) {
	e := sim.NewEngine(1)
	bus := NewBus(e)
	a := bus.Attach(1)
	c := bus.Attach(3)
	b := bus.Attach(2)
	var arrivals []sim.Time
	b.SetRecv(func(f Frame) { arrivals = append(arrivals, e.Now()) })
	pay := make([]byte, 1000)
	// Two stations transmit at the same instant: the second frame must wait
	// for the first to clear the medium.
	a.StartSend(Frame{Dst: 2, Payload: pay}, nil)
	c.StartSend(Frame{Dst: 2, Payload: pay}, nil)
	e.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d, want 2", len(arrivals))
	}
	wire := params.WireTime(1000)
	if arrivals[0] != sim.Time(wire) {
		t.Fatalf("first arrival %v, want %v", arrivals[0], wire)
	}
	if arrivals[1] != sim.Time(2*wire) {
		t.Fatalf("second arrival %v, want %v (serialized)", arrivals[1], 2*wire)
	}
}

// TestMulticastReachesMembersInAttachOrder: a group frame reaches the
// stations that joined its address — once each however often they joined,
// in attach order whatever order they joined in, never the sender — and
// no station that left. A station leaving inside a delivery does not
// disturb the frame being delivered.
func TestMulticastReachesMembersInAttachOrder(t *testing.T) {
	e := sim.NewEngine(1)
	bus := NewBus(e)
	g := Multicast(9)
	nics := make([]*NIC, 6)
	var got []MAC
	for i := range nics {
		nics[i] = bus.Attach(MAC(i + 1))
		n := nics[i]
		n.SetRecv(func(Frame) {
			got = append(got, n.MAC())
			if n.MAC() == 2 {
				n.LeaveMulticast(g)
			}
		})
	}
	for _, i := range []int{4, 1, 0, 2, 4, 5} {
		nics[i].JoinMulticast(g)
	}
	nics[5].LeaveMulticast(g)
	nics[3].LeaveMulticast(g) // never joined
	send := func() []MAC {
		got = nil
		nics[0].StartSend(Frame{Dst: g, Payload: []byte("q")}, nil)
		e.Run()
		return got
	}
	if want := []MAC{2, 3, 5}; !slices.Equal(send(), want) {
		t.Fatalf("first frame reached %v, want %v", got, want)
	}
	if want := []MAC{3, 5}; !slices.Equal(send(), want) {
		t.Fatalf("second frame reached %v, want %v", got, want)
	}
}

func TestBroadcastReachesAllButSender(t *testing.T) {
	e := sim.NewEngine(1)
	bus := NewBus(e)
	nics := make([]*NIC, 5)
	got := make([]int, 5)
	for i := range nics {
		i := i
		nics[i] = bus.Attach(MAC(i + 1))
		nics[i].SetRecv(func(Frame) { got[i]++ })
	}
	nics[0].StartSend(Frame{Dst: Broadcast, Payload: []byte("q")}, nil)
	e.Run()
	if got[0] != 0 {
		t.Fatal("sender received its own broadcast")
	}
	for i := 1; i < 5; i++ {
		if got[i] != 1 {
			t.Fatalf("station %d got %d frames, want 1", i, got[i])
		}
	}
}

func TestLossInjection(t *testing.T) {
	e := sim.NewEngine(7)
	bus := NewBus(e)
	a := bus.Attach(1)
	b := bus.Attach(2)
	received := 0
	b.SetRecv(func(Frame) { received++ })
	bus.SetLoss(RandomLoss(e, 0.5))
	const n = 1000
	for i := 0; i < n; i++ {
		a.StartSend(Frame{Dst: 2, Payload: []byte("x")}, nil)
	}
	e.Run()
	st := bus.Stats()
	if st.Dropped == 0 || received == n {
		t.Fatal("loss model dropped nothing")
	}
	if int(st.Dropped)+received != n {
		t.Fatalf("dropped %d + received %d != %d", st.Dropped, received, n)
	}
	if received < 400 || received > 600 {
		t.Fatalf("received %d of %d at p=0.5, outside [400,600]", received, n)
	}
}

func TestBlockingSend(t *testing.T) {
	e := sim.NewEngine(1)
	bus := NewBus(e)
	a := bus.Attach(1)
	bus.Attach(2).SetRecv(func(Frame) {})
	var done sim.Time
	e.Spawn("tx", func(tk *sim.Task) {
		a.Send(tk, Frame{Dst: 2, Payload: make([]byte, 1024)})
		done = tk.Now()
	})
	e.Run()
	if done != sim.Time(params.WireTime(1024)) {
		t.Fatalf("blocking send returned at %v, want %v", done, params.WireTime(1024))
	}
}

func TestMTUEnforced(t *testing.T) {
	e := sim.NewEngine(1)
	bus := NewBus(e)
	a := bus.Attach(1)
	defer func() {
		if recover() == nil {
			t.Fatal("oversize frame did not panic")
		}
	}()
	a.StartSend(Frame{Dst: 2, Payload: make([]byte, params.FrameMTU+1)}, nil)
}

func TestDuplicateAttachPanics(t *testing.T) {
	e := sim.NewEngine(1)
	bus := NewBus(e)
	bus.Attach(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach did not panic")
		}
	}()
	bus.Attach(1)
}

func TestCountersAndStats(t *testing.T) {
	e := sim.NewEngine(1)
	bus := NewBus(e)
	a := bus.Attach(1)
	b := bus.Attach(2)
	b.SetRecv(func(Frame) {})
	a.StartSend(Frame{Dst: 2, Payload: make([]byte, 100)}, nil)
	a.StartSend(Frame{Dst: 2, Payload: make([]byte, 200)}, nil)
	e.Run()
	tx, _ := a.Counters()
	_, rx := b.Counters()
	if tx != 2 || rx != 2 {
		t.Fatalf("tx=%d rx=%d, want 2,2", tx, rx)
	}
	st := bus.Stats()
	if st.Frames != 2 || st.Bytes != 300 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTransmitAllocatesNothing: a frame crosses the bus to a unicast
// receiver without an allocation beyond the payload the sender made.
func TestTransmitAllocatesNothing(t *testing.T) {
	e := sim.NewEngine(1)
	bus := NewBus(e)
	a, b := bus.Attach(1), bus.Attach(2)
	got := 0
	b.SetRecv(func(f Frame) { got += len(f.Payload) })
	pay := make([]byte, 64)
	send := func() {
		a.StartSend(Frame{Dst: 2, Payload: pay}, nil)
		a.StartSend(Frame{Dst: 2, Payload: pay}, nil) // queued behind the first
		e.Run()
	}
	send()
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Fatalf("%v allocations per two frames, want 0", n)
	}
	if got != 102*2*64 {
		t.Fatalf("received %d bytes, want %d", got, 102*2*64)
	}
}

// TestFramesDeliverInTransmitOrder pins what the in-flight queue relies on:
// however transmissions from several stations interleave and back up, each
// delivery event finds its own frame at the head.
func TestFramesDeliverInTransmitOrder(t *testing.T) {
	e := sim.NewEngine(1)
	bus := NewBus(e)
	nics := []*NIC{bus.Attach(1), bus.Attach(2), bus.Attach(3)}
	var got []byte
	sink := bus.Attach(9)
	sink.SetRecv(func(f Frame) {
		if want := sim.Time(0).Add(time.Duration(f.Payload[1]) * time.Microsecond); e.Now() < want {
			t.Errorf("frame %d delivered at %v, before it was sent (%v)", f.Payload[0], e.Now(), want)
		}
		got = append(got, f.Payload[0])
	})
	rng := e.Rand()
	var want []byte
	for i := 0; i < 200; i++ {
		i := i
		at := time.Duration(rng.Intn(250)) * time.Microsecond
		e.After(at, func() {
			want = append(want, byte(i))
			size := 2 + rng.Intn(900)
			pay := make([]byte, size)
			pay[0], pay[1] = byte(i), byte(at/time.Microsecond)
			nics[rng.Intn(len(nics))].StartSend(Frame{Dst: 9, Payload: pay}, nil)
		})
	}
	e.Run()
	if string(got) != string(want) {
		t.Fatalf("delivery order differs from transmit order:\n got %v\nwant %v", got, want)
	}
}

// TestLentFrameRecyclesWithoutAllocating: a unicast frame built in a buffer
// from the segment's free list crosses the bus, is handed back by its
// receiver, and the next frame is built in the same buffer — no allocation
// anywhere on the way.
func TestLentFrameRecyclesWithoutAllocating(t *testing.T) {
	e := sim.NewEngine(1)
	bus := NewBus(e)
	e.PoisonFreed()
	a, b := bus.Attach(1), bus.Attach(2)
	var sum, bufs int
	var last *byte
	b.SetRecv(func(f Frame) {
		for _, c := range f.Payload {
			sum += int(c)
		}
		if p := &f.Payload[0]; p != last {
			last, bufs = p, bufs+1
		}
		b.Recycle(f)
	})
	send := func() {
		pay := a.FrameBuf()
		for i := 0; i < 1000; i++ {
			pay = append(pay, 3)
		}
		a.StartSend(Frame{Dst: 2, Payload: pay, Lent: true}, nil)
		e.Run()
	}
	send()
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Fatalf("%v allocations per frame sent, received and recycled, want 0", n)
	}
	if sum != 102*3000 || bufs != 1 {
		t.Fatalf("received %d in %d buffers, want %d in 1", sum, bufs, 102*3000)
	}
}

// TestOnlySingleReceiverFramesRecycle: the free list takes back nothing
// that may have another holder. A broadcast or multicast frame arrives
// unmarked; a corrupted frame arrives as an unmarked copy, and the buffer it
// was built in is neither written nor handed out again; a frame whose
// payload the sender made itself arrives unmarked and is not taken.
func TestOnlySingleReceiverFramesRecycle(t *testing.T) {
	e := sim.NewEngine(1)
	bus := NewBus(e)
	e.PoisonFreed()
	a, b := bus.Attach(1), bus.Attach(2)
	b.JoinMulticast(Multicast(7))
	var got []Frame
	b.SetRecv(func(f Frame) {
		got = append(got, f)
		b.Recycle(f)
	})
	build := func() []byte { return append(a.FrameBuf(), 1, 2, 3, 4) }

	for _, dst := range []MAC{Broadcast, Multicast(7)} {
		a.StartSend(Frame{Dst: dst, Payload: build(), Lent: true}, nil)
	}
	own := []byte{1, 2, 3, 4}
	a.StartSend(Frame{Dst: 2, Payload: own}, nil)
	e.Run()
	if len(got) != 3 || got[0].Lent || got[1].Lent || got[2].Lent {
		t.Fatalf("frames arrived %+v, want three, none marked", got)
	}
	for i, f := range got {
		if string(f.Payload) != "\x01\x02\x03\x04" {
			t.Fatalf("frame %d was overwritten after delivery: % x", i, f.Payload)
		}
	}
	if bus.bufs.Len() != 0 {
		t.Fatalf("free list holds %d buffers after frames nobody may return", bus.bufs.Len())
	}

	got = nil
	bus.SetCorrupt(func(Frame) bool { return true })
	sent := build()
	a.StartSend(Frame{Dst: 2, Payload: sent, Lent: true}, nil)
	e.Run()
	if len(got) != 1 || got[0].Lent || &got[0].Payload[0] == &sent[0] {
		t.Fatalf("corrupted delivery %+v: want an unmarked copy", got)
	}
	if string(sent) != "\x01\x02\x03\x04" || string(got[0].Payload) != "\x00\x02\x03\x04" || bus.bufs.Len() != 0 {
		t.Fatalf("sent % x, delivered % x, %d buffers back", sent, got[0].Payload, bus.bufs.Len())
	}
}

// TestBlockingSendAllocatesNothing: a task that sends with Send, blocking
// until each frame has left the wire, allocates nothing per frame.
func TestBlockingSendAllocatesNothing(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	bus := NewBus(e)
	a, b := bus.Attach(1), bus.Attach(2)
	got := 0
	b.SetRecv(func(f Frame) { got++ })
	pay := make([]byte, 64)
	var kick sim.WaitQ
	sent := 0
	e.Spawn("sender", func(tk *sim.Task) {
		for {
			kick.Wait(tk)
			a.Send(tk, Frame{Dst: 2, Payload: pay})
			a.Send(tk, Frame{Dst: 2, Payload: pay})
			sent += 2
		}
	})
	e.Run()
	send := func() {
		kick.WakeOne()
		e.Run()
	}
	send()
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Fatalf("%v allocations per two frames sent blocking, want 0", n)
	}
	if sent != 204 || got != 204 { // AllocsPerRun runs it once more than asked
		t.Fatalf("sent %d, received %d, want 204", sent, got)
	}
}

// TestBlockingSendersWakeAtTheirOwnFrames: tasks blocked in Send on one
// station each wake when their own frame has left the wire — a sender
// killed while it waits takes its wake-up with it, rather than passing it to
// the next.
func TestBlockingSendersWakeAtTheirOwnFrames(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	bus := NewBus(e)
	a, b := bus.Attach(1), bus.Attach(2)
	b.SetRecv(func(Frame) {})
	sizes := []int{100, 400, 900}
	woke := make([]sim.Time, len(sizes))
	var tasks []*sim.Task
	for i, n := range sizes {
		tasks = append(tasks, e.Spawn("sender", func(tk *sim.Task) {
			a.Send(tk, Frame{Dst: 2, Payload: make([]byte, n)})
			woke[i] = tk.Now()
		}))
	}
	e.After(time.Microsecond, tasks[1].Kill)
	e.Run()
	first := sim.Time(0).Add(params.WireTime(100))
	third := first.Add(params.WireTime(400) + params.WireTime(900))
	if woke[0] != first || woke[1] != 0 || woke[2] != third {
		t.Fatalf("senders woke at %v, want [%v 0s %v]", woke, first, third)
	}
}

// TestUndeliveredFrameRecycles: the bus is the last holder of a lent frame
// it drops, or addresses to a station that is not there or is cut off, and
// hands its payload back; the next frame is built in it.
func TestUndeliveredFrameRecycles(t *testing.T) {
	e := sim.NewEngine(1)
	e.PoisonFreed()
	bus := NewBus(e)
	a, b := bus.Attach(1), bus.Attach(2)
	b.SetRecv(func(Frame) { t.Fatal("a frame the bus should not deliver arrived") })
	for _, fate := range []string{"dropped", "no station", "cut off"} {
		bus.SetLoss(func(Frame) bool { return fate == "dropped" })
		bus.SetCut(func(_, dst MAC) bool { return fate == "cut off" })
		dst := MAC(2)
		if fate == "no station" {
			dst = 9
		}
		sent := append(a.FrameBuf(), 1, 2, 3, 4)
		a.StartSend(Frame{Dst: dst, Payload: sent, Lent: true}, nil)
		e.Run()
		if bus.bufs.Len() != 1 || sent[0] != freelist.Poison {
			t.Fatalf("%s frame: %d buffers back, payload % x; want it back, poisoned", fate, bus.bufs.Len(), sent)
		}
		if next := a.FrameBuf(); &next[:1][0] != &sent[0] {
			t.Fatalf("%s frame: the next frame is not built in its payload", fate)
		}
	}
}
