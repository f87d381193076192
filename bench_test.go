// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation, plus real-nanosecond micro-benchmarks
// of the hot-path mechanisms whose simulated costs the paper reports in
// microseconds (E5).
//
// Simulation experiments report their virtual-time results as custom
// benchmark metrics (suffix per metric); wall-clock ns/op for those
// benchmarks measures only how fast the simulator runs, not the modeled
// system. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"testing"
	"time"

	"vsystem/internal/cpu"
	"vsystem/internal/ethernet"
	"vsystem/internal/experiments"
	"vsystem/internal/ipc"
	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/packet"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// BenchmarkExperiments regenerates every table and figure: one
// sub-benchmark per entry of experiments.Table (DESIGN.md's experiment
// index says what each id reproduces — `-bench Experiments/precopy$` is E4,
// §4.1's pre-copy freeze times), run once per iteration at seed = iteration
// with its metrics reported. E11 runs the CI-sized 100-host grid so a bench
// sweep stays fast; the default 500-host grid runs via vbench.
func BenchmarkExperiments(b *testing.B) {
	pool := experiments.NewPool()
	for _, e := range experiments.Table(100) {
		b.Run(e.ID, func(b *testing.B) {
			var r *experiments.Result
			for i := 0; i < b.N; i++ {
				r = e.Run(pool, int64(i+1))
			}
			if r == nil {
				return
			}
			if !r.Pass {
				b.Fatalf("%s failed shape assertions:\n%s", r.ID, r.Format())
			}
			for k, v := range r.Metrics {
				b.ReportMetric(v, k)
			}
		})
	}
}

// ---------------------------------------------------------------------
// E5 micro-benchmarks: the real cost, on today's hardware, of the checks
// whose 1985 costs the paper reports (13 µs frozen check, 100 µs
// local-group indirection). The shape claim is that both are small
// constants on the operation path.

// BenchmarkFrozenCheck measures the frozen-state test performed on every
// freeze-gated kernel operation.
func BenchmarkFrozenCheck(b *testing.B) {
	eng := sim.NewEngine(1)
	bus := ethernet.NewBus(eng)
	h := kernel.NewHost(eng, bus, 0, "bench")
	lh, _ := h.CreateLH("prog", false)
	sum := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lh.Frozen() {
			sum++
		}
	}
	_ = sum
}

// BenchmarkLocalGroupIndirection measures resolving a well-known local
// index (kernel server via a logical-host-relative id) to a concrete port.
func BenchmarkLocalGroupIndirection(b *testing.B) {
	eng := sim.NewEngine(1)
	bus := ethernet.NewBus(eng)
	h := kernel.NewHost(eng, bus, 0, "bench")
	lh, _ := h.CreateLH("prog", false)
	dst := vid.NewPID(lh.ID(), vid.IdxKernelServer)
	var res interface {
		WellKnown(vid.LHID, uint16) (vid.PID, bool)
	} = hostResolver(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := res.WellKnown(dst.LH(), dst.Index()); !ok {
			b.Fatal("resolution failed")
		}
	}
}

// hostResolver adapts the public kernel API for the indirection benchmark.
type hostResolverT struct{ h *kernel.Host }

func hostResolver(h *kernel.Host) hostResolverT { return hostResolverT{h} }

func (r hostResolverT) WellKnown(lh vid.LHID, idx uint16) (vid.PID, bool) {
	l, ok := r.h.LookupLH(lh)
	if !ok {
		return vid.Nil, false
	}
	_ = l
	switch idx {
	case vid.IdxKernelServer, vid.IdxProgramManager:
		return vid.NewPID(r.h.SystemLH().ID(), idx), true
	}
	return vid.Nil, false
}

// BenchmarkIPCRoundTrip measures one remote Send/Receive/Reply between
// processes on two bare hosts, the setup of bench's ipc.roundtrip_us, and
// what it allocates: once the first exchange has resolved the binding, a
// round trip allocates nothing.
func BenchmarkIPCRoundTrip(b *testing.B) {
	eng := sim.NewEngine(1)
	defer eng.Shutdown()
	bus := ethernet.NewBus(eng)
	h0 := kernel.NewHost(eng, bus, 0, "a")
	h1 := kernel.NewHost(eng, bus, 1, "b")
	srv := h1.SpawnServer("echo", 16*1024, func(ctx *kernel.ProcCtx) {
		for {
			req := ctx.Receive()
			ctx.Reply(req, req.Msg)
		}
	})
	done := 0
	h0.SpawnServer("client", 16*1024, func(ctx *kernel.ProcCtx) {
		for i := uint32(0); ; i++ {
			if _, err := ctx.Send(srv.PID(), vid.Message{Op: 1, W: [6]uint32{i}}); err != nil {
				b.Errorf("round trip %d: %v", i, err)
				return
			}
			done++
		}
	})
	for done < 2 && eng.Step() { // the first resolves the binding
	}
	b.ReportAllocs()
	b.ResetTimer()
	for want := done + b.N; done < want && eng.Step(); {
	}
}

// BenchmarkPacketMarshal measures wire-format encoding of a request.
func BenchmarkPacketMarshal(b *testing.B) {
	p := &packet.Packet{
		Kind: packet.KRequest, TxID: 7,
		Src: vid.NewPID(3, 16), Dst: vid.NewPID(9, 1),
		Msg: vid.Message{Op: 42, W: [6]uint32{1, 2, 3, 4, 5, 6}, Seg: make([]byte, 256)},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		packet.Marshal(p)
	}
}

// BenchmarkPacketUnmarshal measures wire-format decoding.
func BenchmarkPacketUnmarshal(b *testing.B) {
	p := &packet.Packet{
		Kind: packet.KRequest, TxID: 7,
		Src: vid.NewPID(3, 16), Dst: vid.NewPID(9, 1),
		Msg: vid.Message{Op: 42, W: [6]uint32{1, 2, 3, 4, 5, 6}, Seg: make([]byte, 256)},
	}
	buf := packet.Marshal(p)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := packet.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirtySnapshot measures the per-round dirty-page scan of a 1 MB
// address space (the pre-copy engine's inner bookkeeping).
func BenchmarkDirtySnapshot(b *testing.B) {
	as := mem.NewAddressSpace(1, 1024*1024)
	buf := make([]byte, 1024*1024)
	as.WriteAt(0, buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as.Touch(uint32(i*4096) % (1024 * 1024))
		as.SnapshotDirty()
	}
}

// BenchmarkAddressSpaceWrite measures the simulated memory write path the
// VVM and workloads use.
func BenchmarkAddressSpaceWrite(b *testing.B) {
	as := mem.NewAddressSpace(1, 1024*1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		as.WriteWord(uint32(i*64)%(1024*1024-4), uint32(i))
	}
}

// BenchmarkEngineTimer10k measures one timer armed and fired with 10 000
// others pending — the engine's event heap at the depth a 100-host cluster
// keeps it, and the shape of bench's sim.timer_ns.
func BenchmarkEngineTimer10k(b *testing.B) {
	eng := sim.NewEngine(1)
	for i := 0; i < 10_000; i++ {
		eng.After(time.Hour+time.Duration(i)*time.Millisecond, func() {})
	}
	fired := 0
	fn := func() { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(time.Microsecond, fn)
		eng.Step()
	}
	if fired != b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
}

// BenchmarkTaskSwitch measures one task resumption and park: the engine
// fires a Sleep(0) wake-up, switches into the task, and gets control back
// when the task sleeps again — the shape of bench's sim.switch_ns.
func BenchmarkTaskSwitch(b *testing.B) {
	eng := sim.NewEngine(1)
	eng.Spawn("switcher", func(t *sim.Task) {
		for {
			t.Sleep(0)
		}
	})
	defer eng.Shutdown()
	eng.Step() // first dispatch: the task reaches its loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// bareResolver is a kernel with nothing resident: enough for an ipc engine
// that only hears beacons.
type bareResolver struct{}

func (bareResolver) LHResident(vid.LHID) bool                   { return false }
func (bareResolver) Frozen(vid.LHID) bool                       { return false }
func (bareResolver) WellKnown(vid.LHID, uint16) (vid.PID, bool) { return vid.Nil, false }
func (bareResolver) GroupMembers(vid.PID) []vid.PID             { return nil }
func (bareResolver) DeferWhenFrozen(vid.PID, uint16) bool       { return true }

// BenchmarkBeaconRx100 measures one load beacon heard by 100 listening
// stations: the frame's delivery, each station's netd wake-up, its
// interrupt-level CPU charge, decode and hand-off to the load sink — the
// per-second cost of a 100-host cluster whose every station selects.
func BenchmarkBeaconRx100(b *testing.B) {
	eng := sim.NewEngine(1)
	defer eng.Shutdown()
	bus := ethernet.NewBus(eng)
	sender := ipc.New(eng, bus.Attach(1), cpu.New(eng), bareResolver{})
	sender.SetLoadFunc(func() [6]uint32 { return [6]uint32{1, 2, 3, 4, 5, 6} })
	heard := 0
	listeners := ethernet.Multicast(uint16(vid.GroupLoadListeners.LH()))
	for i := 0; i < 100; i++ {
		nic := bus.Attach(ethernet.MAC(i + 2))
		nic.JoinMulticast(listeners)
		ipc.New(eng, nic, cpu.New(eng), bareResolver{}).SetLoadSink(func([6]uint32) { heard++ })
	}
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sender.AdvertiseLoad(vid.NewPID(1, 16))
		eng.Run()
	}
	if heard != 100*b.N {
		b.Fatalf("heard %d beacons, want %d", heard, 100*b.N)
	}
}
