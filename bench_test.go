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

// reportAll runs a simulation experiment once per iteration and reports
// its metrics.
func reportAll(b *testing.B, f func(int64) *experiments.Result) {
	b.Helper()
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = f(int64(i + 1))
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
}

// BenchmarkRemoteExecCosts regenerates E1 (§4.1): host selection ≈23 ms,
// environment setup+destroy ≈40 ms, program loading ≈330 ms / 100 KB.
func BenchmarkRemoteExecCosts(b *testing.B) { reportAll(b, experiments.RemoteExecCosts) }

// BenchmarkMigrationCopyCosts regenerates E2 (§4.1): kernel-state copy
// 14 ms + 9 ms per process/space; address-space copy ≈3 s/MB.
func BenchmarkMigrationCopyCosts(b *testing.B) { reportAll(b, experiments.MigrationCopyCosts) }

// BenchmarkDirtyPageRates regenerates Table 4-1.
func BenchmarkDirtyPageRates(b *testing.B) { reportAll(b, experiments.DirtyPageRates) }

// BenchmarkPrecopyFreezeTime regenerates E4 (§4.1): ~2 useful pre-copy
// iterations, 0.5-70 KB residues, 5-210 ms suspensions.
func BenchmarkPrecopyFreezeTime(b *testing.B) { reportAll(b, experiments.PrecopyEffectiveness) }

// BenchmarkExecutionOverheads regenerates E5 in simulated time (the
// real-time counterparts are the micro-benchmarks below).
func BenchmarkExecutionOverheads(b *testing.B) { reportAll(b, experiments.ExecutionOverheads) }

// BenchmarkCommPaths regenerates Figure 2-1's message flow.
func BenchmarkCommPaths(b *testing.B) { reportAll(b, experiments.CommPaths) }

// BenchmarkCommDuringMigration regenerates E7 (§3.1.3): operations on a
// migrating program are delayed, never aborted.
func BenchmarkCommDuringMigration(b *testing.B) { reportAll(b, experiments.CommDuringMigration) }

// BenchmarkVMPagingMigration regenerates Figure 3-1 / §3.2.
func BenchmarkVMPagingMigration(b *testing.B) { reportAll(b, experiments.VMPaging) }

// BenchmarkStopAndCopy regenerates ablation A1: freeze-then-copy vs
// pre-copy freeze times across logical-host sizes.
func BenchmarkStopAndCopy(b *testing.B) { reportAll(b, experiments.AblationFreeze) }

// BenchmarkResidualDependencies regenerates ablation A2: forwarding
// addresses vs logical-host rebinding.
func BenchmarkResidualDependencies(b *testing.B) { reportAll(b, experiments.AblationResidual) }

// BenchmarkUsage regenerates A3 (§4.3): fraction of @ * requests honored.
func BenchmarkUsage(b *testing.B) { reportAll(b, experiments.Usage) }

// BenchmarkSelectionScaling regenerates E8: first-response selection time
// stays flat from 5 to 25 workstations.
func BenchmarkSelectionScaling(b *testing.B) { reportAll(b, experiments.SelectionScaling) }

// BenchmarkSelectionPolicies regenerates E9: under skewed load, the
// least-loaded policy over the cached cluster view tightens the
// completion-time spread that first-response serialization produces.
func BenchmarkSelectionPolicies(b *testing.B) { reportAll(b, experiments.SelectionPolicies) }

// BenchmarkMigrationUnderLoss regenerates A4: migrations complete with
// gracefully degrading freeze times at 0-10% frame loss.
func BenchmarkMigrationUnderLoss(b *testing.B) { reportAll(b, experiments.MigrationUnderLoss) }

// BenchmarkPrecopyRounds regenerates A5: the diminishing-returns curve of
// pre-copy iterations behind the paper's "usually 2 were useful".
func BenchmarkPrecopyRounds(b *testing.B) { reportAll(b, experiments.PrecopyRounds) }

// BenchmarkCopyThroughput regenerates E10: windowed bulk-transfer
// bandwidth vs window size, loss rate and zero-page fraction, plus the
// freeze/total non-regression of a pipelined pre-copy migration.
func BenchmarkCopyThroughput(b *testing.B) { reportAll(b, experiments.CopyThroughput) }

// BenchmarkClusterLoad regenerates E11: open-loop Poisson job streams
// against a large cluster, turnaround percentiles + placement quality +
// hot-spot bytes per selection policy. Runs the CI-sized 100-host grid so
// a bench sweep stays fast; the default 500-host grid runs via vbench.
func BenchmarkClusterLoad(b *testing.B) {
	old := experiments.ClusterLoadHosts
	experiments.ClusterLoadHosts = 100
	defer func() { experiments.ClusterLoadHosts = old }()
	reportAll(b, experiments.ClusterLoad)
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
	lh := h.CreateLH("prog", false)
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
	lh := h.CreateLH("prog", false)
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

// BenchmarkBeaconRx100 measures one broadcast load beacon heard by 100
// stations: the frame's delivery, each station's netd wake-up, its
// interrupt-level CPU charge, decode and hand-off to the load sink — the
// dominant per-second cost of an idle 100-host cluster.
func BenchmarkBeaconRx100(b *testing.B) {
	eng := sim.NewEngine(1)
	defer eng.Shutdown()
	bus := ethernet.NewBus(eng)
	mk := func(mac ethernet.MAC) *ipc.Engine {
		return ipc.New(eng, bus.Attach(mac), cpu.New(eng), bareResolver{})
	}
	sender := mk(1)
	sender.SetLoadFunc(func() [6]uint32 { return [6]uint32{1, 2, 3, 4, 5, 6} })
	heard := 0
	for i := 0; i < 100; i++ {
		mk(ethernet.MAC(i + 2)).SetLoadSink(func([6]uint32) { heard++ })
	}
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sender.BroadcastLoad()
		eng.Run()
	}
	if heard != 100*b.N {
		b.Fatalf("heard %d beacons, want %d", heard, 100*b.N)
	}
}
