package fault

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
)

// rig is a three-station segment with per-station delivery counters. Its
// stations are registered with the injector, in order, and every crash
// and restart is logged.
type rig struct {
	eng  *sim.Engine
	bus  *ethernet.Bus
	tb   *trace.Bus
	inj  *Injector
	nics [3]*ethernet.NIC
	got  [3][]ethernet.Frame
	// log holds "crash"/"restart" entries with the station, in order.
	log []string
}

func newRig(t *testing.T, roles func(Who) ethernet.MAC) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine(1), tb: trace.NewBus()}
	r.bus = ethernet.NewBus(r.eng)
	r.bus.SetTraceBus(r.tb)
	r.inj = New(r.eng, r.bus, r.tb, roles)
	for i := range r.nics {
		mac := ethernet.MAC(i + 1)
		r.nics[i] = r.bus.Attach(mac)
		r.nics[i].SetRecv(func(f ethernet.Frame) { r.got[i] = append(r.got[i], f) })
		r.inj.RegisterHost(mac,
			func() { r.log = append(r.log, fmt.Sprint("crash ", i+1)) },
			func() { r.log = append(r.log, fmt.Sprint("restart ", i+1)) })
	}
	return r
}

func (r *rig) send(src, dst int, payload byte) {
	r.nics[src].StartSend(ethernet.Frame{Dst: ethernet.MAC(dst + 1), Payload: []byte{payload}}, nil)
}

func (r *rig) wantLog(t *testing.T, want ...string) {
	t.Helper()
	if !slices.Equal(r.log, want) {
		t.Fatalf("fault log = %q, want %q", r.log, want)
	}
}

func TestPartitionSeversBothDirectionsAndHeals(t *testing.T) {
	r := newRig(t, nil)
	r.inj.Partition([]ethernet.MAC{1}, []ethernet.MAC{2})
	r.send(0, 1, 'a') // ws0→ws1: cut
	r.send(1, 0, 'b') // ws1→ws0: cut (other direction)
	r.send(0, 2, 'c') // ws0→ws2: unaffected
	r.eng.RunFor(time.Second)
	if len(r.got[0]) != 0 || len(r.got[1]) != 0 {
		t.Fatalf("partition leaked: got[0]=%d got[1]=%d", len(r.got[0]), len(r.got[1]))
	}
	if len(r.got[2]) != 1 {
		t.Fatalf("third party affected: got[2]=%d", len(r.got[2]))
	}
	if st := r.bus.Stats(); st.Cut != 2 {
		t.Fatalf("Cut = %d, want 2", st.Cut)
	}
	if !r.inj.Partitioned() {
		t.Fatal("Partitioned() = false with an active cut")
	}

	// Broadcast from a partitioned host reaches only its own side.
	r.nics[0].StartSend(ethernet.Frame{Dst: ethernet.Broadcast, Payload: []byte{'d'}}, nil)
	r.eng.RunFor(time.Second)
	if len(r.got[1]) != 0 || len(r.got[2]) != 2 {
		t.Fatalf("broadcast across cut: got[1]=%d got[2]=%d", len(r.got[1]), len(r.got[2]))
	}

	r.inj.Heal()
	r.send(0, 1, 'e')
	r.eng.RunFor(time.Second)
	if len(r.got[1]) != 1 {
		t.Fatalf("heal did not restore delivery: got[1]=%d", len(r.got[1]))
	}
	if r.tb.Count(trace.EvPartition) != 1 || r.tb.Count(trace.EvHeal) != 1 {
		t.Fatalf("partition/heal events = %d/%d, want 1/1",
			r.tb.Count(trace.EvPartition), r.tb.Count(trace.EvHeal))
	}
}

// TestPartitionStepCutsOffFromEveryOtherStation: a partition step whose
// other side is left empty isolates its target from every other registered
// station.
func TestPartitionStepCutsOffFromEveryOtherStation(t *testing.T) {
	r := newRig(t, nil)
	r.inj.Arm(Schedule{
		{When: After(time.Second), Do: Partition, Who: Host(1)},
		{When: After(2 * time.Second), Do: Heal},
	})
	r.eng.RunFor(1500 * time.Millisecond)
	r.send(1, 0, 'a')
	r.send(1, 2, 'b')
	r.send(0, 2, 'c')
	r.eng.RunFor(time.Second)
	if len(r.got[0]) != 0 || len(r.got[2]) != 1 {
		t.Fatalf("isolated station leaked or bystanders cut: got[0]=%d got[2]=%d", len(r.got[0]), len(r.got[2]))
	}
	if r.inj.Partitioned() {
		t.Fatal("heal step did not remove the cut")
	}
}

func TestLossAndCorruptionBurstsRestoreModels(t *testing.T) {
	r := newRig(t, nil)
	// Certain loss for 1 s starting at t=1 s; certain corruption for 1 s
	// starting at t=3 s.
	r.inj.Arm(Schedule{
		{When: After(time.Second), Do: LossBurst, For: time.Second, P: 1},
		{When: After(3 * time.Second), Do: CorruptBurst, For: time.Second, P: 1},
	})

	r.send(0, 1, 'a') // t=0: before bursts, delivered intact
	r.eng.RunFor(1500 * time.Millisecond)
	r.send(0, 1, 'b') // t=1.5s: lost
	r.eng.RunFor(2 * time.Second)
	r.send(0, 1, 'c') // t=3.5s: delivered, mangled
	r.eng.RunFor(time.Second)
	r.send(0, 1, 'd') // t=4.5s: after bursts, delivered intact

	r.eng.RunFor(time.Second)
	want := []byte{'a', 0, 'd'}
	if len(r.got[1]) != len(want) {
		t.Fatalf("delivered %d frames, want %d", len(r.got[1]), len(want))
	}
	for i, f := range r.got[1] {
		if f.Payload[0] != want[i] {
			t.Fatalf("frame %d payload = %q, want %q", i, f.Payload[0], want[i])
		}
	}
	st := r.bus.Stats()
	if st.Dropped != 1 || st.Corrupted != 1 {
		t.Fatalf("Dropped/Corrupted = %d/%d, want 1/1", st.Dropped, st.Corrupted)
	}
	if r.bus.Loss() != nil || r.bus.Corrupt() != nil {
		t.Fatal("burst did not restore the previous (nil) models")
	}
}

// TestOverlappingBurstsEndAtTheBaseModel: loss bursts A (1–3 s) and B
// (2–4 s) overlap, corruption burst C (3.2–5.2 s) overlaps B, and
// corruption burst D (4.2–6.2 s) overlaps C. While a burst of a kind is
// active its frames suffer; once the last of a kind has ended, the model
// installed before the first began (none) is back — B must not restore
// what it found when it started, nor C what B had installed.
func TestOverlappingBurstsEndAtTheBaseModel(t *testing.T) {
	r := newRig(t, nil)
	r.inj.Arm(Schedule{
		{When: After(time.Second), Do: LossBurst, For: 2 * time.Second, P: 1},
		{When: After(2 * time.Second), Do: LossBurst, For: 2 * time.Second, P: 1},
		{When: After(3200 * time.Millisecond), Do: CorruptBurst, For: 2 * time.Second, P: 1},
		{When: After(4200 * time.Millisecond), Do: CorruptBurst, For: 2 * time.Second, P: 1},
	})
	for _, at := range []time.Duration{1500, 2500, 3500, 4500, 5500, 6500, 7500} {
		r.eng.RunUntil(sim.Time(at * time.Millisecond))
		r.send(0, 1, byte(at/1000))
	}
	r.eng.RunFor(time.Second)
	// Lost at 1.5, 2.5 and 3.5 s; mangled at 4.5 and 5.5 s.
	var got []byte
	for _, f := range r.got[1] {
		got = append(got, f.Payload[0])
	}
	if want := []byte{0, 0, 6, 7}; !slices.Equal(got, want) {
		t.Fatalf("delivered payloads %v, want %v", got, want)
	}
	if r.bus.Loss() != nil || r.bus.Corrupt() != nil {
		t.Fatal("overlapping bursts did not end at the base (nil) models")
	}
}

func TestMigrationFaultMatchesPhaseAndRound(t *testing.T) {
	r := newRig(t, nil)
	r.inj.Arm(Schedule{{When: AtPhase(trace.PhasePrecopy, 1), Do: Crash, Who: MigrationDest}})
	pp := PhasePoint{LH: 0x0101, Src: 1, Dst: 2}

	pp.Phase, pp.Round = trace.PhaseSelect, 0
	r.inj.OnPhase(pp) // wrong phase: ignored
	pp.Phase, pp.Round = trace.PhasePrecopy, 0
	r.inj.OnPhase(pp) // wrong round: ignored
	r.wantLog(t)
	pp.Round = 1
	r.inj.OnPhase(pp)
	r.wantLog(t, "crash 2")
	r.inj.OnPhase(pp) // fired once: no second crash
	r.wantLog(t, "crash 2")
	if r.tb.Count(trace.EvMigFault) != 1 {
		t.Fatalf("EvMigFault count = %d, want 1", r.tb.Count(trace.EvMigFault))
	}

	// MigrationSource kills the other side.
	r.inj.Arm(Schedule{{When: AtPhase(trace.PhaseSwap, 0), Do: Crash, Who: MigrationSource}})
	pp.Phase, pp.Round = trace.PhaseSwap, 0
	r.inj.OnPhase(pp)
	r.wantLog(t, "crash 2", "crash 1")
}

// TestTwoPhaseStepsEachFireOnce: one schedule may hold several phase
// steps; each fires at its own point, once.
func TestTwoPhaseStepsEachFireOnce(t *testing.T) {
	r := newRig(t, nil)
	r.inj.Arm(Schedule{
		{When: AtPhase(trace.PhaseSwap, 0), Do: Crash, Who: MigrationDest},
		{When: AtPhase(trace.PhaseRebind, 0), Do: Restart, Who: MigrationDest},
	})
	pp := PhasePoint{LH: 0x0101, Src: 1, Dst: 3}
	for _, ph := range []trace.Phase{trace.PhaseSwap, trace.PhaseSwap, trace.PhaseRebind, trace.PhaseRebind} {
		pp.Phase = ph
		r.inj.OnPhase(pp)
	}
	r.wantLog(t, "crash 3", "restart 3")
	if r.tb.Count(trace.EvMigFault) != 2 {
		t.Fatalf("EvMigFault count = %d, want 2", r.tb.Count(trace.EvMigFault))
	}
}

// TestSameInstantStepsFireInListOrder: timed steps due at one instant fire
// in the order the schedule lists them, whatever their stations.
func TestSameInstantStepsFireInListOrder(t *testing.T) {
	r := newRig(t, nil)
	r.inj.Arm(Schedule{
		{When: After(time.Second), Do: Crash, Who: Host(2)},
		{When: After(time.Second), Do: Crash, Who: Host(0)},
		{When: After(time.Second), Do: Restart, Who: Host(2)},
		{When: After(time.Second), Do: Crash, Who: Host(1)},
	})
	r.eng.RunFor(999 * time.Millisecond)
	r.wantLog(t)
	r.eng.RunFor(time.Millisecond)
	r.wantLog(t, "crash 3", "crash 1", "restart 3", "crash 2")
}

// TestEventStepWaitsForItsMatch: an event step ignores events of another
// kind, logical host or station and events before NotBefore, and fires at
// the first match only — deferred through the engine, never inside the
// publisher.
func TestEventStepWaitsForItsMatch(t *testing.T) {
	r := newRig(t, nil)
	r.inj.Arm(Schedule{{
		When: On(Match{Kind: trace.EvCommit, LH: 0x0F01, Host: Host(1), NotBefore: 2 * time.Second}),
		Do:   Crash, Who: Host(0),
	}})
	pub := func(ev trace.Event) {
		ev.At = r.eng.Now()
		r.tb.Publish(ev)
	}
	match := trace.Event{Kind: trace.EvCommit, LH: 0x0F01, Host: 2}
	r.eng.RunFor(time.Second)
	pub(match) // before NotBefore
	r.eng.RunFor(2 * time.Second)
	wrongKind, wrongLH, wrongHost := match, match, match
	wrongKind.Kind, wrongLH.LH, wrongHost.Host = trace.EvElect, 0x0F02, 3
	pub(wrongKind)
	pub(wrongLH)
	pub(wrongHost)
	r.eng.RunFor(time.Second)
	r.wantLog(t)
	pub(match)
	r.wantLog(t) // deferred: not inside the publisher
	r.eng.RunFor(time.Millisecond)
	r.wantLog(t, "crash 1")
	pub(match) // first match only
	r.eng.RunFor(time.Second)
	r.wantLog(t, "crash 1")
}

// TestUnresolvedTimedRoleRetriesThenGivesUp: a timed step whose role
// resolves to no station asks again every 200 ms, 15 times at most; a role
// that resolves in time lands on the station it resolves to.
func TestUnresolvedTimedRoleRetriesThenGivesUp(t *testing.T) {
	var asked []sim.Time
	var r *rig
	r = newRig(t, func(w Who) ethernet.MAC {
		asked = append(asked, r.eng.Now())
		return 0
	})
	r.inj.Arm(Schedule{{When: After(time.Second), Do: Crash, Who: HomeLeader}})
	r.eng.RunFor(time.Minute)
	if len(asked) != 1+15 {
		t.Fatalf("role asked %d times, want 16 (the first try and 15 retries)", len(asked))
	}
	if first, last := asked[0], asked[len(asked)-1]; first != sim.Time(time.Second) || last != sim.Time(4*time.Second) {
		t.Fatalf("role asked from %v to %v, want 1s to 4s", first, last)
	}
	r.wantLog(t)

	// The fifth ask resolves: the crash lands then, on that station.
	asked = nil
	r = newRig(t, func(w Who) ethernet.MAC {
		if asked = append(asked, r.eng.Now()); len(asked) < 5 || w != FSLeader {
			return 0
		}
		return 3
	})
	r.inj.Arm(Schedule{{When: After(time.Second), Do: Crash, Who: FSLeader}})
	r.eng.RunFor(time.Minute)
	if len(asked) != 5 || asked[4] != sim.Time(1800*time.Millisecond) {
		t.Fatalf("role asked at %v, want five asks ending at 1.8s", asked)
	}
	r.wantLog(t, "crash 3")
}
