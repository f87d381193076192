// Package fault is the cluster's deterministic fault injector: host
// crashes and restarts, network partitions between host sets, bounded loss
// and corruption bursts, and faults that strike a migration participant at
// a precise phase of the §3.1 algorithm.
//
// A fault schedule is a value: an ordered list of steps, each a trigger
// (When), an action (Do) and a target (Who), with no func in it, so two
// schedules compare with ==. Injector.Arm is its one interpreter.
//
// All scheduling goes through the simulation engine and all randomness
// through its seeded source, so a fault schedule is exactly reproducible:
// the same seed and the same schedule produce byte-identical trace
// sequences. Every injected fault is published to the trace bus
// (EvPartition, EvHeal, EvMigFault; hosts publish their own EvHostCrash /
// EvHostRestart), so experiments can correlate faults with their effects.
package fault

import (
	"fmt"
	"slices"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// Action is what a step does.
type Action uint8

const (
	// Crash powers the target off.
	Crash Action = iota + 1
	// Restart reboots the crashed target.
	Restart
	// Partition cuts the target off from Peer: no frame crosses between
	// them, in either direction.
	Partition
	// Heal removes every active partition.
	Heal
	// LossBurst drops each frame with probability P for the step's For.
	LossBurst
	// CorruptBurst mangles each frame in transit with probability P for the
	// step's For; the receiver's packet layer rejects it.
	CorruptBurst
)

// Who names the station a step acts on: a host by registration index
// (Host), or a role resolved when the step fires. The zero Who names no
// station.
type Who int

const (
	// HomeLeader is the current leader of the replicated home group.
	HomeLeader Who = -1 - iota
	// HomeFollower is the first home-group member that is not its leader.
	HomeFollower
	// FSLeader is the current leader of the replicated file service.
	FSLeader
	// MigrationSource and MigrationDest are the two participants of the
	// phase point a phase step fires at; for any other step, of the latest
	// phase point the injector was told of.
	MigrationSource
	MigrationDest
)

// Host names the i-th station registered with the injector (a cluster
// registers its workstations in index order, then its server machines).
func Host(i int) Who { return Who(i + 1) }

// Match selects trace events: those of Kind, of logical host LH and
// station Host where those are non-zero, published NotBefore or later
// after the schedule was armed.
type Match struct {
	Kind      trace.Kind
	LH        vid.LHID
	Host      Who
	NotBefore time.Duration
}

type trigger uint8

const (
	timed trigger = iota
	onEvent
	onPhase
)

// When is a step's trigger. The zero When fires as the schedule is armed.
type When struct {
	on    trigger
	after time.Duration
	match Match
	phase trace.Phase
	round int
}

// After fires d after the schedule is armed.
func After(d time.Duration) When { return When{on: timed, after: d} }

// On fires at the first trace event the match selects, deferred through
// the engine so that it lands between events, never inside the publisher.
func On(m Match) When { return When{on: onEvent, match: m} }

// AtPhase fires, synchronously, when a migration reaches the phase (and,
// for PhasePrecopy, the round).
func AtPhase(ph trace.Phase, round int) When { return When{on: onPhase, phase: ph, round: round} }

// Step is one entry of a schedule: when it fires, what it does, and to
// whom.
type Step struct {
	When When
	Do   Action
	Who  Who
	// Peer is a partition's other side; the zero Who is every other
	// station, in registration order.
	Peer Who
	// For and P shape a burst: how long it lasts, and the per-frame
	// probability.
	For time.Duration
	P   float64
}

// MaxSteps is how many steps a schedule holds.
const MaxSteps = 16

// Schedule is an ordered list of steps. It is an array, so that schedules
// compare with ==; a step whose Do is zero is an unused slot.
type Schedule [MaxSteps]Step

// PhasePoint identifies one phase boundary of an in-flight migration; the
// migrator reports these through its FaultHook.
type PhasePoint struct {
	LH       vid.LHID // the migrating logical host
	Phase    trace.Phase
	Round    int // pre-copy round, when Phase == PhasePrecopy
	Src, Dst ethernet.MAC
}

// A timed step whose target resolves to no station — a group mid-election
// — tries again every retryEvery, at most retries times, then gives up.
const (
	retries    = 15
	retryEvery = 200 * time.Millisecond
)

type host struct {
	mac            ethernet.MAC
	crash, restart func()
}

// Injector drives faults into one cluster. Create it with New, register
// each host's crash/restart controls, then arm schedules. Methods must be
// called from the simulation goroutine (or before the simulation starts).
type Injector struct {
	eng *sim.Engine
	net *ethernet.Bus
	tb  *trace.Bus
	// roles resolves HomeLeader, HomeFollower and FSLeader to the station
	// holding the role now (0: none does).
	roles func(Who) ethernet.MAC
	hosts []host // in registration order
	// cuts holds the active partitions: each entry is two host sets whose
	// members cannot exchange frames across the divide.
	cuts [][2]map[ethernet.MAC]bool
	// phased holds the armed phase steps that have not fired, in arming
	// order; last is the latest phase point reported.
	phased []Step
	last   PhasePoint
	// bursts[k] are the active bursts of the loss (k = 0) or corruption
	// (k = 1) model, oldest first; base[k] is the model installed before the
	// first of them began.
	bursts [2][]*ethernet.LossFunc
	base   [2]ethernet.LossFunc
}

// New creates an injector for the segment and installs its partition model
// on the bus. roles resolves the group roles (nil: none resolves).
func New(eng *sim.Engine, net *ethernet.Bus, tb *trace.Bus, roles func(Who) ethernet.MAC) *Injector {
	inj := &Injector{eng: eng, net: net, tb: tb, roles: roles}
	net.SetCut(inj.cutFn)
	return inj
}

// RegisterHost wires one station's crash and restart controls.
func (inj *Injector) RegisterHost(mac ethernet.MAC, crash, restart func()) {
	inj.hosts = append(inj.hosts, host{mac, crash, restart})
}

func (inj *Injector) ctl(mac ethernet.MAC) host {
	for _, h := range inj.hosts {
		if h.mac == mac {
			return h
		}
	}
	panic(fmt.Sprintf("fault: unregistered host %v", mac))
}

// Crash powers the host off immediately.
func (inj *Injector) Crash(mac ethernet.MAC) { inj.ctl(mac).crash() }

// Restart reboots a crashed host immediately.
func (inj *Injector) Restart(mac ethernet.MAC) { inj.ctl(mac).restart() }

// RestartAfter schedules a restart after a delay.
func (inj *Injector) RestartAfter(d time.Duration, mac ethernet.MAC) {
	inj.eng.After(d, func() { inj.Restart(mac) })
}

// Partition severs the segment between the two host sets: no frame whose
// source is in one set reaches a receiver in the other (either direction).
// Hosts within a set, and hosts in neither set, are unaffected. Multiple
// partitions may be active at once.
func (inj *Injector) Partition(a, b []ethernet.MAC) {
	cut := [2]map[ethernet.MAC]bool{macSet(a), macSet(b)}
	inj.cuts = append(inj.cuts, cut)
	ev := trace.Event{At: inj.eng.Now(), Kind: trace.EvPartition, Size: len(a) + len(b)}
	if len(a) > 0 {
		ev.Host = uint16(a[0])
	}
	if len(b) > 0 {
		ev.Peer = uint16(b[0])
	}
	inj.tb.Publish(ev)
}

// Heal removes every active partition.
func (inj *Injector) Heal() {
	if len(inj.cuts) == 0 {
		return
	}
	inj.cuts = nil
	inj.tb.Publish(trace.Event{At: inj.eng.Now(), Kind: trace.EvHeal})
}

// Partitioned reports whether any partition is active.
func (inj *Injector) Partitioned() bool { return len(inj.cuts) > 0 }

func macSet(macs []ethernet.MAC) map[ethernet.MAC]bool {
	s := make(map[ethernet.MAC]bool, len(macs))
	for _, m := range macs {
		s[m] = true
	}
	return s
}

// cutFn is the CutFunc installed on the bus: a delivery is suppressed when
// any active partition separates src from dst.
func (inj *Injector) cutFn(src, dst ethernet.MAC) bool {
	for _, cut := range inj.cuts {
		if (cut[0][src] && cut[1][dst]) || (cut[1][src] && cut[0][dst]) {
			return true
		}
	}
	return false
}

// Arm schedules every step of s. Timed steps are scheduled in list order,
// so steps due at the same instant fire in list order; a timed step whose
// target resolves to no station retries (see retries). An event step
// resolves its target at its first matching event and, when that resolves
// to no station, waits for the next match. Phase steps fire through
// OnPhase, each once.
func (inj *Injector) Arm(s Schedule) {
	armed := inj.eng.Now()
	for _, st := range s {
		switch {
		case st.Do == 0:
		case st.When.on == timed:
			inj.eng.After(st.When.after, func() { inj.fireTimed(st, retries) })
		case st.When.on == onEvent:
			inj.armEvent(st, armed)
		default:
			inj.phased = append(inj.phased, st)
		}
	}
}

func (inj *Injector) fireTimed(st Step, left int) {
	if who, peers, ok := inj.targets(st, inj.last); ok {
		inj.apply(st, who, peers)
	} else if left > 0 {
		inj.eng.After(retryEvery, func() { inj.fireTimed(st, left-1) })
	}
}

func (inj *Injector) armEvent(st Step, armed sim.Time) {
	m, fired := st.When.match, false
	inj.tb.Subscribe(func(ev trace.Event) {
		if fired || ev.Kind != m.Kind || (m.LH != 0 && ev.LH != m.LH) || ev.At.Sub(armed) < m.NotBefore {
			return
		}
		if m.Host != 0 && ev.Host != uint16(inj.station(m.Host, inj.last)) {
			return
		}
		who, peers, ok := inj.targets(st, inj.last)
		if !ok {
			return
		}
		fired = true
		inj.eng.After(0, func() { inj.apply(st, who, peers) })
	})
}

// OnPhase is wired as the migrator's FaultHook: every armed phase step that
// matches the reported point fires now, in arming order — its target is
// resolved, an EvMigFault names it, and the action runs — and is disarmed.
func (inj *Injector) OnPhase(pp PhasePoint) {
	inj.last = pp
	for i := 0; i < len(inj.phased); {
		st := inj.phased[i]
		w := st.When
		if w.phase != pp.Phase || (w.phase == trace.PhasePrecopy && w.round != pp.Round) {
			i++
			continue
		}
		who, peers, ok := inj.targets(st, pp)
		if !ok {
			i++
			continue
		}
		inj.phased = slices.Delete(inj.phased, i, i+1)
		inj.tb.Publish(trace.Event{
			At: inj.eng.Now(), Host: uint16(who), Kind: trace.EvMigFault,
			LH: pp.LH, Prio: int(pp.Phase), Size: pp.Round,
		})
		inj.apply(st, who, peers)
	}
}

// station resolves w at phase point pp (0: no station).
func (inj *Injector) station(w Who, pp PhasePoint) ethernet.MAC {
	switch {
	case w > 0 && int(w) <= len(inj.hosts):
		return inj.hosts[w-1].mac
	case w == MigrationSource:
		return pp.Src
	case w == MigrationDest:
		return pp.Dst
	case w < 0 && inj.roles != nil:
		return inj.roles(w)
	}
	return 0
}

// targets resolves the stations a step acts on: who, and a partition's
// other side. ok is false when one the action needs resolves to none.
func (inj *Injector) targets(st Step, pp PhasePoint) (who ethernet.MAC, peers []ethernet.MAC, ok bool) {
	if st.Do != Crash && st.Do != Restart && st.Do != Partition {
		return 0, nil, true
	}
	if who = inj.station(st.Who, pp); who == 0 {
		return 0, nil, false
	}
	if st.Do != Partition {
		return who, nil, true
	}
	if st.Peer != 0 {
		peer := inj.station(st.Peer, pp)
		return who, []ethernet.MAC{peer}, peer != 0
	}
	for _, h := range inj.hosts {
		if h.mac != who {
			peers = append(peers, h.mac)
		}
	}
	return who, peers, true
}

func (inj *Injector) apply(st Step, who ethernet.MAC, peers []ethernet.MAC) {
	switch st.Do {
	case Crash:
		inj.Crash(who)
	case Restart:
		inj.Restart(who)
	case Partition:
		inj.Partition([]ethernet.MAC{who}, peers)
	case Heal:
		inj.Heal()
	case LossBurst, CorruptBurst:
		inj.startBurst(st)
	}
}

// startBurst installs a burst's model for its length. While bursts of one
// kind overlap, the latest started that is still active governs; when the
// last one ends, the model installed before the first began comes back.
func (inj *Injector) startBurst(st Step) {
	k := 0
	if st.Do == CorruptBurst {
		k = 1
	}
	if len(inj.bursts[k]) == 0 {
		inj.base[k] = inj.net.Loss()
		if k == 1 {
			inj.base[k] = ethernet.LossFunc(inj.net.Corrupt())
		}
	}
	model := ethernet.RandomLoss(inj.eng, st.P)
	inj.bursts[k] = append(inj.bursts[k], &model)
	inj.install(k, model)
	inj.eng.After(st.For, func() {
		active := slices.DeleteFunc(inj.bursts[k], func(m *ethernet.LossFunc) bool { return m == &model })
		inj.bursts[k] = active
		if n := len(active); n > 0 {
			inj.install(k, *active[n-1])
		} else {
			inj.install(k, inj.base[k])
		}
	})
}

// install sets the bus's loss (k = 0) or corruption (k = 1) model.
func (inj *Injector) install(k int, f ethernet.LossFunc) {
	if k == 0 {
		inj.net.SetLoss(f)
	} else {
		inj.net.SetCorrupt(ethernet.CorruptFunc(f))
	}
}
