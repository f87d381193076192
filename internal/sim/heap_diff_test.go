package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// TestHeapDifferential drives the engine's event queues — the near and far
// heaps, the FIFO of events due at the current instant and the lattice
// index — and a
// reference — the pending events in a slice sorted by (at, born, seq,
// keyed), and the lattices in a list scanned whenever the clock moves —
// through the same seeded stream of At / After(0) / Reserve / AtKey /
// AddLattice / RemoveLattice / Stop / Step / RunUntil operations. The
// stream includes stops issued from inside a firing callback, stops of
// handles that already fired or were already stopped, callbacks that
// schedule for their own instant while events scheduled earlier for that
// instant are still pending, instants shared by many events, keyed events
// born before the current instant (which run ahead of those queued for
// it), keyed events whose (at, born, seq) is a scheduled event's, events
// and RunUntil limits on lattice instants, lattices re-added after a hit
// or a removal, and events, keyed ones too, on both sides of the far heap's
// horizon and exactly on it, stopped and run, with RunUntil limits at their
// instants. Fire order and instant, the lattices hit at each
// instant the clock enters, every Stop result, the clock after RunUntil
// and Pending() must agree at every step.
func TestHeapDifferential(t *testing.T) {
	const ops = 120_000
	const step = Time(time.Millisecond)
	rng := rand.New(rand.NewSource(20260928))
	e := NewEngine(1)

	type refEv struct {
		at, born Time
		seq      uint64
		keyed    bool
		id       int
	}
	// ref holds the pending events; after refSort it is in (at, born, seq,
	// keyed) order.
	var ref []refEv
	sorted := true // nothing appended since the last refSort
	refSort := func() {
		if !sorted {
			sort.Slice(ref, func(i, j int) bool {
				a, b := ref[i], ref[j]
				if a.at != b.at {
					return a.at < b.at
				}
				if a.born != b.born {
					return a.born < b.born
				}
				if a.seq != b.seq {
					return a.seq < b.seq
				}
				return !a.keyed && b.keyed
			})
			sorted = true
		}
	}
	refStop := func(id int) bool {
		for i, r := range ref {
			if r.id == id {
				ref = append(ref[:i], ref[i+1:]...)
				return true
			}
		}
		return false
	}
	var (
		seq      uint64   // the engine's sequence counter, mirrored
		reserved []uint64 // taken by Reserve, not yet used by AtKey
		refNow   Time     // the reference's clock
		hits     int      // lattices hit
		farSeen  int      // events placed on the far heap
		farAtMax int      // its depth at most
	)
	// far is an instant on the far heap's horizon, 1 ns either side of it,
	// or up to 40 ms past it.
	far := func() Time {
		at := e.Now() + farHorizon
		switch rng.Intn(4) {
		case 0:
			at--
		case 1:
		case 2:
			at++
		default:
			at += Time(rng.Intn(40_000)) * Time(time.Microsecond)
		}
		return at
	}

	// entry is what one callback saw and did, or one lattice hit.
	type entry struct {
		id      int // event fired, or -1: lattice lat was hit
		lat     int
		at      Time
		victim  int  // handle it stopped, or -1
		stopped bool // what that Stop reported
	}
	var (
		timers   []Timer // every handle ever issued, by id
		victim   []int   // per id: handle its callback stops, or -1
		child    []bool  // per id: its callback schedules one event for its own instant
		log      []entry
		draining bool // the final drain: callbacks only record
		schedule func(at Time, after0 bool)
	)
	// callback makes the next id's callback and draws what it will do.
	callback := func() (int, func()) {
		id := len(timers)
		v := -1
		if id > 0 && rng.Intn(4) == 0 {
			v = rng.Intn(id + 1) // may name itself: already fired by then
		}
		victim = append(victim, v)
		child = append(child, rng.Intn(5) == 0)
		return id, func() {
			f := entry{id: id, at: e.Now(), victim: -1}
			if !draining {
				if f.victim = victim[id]; f.victim >= 0 {
					f.stopped = timers[f.victim].Stop()
				}
				if child[id] {
					// Due now, but behind everything already scheduled for
					// this instant, wherever the engine keeps it.
					schedule(e.Now(), false)
				}
			}
			log = append(log, f)
		}
	}
	schedule = func(at Time, after0 bool) {
		id, fn := callback()
		if at-e.Now() >= farHorizon {
			farSeen++
		}
		seq++
		if after0 {
			timers = append(timers, e.After(0, fn))
		} else {
			timers = append(timers, e.At(at, fn))
		}
		ref = append(ref, refEv{at: at, born: e.Now(), seq: seq, id: id})
		sorted = false
	}
	// scheduleKeyed places a keyed event, unless one with its key is
	// pending already.
	scheduleKeyed := func(at, born Time, s uint64) bool {
		for _, r := range ref {
			if r.keyed && r.at == at && r.born == born && r.seq == s {
				return false
			}
		}
		id, fn := callback()
		if at-e.Now() >= farHorizon {
			farSeen++
		}
		timers = append(timers, e.AtKey(at, born, s, fn))
		ref = append(ref, refEv{at: at, born: born, seq: s, keyed: true, id: id})
		sorted = false
		return true
	}

	// The lattices: each stands in, as a CPU's long slice does, for events
	// at its instants keyed by a reserved number.
	type refLat struct {
		l          *Lattice
		start, end Time
		seq        uint64
		live       bool // indexed, as the reference sees it
	}
	var lats []*refLat
	for k := 0; k < 24; k++ {
		rl := &refLat{l: new(Lattice)}
		rl.l.Hit = func(at Time) {
			log = append(log, entry{id: -1, lat: k, at: at})
			scheduleKeyed(at, at-step, rl.seq)
		}
		lats = append(lats, rl)
	}
	hitsAt := func(t Time) []int {
		var hits []int
		for k, rl := range lats {
			if rl.live && rl.start < t && t < rl.end && (t-rl.start)%step == 0 {
				hits = append(hits, k)
			}
		}
		return hits
	}
	// nextInstant is a live lattice's first instant after now, if any.
	nextInstant := func() (Time, bool) {
		k := rng.Intn(len(lats))
		rl := lats[k]
		if !rl.live {
			return 0, false
		}
		t := rl.start + ((e.Now()-rl.start)/step+1)*step
		return t, t < rl.end
	}

	// replay checks the callbacks that ran and the lattices hit against
	// the reference, in order. A child or a keyed event is in ref before
	// the reference reaches what scheduled it; it sorts behind every event
	// that was scheduled before it, or at its own instant, so that is
	// harmless.
	replay := func(op int, until Time) (fired int) {
		for i := 0; i < len(log); {
			if at := log[i].at; at > refNow {
				// The clock moved: every lattice with an instant there was
				// hit before anything there ran.
				var got []int
				for ; i < len(log) && log[i].id < 0 && log[i].at == at; i++ {
					got = append(got, log[i].lat)
				}
				slices.Sort(got)
				if want := hitsAt(at); !slices.Equal(got, want) {
					t.Fatalf("op %d: entering %v hit lattices %v, reference %v", op, at, got, want)
				}
				for _, k := range got {
					lats[k].live = false
				}
				hits += len(got)
				refNow = at
				continue
			}
			f := log[i]
			i++
			if f.id < 0 {
				t.Fatalf("op %d: lattice %d hit at %v, the clock already there", op, f.lat, f.at)
			}
			refSort()
			if len(ref) == 0 {
				t.Fatalf("op %d: fired %d with no reference event pending", op, f.id)
			}
			want := ref[0]
			ref = ref[1:]
			if f.id != want.id || f.at != want.at {
				t.Fatalf("op %d: fired %d at %v, reference %d at %v", op, f.id, f.at, want.id, want.at)
			}
			if f.at > until {
				t.Fatalf("op %d: fired %d at %v, past the limit %v", op, f.id, f.at, until)
			}
			if f.victim >= 0 {
				if want := refStop(f.victim); f.stopped != want {
					t.Fatalf("op %d: Stop(%d) inside callback %d = %v, reference %v",
						op, f.victim, f.id, f.stopped, want)
				}
			}
			fired++
		}
		log = log[:0]
		return fired
	}

	for op := 0; op < ops; op++ {
		// Alternate growing and draining phases so the heap is exercised
		// from empty up to a few thousand events deep.
		grow := (op/5000)%2 == 0
		r := rng.Intn(100)
		switch {
		case rng.Intn(10) == 0:
			// One in ten operations is about keys and lattices.
			switch rng.Intn(6) {
			case 0:
				if at, ok := nextInstant(); ok {
					schedule(at, false) // due on a lattice instant
				}
			case 1:
				reserved = append(reserved, e.Reserve())
				if seq++; reserved[len(reserved)-1] != seq {
					t.Fatalf("op %d: Reserve = %d, reference %d", op, reserved[len(reserved)-1], seq)
				}
			case 2:
				// A keyed event: due now or later, born now, earlier or at
				// its own instant; keyed by a reserved number, or by the
				// (born, seq) of a scheduled event due at the same instant.
				now := e.Now()
				at := now + Time(rng.Intn(3))*Time(rng.Intn(2000))*Time(time.Microsecond)
				if rng.Intn(4) == 0 {
					at = far()
				}
				born := now
				switch rng.Intn(4) {
				case 0:
					born = max(0, now-Time(rng.Intn(5000))*Time(time.Microsecond))
				case 1:
					born = at
				}
				if rng.Intn(4) == 0 && len(ref) > 0 {
					if x := ref[rng.Intn(len(ref))]; !x.keyed {
						scheduleKeyed(x.at, x.born, x.seq)
					}
				} else if n := len(reserved); n > 0 {
					if scheduleKeyed(at, born, reserved[n-1]) {
						reserved = reserved[:n-1]
					}
				}
			case 3, 4:
				// A lattice from now or a little before, re-added when it
				// was hit or removed.
				rl := lats[rng.Intn(len(lats))]
				if rl.live {
					break
				}
				rl.start = e.Now()
				if rng.Intn(3) == 0 {
					rl.start = max(0, rl.start-Time(rng.Intn(3000))*Time(time.Microsecond))
				}
				rl.end = rl.start + Time(rng.Intn(20_000))*Time(time.Microsecond)
				rl.seq = e.Reserve()
				seq++
				e.AddLattice(rl.l, rl.start, rl.end, time.Duration(step))
				rl.live = true
			case 5:
				rl := lats[rng.Intn(len(lats))]
				e.RemoveLattice(rl.l) // a no-op when it is not indexed
				rl.live = false
			}
		case grow && r < 35, !grow && r < 20:
			if rng.Intn(8) == 0 {
				schedule(far(), false)
				break
			}
			schedule(e.Now().Add(time.Duration(rng.Intn(2000))*time.Microsecond), false)
		case grow && r < 45, !grow && r < 25:
			// The instant of an event already pending: instants shared by
			// several events, some scheduled long before the clock gets there.
			at := e.Now()
			if len(ref) > 0 {
				at = ref[rng.Intn(len(ref))].at
			}
			schedule(at, false)
		case grow && r < 60, !grow && r < 35:
			schedule(e.Now(), rng.Intn(2) == 0)
		case r < 75 && len(timers) > 0:
			id := rng.Intn(len(timers))
			if rng.Intn(3) == 0 {
				id = len(timers) - 1 - rng.Intn(min(len(timers), 8)) // recent: often due now
			}
			if got, want := timers[id].Stop(), refStop(id); got != want {
				t.Fatalf("op %d: Stop(%d) = %v, reference %v", op, id, got, want)
			}
		case r < 78:
			// RunUntil: everything due by the limit runs, nothing past it,
			// and the clock ends on the limit — or stays, if the limit is
			// behind it.
			now := e.Now()
			until := now.Add(time.Duration(rng.Intn(60)-20) * time.Microsecond)
			switch rng.Intn(4) {
			case 0:
				if len(ref) > 0 {
					refSort()
					until = ref[rng.Intn(min(len(ref), 6))].at // exactly on an event's instant
				}
			case 1:
				// Exactly on a lattice instant, up to a few ms ahead: not
				// while growing, when it would empty the heap.
				if at, ok := nextInstant(); ok && !grow {
					until = at
				}
			case 3:
				// On any pending event's instant, far ones included, or on
				// the horizon: not while growing.
				if !grow {
					until = now + farHorizon
					if len(ref) > 0 && rng.Intn(2) == 0 {
						until = ref[rng.Intn(len(ref))].at
					}
				}
			}
			e.RunUntil(until)
			replay(op, until)
			refSort()
			if len(ref) > 0 && ref[0].at <= until {
				t.Fatalf("op %d: RunUntil(%v) left event %d due at %v", op, until, ref[0].id, ref[0].at)
			}
			if want := max(now, until); e.Now() != want {
				t.Fatalf("op %d: clock %v after RunUntil(%v) from %v", op, e.Now(), until, now)
			}
			if until > refNow {
				// Stopping on a lattice instant hits it, which schedules an
				// event there: none was left to hit.
				if hits := hitsAt(until); len(hits) > 0 {
					t.Fatalf("op %d: RunUntil(%v) did not hit lattices %v", op, until, hits)
				}
				refNow = until
			}
		default:
			pending := len(ref) > 0
			if got := e.Step(); got != pending {
				t.Fatalf("op %d: Step = %v with %d reference events pending", op, got, len(ref))
			}
			if fired := replay(op, e.Now()); pending && fired != 1 {
				t.Fatalf("op %d: Step ran %d callbacks", op, fired)
			}
		}
		if e.Pending() != len(ref) {
			t.Fatalf("op %d: Pending = %d, reference %d", op, e.Pending(), len(ref))
		}
		farAtMax = max(farAtMax, len(e.far))
	}
	if farSeen < 2000 || farAtMax < 100 {
		t.Fatalf("%d events placed far, %d on the far heap at most: it was never exercised", farSeen, farAtMax)
	}
	if e.Stats().MaxPending < 1000 {
		t.Fatalf("MaxPending = %d: the heap was never deep", e.Stats().MaxPending)
	}
	t.Logf("%d events, %d stopped, %d pending at most, %d lattice hits, %d placed far, %d far at most",
		e.Stats().Fired, e.Stats().Stopped, e.Stats().MaxPending, hits, farSeen, farAtMax)
	// Drain: the tail must come out in reference order too.
	draining = true
	for _, rl := range lats {
		e.RemoveLattice(rl.l)
	}
	refSort()
	for _, want := range ref {
		e.Step()
		if len(log) != 1 || log[0].id != want.id {
			t.Fatalf("drain: fired %v, reference %d", log, want.id)
		}
		log = log[:0]
	}
	if e.Step() {
		t.Fatal("engine has events the reference does not")
	}
}
