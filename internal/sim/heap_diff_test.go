package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestHeapDifferential drives the engine's event heap and a reference — a
// slice kept in scheduling order and stable-sorted by instant, which is
// the (at, seq) order by construction — through the same seeded stream of
// At / After(0) / Stop / Step operations, including stops issued from
// inside a firing callback and stops of handles that already fired or
// were already stopped. Fire order, every Stop result and Pending() must
// agree at every step.
func TestHeapDifferential(t *testing.T) {
	const ops = 120_000
	rng := rand.New(rand.NewSource(20260928))
	e := NewEngine(1)

	type refEv struct {
		at Time
		id int
	}
	// ref holds the pending events. New events are appended, so among
	// equal instants slice order is scheduling order, and a stable sort by
	// instant alone keeps it: after refSort, ref is in (at, seq) order.
	var ref []refEv
	sorted := true // nothing appended since the last refSort
	refSort := func() {
		if !sorted {
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].at < ref[j].at })
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
		timers   []Timer // every handle ever issued, by id
		victim   []int   // per id: handle its callback stops, or -1
		fired    = -1    // id the last Step ran
		cbStop   bool    // what that callback's Stop reported
		cbVictim = -1
	)
	schedule := func(at Time, after0 bool) {
		id := len(timers)
		v := -1
		if id > 0 && rng.Intn(4) == 0 {
			v = rng.Intn(id + 1) // may name itself: already fired by then
		}
		victim = append(victim, v)
		fn := func() {
			fired = id
			if cbVictim = victim[id]; cbVictim >= 0 {
				cbStop = timers[cbVictim].Stop()
			}
		}
		if after0 {
			timers = append(timers, e.After(0, fn))
		} else {
			timers = append(timers, e.At(at, fn))
		}
		ref = append(ref, refEv{at, id})
		sorted = false
	}

	for op := 0; op < ops; op++ {
		// Alternate growing and draining phases so the heap is exercised
		// from empty up to a few thousand events deep.
		grow := (op/5000)%2 == 0
		r := rng.Intn(100)
		switch {
		case grow && r < 45, !grow && r < 25:
			schedule(e.Now().Add(time.Duration(rng.Intn(2000))*time.Microsecond), false)
		case grow && r < 60, !grow && r < 35:
			schedule(e.Now(), true)
		case r < 75 && len(timers) > 0:
			id := rng.Intn(len(timers))
			if got, want := timers[id].Stop(), refStop(id); got != want {
				t.Fatalf("op %d: Stop(%d) = %v, reference %v", op, id, got, want)
			}
		default:
			fired = -1
			if got, want := e.Step(), len(ref) > 0; got != want {
				t.Fatalf("op %d: Step = %v with %d reference events pending", op, got, len(ref))
			}
			if len(ref) == 0 {
				break
			}
			refSort()
			want := ref[0]
			ref = ref[1:]
			if fired != want.id || e.Now() != want.at {
				t.Fatalf("op %d: fired %d at %v, reference %d at %v", op, fired, e.Now(), want.id, want.at)
			}
			if cbVictim >= 0 {
				if want := refStop(cbVictim); cbStop != want {
					t.Fatalf("op %d: Stop(%d) inside callback %d = %v, reference %v",
						op, cbVictim, fired, cbStop, want)
				}
			}
		}
		if e.Pending() != len(ref) {
			t.Fatalf("op %d: Pending = %d, reference %d", op, e.Pending(), len(ref))
		}
	}
	// Drain: the tail must come out in reference order too.
	for i := range victim {
		victim[i] = -1
	}
	refSort()
	for _, want := range ref {
		e.Step()
		if fired != want.id {
			t.Fatalf("drain: fired %d, reference %d", fired, want.id)
		}
	}
	if e.Step() {
		t.Fatal("engine has events the reference does not")
	}
}
