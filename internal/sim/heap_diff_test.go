package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestHeapDifferential drives the engine's event queues — the heap and the
// FIFO of events due at the current instant — and a reference — a slice
// kept in scheduling order and stable-sorted by instant, which is the
// (at, seq) order by construction — through the same seeded stream of
// At / After(0) / Stop / Step / RunUntil operations, including stops issued
// from inside a firing callback, stops of handles that already fired or
// were already stopped, callbacks that schedule for their own instant while
// events scheduled earlier for that instant are still pending, and instants
// shared by many events. Fire order and instant, every Stop result, the
// clock after RunUntil and Pending() must agree at every step.
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

	// firing is what one callback saw and did.
	type firing struct {
		id      int
		at      Time
		victim  int  // handle it stopped, or -1
		stopped bool // what that Stop reported
	}
	var (
		timers   []Timer // every handle ever issued, by id
		victim   []int   // per id: handle its callback stops, or -1
		child    []bool  // per id: its callback schedules one event for its own instant
		log      []firing
		draining bool // the final drain: callbacks only record
		schedule func(at Time, after0 bool)
	)
	schedule = func(at Time, after0 bool) {
		id := len(timers)
		v := -1
		if id > 0 && rng.Intn(4) == 0 {
			v = rng.Intn(id + 1) // may name itself: already fired by then
		}
		victim = append(victim, v)
		child = append(child, rng.Intn(5) == 0)
		fn := func() {
			f := firing{id: id, at: e.Now(), victim: -1}
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
		if after0 {
			timers = append(timers, e.After(0, fn))
		} else {
			timers = append(timers, e.At(at, fn))
		}
		ref = append(ref, refEv{at, id})
		sorted = false
	}
	// replay checks the callbacks that ran against the reference, in order.
	// A child is in ref before the reference reaches its parent; it sorts
	// behind every event that was scheduled before it, so that is harmless.
	replay := func(op int, until Time) {
		for _, f := range log {
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
		}
		log = log[:0]
	}

	for op := 0; op < ops; op++ {
		// Alternate growing and draining phases so the heap is exercised
		// from empty up to a few thousand events deep.
		grow := (op/5000)%2 == 0
		r := rng.Intn(100)
		switch {
		case grow && r < 35, !grow && r < 20:
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
			if len(ref) > 0 && rng.Intn(2) == 0 {
				refSort()
				until = ref[rng.Intn(min(len(ref), 6))].at // exactly on an event's instant
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
		default:
			pending := len(ref) > 0
			if got := e.Step(); got != pending {
				t.Fatalf("op %d: Step = %v with %d reference events pending", op, got, len(ref))
			}
			if pending && len(log) != 1 {
				t.Fatalf("op %d: Step ran %d callbacks", op, len(log))
			}
			replay(op, e.Now())
		}
		if e.Pending() != len(ref) {
			t.Fatalf("op %d: Pending = %d, reference %d", op, e.Pending(), len(ref))
		}
	}
	if e.Stats().MaxPending < 1000 {
		t.Fatalf("MaxPending = %d: the heap was never deep", e.Stats().MaxPending)
	}
	t.Logf("%d events, %d stopped, %d pending at most", e.Stats().Fired, e.Stats().Stopped, e.Stats().MaxPending)
	// Drain: the tail must come out in reference order too.
	draining = true
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
