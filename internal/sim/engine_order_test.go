package sim

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestTimerStopFromOwnCallback pins the semantics of Stop called while —
// or after — the timer's own callback runs: it reports false and the
// callback never runs twice, even though the event slot may have been
// recycled for an unrelated timer by then.
func TestTimerStopFromOwnCallback(t *testing.T) {
	e := NewEngine(1)
	runs := 0
	var tm Timer
	tm = e.After(time.Millisecond, func() {
		runs++
		if tm.Stop() {
			t.Error("Stop from inside own callback reported pending")
		}
		// Recycle the slot: this timer reuses the just-released event,
		// and the stale handle must not be able to cancel it.
		e.After(time.Millisecond, func() { runs += 100 })
		if tm.Stop() {
			t.Error("stale handle cancelled a recycled event")
		}
	})
	e.Run()
	if runs != 101 {
		t.Fatalf("runs = %d, want 101 (callback once, recycled event once)", runs)
	}
	if tm.Stop() {
		t.Error("Stop after the run reported pending")
	}
}

// TestSameInstantFIFOAtScale is the ordering property test at 10^5
// events: everything scheduled for one instant runs in scheduling order,
// even with a deterministic third of the events cancelled in between
// (heap.Remove must not perturb the (at, seq) ordering of survivors).
func TestSameInstantFIFOAtScale(t *testing.T) {
	e := NewEngine(1)
	const n = 100000
	rng := rand.New(rand.NewSource(7))
	at := e.Now().Add(time.Second)
	var got []int
	timers := make([]Timer, 0, n)
	for i := 0; i < n; i++ {
		i := i
		timers = append(timers, e.At(at, func() { got = append(got, i) }))
	}
	want := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			if !timers[i].Stop() {
				t.Fatalf("timer %d: Stop reported not pending", i)
			}
		} else {
			want = append(want, i)
		}
	}
	e.Run()
	if len(got) != len(want) {
		t.Fatalf("%d events ran, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: ran event %d, want %d", i, got[i], want[i])
		}
	}
}

// TestSameInstantBehindEarlierScheduled: an event scheduled for the current
// instant runs behind every event that was scheduled for that instant
// before it — including those scheduled when the instant was still in the
// future — and ahead of every later instant.
func TestSameInstantBehindEarlierScheduled(t *testing.T) {
	e := NewEngine(1)
	at := e.Now().Add(time.Millisecond)
	var got []string
	note := func(s string) func() { return func() { got = append(got, s) } }
	e.At(at, func() {
		got = append(got, "a")
		e.At(e.Now(), note("a1")) // due now, behind b and c
		e.After(0, note("a2"))
	})
	e.At(at.Add(time.Nanosecond), note("later"))
	e.At(at, func() {
		got = append(got, "b")
		e.At(e.Now(), note("b1"))
	})
	e.At(at, note("c"))
	e.Run()
	want := "a b c a1 a2 b1 later"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("ran %q, want %q", s, want)
	}
}

// TestStopSameInstantEvent: Stop of an event due at the current instant
// reports true once, the event never runs, Pending drops at once, and the
// stale handle cannot touch whatever reuses the slot.
func TestStopSameInstantEvent(t *testing.T) {
	e := NewEngine(1)
	var got []int
	var tm [4]Timer
	for i := range tm {
		tm[i] = e.After(0, func() { got = append(got, i) })
	}
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", e.Pending())
	}
	if !tm[1].Stop() || tm[1].Stop() {
		t.Fatal("Stop of a same-instant event: want true, then false")
	}
	if !tm[0].Stop() { // the head of the queue
		t.Fatal("Stop of the next event to run reported not pending")
	}
	if e.Pending() != 2 || e.Stats().Stopped != 2 {
		t.Fatalf("Pending = %d, Stopped = %d, want 2 and 2", e.Pending(), e.Stats().Stopped)
	}
	e.Step() // runs 2, discarding 0 and 1 on the way
	late := e.After(0, func() { got = append(got, 9) })
	if tm[0].Stop() || tm[1].Stop() || tm[2].Stop() {
		t.Fatal("a stale handle reported pending")
	}
	e.Run()
	if len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 9 {
		t.Fatalf("ran %v, want [2 3 9]", got)
	}
	if late.Stop() || e.Pending() != 0 {
		t.Fatalf("after the run: Stop = true or Pending = %d", e.Pending())
	}
}

// TestRunUntilBoundary: RunUntil(t) runs what is due at t exactly —
// same-instant events those schedule too — leaves t+1ns pending, and with t
// behind the clock runs nothing, not even events due now.
func TestRunUntilBoundary(t *testing.T) {
	e := NewEngine(1)
	limit := e.Now().Add(time.Millisecond)
	var got []string
	e.At(limit, func() {
		got = append(got, "on")
		e.After(0, func() { got = append(got, "on+0") })
	})
	e.At(limit.Add(time.Nanosecond), func() { got = append(got, "past") })
	e.RunUntil(limit)
	if s := strings.Join(got, " "); s != "on on+0" || e.Now() != limit || e.Pending() != 1 {
		t.Fatalf("RunUntil(limit): ran %q, clock %v, %d pending", s, e.Now(), e.Pending())
	}
	e.After(0, func() { got = append(got, "now") })
	e.RunUntil(limit.Add(-time.Microsecond))
	if len(got) != 2 || e.Now() != limit || e.Pending() != 2 {
		t.Fatalf("RunUntil(before now): ran %v, clock %v, %d pending", got, e.Now(), e.Pending())
	}
	e.RunUntil(limit)
	if s := strings.Join(got, " "); s != "on on+0 now" || e.Pending() != 1 {
		t.Fatalf("RunUntil(now): ran %q, %d pending", s, e.Pending())
	}
}
