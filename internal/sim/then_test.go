package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// TestWakeOneThenRunsAfterThePark: the follow-up of a wake runs in the
// wake's event, once the woken task parks, and before anything scheduled
// meanwhile for the instant; while the task runs it is pending (Due,
// Pending). It still runs when the task was killed before the wake
// fired, when the task finished instead of parking, and when it panicked
// (as an event of its own); with nobody waiting nothing is scheduled.
func TestWakeOneThenRunsAfterThePark(t *testing.T) {
	e := NewEngine(1)
	var q WaitQ
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", e.Now())+fmt.Sprintf(format, args...))
	}
	then := func() { logf("then due=%v pending=%d", e.Due(), e.Pending()) }
	e.Spawn("parks", func(tk *Task) {
		q.Wait(tk)
		logf("woke due=%v pending=%d", e.Due(), e.Pending())
		e.After(0, func() { logf("scheduled by the task") })
		tk.Sleep(time.Millisecond)
		logf("slept")
	})
	e.At(Time(time.Millisecond), func() {
		e.After(0, func() { logf("scheduled before the wake") })
		if !q.WakeOneThen(then) {
			t.Error("WakeOneThen found nobody waiting")
		}
		if e.Pending() != 3 { // the event before, the wake, its follow-up
			t.Errorf("Pending = %d after WakeOneThen, want 3", e.Pending())
		}
	})
	e.Run()
	want := []string{
		"1ms scheduled before the wake",
		"1ms woke due=true pending=1",
		"1ms then due=true pending=2", // the task's event and its sleep
		"1ms scheduled by the task",
		"2ms slept",
	}
	if !slices.Equal(log, want) {
		t.Fatalf("log\n%q\nwant\n%q", log, want)
	}
	if e.Stats().Merged != 1 || e.Pending() != 0 {
		t.Fatalf("Merged = %d, Pending = %d after the run, want 1 and 0", e.Stats().Merged, e.Pending())
	}

	// Killed after the wake was scheduled: the task unwinds in the wake's
	// event, and the follow-up runs after it.
	log = log[:0]
	victim := e.Spawn("killed", func(tk *Task) {
		defer logf("unwound")
		q.Wait(tk)
		logf("ran on")
	})
	e.After(time.Millisecond, func() {
		q.WakeOneThen(then)
		victim.Kill()
	})
	// Finished instead of parking.
	e.Spawn("finishes", func(tk *Task) {
		var own WaitQ
		e.After(2*time.Millisecond, func() { own.WakeOneThen(then) })
		own.Wait(tk)
		logf("finishing")
	})
	e.Run()
	want = []string{
		"3ms unwound",
		"3ms then due=true pending=2", // the kill's resumption; the next wake
		"4ms finishing",
		"4ms then due=false pending=0",
	}
	if !slices.Equal(log, want) {
		t.Fatalf("log\n%q\nwant\n%q", log, want)
	}
	if q.WakeOneThen(func() { t.Error("follow-up of a wake of nobody ran") }) {
		t.Fatal("WakeOneThen on an empty queue reported a wake")
	}
	e.Run()

	// A panic in the task: the follow-up runs as an event of its own.
	log = log[:0]
	e.Spawn("panics", func(tk *Task) {
		q.Wait(tk)
		panic("boom")
	})
	e.After(time.Millisecond, func() { q.WakeOneThen(then) })
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		e.Run()
	}()
	if e.Due() != true || e.Pending() != 1 {
		t.Fatalf("after the panic Due = %v, Pending = %d, want true and 1", e.Due(), e.Pending())
	}
	e.Run()
	if want := []string{"5ms then due=false pending=0"}; !slices.Equal(log, want) {
		t.Fatalf("log %q, want %q", log, want)
	}
}

// TestSkipTo: a task resumed by a wake with a follow-up may move the clock
// itself, under RunUntil, only while nothing else is pending at or before
// the instant, no lattice has an instant there and the bound is not
// passed; the follow-up then runs at the new instant once the task parks.
func TestSkipTo(t *testing.T) {
	const ms = Time(time.Millisecond)
	const wake = 30 * ms // far enough for events scheduled at 0 to go far
	// try wakes a task with a follow-up at wake, after setup, and reports
	// what SkipTo to wake + d did, the clock when the follow-up ran, and
	// how often it skipped.
	try := func(d time.Duration, until Time, setup func(e *Engine)) (ok bool, thenAt Time, skipped uint64) {
		e := NewEngine(1)
		defer e.Shutdown()
		var q WaitQ
		e.Spawn("charger", func(tk *Task) {
			q.Wait(tk)
			ok = e.SkipTo(tk, tk.Now().Add(d))
			tk.Sleep(time.Hour)
		})
		e.At(wake, func() { q.WakeOneThen(func() { thenAt = e.Now() }) })
		if setup != nil {
			setup(e)
		}
		if until > 0 {
			e.RunUntil(until)
		} else {
			for e.Now() < wake+10*ms && e.Step() {
			}
		}
		return ok, thenAt, e.Stats().Skipped
	}
	const d = 300 * time.Microsecond
	at := wake + Time(d)
	// near places an event at x on the near heap, far on the far one.
	near := func(x Time) func(e *Engine) {
		return func(e *Engine) { e.At(wake-ms, func() { e.At(x, func() {}) }) }
	}
	far := func(x Time) func(e *Engine) {
		return func(e *Engine) { e.At(x, func() {}) }
	}
	lattice := func(start, end Time) func(e *Engine) {
		return func(e *Engine) {
			e.AddLattice(&Lattice{Hit: func(Time) {}}, start, end, 100*time.Microsecond)
		}
	}
	for _, c := range []struct {
		name  string
		until Time // 0: Step
		setup func(e *Engine)
		want  bool
	}{
		{"alone", 2 * wake, nil, true},
		{"on the bound", at, nil, true},
		{"past the bound", at - 1, nil, false},
		{"under Step", 0, nil, false},
		{"event at the instant", 2 * wake, near(at), false},
		{"event before it", 2 * wake, near(at - 1), false},
		{"event just after it", 2 * wake, near(at + 1), true},
		{"far event at the instant", 2 * wake, far(at), false},
		{"far event before it", 2 * wake, far(at - 1), false},
		{"far event just after it", 2 * wake, far(at + 1), true},
		{"event due now", 2 * wake, func(e *Engine) {
			e.At(wake, func() { e.After(0, func() {}) }) // queued behind the wake
		}, false},
		{"event stopped", 2 * wake, func(e *Engine) { e.At(at, func() {}).Stop() }, true},
		{"lattice instant at it", 2 * wake, lattice(at-Time(2*100*time.Microsecond), 2*wake), false},
		{"lattice ends at it", 2 * wake, lattice(at-Time(2*100*time.Microsecond), at), true},
		{"lattice off its step", 2 * wake, lattice(at-Time(2*100*time.Microsecond)+1, 2*wake), true},
	} {
		ok, thenAt, skipped := try(d, c.until, c.setup)
		wantThen := wake
		if c.want {
			wantThen = at
		}
		if ok != c.want || thenAt != wantThen || skipped != map[bool]uint64{true: 1}[c.want] {
			t.Errorf("%s: SkipTo = %v, follow-up at %v, Skipped = %d; want %v, %v, %d",
				c.name, ok, thenAt, skipped, c.want, wantThen, map[bool]uint64{true: 1}[c.want])
		}
	}

	// After a plain wake too, with a follow-up set by Then, which runs at
	// the new instant; never for a task that is not running.
	e := NewEngine(1)
	defer e.Shutdown()
	var q, other WaitQ
	var plain, bystander bool
	var thenAt Time
	e.Spawn("plain", func(tk *Task) {
		q.Wait(tk)
		if plain = e.SkipTo(tk, tk.Now().Add(d)); plain {
			e.Then(func() { thenAt = e.Now() })
		}
	})
	by := e.Spawn("bystander", func(tk *Task) { other.Wait(tk) })
	e.At(ms, func() { q.WakeOne() })
	e.At(2*ms, func() {
		other.WakeOneThen(func() {})
		bystander = e.SkipTo(by, e.Now().Add(d)) // not running
	})
	e.RunUntil(5 * ms)
	if !plain || thenAt != ms+Time(d) || bystander || e.Stats().Skipped != 1 {
		t.Fatalf("SkipTo after a plain wake = %v (follow-up at %v), for a task not running = %v",
			plain, thenAt, bystander)
	}
}

// TestThen: a follow-up set from inside a task runs once it parks, in the
// event that resumed it — a timeout's too — and is pending meanwhile;
// setting a second one panics.
func TestThen(t *testing.T) {
	e := NewEngine(1)
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", e.Now())+fmt.Sprintf(format, args...))
	}
	var q WaitQ
	e.Spawn("times out", func(tk *Task) {
		q.WaitTimeout(tk, time.Millisecond)
		e.After(0, func() { logf("scheduled by the task") })
		e.Then(func() { logf("then due=%v pending=%d", e.Due(), e.Pending()) })
		logf("set due=%v pending=%d", e.Due(), e.Pending())
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a second Then did not panic")
				}
			}()
			e.Then(func() {})
		}()
		tk.Sleep(time.Millisecond)
	})
	e.Run()
	want := []string{
		"1ms set due=true pending=2",  // the event it scheduled, the follow-up
		"1ms then due=true pending=2", // that event, its sleep
		"1ms scheduled by the task",
	}
	if !slices.Equal(log, want) {
		t.Fatalf("log\n%q\nwant\n%q", log, want)
	}
}
