package sim

import (
	"runtime"
	"testing"
	"time"
)

func TestTaskSleep(t *testing.T) {
	e := NewEngine(1)
	var woke Time
	e.Spawn("sleeper", func(tk *Task) {
		tk.Sleep(7 * time.Millisecond)
		woke = tk.Now()
	})
	e.Run()
	if woke != Time(7*time.Millisecond) {
		t.Fatalf("woke at %v, want 7ms", woke)
	}
	if e.LiveTasks() != 0 {
		t.Fatalf("LiveTasks = %d, want 0", e.LiveTasks())
	}
}

func TestTasksInterleaveDeterministically(t *testing.T) {
	e := NewEngine(1)
	var got []string
	mk := func(name string, period time.Duration) {
		e.Spawn(name, func(tk *Task) {
			for i := 0; i < 3; i++ {
				tk.Sleep(period)
				got = append(got, name)
			}
		})
	}
	mk("a", 2*time.Millisecond)
	mk("b", 3*time.Millisecond)
	e.Run()
	// a wakes at 2,4,6ms; b wakes at 3,6,9ms. At the 6ms tie, b's wake was
	// scheduled first (at 3ms vs 4ms), so FIFO puts b ahead of a.
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestWaitQWakeOne(t *testing.T) {
	e := NewEngine(1)
	var q WaitQ
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("w", func(tk *Task) {
			if r := q.Wait(tk); r != WakeSignal {
				t.Errorf("reason = %v, want signal", r)
			}
			order = append(order, i)
		})
	}
	e.After(time.Millisecond, func() {
		if q.Len() != 3 {
			t.Errorf("Len = %d, want 3", q.Len())
		}
		q.WakeOne()
		q.WakeAll()
	})
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("wake order = %v, want FIFO", order)
	}
}

func TestWaitTimeout(t *testing.T) {
	e := NewEngine(1)
	var q WaitQ
	var reason WakeReason
	var at Time
	e.Spawn("w", func(tk *Task) {
		reason = q.WaitTimeout(tk, 5*time.Millisecond)
		at = tk.Now()
	})
	e.Run()
	if reason != WakeTimeout {
		t.Fatalf("reason = %v, want timeout", reason)
	}
	if at != Time(5*time.Millisecond) {
		t.Fatalf("woke at %v, want 5ms", at)
	}
	if q.Len() != 0 {
		t.Fatal("timed-out waiter left in queue")
	}
}

func TestWaitTimeoutSignaledFirst(t *testing.T) {
	e := NewEngine(1)
	var q WaitQ
	var reason WakeReason
	e.Spawn("w", func(tk *Task) {
		reason = q.WaitTimeout(tk, 10*time.Millisecond)
	})
	e.After(2*time.Millisecond, func() { q.WakeOne() })
	e.Run()
	if reason != WakeSignal {
		t.Fatalf("reason = %v, want signal", reason)
	}
	if e.Pending() != 0 {
		// The timeout timer must have been stopped and discarded by Run.
		t.Fatalf("pending events = %d, want 0", e.Pending())
	}
}

func TestKillParkedTask(t *testing.T) {
	e := NewEngine(1)
	reached := false
	tk := e.Spawn("victim", func(tk *Task) {
		tk.Sleep(time.Hour)
		reached = true
	})
	e.After(time.Millisecond, func() { tk.Kill() })
	e.Run()
	if reached {
		t.Fatal("killed task kept running")
	}
	if !tk.Done() {
		t.Fatal("killed task not done")
	}
	if e.LiveTasks() != 0 {
		t.Fatalf("LiveTasks = %d, want 0", e.LiveTasks())
	}
}

func TestKillTaskWaitingOnQueue(t *testing.T) {
	e := NewEngine(1)
	var q WaitQ
	tk := e.Spawn("victim", func(tk *Task) {
		q.Wait(tk)
		t.Error("wait returned after kill")
	})
	e.After(time.Millisecond, func() { tk.Kill() })
	e.Run()
	if q.Len() != 0 {
		t.Fatal("killed task left in wait queue")
	}
}

func TestKillIdempotent(t *testing.T) {
	e := NewEngine(1)
	tk := e.Spawn("victim", func(tk *Task) { tk.Sleep(time.Hour) })
	e.After(time.Millisecond, func() { tk.Kill(); tk.Kill() })
	e.Run()
	if !tk.Done() {
		t.Fatal("not done")
	}
}

func TestKillBeforeFirstRun(t *testing.T) {
	e := NewEngine(1)
	ran := false
	tk := e.Spawn("victim", func(tk *Task) { ran = true })
	tk.Kill()
	e.Run()
	if ran {
		t.Fatal("killed-before-start task ran")
	}
	if e.LiveTasks() != 0 {
		t.Fatalf("LiveTasks = %d", e.LiveTasks())
	}
}

func TestTaskSpawnsTask(t *testing.T) {
	e := NewEngine(1)
	var childRan Time
	e.Spawn("parent", func(tk *Task) {
		tk.Sleep(time.Millisecond)
		e.Spawn("child", func(c *Task) {
			c.Sleep(time.Millisecond)
			childRan = c.Now()
		})
		tk.Sleep(5 * time.Millisecond)
	})
	e.Run()
	if childRan != Time(2*time.Millisecond) {
		t.Fatalf("child ran at %v, want 2ms", childRan)
	}
}

func TestYield(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Spawn("a", func(tk *Task) {
		order = append(order, "a1")
		tk.Yield()
		order = append(order, "a2")
	})
	e.Spawn("b", func(tk *Task) {
		order = append(order, "b1")
	})
	e.Run()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestKillStopsWaitTimeoutTimer pins that a task killed while parked in
// WaitTimeout takes its timeout event with it. A host crash kills every
// task on the host; before the fix each left a timer pending for up to
// the full allowance, to fire into a no-op. The clock does not move.
func TestKillStopsWaitTimeoutTimer(t *testing.T) {
	e := NewEngine(1)
	keep := e.After(2*time.Hour, func() {}) // something unrelated stays pending
	defer keep.Stop()
	e.RunUntil(e.Now())
	before := e.Pending()

	const n = 50
	var q WaitQ
	tasks := make([]*Task, n)
	for i := range tasks {
		tasks[i] = e.Spawn("waiter", func(tk *Task) { q.WaitTimeout(tk, time.Hour) })
	}
	e.RunUntil(e.Now())
	if got := e.Pending(); got != before+n {
		t.Fatalf("Pending = %d with %d tasks in WaitTimeout, want %d", got, n, before+n)
	}
	for _, tk := range tasks {
		tk.Kill()
	}
	e.RunUntil(e.Now()) // let the kills unwind, at this same instant
	if e.Now() != 0 {
		t.Fatalf("clock moved to %v", e.Now())
	}
	if got := e.Pending(); got != before {
		t.Fatalf("Pending = %d after killing every waiter, want %d: timeout timers left in the heap", got, before)
	}
	if q.Len() != 0 || e.LiveTasks() != 0 {
		t.Fatalf("waiters %d, live tasks %d after kill", q.Len(), e.LiveTasks())
	}
}

// TestTaskPanicSurfacesFromStep pins that a task's own panic arrives, with
// its original value, on the goroutine that called Step — where a test or
// a harness can recover it — and leaves the engine usable.
func TestTaskPanicSurfacesFromStep(t *testing.T) {
	e := NewEngine(1)
	type boom struct{ n int }
	e.Spawn("bad", func(tk *Task) {
		tk.Sleep(time.Millisecond)
		panic(boom{42})
	})
	other := false
	e.Spawn("good", func(tk *Task) {
		tk.Sleep(2 * time.Millisecond)
		other = true
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if got != (boom{42}) {
		t.Fatalf("recovered %#v around Run, want boom{42}", got)
	}
	if e.Current() != nil {
		t.Fatalf("Current() = %v after the panic, want nil", e.Current())
	}
	if e.LiveTasks() != 1 {
		t.Fatalf("LiveTasks = %d after the panic, want 1", e.LiveTasks())
	}
	e.Run()
	if !other || e.LiveTasks() != 0 {
		t.Fatalf("engine did not carry on: other=%v live=%d", other, e.LiveTasks())
	}
}

// TestKillFromAnotherTask kills a parked task from inside a running one:
// the victim unwinds at this instant, after the killer parks.
func TestKillFromAnotherTask(t *testing.T) {
	e := NewEngine(1)
	var q WaitQ
	unwound := false
	victim := e.Spawn("victim", func(tk *Task) {
		defer func() { unwound = true }()
		q.Wait(tk)
		t.Error("victim ran past its wait")
	})
	e.Spawn("killer", func(tk *Task) {
		tk.Sleep(time.Millisecond)
		victim.Kill()
		if unwound {
			t.Error("victim unwound inside Kill, before the killer parked")
		}
		if e.Current() != tk {
			t.Errorf("Current() = %v inside the killer", e.Current())
		}
		tk.Sleep(time.Millisecond)
		if !unwound || !victim.Done() {
			t.Error("victim still alive a park later")
		}
	})
	e.Run()
	if q.Len() != 0 || e.LiveTasks() != 0 {
		t.Fatalf("waiters %d, live tasks %d", q.Len(), e.LiveTasks())
	}
}

// TestShutdownUnwindsEveryTask covers the three places a live task can be
// — never dispatched, parked in a wait, parked in a timed wait — plus a
// task whose deferred function parks again while unwinding.
func TestShutdownUnwindsEveryTask(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	var q WaitQ
	unwound := 0
	for i := 0; i < 10; i++ {
		e.Spawn("sleeper", func(tk *Task) {
			defer func() { unwound++ }()
			tk.Sleep(time.Hour)
		})
		e.Spawn("waiter", func(tk *Task) {
			defer func() { unwound++ }()
			q.WaitTimeout(tk, time.Hour)
		})
		e.Spawn("stubborn", func(tk *Task) {
			defer func() { unwound++ }()
			defer tk.Sleep(time.Second) // parks while unwinding
			q.Wait(tk)
		})
	}
	e.RunFor(time.Second)
	ran := false
	for i := 0; i < 10; i++ {
		e.Spawn("unstarted", func(*Task) { ran = true })
	}
	if e.LiveTasks() != 40 {
		t.Fatalf("LiveTasks = %d, want 40", e.LiveTasks())
	}
	if n := runtime.NumGoroutine(); n < before+40 {
		t.Fatalf("%d goroutines with 40 live tasks, %d before: tasks are not goroutines?", n, before)
	}
	e.Shutdown()
	if e.LiveTasks() != 0 || unwound != 30 || ran || q.Len() != 0 {
		t.Fatalf("after Shutdown: live %d, unwound %d of 30, unstarted ran %v, waiters %d",
			e.LiveTasks(), unwound, ran, q.Len())
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after Shutdown, %d before the engine existed", n, before)
	}
	e.Shutdown() // idempotent
}

// TestTaskSwitchAllocatesNothing: resuming a task and getting control back
// when it parks costs no allocation (the wake-up event is pooled).
func TestTaskSwitchAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("switcher", func(tk *Task) {
		for {
			tk.Sleep(0)
		}
	})
	e.Step()
	if n := testing.AllocsPerRun(1000, func() { e.Step() }); n != 0 {
		t.Fatalf("%v allocations per Sleep(0) round trip, want 0", n)
	}
	e.Shutdown()
}
