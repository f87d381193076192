package sim

import (
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.After(3*time.Millisecond, func() { got = append(got, 3) })
	e.After(1*time.Millisecond, func() { got = append(got, 1) })
	e.After(2*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Time(3*time.Millisecond) {
		t.Fatalf("Now() = %v, want 3ms", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events ran out of order: %v", got)
		}
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.After(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("At() in the past did not panic")
			}
		}()
		e.At(0, func() {})
	})
	e.Run()
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.After(10*time.Millisecond, func() { ran = true })
	e.RunUntil(Time(5 * time.Millisecond))
	if ran {
		t.Fatal("future event ran early")
	}
	if e.Now() != Time(5*time.Millisecond) {
		t.Fatalf("Now() = %v, want 5ms", e.Now())
	}
	e.RunFor(5 * time.Millisecond)
	if !ran {
		t.Fatal("event did not run at its time")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.After(time.Microsecond, rec)
		}
	}
	e.After(0, rec)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		e := NewEngine(42)
		var trace []int64
		var tick func()
		n := 0
		tick = func() {
			trace = append(trace, int64(e.Now()))
			n++
			if n < 50 {
				jitter := time.Duration(e.Rand().Intn(1000)) * time.Microsecond
				e.After(jitter, tick)
			}
		}
		e.After(0, tick)
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	var tt Time
	tt = tt.Add(1500 * time.Millisecond)
	if tt.Seconds() != 1.5 {
		t.Fatalf("Seconds() = %v, want 1.5", tt.Seconds())
	}
	if tt.Sub(Time(500*time.Millisecond)) != time.Second {
		t.Fatal("Sub wrong")
	}
}

func TestEngineStats(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 5; i++ {
		e.After(time.Duration(i)*time.Millisecond, func() {})
	}
	e.After(time.Second, func() {}).Stop()
	e.Spawn("sleeper", func(tk *Task) { tk.Sleep(time.Millisecond) })
	e.Run()
	// 5 callbacks, the task's first dispatch and its wake from Sleep; the heap
	// was deepest with the five timers and the one later stopped.
	want := Stats{Fired: 7, Dispatches: 2, Stopped: 1, MaxPending: 6}
	if got := e.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}
