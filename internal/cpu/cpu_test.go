package cpu

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"vsystem/internal/params"
	"vsystem/internal/sim"
)

func TestSingleUse(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e)
	var done sim.Time
	e.Spawn("p", func(tk *sim.Task) {
		c.Use(tk, 10*time.Millisecond, params.PrioLocal)
		done = tk.Now()
	})
	e.Run()
	if done != sim.Time(10*time.Millisecond) {
		t.Fatalf("done at %v, want 10ms", done)
	}
	if c.TotalBusy() != 10*time.Millisecond {
		t.Fatalf("busy = %v", c.TotalBusy())
	}
}

func TestEqualPrioritySharing(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e)
	var aDone, bDone sim.Time
	e.Spawn("a", func(tk *sim.Task) {
		c.Use(tk, 10*time.Millisecond, params.PrioLocal)
		aDone = tk.Now()
	})
	e.Spawn("b", func(tk *sim.Task) {
		c.Use(tk, 10*time.Millisecond, params.PrioLocal)
		bDone = tk.Now()
	})
	e.Run()
	// Round-robin: both finish around 20ms, a one quantum before b.
	if aDone != sim.Time(19*time.Millisecond) || bDone != sim.Time(20*time.Millisecond) {
		t.Fatalf("aDone=%v bDone=%v, want 19ms/20ms", aDone, bDone)
	}
}

func TestPriorityPreemption(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e)
	var guestDone, localDone sim.Time
	e.Spawn("guest", func(tk *sim.Task) {
		c.Use(tk, 20*time.Millisecond, params.PrioGuest)
		guestDone = tk.Now()
	})
	e.Spawn("local", func(tk *sim.Task) {
		tk.Sleep(5 * time.Millisecond)
		c.Use(tk, 10*time.Millisecond, params.PrioLocal)
		localDone = tk.Now()
	})
	e.Run()
	// Local arrives at 5ms, preempts at the quantum boundary, runs its
	// 10ms, then guest resumes: local ≈15ms, guest ≈30ms.
	if localDone != sim.Time(15*time.Millisecond) {
		t.Fatalf("localDone = %v, want 15ms", localDone)
	}
	if guestDone != sim.Time(30*time.Millisecond) {
		t.Fatalf("guestDone = %v, want 30ms", guestDone)
	}
}

func TestGateBlocksScheduling(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e)
	frozen := false
	var done sim.Time
	e.Spawn("p", func(tk *sim.Task) {
		c.UseGated(tk, 10*time.Millisecond, params.PrioLocal, func() bool { return !frozen })
		done = tk.Now()
	})
	// Freeze from 3ms to 23ms.
	e.After(3*time.Millisecond, func() { frozen = true })
	e.After(23*time.Millisecond, func() { frozen = false; c.Kick() })
	e.Run()
	// 3ms of work before the freeze, 7ms after: done ≈ 30ms.
	if done != sim.Time(30*time.Millisecond) {
		t.Fatalf("done = %v, want 30ms", done)
	}
}

func TestKilledTaskRequestDropped(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e)
	victim := e.Spawn("victim", func(tk *sim.Task) {
		c.Use(tk, 100*time.Millisecond, params.PrioLocal)
		t.Error("killed task finished CPU use")
	})
	var done sim.Time
	e.Spawn("other", func(tk *sim.Task) {
		tk.Sleep(time.Millisecond)
		c.Use(tk, 10*time.Millisecond, params.PrioLocal)
		done = tk.Now()
	})
	e.After(5*time.Millisecond, func() { victim.Kill() })
	e.Run()
	// Victim consumed ~5ms then died; other should finish soon after
	// ~1+interleave+10 ≈ 18-19ms, and crucially well before 100ms.
	if done == 0 || done > sim.Time(25*time.Millisecond) {
		t.Fatalf("other finished at %v", done)
	}
}

func TestIdleDetection(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e)
	if !c.Idle() {
		t.Fatal("fresh CPU not idle")
	}
	e.Spawn("p", func(tk *sim.Task) {
		c.Use(tk, 5*time.Millisecond, params.PrioGuest)
	})
	e.After(2*time.Millisecond, func() {
		if c.Idle() {
			t.Error("CPU with running guest reported idle")
		}
	})
	e.Run()
	if !c.Idle() {
		t.Fatal("CPU not idle after work drained")
	}
	// Kernel-priority work does not count against idleness.
	e.Spawn("netd", func(tk *sim.Task) {
		c.Use(tk, 5*time.Millisecond, params.PrioKernel)
	})
	e.After(e.Now().Sub(0)+2*time.Millisecond, func() {})
	ran := false
	e.After(2*time.Millisecond, func() {
		ran = true
		if !c.Idle() {
			t.Error("kernel work affected idleness")
		}
	})
	e.Run()
	if !ran {
		t.Fatal("probe did not run")
	}
}

func TestUtilization(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e)
	e.Spawn("p", func(tk *sim.Task) {
		c.Use(tk, 50*time.Millisecond, params.PrioLocal)
	})
	e.Run()
	e.RunUntil(sim.Time(100 * time.Millisecond))
	u := c.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("Utilization = %v, want ≈0.5", u)
	}
}

func TestZeroUseReturnsImmediately(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e)
	var done sim.Time
	e.Spawn("p", func(tk *sim.Task) {
		c.Use(tk, 0, params.PrioLocal)
		done = tk.Now()
	})
	e.Run()
	if done != 0 {
		t.Fatalf("done = %v, want 0", done)
	}
}

func TestFrozenRequestDoesNotBlockOthers(t *testing.T) {
	// A request gated shut mid-use must not hold the CPU: another
	// same-priority request runs to completion while it is frozen, and
	// the frozen one finishes after the unfreeze.
	e := sim.NewEngine(9)
	c := New(e)
	frozen := false
	var victimDone, lateDone sim.Time
	e.Spawn("victim", func(tk *sim.Task) {
		c.UseGated(tk, 10*time.Millisecond, params.PrioLocal, func() bool { return !frozen })
		victimDone = tk.Now()
	})
	e.After(3*time.Millisecond, func() { frozen = true })
	e.Spawn("late", func(tk *sim.Task) {
		tk.Sleep(5 * time.Millisecond)
		c.Use(tk, 10*time.Millisecond, params.PrioLocal)
		lateDone = tk.Now()
	})
	e.After(20*time.Millisecond, func() { frozen = false; c.Kick() })
	e.Run()
	if lateDone != sim.Time(15*time.Millisecond) {
		t.Fatalf("late finished at %v, want 15ms (unblocked by frozen peer)", lateDone)
	}
	// Victim had ~3ms done, resumes at 20ms, needs ~7ms more.
	if victimDone != sim.Time(27*time.Millisecond) {
		t.Fatalf("victim finished at %v, want 27ms", victimDone)
	}
}

func TestUnfrozenRequestBeatsSimultaneousArrival(t *testing.T) {
	// At the unfreeze instant, the previously frozen request (parked at
	// the head of its priority) is granted before a request arriving at
	// the same moment.
	e := sim.NewEngine(11)
	c := New(e)
	frozen := false
	var order []string
	e.Spawn("victim", func(tk *sim.Task) {
		c.UseGated(tk, 6*time.Millisecond, params.PrioLocal, func() bool { return !frozen })
		order = append(order, "victim")
	})
	e.After(3*time.Millisecond, func() { frozen = true })
	// Unfreeze and a new arrival at the same instant; the unfreeze event
	// is scheduled first.
	e.After(20*time.Millisecond, func() { frozen = false; c.Kick() })
	e.At(sim.Time(20*time.Millisecond), func() {
		e.Spawn("late", func(tk *sim.Task) {
			c.Use(tk, 6*time.Millisecond, params.PrioLocal)
			order = append(order, "late")
		})
	})
	e.Run()
	if len(order) != 2 || order[0] != "victim" {
		t.Fatalf("order = %v, want victim first", order)
	}
}

func TestQueueLenAccounting(t *testing.T) {
	e := sim.NewEngine(10)
	c := New(e)
	for i := 0; i < 3; i++ {
		e.Spawn("g", func(tk *sim.Task) { c.Use(tk, 20*time.Millisecond, params.PrioGuest) })
	}
	e.After(5*time.Millisecond, func() {
		if n := c.QueueLen(params.PrioGuest); n != 3 {
			t.Errorf("QueueLen(guest) = %d, want 3", n)
		}
		if n := c.QueueLen(params.PrioKernel); n != 3 {
			t.Errorf("QueueLen(kernel..) = %d, want 3", n)
		}
	})
	e.Run()
}

// TestUseAllocatesNothing: once a CPU has served a request, serving another
// allocates nothing — the request comes off the free list and the two
// events are method values bound in New.
func TestUseAllocatesNothing(t *testing.T) {
	e := sim.NewEngine(1)
	c, short := New(e), New(e)
	e.Spawn("user", func(tk *sim.Task) {
		for {
			c.Use(tk, 2500*time.Microsecond, params.PrioKernel) // three slices
		}
	})
	e.Spawn("short", func(tk *sim.Task) {
		for {
			short.Use(tk, 300*time.Microsecond, params.PrioLocal) // slice ends skipped
		}
	})
	e.RunFor(time.Second)
	if n := testing.AllocsPerRun(100, func() { e.RunFor(10 * time.Millisecond) }); n != 0 {
		t.Fatalf("%v allocations per 10 ms of back-to-back Use, want 0", n)
	}
	if e.Stats().Skipped == 0 {
		t.Fatal("no slice end was skipped")
	}
	e.Shutdown()
}

// TestSkipRecheckedAfterDispatchHook: back-to-back lone uses skip their
// slice ends, but not one whose dispatch hook schedules an event for the
// instant (a trace subscriber may): that use is granted once, as the grant
// it stands for would have granted it — here a long slice, whose boundary
// with an event due becomes a grant again — and the hook's event runs
// first.
func TestSkipRecheckedAfterDispatchHook(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e)
	var log, grants []string
	c.SetDispatchHook(func(int, time.Duration) {
		if grants = append(grants, fmt.Sprint(e.Now())); len(grants) == 3 {
			e.After(0, func() {
				log = append(log, fmt.Sprintf("%v hook's event", e.Now()))
				e.After(time.Millisecond, func() { log = append(log, fmt.Sprintf("%v on a boundary", e.Now())) })
			})
		}
	})
	e.Spawn("user", func(tk *sim.Task) {
		for i, d := range []time.Duration{400, 400, 2500, 400} {
			c.Use(tk, d*time.Microsecond, params.PrioLocal)
			log = append(log, fmt.Sprintf("%v use %d", e.Now(), i))
		}
	})
	e.RunFor(10 * time.Millisecond)
	want := []string{"400µs use 0", "800µs use 1", "800µs hook's event", "1.8ms on a boundary", "3.3ms use 2", "3.7ms use 3"}
	wantGrants := []string{"0s", "400µs", "800µs", "1.8ms", "3.3ms"}
	if !slices.Equal(log, want) || !slices.Equal(grants, wantGrants) || e.Stats().Skipped != 3 {
		t.Fatalf("log %q, grants at %q, %d skipped; want %q, %q and 3", log, grants, e.Stats().Skipped, want, wantGrants)
	}
	if c.TotalBusy() != 3700*time.Microsecond {
		t.Fatalf("TotalBusy = %v, want 3.7ms", c.TotalBusy())
	}
}

// TestLoneSlicesKeepGrantOrder pins the tie between lone slices granted at
// one instant on CPUs of one engine: where something is due at a boundary
// they share, and at their ends, they come in grant order, as their
// per-quantum slice-end events would — which is why a long grant reserves
// the sequence number its first slice end would have had. (Keyed by one
// number, three slices are enough to come out of the heap in another
// order.)
func TestLoneSlicesKeepGrantOrder(t *testing.T) {
	e := sim.NewEngine(1)
	var log []string
	for _, name := range []string{"a", "b", "c"} {
		c := New(e)
		c.SetDispatchHook(func(int, time.Duration) { log = append(log, fmt.Sprint(e.Now(), " grant ", name)) })
		e.Spawn(name, func(tk *sim.Task) {
			c.Use(tk, 5*time.Millisecond, params.PrioLocal)
			log = append(log, fmt.Sprint(e.Now(), " done ", name))
		})
	}
	e.At(sim.Time(2*time.Millisecond), func() {}) // due on a shared boundary
	e.Run()
	want := []string{"0s grant a", "0s grant b", "0s grant c", "2ms grant a", "2ms grant b", "2ms grant c",
		"5ms done a", "5ms done b", "5ms done c"}
	if !slices.Equal(log, want) {
		t.Fatalf("log %q, want %q", log, want)
	}
}

// TestLongSliceAllocatesNothing: a request granted its whole demand as one
// slice allocates nothing either — its end event comes off the engine's
// free list and its lattice is the CPU's own — alone, and when a
// same-priority arrival cuts it at a quantum boundary.
func TestLongSliceAllocatesNothing(t *testing.T) {
	for _, row := range []struct {
		name  string
		tasks func(e *sim.Engine, c *CPU)
	}{
		{"lone 25 ms Use", func(e *sim.Engine, c *CPU) {
			e.Spawn("user", func(tk *sim.Task) {
				for {
					c.Use(tk, 25*time.Millisecond, params.PrioLocal)
				}
			})
		}},
		{"cut by a same-priority arrival", func(e *sim.Engine, c *CPU) {
			e.Spawn("user", func(tk *sim.Task) {
				for {
					c.Use(tk, 25*time.Millisecond, params.PrioLocal)
				}
			})
			e.Spawn("arrival", func(tk *sim.Task) {
				for {
					tk.Sleep(3500 * time.Microsecond)
					c.Use(tk, 300*time.Microsecond, params.PrioLocal)
				}
			})
		}},
	} {
		e := sim.NewEngine(1)
		c := New(e)
		row.tasks(e, c)
		e.RunFor(time.Second)
		if n := testing.AllocsPerRun(100, func() { e.RunFor(10 * time.Millisecond) }); n != 0 {
			t.Errorf("%s: %v allocations per 10 ms, want 0", row.name, n)
		}
		e.Shutdown()
	}
}

// TestPickReleasesRequests: removing a request from the middle of a ready
// queue leaves no second reference to the departed tail in the array.
func TestPickReleasesRequests(t *testing.T) {
	a, b, c := new(request), new(request), new(request)
	q := []*request{a, b, c}
	q = cut(q, 1)
	if len(q) != 2 || q[0] != a || q[1] != c {
		t.Fatalf("cut(q, 1) = %v, want [a c]", q)
	}
	if tail := q[:3][2]; tail != nil {
		t.Fatalf("vacated slot still holds %p", tail)
	}
}

// TestDeadRequestPanics: on a poisoning list, a request handed back while
// the CPU still holds it is dead, and granting it a slice panics instead of
// charging whichever Use takes the record next.
func TestDeadRequestPanics(t *testing.T) {
	e := sim.NewEngine(1)
	e.PoisonFreed()
	c := New(e)
	r := c.reqs.Get()
	r.prio, r.remaining = params.PrioKernel, time.Millisecond
	c.reqs.Put(r)
	defer func() {
		if got := recover(); got != "freelist: a record is used after it was handed back" {
			t.Fatalf("grant of a request handed back: recovered %v, want the dead-record panic", got)
		}
	}()
	c.begin(r)
}
