package sim

import (
	"runtime"
	"testing"
	"time"
)

func TestQueueFIFO(t *testing.T) {
	e := NewEngine(1)
	var q Queue[int]
	var got []int
	e.Spawn("consumer", func(tk *Task) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(tk))
		}
	})
	e.After(time.Millisecond, func() {
		q.Push(1)
		q.Push(2)
		q.Push(3)
	})
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	e := NewEngine(1)
	var q Queue[string]
	var at Time
	e.Spawn("consumer", func(tk *Task) {
		q.Pop(tk)
		at = tk.Now()
	})
	e.After(7*time.Millisecond, func() { q.Push("x") })
	e.Run()
	if at != Time(7*time.Millisecond) {
		t.Fatalf("popped at %v", at)
	}
}

func TestQueuePopTimeout(t *testing.T) {
	e := NewEngine(1)
	var q Queue[int]
	okCount := 0
	e.Spawn("consumer", func(tk *Task) {
		if _, ok := q.PopTimeout(tk, 5*time.Millisecond); ok {
			t.Error("pop on empty queue succeeded")
		}
		// Now an item arrives within the deadline.
		if v, ok := q.PopTimeout(tk, 50*time.Millisecond); ok && v == 9 {
			okCount++
		}
	})
	e.After(10*time.Millisecond, func() { q.Push(9) })
	e.Run()
	if okCount != 1 {
		t.Fatal("second pop did not get the item")
	}
}

func TestQueueMultipleConsumers(t *testing.T) {
	e := NewEngine(1)
	var q Queue[int]
	sum := 0
	for i := 0; i < 3; i++ {
		e.Spawn("c", func(tk *Task) {
			sum += q.Pop(tk)
		})
	}
	e.After(time.Millisecond, func() {
		for i := 1; i <= 3; i++ {
			q.Push(i)
		}
	})
	e.Run()
	if sum != 6 {
		t.Fatalf("sum = %d", sum)
	}
	if e.LiveTasks() != 0 {
		t.Fatalf("LiveTasks = %d", e.LiveTasks())
	}
}

// TestQueuePopTimeoutSameInstantPush pins the deadline re-check: a push
// and a consumer's timeout land on the same instant, with the push event
// sequenced first. The push wakes the longest waiter (a plain Pop), whose
// wake is delivered as a deferred event — so when the timed consumer's
// deadline timer fires in between, the queue is non-empty and the timed
// consumer must take the item rather than report a timeout.
func TestQueuePopTimeoutSameInstantPush(t *testing.T) {
	e := NewEngine(1)
	var q Queue[int]
	// Registered before the consumers spawn, so at the shared instant this
	// event's sequence number sorts ahead of the deadline timer's.
	e.After(10*time.Millisecond, func() { q.Push(42) })
	aWoke := false
	e.Spawn("a", func(tk *Task) {
		q.Pop(tk)
		aWoke = true
	})
	var v int
	var ok bool
	e.Spawn("b", func(tk *Task) {
		v, ok = q.PopTimeout(tk, 10*time.Millisecond)
	})
	e.Run()
	if !ok || v != 42 {
		t.Fatalf("timed pop = (%d, %v), want the same-instant item (42, true)", v, ok)
	}
	if aWoke {
		t.Fatal("plain Pop consumed the item that the timed consumer took")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after delivery", q.Len())
	}
	if e.LiveTasks() != 1 {
		t.Fatalf("LiveTasks = %d, want 1 (the plain Pop stays blocked)", e.LiveTasks())
	}
}

// TestQueueClearWithBlockedConsumers checks Clear's contract: blocked
// consumers stay blocked, and a consumer already woken for an item that
// Clear discarded re-checks emptiness and goes back to sleep instead of
// popping from the emptied queue.
func TestQueueClearWithBlockedConsumers(t *testing.T) {
	e := NewEngine(1)
	var q Queue[int]
	var got []int
	e.Spawn("consumer", func(tk *Task) {
		got = append(got, q.Pop(tk))
	})
	// Push and Clear at the same instant: the wake is already scheduled
	// when Clear empties the queue.
	e.After(5*time.Millisecond, func() { q.Push(1); q.Clear() })
	e.After(10*time.Millisecond, func() { q.Push(2) })
	e.Run()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("got %v, want only the post-Clear item [2]", got)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
	if e.LiveTasks() != 0 {
		t.Fatalf("LiveTasks = %d", e.LiveTasks())
	}
}

// TestQueuePopReleasesSlot pins that a popped item is no longer reachable
// from the queue: every frame and closure that passes through a netd
// queue would otherwise live until append happened to reallocate the
// backing array. A second item stays queued so the array itself is live.
func TestQueuePopReleasesSlot(t *testing.T) {
	e := NewEngine(1)
	var q Queue[*[64]byte]
	collected := make(chan struct{})
	item := new([64]byte)
	runtime.SetFinalizer(item, func(*[64]byte) { close(collected) })
	q.Push(item)
	q.Push(new([64]byte))
	item = nil
	e.Spawn("consumer", func(tk *Task) { q.Pop(tk) })
	e.Run()
	if q.Len() != 1 {
		t.Fatalf("Len = %d after one Pop of two, want 1", q.Len())
	}
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(&q)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("popped item still reachable from the queue's backing array")
}

// TestQueueReusesArrayWhenDrained pins the other half of the slot fix: a
// queue that empties rewinds to the start of its array instead of
// creeping along it and reallocating.
func TestQueueReusesArrayWhenDrained(t *testing.T) {
	e := NewEngine(1)
	var q Queue[int]
	e.Spawn("pingpong", func(tk *Task) {
		for i := 0; i < 1000; i++ {
			q.Push(i)
			if got := q.Pop(tk); got != i {
				t.Errorf("Pop = %d, want %d", got, i)
			}
		}
	})
	e.Run()
	if c := cap(q.items.buf); c > 4 {
		t.Fatalf("backing array grew to %d slots for a queue never more than one deep", c)
	}
}
