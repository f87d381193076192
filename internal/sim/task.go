package sim

import (
	"fmt"
	"time"
)

// killSignal is panicked inside a task goroutine to unwind it when the task
// is killed. The wrapper in Spawn recovers it.
type killSignal struct{ name string }

// WakeReason tells a task why it was resumed from a wait.
type WakeReason int

const (
	// WakeSignal means the condition the task waited for was signaled.
	WakeSignal WakeReason = iota
	// WakeTimeout means the wait's deadline expired first.
	WakeTimeout
	// WakeAbort means the wait was cancelled by a third party (for example
	// an IPC transaction torn down during migration).
	WakeAbort
)

// Task is a simulated thread of control: sequential Go code that blocks on
// virtual-time primitives (Sleep, WaitQ) instead of real synchronization.
//
// Exactly one task runs at a time; the engine resumes a task from an event
// callback and regains control when the task parks or finishes, so task code
// needs no locking. A Task must only be used from its own goroutine, except
// for Kill and the engine-side wake path.
type Task struct {
	eng    *Engine
	name   string
	wake   chan WakeReason
	parked chan struct{}
	killed bool
	done   bool
	runs   uint64 // times dispatched
	// waitq is the queue the task is currently blocked on, if any; used to
	// remove the task from the queue on timeout or kill.
	waitq *WaitQ
}

// Spawn starts fn as a new task. fn begins running at the current instant
// (after already-scheduled events at this instant).
func (e *Engine) Spawn(name string, fn func(*Task)) *Task {
	t := &Task{
		eng:    e,
		name:   name,
		wake:   make(chan WakeReason),
		parked: make(chan struct{}),
	}
	e.tasks++
	go func() {
		<-t.wake // wait for first dispatch
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSignal); !ok {
					// Re-panic on the engine goroutine would be nicer, but
					// surfacing the original stack is more useful.
					panic(r)
				}
			}
			t.done = true
			e.tasks--
			t.parked <- struct{}{}
		}()
		if t.killed {
			panic(killSignal{t.name})
		}
		fn(t)
	}()
	e.resumeAfter(0, t, WakeSignal)
	return t
}

// Name returns the task's diagnostic name.
func (t *Task) Name() string { return t.name }

// Engine returns the engine the task runs on.
func (t *Task) Engine() *Engine { return t.eng }

// Now returns the current virtual time.
func (t *Task) Now() Time { return t.eng.Now() }

// Dispatches reports how many times the engine has resumed the task.
func (t *Task) Dispatches() uint64 { return t.runs }

// Done reports whether the task has finished.
func (t *Task) Done() bool { return t.done }

// dispatch resumes the task from the engine goroutine (inside an event) and
// blocks until the task parks again or finishes.
func (t *Task) dispatch(reason WakeReason) {
	if t.done {
		return
	}
	t.eng.stats.Dispatches++
	t.runs++
	prev := t.eng.running
	t.eng.running = t
	t.wake <- reason
	<-t.parked
	t.eng.running = prev
}

// park suspends the task until some event calls dispatch. Returns the wake
// reason. Panics with killSignal if the task was killed while parked.
func (t *Task) park() WakeReason {
	t.parked <- struct{}{}
	reason := <-t.wake
	if t.killed {
		panic(killSignal{t.name})
	}
	return reason
}

// Sleep suspends the task for d of virtual time.
func (t *Task) Sleep(d time.Duration) {
	t.eng.resumeAfter(d, t, WakeSignal)
	t.park()
}

// Yield lets all other events scheduled at the current instant run first.
func (t *Task) Yield() { t.Sleep(0) }

// Kill tears the task down. If the task is currently parked it is resumed
// and unwound; if it is running, it unwinds at its next park point. Kill is
// idempotent. Kill must be called from the engine goroutine or another task,
// never from the task itself (a task exits by returning).
func (t *Task) Kill() {
	if t.done || t.killed {
		return
	}
	t.killed = true
	if t.waitq != nil {
		t.waitq.remove(t)
		t.waitq = nil
	}
	if t.eng.running != t {
		// Parked (or not yet started): resume it so it unwinds.
		t.eng.resumeAfter(0, t, WakeAbort)
	}
}

// Killed reports whether Kill has been called on the task.
func (t *Task) Killed() bool { return t.killed }

func (t *Task) String() string { return fmt.Sprintf("task(%s)", t.name) }

// WaitQ is a queue of tasks blocked on a condition. The zero value is ready
// to use.
type WaitQ struct {
	waiters fifo[*Task]
}

// Wait blocks the calling task until WakeOne/WakeAll signals the queue.
func (q *WaitQ) Wait(t *Task) WakeReason {
	q.waiters.push(t)
	t.waitq = q
	r := t.park()
	t.waitq = nil
	return r
}

// WaitTimeout blocks like Wait but gives up after d; the returned reason is
// WakeTimeout in that case.
func (q *WaitQ) WaitTimeout(t *Task, d time.Duration) WakeReason {
	q.waiters.push(t)
	t.waitq = q
	timer := t.eng.After(d, func() {
		if q.remove(t) {
			t.waitq = nil
			t.dispatch(WakeTimeout)
		}
	})
	// Deferred, because a killed task leaves park by panic and must not
	// leave its timeout pending either. After a timeout this is a no-op.
	defer timer.Stop()
	r := t.park()
	t.waitq = nil
	return r
}

// remove unlinks t from the queue, reporting whether it was present.
func (q *WaitQ) remove(t *Task) bool {
	for i, w := range q.waiters.live() {
		if w == t {
			q.waiters.removeAt(i)
			return true
		}
	}
	return false
}

// WakeOne resumes the longest-waiting task, if any, reporting whether a task
// was woken. The wake is delivered as a scheduled event at the current
// instant, preserving determinism.
func (q *WaitQ) WakeOne() bool {
	if q.waiters.len() == 0 {
		return false
	}
	t := q.waiters.pop()
	t.waitq = nil
	t.eng.resumeAfter(0, t, WakeSignal)
	return true
}

// WakeAll resumes every waiting task.
func (q *WaitQ) WakeAll() {
	for q.WakeOne() {
	}
}

// Len reports the number of blocked tasks.
func (q *WaitQ) Len() int { return q.waiters.len() }
