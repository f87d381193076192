package sim

import (
	"fmt"
	"iter"
	"os"
	"runtime/debug"
	"time"
)

// killSignal is panicked inside a task's coroutine to unwind it when the
// task is killed. The wrapper in Spawn recovers it.
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
// A task is a runtime coroutine (iter.Pull): the engine resumes it from an
// event callback with a direct switch onto the task's stack, bypassing the
// Go scheduler, and regains control the same way when the task parks or
// finishes. Exactly one task runs at a time, so task code needs no locking.
// A Task must only be used from its own coroutine, except for Kill and the
// engine-side wake path.
type Task struct {
	eng  *Engine
	name string
	// resume switches into the task until it next parks or finishes; yield
	// is the task's side of the same switch. stop unwinds a parked task
	// (Engine.Shutdown): its pending yield returns false.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
	reason WakeReason // why the engine resumed the task, read by park
	live   int        // index in eng.live while not done
	killed bool
	done   bool
	runs   uint64 // times dispatched
	// waitq is the queue the task is currently blocked on, if any; used to
	// remove the task from the queue on timeout or kill.
	waitq *WaitQ
}

// Spawn starts fn as a new task. fn begins running at the current instant
// (after already-scheduled events at this instant). A panic in fn other
// than the kill signal surfaces, with its original value, from the Step
// that resumed the task; the task's own stack is gone by then, so it is
// written to standard error on the way.
func (e *Engine) Spawn(name string, fn func(*Task)) *Task {
	t := &Task{eng: e, name: name, live: len(e.live)}
	e.live = append(e.live, t)
	t.resume, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		defer func() {
			t.done = true
			e.retire(t)
			if r := recover(); r != nil && !IsKill(r) {
				fmt.Fprintf(os.Stderr, "sim: task %s panicked: %v\n%s", t.name, r, debug.Stack())
				panic(r)
			}
		}()
		t.park() // until the first dispatch; a task killed before it unwinds here
		fn(t)
	})
	// Run the coroutine up to that park, so that every live task is parked
	// in yield, where stop can unwind it.
	t.resume()
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

// dispatch switches into the task from the engine (inside an event) and
// returns when the task parks again or finishes.
func (t *Task) dispatch(reason WakeReason) {
	if t.done {
		return
	}
	e := t.eng
	e.stats.Dispatches++
	t.runs++
	prev := e.running
	// Deferred, so that a task's panic leaves the engine consistent for
	// whoever recovers it around Step.
	defer func() { e.running = prev }()
	e.running = t
	t.reason = reason
	t.resume()
}

// park suspends the task until some event calls dispatch. Returns the wake
// reason. Panics with killSignal if the task was killed while parked, or
// if the engine was shut down.
func (t *Task) park() WakeReason {
	if !t.yield(struct{}{}) || t.killed {
		panic(killSignal{t.name})
	}
	return t.reason
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
			t.eng.resume(t, WakeTimeout, nil)
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

// WakeOneThen is WakeOne with a follow-up: then runs in the wake's event,
// once the woken task parks again or finishes, and is pending until then.
// It stands for an event scheduled right behind the wake: nothing could
// run between the two, as an event scheduled meanwhile for this instant
// queues behind them both, so they run as one. (A keyed event due now and
// born earlier would sort between them; AtKey's one caller, cpu, places
// keyed events only at later instants.)
// If no task is waiting, it reports false and then is not scheduled.
func (q *WaitQ) WakeOneThen(then func()) bool {
	if q.waiters.len() == 0 {
		return false
	}
	t := q.waiters.pop()
	t.waitq = nil
	e := t.eng
	ev := e.alloc()
	ev.task, ev.reason, ev.fn = t, WakeSignal, then
	e.thens++
	e.schedule(e.now, ev)
	return true
}

// WakeAll resumes every waiting task.
func (q *WaitQ) WakeAll() {
	for q.WakeOne() {
	}
}

// Len reports the number of blocked tasks.
func (q *WaitQ) Len() int { return q.waiters.len() }
