// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock, two event heaps (events due soon
// and events due a horizon or more after they were scheduled), a FIFO of
// the events scheduled for the current instant, and an index of lattices:
// evenly spaced instants at which an owner would have had events it left
// unscheduled, which the clock passes unless something else is due there
// (Lattice). All simulated activity — network frames, CPU slices, protocol
// timers, server logic — runs as events on one goroutine, or as coroutine
// Tasks that the engine resumes one at a time. Because at most one task is
// runnable at any instant and ties are broken by sequence number, a
// simulation with a fixed seed is exactly reproducible. A resumption may
// carry a follow-up that runs once the task parks (WakeOneThen, Then), and
// a task may move the clock itself where no event could tell (SkipTo).
//
// Time is modeled in virtual nanoseconds (Time); durations use the standard
// time.Duration so that literals like 3*time.Millisecond read naturally.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"vsystem/internal/freelist"
)

// Time is an instant of virtual time, in nanoseconds since simulation boot.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Duration converts t (an elapsed span measured from boot) to a Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// event is a scheduled callback or task resumption. Events are pooled:
// after firing or being stopped they return to the engine's free list,
// and gen is bumped so stale Timer handles cannot touch the recycled slot.
type event struct {
	at     Time
	born   Time   // the instant it was scheduled at, or stands in for (AtKey)
	seq    uint64 // FIFO tie-break for events at the same instant
	fn     func() // with task, its follow-up (WakeOneThen), or nil
	task   *Task  // when non-nil, resume this task instead of calling fn
	reason WakeReason
	gen    uint32
	keyed  bool // placed by AtKey
	far    bool // in Engine.far, not Engine.near
	index  int  // heap index, or notPending / inNowQ
}

// Values of event.index for an event that is not in the heap.
const (
	notPending = -1 // fired, stopped or free
	inNowQ     = -2 // queued in Engine.nowq
)

// Timer is a handle to a scheduled event; Stop cancels it. The zero Timer
// is valid and Stop on it reports false.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint32
}

// Stop cancels the timer, releasing the callback and — unless the event is
// due at the current instant — eagerly removing it from the heap, so
// cancelled timers cost nothing past this call.
// It reports whether the timer was still pending; after the event has
// fired — including from inside the timer's own callback — it returns
// false.
func (t Timer) Stop() bool {
	ev, e := t.ev, t.eng
	if ev == nil || ev.gen != t.gen || ev.index == notPending {
		return false
	}
	if ev.index == inNowQ {
		// Emptied in place rather than cut out of the middle of the FIFO;
		// next discards it, and recycles it, on reaching it.
		ev.fn, ev.task = nil, nil
		ev.gen++
		ev.index = notPending
		e.nowStopped++
	} else {
		e.release(e.heap(ev).remove(ev.index))
	}
	e.stats.Stopped++
	return true
}

// eventHeap is a 4-ary min-heap of events ordered by (at, born, seq,
// keyed), written directly over the slice: the comparison is inline, a sift
// moves the hole rather than swapping, and every placement records
// event.index so Stop can remove from the middle. The order is total (no
// two keyed events share a key), so the pop sequence does not depend on the
// heap's shape.
type eventHeap []*event

// before is the heap order: earlier instant first, scheduling order within
// an instant. Sequence numbers rise with the clock, so for events At
// scheduled, (born, seq) is just seq; born places a keyed event among them.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.born != b.born {
		return a.born < b.born
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return !a.keyed && b.keyed
}

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h)-1, ev)
}

// popMin removes and returns the earliest event; the heap must not be
// empty.
func (h *eventHeap) popMin() *event {
	return h.remove(0)
}

// remove takes out and returns the event at index i.
func (h *eventHeap) remove(i int) *event {
	s := *h
	ev := s[i]
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	*h = s[:n]
	if i < n {
		// Refill the hole with the last event: it belongs at or below i
		// unless it precedes i's parent.
		if i > 0 && before(last, s[(i-1)/4]) {
			h.up(i, last)
		} else {
			h.down(i, last)
		}
	}
	ev.index = notPending
	return ev
}

// up places ev at index i or above, moving later ancestors down into the
// hole.
func (h eventHeap) up(i int, ev *event) {
	for i > 0 {
		p := (i - 1) / 4
		if !before(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// down places ev at index i or below, moving each level's earliest child
// up into the hole.
func (h eventHeap) down(i int, ev *event) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if before(h[j], h[m]) {
				m = j
			}
		}
		if !before(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].index = i
		i = m
	}
	h[i] = ev
	ev.index = i
}

// maxFree caps the event free list; beyond it, released events are left
// to the garbage collector.
const maxFree = 1 << 16

// farHorizon is how far ahead of the clock an event must be scheduled to go
// on the far heap: protocol timeouts, reply-cache sweeps and sleeping
// servers, most of them stopped or rescheduled long before they are due,
// which would otherwise deepen every sift of the busy near heap.
const farHorizon = Time(20 * time.Millisecond)

// Engine is a discrete-event simulator instance.
type Engine struct {
	now Time
	seq uint64
	// near and far hold the pending events not due at the instant they
	// were scheduled, far those due farHorizon or more after it. The next
	// event is the earlier of the two tops, so the split does not change
	// the pop order.
	near, far eventHeap
	// nowq holds, in scheduling order, the events that were scheduled for
	// the instant at which they were scheduled — wake-ups, yields, spawns,
	// CPU kicks: most of all events — which would otherwise sift to the top
	// of the heap and straight back out. The clock cannot pass a queued
	// event, so everything in nowq is due at now, and its seq order is its
	// queue order: next merges it with the heap by (at, seq), and the pop
	// sequence is the one a single heap would give.
	nowq       fifo[*event]
	nowStopped int      // stopped events still physically in nowq
	free       []*event // recycled events
	rng        *rand.Rand
	running    *Task   // task currently executing, nil when in plain events
	live       []*Task // spawned and not finished, each at index Task.live
	lattices   latticeIndex
	// then is the follow-up of the firing event while its task runs
	// (WakeOneThen, Then); thens counts the follow-ups not yet run, pending
	// as events would be.
	then  func()
	thens int
	// limit is the bound of the RunUntil under way: SkipTo never moves the
	// clock past it. Zero outside RunUntil, where nothing skips.
	limit  Time
	stats  Stats
	poison freelist.Switch // every free list of the engine's cluster reads it
}

// Stats are an engine's cumulative counters since creation.
type Stats struct {
	Fired      uint64 // events run by Step
	Dispatches uint64 // task resumptions: switches into a task and back
	Stopped    uint64 // timers cancelled while still pending
	MaxPending int    // most events pending at once
	Merged     uint64 // follow-ups run in their wake's event (WakeOneThen, Then)
	Skipped    uint64 // events a task skipped by moving the clock itself (SkipTo)
}

// Stats returns the engine's cumulative counters.
func (e *Engine) Stats() Stats { return e.stats }

// NewEngine returns an engine with its virtual clock at zero and a
// deterministic random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// PoisonFreed turns poisoning on for every free list of the engine's
// cluster (freelist). For tests; behaviour is otherwise unchanged.
func (e *Engine) PoisonFreed() { e.poison = true }

// Poison returns the switch the free lists of the engine's cluster read.
func (e *Engine) Poison() *freelist.Switch { return &e.poison }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's seeded random source. All stochastic behaviour
// in a simulation (loss, jitter) must draw from it to stay reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// alloc takes an event from the free list, or makes one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{index: notPending}
}

// release clears an event (dropping the closure immediately), invalidates
// outstanding Timer handles, and recycles it.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.task = nil
	ev.gen++
	if len(e.free) < maxFree {
		e.free = append(e.free, ev)
	}
}

// schedule makes ev pending at instant t: on a heap, or in nowq when t is
// the current instant.
func (e *Engine) schedule(t Time, ev *event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	e.seq++
	ev.at, ev.born, ev.seq, ev.keyed = t, e.now, e.seq, false
	if t == e.now {
		ev.index = inNowQ
		e.nowq.push(ev)
	} else {
		e.push(ev)
	}
	if n := e.Pending(); n > e.stats.MaxPending {
		e.stats.MaxPending = n
	}
}

// push places ev, due after now, on the heap its distance picks.
func (e *Engine) push(ev *event) {
	ev.far = ev.at-e.now >= farHorizon
	e.heap(ev).push(ev)
}

// heap returns the heap ev is on, or would go on.
func (e *Engine) heap(ev *event) *eventHeap {
	if ev.far {
		return &e.far
	}
	return &e.near
}

// top returns the earlier of the two heaps' tops, or nil if both are empty.
func (e *Engine) top() *event {
	if len(e.far) == 0 {
		if len(e.near) == 0 {
			return nil
		}
		return e.near[0]
	}
	if len(e.near) == 0 || before(e.far[0], e.near[0]) {
		return e.far[0]
	}
	return e.near[0]
}

// next returns the earliest pending event by (at, seq) without removing it
// — the head of nowq or a heap's top — or nil if none is pending. Stopped
// events at the head of nowq are dropped on the way.
func (e *Engine) next() *event {
	for e.nowq.len() > 0 {
		head := e.nowq.live()[0]
		if head.index == inNowQ {
			if top := e.top(); top != nil && before(top, head) {
				return top
			}
			return head
		}
		e.nowq.pop()
		e.nowStopped--
		if len(e.free) < maxFree {
			e.free = append(e.free, head)
		}
	}
	return e.top()
}

// At schedules fn to run at instant t. Scheduling in the past is an error in
// the simulation logic and panics.
func (e *Engine) At(t Time, fn func()) Timer {
	ev := e.alloc()
	ev.fn = fn
	e.schedule(t, ev)
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// Reserve takes the sequence number the next scheduled event would have
// had, without scheduling one, for a later AtKey.
func (e *Engine) Reserve() uint64 {
	e.seq++
	return e.seq
}

// AtKey schedules fn at instant t in the place of an event that was never
// scheduled: one At would have made at instant born, born <= t, with the
// sequence number seq that Reserve returned. Among events due at t it runs
// after those scheduled before that one would have been, and before those
// scheduled after it. No two pending keyed events may share (t, born, seq).
func (e *Engine) AtKey(t, born Time, seq uint64, fn func()) Timer {
	if t < e.now || born > t {
		panic(fmt.Sprintf("sim: keyed event at %v born %v, now %v", t, born, e.now))
	}
	ev := e.alloc()
	ev.fn = fn
	ev.at, ev.born, ev.seq, ev.keyed = t, born, seq, true
	// Never nowq: born may precede the events queued there.
	e.push(ev)
	if n := e.Pending(); n > e.stats.MaxPending {
		e.stats.MaxPending = n
	}
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// Due reports whether an event is pending at the current instant, the
// follow-up of the firing event included.
func (e *Engine) Due() bool {
	if e.then != nil || e.nowq.len() > e.nowStopped {
		return true
	}
	top := e.top()
	return top != nil && top.at == e.now
}

// After schedules fn to run d from now.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// resumeAfter schedules a task resumption d from now without allocating a
// closure — the hot path for Sleep/WakeOne/Spawn at cluster scale.
func (e *Engine) resumeAfter(d time.Duration, t *Task, reason WakeReason) Timer {
	if d < 0 {
		d = 0
	}
	ev := e.alloc()
	ev.task, ev.reason = t, reason
	e.schedule(e.now.Add(d), ev)
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// Step runs the next pending event. It reports false when no events remain.
func (e *Engine) Step() bool {
	ev := e.next()
	if ev == nil {
		return false
	}
	if ev.at > e.now && e.enter(ev.at) {
		ev = e.next()
	}
	e.fire(ev)
	return true
}

// fire takes ev, which next returned, out of its queue and runs it.
func (e *Engine) fire(ev *event) {
	if ev.index == inNowQ {
		e.nowq.pop()
		ev.index = notPending
	} else {
		e.heap(ev).popMin()
	}
	e.now = ev.at
	fn, task, reason := ev.fn, ev.task, ev.reason
	// Release before running: tasks never reenter Step, and handing the
	// event back first makes Stop from inside the callback a clean no-op.
	e.release(ev)
	e.stats.Fired++
	if task == nil {
		fn()
	} else {
		e.resume(task, reason, fn)
	}
}

// resume dispatches t and, once it parks or finishes, runs the follow-up
// of the event that resumed it — then, or one t set with Then — which is
// pending meanwhile: Due and Pending count it.
func (e *Engine) resume(t *Task, reason WakeReason, then func()) {
	e.then = then
	defer func() {
		if then := e.then; then != nil {
			// t panicked: the follow-up still runs, as an event of its own.
			e.then = nil
			e.thens--
			e.After(0, then)
		}
	}()
	t.dispatch(reason)
	if then = e.then; then != nil {
		e.then = nil
		e.thens--
		e.stats.Merged++
		then()
	}
}

// Then makes fn the follow-up of the event that resumed the running task,
// as WakeOneThen would have: fn runs in it once the task parks or
// finishes. The event must have no follow-up already.
func (e *Engine) Then(fn func()) {
	if e.running == nil || e.then != nil {
		panic("sim: Then outside a task, or after another follow-up")
	}
	e.then = fn
	e.thens++
}

// CanSkipTo reports whether SkipTo(t, at) would move the clock.
func (e *Engine) CanSkipTo(t *Task, at Time) bool {
	if e.running != t || t.killed || at <= e.now || at > e.limit || e.nowq.len() > e.nowStopped {
		return false
	}
	if top := e.top(); top != nil && top.at <= at {
		return false
	}
	return !e.lattices.has(at)
}

// SkipTo moves the clock to at from inside the running task t, in place of
// t parking until an event due at at resumes it, and reports whether it
// did. It does only when nothing could tell the two apart: nothing is
// pending at or before at, no lattice has an instant there, at is within
// the bound of the RunUntil under way (Step and Run never skip), and t was
// not killed. The one thing that moves with the clock is the follow-up of
// the event that resumed t (WakeOneThen, Then): it runs when t parks, at
// at, so the caller must know it stands for what would run there — for a
// CPU, the grant behind the skipped slice end's wake.
func (e *Engine) SkipTo(t *Task, at Time) bool {
	if !e.CanSkipTo(t, at) {
		return false
	}
	e.now = at
	e.stats.Skipped++
	return true
}

// Run processes events until none is pending.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil processes events with timestamps <= t and then sets the clock to
// t. Events scheduled later remain pending.
func (e *Engine) RunUntil(t Time) {
	defer func(outer Time) { e.limit = outer }(e.limit)
	e.limit = t
	for {
		ev := e.next()
		if ev == nil || ev.at > t {
			// Stopping on a lattice instant runs its event, as stopping on
			// an instant with events due would.
			if e.now < t && e.enter(t) {
				continue
			}
			break
		}
		if ev.at > e.now && e.enter(ev.at) {
			ev = e.next()
		}
		e.fire(ev)
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d of virtual time.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

// Pending reports the number of live scheduled events; stopped timers are
// never counted.
func (e *Engine) Pending() int {
	return len(e.near) + len(e.far) + e.nowq.len() - e.nowStopped + e.thens
}

// LiveTasks reports the number of spawned tasks that have not finished.
func (e *Engine) LiveTasks() int { return len(e.live) }

// retire takes a finished task out of the live set.
func (e *Engine) retire(t *Task) {
	n := len(e.live) - 1
	last := e.live[n]
	e.live[t.live], last.live = last, t.live
	e.live[n] = nil
	e.live = e.live[:n]
}

// Shutdown kills and unwinds every live task — each runs its deferred
// functions and its coroutine exits — leaving LiveTasks() == 0. Call it
// from outside Step, when done with the engine: a parked task's stack
// otherwise stays reachable, and scanned by the collector, for the life
// of the process. Events still pending are not run.
func (e *Engine) Shutdown() {
	for len(e.live) > 0 {
		t := e.live[len(e.live)-1]
		t.Kill()
		t.stop()
	}
}

// Current returns the task executing right now, or nil when the engine is
// running a plain event. Used by subsystems that need the calling task's
// identity from deep in a call chain (for example a page-fault handler
// that must block the faulting task).
func (e *Engine) Current() *Task { return e.running }
