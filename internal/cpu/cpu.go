// Package cpu models a workstation processor with preemptive priority
// scheduling at quantum granularity.
//
// A request with nothing queued at its priority or above runs its whole
// remaining demand as one slice: while it stays alone, the pick at each
// quantum boundary could only choose it again, so those boundaries are a
// sim.Lattice, not events. One becomes an event where it could matter — an
// arrival at the running priority or above, a Kick or a Touch cuts the
// slice at the next boundary, and the engine turns a boundary into an
// event when other events are due at its instant or RunUntil stops on it —
// so grant order, completion instants and every statistic are those of a
// scheduler that ends a slice at every boundary.
//
// A finished request's wake and the deferred grant behind it are one event
// (sim.WaitQ.WakeOneThen). A request the grant would run whole — nothing
// queued at its priority or above — whose slice end would be the next
// event does not wait for it: the task moves the clock to the slice's end
// itself (sim.Engine.SkipTo) and runs on. That holds for a request made
// while the grant is pending as the follow-up of the wake that resumed the
// task, and for one an idle CPU would grant inline; the grant behind the
// skipped wake is then the follow-up, already or from then on
// (sim.Engine.Then).
//
// Priority levels come from params: kernel work preempts system servers,
// which preempt locally invoked programs, which preempt guest (remotely
// executed) programs — the paper's "priority scheduling for locally invoked
// programs" (§2) that lets an owner use a workstation while it serves as a
// computation server. The migration pre-copy runs at system priority,
// "higher priority than all other programs on the originating host"
// (§3.1.2).
package cpu

import (
	"time"

	"vsystem/internal/freelist"
	"vsystem/internal/params"
	"vsystem/internal/sim"
)

// Gate is an optional runnability predicate attached to a CPU request; a
// request whose gate returns false is skipped by the scheduler (used to
// stop scheduling processes of a frozen logical host).
type Gate func() bool

type request struct {
	task      *sim.Task
	prio      int
	remaining time.Duration
	gate      Gate
	done      sim.WaitQ
	finished  bool
}

func (r *request) runnable() bool {
	if r.task != nil && (r.task.Killed() || r.task.Done()) {
		return false
	}
	return r.gate == nil || r.gate()
}

// CPU is one workstation's processor.
type CPU struct {
	eng      *sim.Engine
	quantum  time.Duration
	ready    [params.NumPrios][]*request
	cur      *request    // the request running its slice, if any
	start    sim.Time    // when cur's slice was granted
	until    sim.Time    // when it ends
	end      sim.Timer   // its slice-end event
	seq      uint64      // the sequence number a long slice's ends are keyed by
	lat      sim.Lattice // a long slice's quantum boundaries
	granting bool        // a deferred grant event is pending
	busy     [params.NumPrios]time.Duration
	total    time.Duration
	started  sim.Time
	dispatch func(prio int, slice time.Duration)

	// The two events a CPU schedules and its lattice's Hit, bound once:
	// there is one running request, so none needs a closure of its own.
	kicked, sliceEnded func()
	// reqs holds requests whose Use returned, for the next Use: one per
	// task charging the CPU at once, which seldom passes its bound.
	reqs freelist.List[*request]
}

// New creates an idle CPU on the engine.
func New(eng *sim.Engine) *CPU {
	c := &CPU{eng: eng, quantum: params.CPUQuantum, started: eng.Now(),
		reqs: freelist.NewList(32, func() *request { return new(request) }, nil, eng.Poison())}
	c.kicked, c.sliceEnded, c.lat.Hit = c.deferredGrant, c.endSlice, c.endAt
	return c
}

// SetDispatchHook installs a scheduler-dispatch observer (nil to disable),
// called once per grant with the winning priority and the slice's length,
// which spans many quanta when the request runs alone. The kernel uses it
// to publish dispatch trace events.
func (c *CPU) SetDispatchHook(fn func(prio int, slice time.Duration)) { c.dispatch = fn }

// Use consumes d of CPU at the given priority, blocking the task until the
// time has been granted. Competing requests interleave at quantum
// granularity; higher priorities preempt at quantum boundaries. When
// nothing could run before the grant ends, the task does not park: it
// moves the clock to the end itself (see the package comment).
func (c *CPU) Use(t *sim.Task, d time.Duration, prio int) {
	c.UseGated(t, d, prio, nil)
}

// UseGated is Use with a runnability gate: while gate() is false the
// request is present but unschedulable (a frozen process). Callers must
// Kick the CPU when a gate may have opened, and Touch it when one may have
// closed.
func (c *CPU) UseGated(t *sim.Task, d time.Duration, prio int, gate Gate) {
	if d <= 0 {
		return
	}
	if prio < 0 || prio >= params.NumPrios {
		panic("cpu: bad priority")
	}
	r := c.reqs.Get()
	// Field by field: r.done keeps its (empty) waiter array.
	r.task, r.prio, r.remaining, r.gate, r.finished = t, prio, d, gate, false
	if end := c.eng.Now().Add(d); c.cur == nil && (c.granting || !c.eng.Due()) &&
		c.alone(prio) && r.runnable() && c.eng.CanSkipTo(t, end) {
		// Granted inline, or by the grant pending as this event's
		// follow-up (CanSkipTo found nothing else pending; without
		// granting, Due finds no other follow-up, which would move with
		// the clock), r would run whole, and its slice end would be the
		// next event: run the slice here, unless the dispatch hook
		// scheduled something (a trace subscriber may).
		long := c.begin(r)
		if c.eng.SkipTo(t, end) {
			c.charge(r, d)
			c.cur = nil
			c.recycle(r)
			if !c.granting {
				// The grant the slice end would have deferred.
				c.granting = true
				c.eng.Then(c.kicked)
			}
			return
		}
		c.endLater(long) // granted: a pending grant finds cur set
	} else {
		c.ready[prio] = append(c.ready[prio], r)
		if c.cur == nil {
			c.grantSoon()
		} else if prio <= c.cur.prio {
			c.cutSlice() // it competes at the next boundary
		}
	}
	for !r.finished {
		r.done.Wait(t)
	}
	c.recycle(r)
}

// recycle keeps r for the next Use. It is finished, so neither queued nor
// running: nothing else refers to it. A killed owner never gets here; pick
// discards its request.
func (c *CPU) recycle(r *request) {
	r.task, r.gate = nil, nil
	c.reqs.Put(r)
}

// Kick re-evaluates scheduling; call after a gate may have opened. An
// idle CPU grants in a deferred event; a running slice ends at its next
// quantum boundary, where the pick is made again.
func (c *CPU) Kick() {
	if c.cur != nil {
		c.cutSlice()
		return
	}
	c.deferGrant()
}

// Touch tells the CPU that the running request's gate may have closed or
// its task been killed: its slice ends at the next quantum boundary, where
// the request is parked or dropped. Call it when a gate closes or a task
// that may be using the CPU is killed. Unlike Kick, it never grants.
func (c *CPU) Touch() { c.cutSlice() }

// deferGrant schedules a grant as a zero-delay event rather than making it
// inline: when a process's CPU burst completes and it immediately issues
// its next burst at the same instant (the normal compute/syscall/compute
// pattern), the continuation competes in that grant instead of losing the
// CPU to a lower-priority process for a quantum — matching a real kernel,
// where the running process keeps the processor.
func (c *CPU) deferGrant() {
	if c.granting {
		return
	}
	c.granting = true
	c.eng.After(0, c.kicked)
}

// grantSoon grants inline when no event is due now — the deferred grant
// would be the next event to run — and defers it otherwise. A grant
// already pending makes it.
func (c *CPU) grantSoon() {
	if c.granting {
		return
	}
	if c.eng.Due() {
		c.deferGrant()
		return
	}
	c.grant()
}

// deferredGrant is deferGrant's event: grant now, unless a slice started
// since.
func (c *CPU) deferredGrant() {
	c.granting = false
	if c.cur == nil {
		c.grant()
	}
}

// grant picks the best runnable request and runs a slice of it.
func (c *CPU) grant() {
	if r := c.pick(); r != nil {
		c.endLater(c.begin(r))
	}
}

// begin makes r the running request and grants it a slice now: one
// quantum, or all it still needs when less; all it needs, however long,
// when nothing is queued at its priority or above. It reports whether the
// slice is that long one.
func (c *CPU) begin(r *request) (long bool) {
	freelist.Check(&c.reqs, r)
	c.cur, c.start = r, c.eng.Now()
	slice := r.remaining
	long = slice > c.quantum && c.alone(r.prio)
	if !long {
		slice = min(slice, c.quantum)
	}
	if c.dispatch != nil {
		c.dispatch(r.prio, slice)
	}
	c.until = c.start.Add(slice)
	return long
}

// endLater schedules the end of the slice begin granted.
func (c *CPU) endLater(long bool) {
	if !long {
		c.end = c.eng.After(c.until.Sub(c.start), c.sliceEnded)
		return
	}
	// The seq the first quantum's slice-end event would have taken keys
	// every boundary after it: lone slices granted at one instant keep
	// their grant order at every boundary they share.
	c.seq = c.eng.Reserve()
	c.end = c.eng.AtKey(c.until, c.boundaryBefore(c.until), c.seq, c.sliceEnded)
	c.eng.AddLattice(&c.lat, c.start, c.until, c.quantum)
}

// alone reports whether nothing, runnable or not, is queued at prio or
// above: the pick at every boundary would then choose the running request.
func (c *CPU) alone(prio int) bool {
	for p := 0; p <= prio; p++ {
		if len(c.ready[p]) > 0 {
			return false
		}
	}
	return true
}

// boundaryBefore is the running slice's last quantum boundary before t, or
// its grant instant: the instant the slice-end event at t would have been
// scheduled at, had every quantum been a slice.
func (c *CPU) boundaryBefore(t sim.Time) sim.Time {
	return c.start.Add((t.Sub(c.start) - 1) / c.quantum * c.quantum)
}

// cutSlice ends the running slice at its first quantum boundary after now,
// if that comes before the slice's end.
func (c *CPU) cutSlice() {
	if c.cur == nil {
		return
	}
	next := c.boundaryBefore(c.eng.Now() + 1).Add(c.quantum)
	if next < c.until {
		c.endAt(next)
	}
}

// endAt ends the running slice at boundary t, in the slice-end event's
// place there. It is the lattice's Hit.
func (c *CPU) endAt(t sim.Time) {
	c.eng.RemoveLattice(&c.lat)
	c.end.Stop()
	c.until = t
	c.end = c.eng.AtKey(t, c.boundaryBefore(t), c.seq, c.sliceEnded)
}

// endSlice accounts the slice the running request just used and requeues,
// completes or drops the request.
func (c *CPU) endSlice() {
	r := c.cur
	c.charge(r, c.eng.Now().Sub(c.start))
	c.cur = nil
	c.eng.RemoveLattice(&c.lat)
	if r.remaining <= 0 {
		r.finished = true
		if r.done.WakeOneThen(c.kicked) {
			// The deferred grant rides on the wake, the next event.
			c.granting = true
			return
		}
	} else if r.runnable() {
		c.ready[r.prio] = append(c.ready[r.prio], r)
	} else if r.task != nil && (r.task.Killed() || r.task.Done()) {
		// Dead owner: drop the request.
	} else {
		// Gated shut mid-use (froze): park it at the head of its
		// priority so it resumes first when unfrozen.
		c.ready[r.prio] = append([]*request{r}, c.ready[r.prio]...)
	}
	c.grantSoon()
}

// charge accounts slice of CPU to r.
func (c *CPU) charge(r *request, slice time.Duration) {
	c.busy[r.prio] += slice
	c.total += slice
	r.remaining -= slice
}

// pick removes and returns the first runnable request of the highest
// non-empty priority, discarding requests whose tasks died.
func (c *CPU) pick() *request {
	for prio := 0; prio < params.NumPrios; prio++ {
		q := c.ready[prio]
		for i := 0; i < len(q); i++ {
			r := q[i]
			if r.task != nil && (r.task.Killed() || r.task.Done()) {
				q = cut(q, i)
				i--
				continue
			}
			if r.runnable() {
				c.ready[prio] = cut(q, i)
				return r
			}
		}
		c.ready[prio] = q
	}
	return nil
}

// cut removes q[i], keeping the order of the rest, and clears the slot it
// vacates at the tail so the array does not keep a departed request (and
// its task) reachable.
func cut(q []*request, i int) []*request {
	n := len(q) - 1
	copy(q[i:], q[i+1:])
	q[n] = nil
	return q[:n]
}

// QueueLen reports how many requests are pending at or below (numerically
// at or above) the given priority, including the running one.
func (c *CPU) QueueLen(prio int) int {
	n := 0
	for p := prio; p < params.NumPrios; p++ {
		n += len(c.ready[p])
	}
	if c.cur != nil && c.cur.prio >= prio {
		n++
	}
	return n
}

// ran reports the part of the running slice behind quantum boundaries
// already past, which the busy counters do not hold until the slice ends.
func (c *CPU) ran() time.Duration {
	if c.cur == nil {
		return 0
	}
	return c.boundaryBefore(c.eng.Now()).Sub(c.start)
}

// Busy reports cumulative busy time at the given priority: ended slices,
// and the running one up to its last quantum boundary before now, as a
// slice end at every boundary would have counted it.
func (c *CPU) Busy(prio int) time.Duration {
	if c.cur != nil && c.cur.prio == prio {
		return c.busy[prio] + c.ran()
	}
	return c.busy[prio]
}

// TotalBusy reports cumulative busy time across all priorities, counted as
// Busy is.
func (c *CPU) TotalBusy() time.Duration { return c.total + c.ran() }

// Utilization reports the busy fraction since the CPU was created.
func (c *CPU) Utilization() float64 {
	elapsed := c.eng.Now().Sub(c.started)
	if elapsed <= 0 {
		return 0
	}
	return float64(c.TotalBusy()) / float64(elapsed)
}

// Idle reports whether nothing is running or runnable at program
// priorities (local or guest) — the availability test a program manager
// applies when answering a host-selection query.
func (c *CPU) Idle() bool {
	if c.cur != nil && c.cur.prio >= params.PrioLocal {
		return false
	}
	for p := params.PrioLocal; p < params.NumPrios; p++ {
		for _, r := range c.ready[p] {
			if r.runnable() {
				return false
			}
		}
	}
	return true
}
