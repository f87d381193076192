package cpu

// The per-quantum scheduler as it was before a lone request ran as one
// slice, kept verbatim but for its names as the reference the scheduler is
// checked against (TestSchedulerDifferential): every quantum is a slice-end
// event and a deferred grant.

import (
	"time"

	"vsystem/internal/params"
	"vsystem/internal/sim"
)

type refRequest struct {
	task      *sim.Task
	prio      int
	remaining time.Duration
	gate      Gate
	done      sim.WaitQ
	finished  bool
}

func (r *refRequest) runnable() bool {
	if r.task != nil && (r.task.Killed() || r.task.Done()) {
		return false
	}
	return r.gate == nil || r.gate()
}

// refCPU is one workstation's processor.
type refCPU struct {
	eng      *sim.Engine
	quantum  time.Duration
	ready    [params.NumPrios][]*refRequest
	cur      *refRequest   // the request running its slice, if any
	slice    time.Duration // cur's slice length
	granting bool          // a deferred grant event is pending
	busy     [params.NumPrios]time.Duration
	total    time.Duration
	started  sim.Time
	dispatch func(prio int, slice time.Duration)

	// The two events a CPU schedules, bound once: there is one running
	// request, so neither needs a closure of its own.
	kicked, sliceEnded func()
	// free holds requests whose Use returned, for the next Use.
	free []*refRequest
}

// newRef creates an idle CPU on the engine.
func newRef(eng *sim.Engine) *refCPU {
	c := &refCPU{eng: eng, quantum: params.CPUQuantum, started: eng.Now()}
	c.kicked, c.sliceEnded = c.deferredGrant, c.endSlice
	return c
}

// SetDispatchHook installs a scheduler-dispatch observer (nil to disable),
// called once per granted slice with the winning priority and slice
// length. The kernel uses it to publish dispatch trace events.
func (c *refCPU) SetDispatchHook(fn func(prio int, slice time.Duration)) { c.dispatch = fn }

// Use consumes d of CPU at the given priority, blocking the task until the
// time has been granted. Competing requests interleave at quantum
// granularity; higher priorities preempt at quantum boundaries.
func (c *refCPU) Use(t *sim.Task, d time.Duration, prio int) {
	c.UseGated(t, d, prio, nil)
}

// UseGated is Use with a runnability gate: while gate() is false the
// request is present but unschedulable (a frozen process). Callers must
// Kick the CPU when a gate may have opened.
func (c *refCPU) UseGated(t *sim.Task, d time.Duration, prio int, gate Gate) {
	if d <= 0 {
		return
	}
	if prio < 0 || prio >= params.NumPrios {
		panic("cpu: bad priority")
	}
	var r *refRequest
	if n := len(c.free); n > 0 {
		r, c.free = c.free[n-1], c.free[:n-1]
	} else {
		r = new(refRequest)
	}
	// Field by field: r.done keeps its (empty) waiter array.
	r.task, r.prio, r.remaining, r.gate, r.finished = t, prio, d, gate, false
	c.ready[prio] = append(c.ready[prio], r)
	c.Kick()
	for !r.finished {
		r.done.Wait(t)
	}
	// Finished, so neither queued nor running: nothing else refers to r.
	// A killed owner never gets here; pick discards its request.
	r.task, r.gate = nil, nil
	c.free = append(c.free, r)
}

// Kick re-evaluates scheduling; call after a gate may have opened.
//
// The grant is deferred by one (zero-delay) event rather than performed
// inline: when a process's CPU burst completes and it immediately issues
// its next burst at the same instant (the normal compute/syscall/compute
// pattern), the continuation competes in that grant instead of losing the
// CPU to a lower-priority process for a quantum — matching a real kernel,
// where the running process keeps the processor.
func (c *refCPU) Kick() {
	if c.cur != nil || c.granting {
		return
	}
	c.granting = true
	c.eng.After(0, c.kicked)
}

// deferredGrant is Kick's event: grant now, unless a slice started since.
func (c *refCPU) deferredGrant() {
	c.granting = false
	if c.cur == nil {
		c.grant()
	}
}

// grant picks the best runnable request and runs one slice of it.
func (c *refCPU) grant() {
	r := c.pick()
	if r == nil {
		return
	}
	c.cur = r
	slice := c.quantum
	if r.remaining < slice {
		slice = r.remaining
	}
	if c.dispatch != nil {
		c.dispatch(r.prio, slice)
	}
	c.slice = slice
	c.eng.After(slice, c.sliceEnded)
}

// endSlice accounts the slice the running request just used and requeues,
// completes or drops the request.
func (c *refCPU) endSlice() {
	r, slice := c.cur, c.slice
	c.busy[r.prio] += slice
	c.total += slice
	r.remaining -= slice
	c.cur = nil
	if r.remaining <= 0 {
		r.finished = true
		r.done.WakeOne()
	} else if r.runnable() {
		c.ready[r.prio] = append(c.ready[r.prio], r)
	} else if r.task != nil && (r.task.Killed() || r.task.Done()) {
		// Dead owner: drop the request.
	} else {
		// Gated shut mid-use (froze): park it at the head of its
		// priority so it resumes first when unfrozen.
		c.ready[r.prio] = append([]*refRequest{r}, c.ready[r.prio]...)
	}
	c.Kick()
}

// pick removes and returns the first runnable request of the highest
// non-empty priority, discarding requests whose tasks died.
func (c *refCPU) pick() *refRequest {
	for prio := 0; prio < params.NumPrios; prio++ {
		q := c.ready[prio]
		for i := 0; i < len(q); i++ {
			r := q[i]
			if r.task != nil && (r.task.Killed() || r.task.Done()) {
				q = refCut(q, i)
				i--
				continue
			}
			if r.runnable() {
				c.ready[prio] = refCut(q, i)
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
func refCut(q []*refRequest, i int) []*refRequest {
	n := len(q) - 1
	copy(q[i:], q[i+1:])
	q[n] = nil
	return q[:n]
}

// QueueLen reports how many requests are pending at or below (numerically
// at or above) the given priority, including the running one.
func (c *refCPU) QueueLen(prio int) int {
	n := 0
	for p := prio; p < params.NumPrios; p++ {
		n += len(c.ready[p])
	}
	if c.cur != nil && c.cur.prio >= prio {
		n++
	}
	return n
}

// Busy reports cumulative busy time at the given priority.
func (c *refCPU) Busy(prio int) time.Duration { return c.busy[prio] }

// TotalBusy reports cumulative busy time across all priorities.
func (c *refCPU) TotalBusy() time.Duration { return c.total }

// Utilization reports the busy fraction since the CPU was created.
func (c *refCPU) Utilization() float64 {
	elapsed := c.eng.Now().Sub(c.started)
	if elapsed <= 0 {
		return 0
	}
	return float64(c.total) / float64(elapsed)
}

// Idle reports whether nothing is running or runnable at program
// priorities (local or guest) — the availability test a program manager
// applies when answering a host-selection query.
func (c *refCPU) Idle() bool {
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
