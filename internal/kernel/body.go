package kernel

import (
	"fmt"
	"time"

	"vsystem/internal/ipc"
	"vsystem/internal/mem"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// Regs is a process's register blob: the only per-process mutable state
// outside its address space. Migration copies it verbatim, so bodies must
// keep *all* resume state here or in memory — never in Go locals that
// outlive a blocking call.
type Regs struct {
	W [32]uint32
}

// Conventional register assignments shared by all bodies.
const (
	// RegPhase distinguishes resume points (body-defined values; 0 =
	// initial entry).
	RegPhase = 0
	// RegExitCode is set when the process exits.
	RegExitCode = 1
	// RegPC..: bodies may use the remaining registers freely.
	RegUser = 2
)

// Body is the program a process runs. Bodies are reconstructed from the
// registry after migration, so Run must be written to resume from the
// register blob and address-space contents alone: on entry it inspects
// ctx.Regs() (and ctx.Sending()/open requests) to decide where to
// continue.
type Body interface {
	Run(ctx *ProcCtx)
}

// BodyFunc adapts a function to Body.
type BodyFunc func(ctx *ProcCtx)

// Run implements Body.
func (f BodyFunc) Run(ctx *ProcCtx) { f(ctx) }

var bodyFactories = map[string]func() Body{}

// RegisterBody installs a factory for a program kind ("vvm", workload
// kinds). Registration happens in package init functions and must be
// unique.
func RegisterBody(kind string, f func() Body) {
	if _, dup := bodyFactories[kind]; dup {
		panic("kernel: duplicate body kind " + kind)
	}
	bodyFactories[kind] = f
}

// NewBody instantiates a body by kind.
func NewBody(kind string) Body {
	f := bodyFactories[kind]
	if f == nil {
		panic(fmt.Sprintf("kernel: unknown body kind %q", kind))
	}
	return f()
}

// ProcCtx is the system-call interface a body uses to interact with the
// kernel: CPU time, memory, and IPC. Every operation passes a freeze gate,
// so a frozen logical host stops at the next kernel interaction — and,
// when migration support is compiled in, pays the paper's 13 µs frozen
// check (§4.1).
type ProcCtx struct {
	host *Host
	proc *Process
	task *sim.Task
}

// gate charges the frozen check and blocks while the logical host is
// frozen.
func (c *ProcCtx) gate() {
	if c.host.MigrationOverhead {
		c.host.CPU.Use(c.task, params.FrozenCheckCPU, params.PrioKernel)
	}
	for c.proc.lh.frozen {
		c.proc.lh.unfreeze.Wait(c.task)
	}
}

// Host returns the hosting workstation (system servers only; migratable
// bodies must not retain host-specific references across blocking calls).
func (c *ProcCtx) Host() *Host { return c.host }

// Task returns the underlying simulation task.
func (c *ProcCtx) Task() *sim.Task { return c.task }

// PID returns the process's identifier.
func (c *ProcCtx) PID() vid.PID { return c.proc.PID() }

// Now returns the current virtual time.
func (c *ProcCtx) Now() sim.Time { return c.task.Now() }

// Regs returns the process's register blob.
func (c *ProcCtx) Regs() *Regs { return &c.proc.regs }

// Space returns the process's address space.
func (c *ProcCtx) Space() *mem.AddressSpace {
	as, ok := c.proc.lh.spaces[c.proc.spaceID]
	if !ok {
		panic(fmt.Sprintf("kernel: %v has no space %d", c.proc.PID(), c.proc.spaceID))
	}
	return as
}

// Compute consumes CPU time at the process's priority, yielding to the
// scheduler at quantum granularity and stopping while frozen.
func (c *ProcCtx) Compute(d time.Duration) {
	c.gate()
	c.host.CPU.UseGated(c.task, d, c.proc.prio, c.proc.lh.running)
}

// Steps consumes CPU for n virtual machine instructions.
func (c *ProcCtx) Steps(n int) {
	c.Compute(time.Duration(n) * params.InstrTime)
}

// Send performs a blocking message transaction.
func (c *ProcCtx) Send(dst vid.PID, msg vid.Message) (vid.Message, error) {
	c.StartSend(dst, msg)
	return c.AwaitReply()
}

// StartSend begins a send transaction. A body that may migrate while
// awaiting the reply records a resume phase in its registers and calls
// AwaitReply on re-entry (checking Sending()).
//
// The transaction is recorded in the port *before* the freeze gate: once
// the caller has committed (in its registers) to having issued this send,
// parking it must leave a state snapshot with the send in flight, not one
// where the send silently never happened. A freeze arriving here thus
// captures an issued transaction that the migrated copy resumes by
// retransmitting — the replier's duplicate detection keeps that exact-once.
func (c *ProcCtx) StartSend(dst vid.PID, msg vid.Message) {
	c.proc.port.StartSend(c.task, dst, msg)
	c.gate()
}

// SendGather performs a bounded gathering transaction: the message is
// sent (typically to a group) and *all* distinct replies arriving within
// the window are collected, rather than the first one completing the
// send. Sent to a single process it returns with that process's reply —
// the window then bounds only how long silence is waited out. Sent to a
// group it returns early once enough (nil: never) holds for the replies
// so far (ipc.Port.StartGather). Resident servers use it for load-aware
// host selection and replica votes; like any group send it is not
// preserved across migration, so migratable bodies should prefer Send.
func (c *ProcCtx) SendGather(dst vid.PID, msg vid.Message, window time.Duration, enough func([]ipc.GatherReply) bool) ([]ipc.GatherReply, error) {
	c.proc.port.StartGather(c.task, dst, msg, window, enough)
	c.gate()
	rs, err := c.proc.port.AwaitGather(c.task)
	c.gate()
	return rs, err
}

// Sending reports whether a send transaction is outstanding (set after a
// migration that interrupted a Send).
func (c *ProcCtx) Sending() bool { return c.proc.port.Sending() }

// AwaitReply completes an outstanding send transaction.
func (c *ProcCtx) AwaitReply() (vid.Message, error) {
	m, err := c.proc.port.AwaitReply(c.task)
	c.gate()
	return m, err
}

// ReleaseReply gives the segment of the reply the last Send or AwaitReply
// returned back to the kernel: the caller has copied out what it wants and
// kept no slice of it (ipc.Port.ReleaseReply). Optional, always.
func (c *ProcCtx) ReleaseReply() { c.proc.port.ReleaseReply() }

// ReleaseSeg gives a received request's segment back to the kernel: the
// caller has copied out what it wants and kept no slice of it
// (ipc.Port.ReleaseSeg). Optional, always.
func (c *ProcCtx) ReleaseSeg(r *ipc.Req) { c.proc.port.ReleaseSeg(r) }

// KeepSeg returns the segment of a received request as the process's own
// to keep (ipc.Port.KeepSeg).
func (c *ProcCtx) KeepSeg(r *ipc.Req) []byte { return c.proc.port.KeepSeg(r) }

// ReplyBuf lends a buffer to build the next reply's segment in
// (ipc.Port.ReplyBuf).
func (c *ProcCtx) ReplyBuf(n int) []byte { return c.proc.port.ReplyBuf(n) }

// Receive blocks for an incoming request.
func (c *ProcCtx) Receive() *ipc.Req {
	c.gate()
	r := c.proc.port.Receive(c.task)
	c.gate()
	return r
}

// ReceiveTimeout is Receive with a deadline (nil on expiry).
func (c *ProcCtx) ReceiveTimeout(d time.Duration) *ipc.Req {
	c.gate()
	r := c.proc.port.ReceiveTimeout(c.task, d)
	c.gate()
	return r
}

// OpenRequest re-derives the handle of a request that was mid-service when
// the process migrated.
func (c *ProcCtx) OpenRequest(src vid.PID) *ipc.Req { return c.proc.port.OpenRequest(src) }

// OpenRequests lists every request that was mid-service when the process
// migrated; a restored server finishes these before receiving new work.
func (c *ProcCtx) OpenRequests() []*ipc.Req { return c.proc.port.OpenRequests() }

// Reply answers a received request.
func (c *ProcCtx) Reply(r *ipc.Req, msg vid.Message) { c.ReplyNaming(r, msg, 0) }

// ReplyNaming answers a received request with a reply that names logical
// host lh, just made resident here, so that the requester learns where it
// is (ipc.Port.ReplyNaming).
func (c *ProcCtx) ReplyNaming(r *ipc.Req, msg vid.Message, lh vid.LHID) {
	c.gate()
	c.proc.port.ReplyNaming(c.task, r, msg, lh)
}

// JoinGroup adds this process to a global process group on its current
// host. Group membership is host-local state and does not migrate; only
// resident servers use groups.
func (c *ProcCtx) JoinGroup(g vid.PID) { c.host.JoinGroup(g, c.proc.PID()) }

// Exit terminates the process with the given code.
func (c *ProcCtx) Exit(code uint32) {
	panic(exitPanic{code: code})
}

// Sleep suspends the process for d of virtual time (it remains migratable;
// on the new host the remaining sleep is not preserved — bodies needing
// precise resumable delays should loop on Compute instead).
func (c *ProcCtx) Sleep(d time.Duration) {
	c.gate()
	c.task.Sleep(d)
	c.gate()
}

// Forever, as WaitFor's d, means no deadline.
const Forever time.Duration = -1

// WaitFor blocks the process until ready reports true or d has elapsed
// (Forever: no deadline), and reports ready's last answer. The process
// parks on q and re-tests ready each time q is woken, so whoever makes
// ready true must wake q. It is gated as Sleep is — a frozen check before
// parking and another after waking — and ready is first tested after the
// opening gate with nothing blocking between the test and the park, so a
// wake that lands while the gate is being charged is not lost.
func (c *ProcCtx) WaitFor(q *sim.WaitQ, d time.Duration, ready func() bool) bool {
	c.gate()
	deadline := c.Now().Add(d)
	ok := ready()
	for expired := false; !ok && !expired; ok = ready() {
		if d == Forever {
			q.Wait(c.task)
		} else {
			expired = q.WaitTimeout(c.task, deadline.Sub(c.Now())) == sim.WakeTimeout
		}
	}
	c.gate()
	return ok
}
