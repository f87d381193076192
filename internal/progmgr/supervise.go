package progmgr

import (
	"fmt"
	"strings"
	"time"

	"vsystem/internal/display"
	"vsystem/internal/ipc"
	"vsystem/internal/kernel"
	"vsystem/internal/params"
	"vsystem/internal/rsm"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
	"vsystem/internal/vvm"
)

// ---------------------------------------------------------------------------
// Exec-session supervision: leases and automatic guest recovery.
//
// The paper's stance on residual dependencies (§2.3) is that a remotely
// executed program should depend only on its home environment, so losing
// the hosting workstation should be no worse for the *user* than losing a
// local program. The supervisor closes that loop: the originating program
// manager keeps a session record per remote job, heartbeats the hosting
// manager with PmRenewLease, and on lease loss re-executes the program
// from its file-server image on a freshly selected host, with bounded
// attempts. Output is deduplicated by the display server (the session's
// one home-bound dependency), so the user-visible stream is exactly-once.
//
// The supervisor's state is the session registry (registry.go), changed
// only through commit. With a home program-manager group (EnableHomeGroup)
// member managers replicate the registry through an rsm log; only the
// fenced leader runs the lease worker's renew/recover actions, and a failed
// leader's successor resumes them from the committed registry.
// Re-execution is double-fenced: the PmLocateProgram group query (only the
// running host answers) plus a committed restart-intent — a stale minority
// leader cannot commit the intent, so it can never start a second
// incarnation.
//
// The home display is deliberately NOT in the group: it is the session's
// one irreducible home dependency (the user's screen), and its per-chain
// delivered/lead counts already make re-executed output exactly-once.

// Home-group operations (0x3D region, after the PmLocateProgram block).
const (
	// PmSupervise: Seg = gob SessionInfo — register a session with the
	// home group. Only the group leader answers (commits, then OK);
	// followers stay silent, so agents address the group.
	PmSupervise uint16 = 0x3D
	// PmNoteExited: W0 = LHID, W1 = exit code — the hosting manager's
	// lease worker reports a supervised program's exit to its home, which
	// ends the session. Leader-only, like PmSupervise.
	PmNoteExited uint16 = 0x3E
)

// PmWaitHome in PmWaitProgram's W5 marks a wait addressed to the home
// group's registry: only the group leader answers (or holds the waiter);
// every other member stays silent. Without the flag PmWaitProgram keeps
// its hosting-manager semantics.
const PmWaitHome uint32 = 1

// EnableHomeGroup attaches this manager to the home replica group as
// member id of n. The caller owns store — the member's durable log — and
// re-passes it when the manager is restarted after a crash.
func (pm *PM) EnableHomeGroup(id, n int, store *rsm.Store) {
	pm.svc.Replicate(pm.host, vid.GroupHomePMs, rsm.Config{
		Name: "home", Group: vid.GroupHomeRSM, ID: id, N: n,
		// Only the leader acts on sessions: a promoted member must renew at
		// once, a deposed one hand its held waiters back to the group.
		OnLeading: pm.kickLease,
	}, store)
}

// HomeReplica returns the manager's home-group replica (nil when the
// manager is not a group member).
func (pm *PM) HomeReplica() *rsm.Replica { return pm.svc.Replica() }

// commit is the one way the manager changes its session registry. A
// non-nil error means the mutation did not happen under this manager's
// leadership — a leader that cannot commit has lost its majority — and the
// caller must not act on the mutation's assumption.
func (pm *PM) commit(ctx *kernel.ProcCtx, c hgCmd) error {
	_, err := pm.svc.Commit(ctx, c)
	return err
}

// SupStats counts a manager's supervision activity. The trace-event
// parity invariant holds cluster-wide: summed over all managers,
// LeaseExpires == EvLeaseExpire and ExecRestarts == EvExecRestart.
type SupStats struct {
	// LeaseRenews counts successful PmRenewLease round trips.
	LeaseRenews int64
	// LeaseExpires counts sessions broken by a failed or refused renewal —
	// every break, a hosting workstation's death included: the renewal is
	// how the leader learns of it.
	LeaseExpires int64
	// ExecRestarts counts programs re-executed from their image — session
	// recoveries plus eviction re-executions.
	ExecRestarts int64
}

// SupStats snapshots the supervision counters.
func (pm *PM) SupStats() SupStats { return pm.sup }

// SessionInfo describes a remote job to Supervise.
type SessionInfo struct {
	LHID        vid.LHID
	PID         vid.PID
	Name        string
	Args        []string
	Stdout      vid.PID
	MinMem      uint32
	HostPM      vid.PID
	HostLH      vid.LHID
	MaxRestarts int
}

// Supervise registers a remote job for lease supervision. Called by the
// originating agent (same host) right after the program starts, so it
// names a new job: LHIDs recycle, and a record already under this one is
// an earlier job's and is dropped first. (A PmSupervise, by contrast, may
// be a retry and never replaces a record.) With a home group the agent
// sends PmSupervise instead, until a leader commits the record to the
// replicated registry.
func (pm *PM) Supervise(ctx *kernel.ProcCtx, si SessionInfo) {
	if pm.reg.session(si.LHID) != nil {
		pm.commit(ctx, hgCmd{Kind: hgForget, Orig: si.LHID})
	}
	pm.commit(ctx, hgCmd{Kind: hgSupervise, Sess: &si, At: int64(ctx.Now())})
}

// supervise serves PmSupervise: the leader commits the record and answers;
// followers stay silent.
func (pm *PM) supervise(ctx *kernel.ProcCtx, req *ipc.Req) {
	if !pm.svc.Admit(ctx, req) {
		return
	}
	si, err := DecodeSessionInfo(req.Msg.Seg)
	if err != nil {
		ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
		return
	}
	if err := pm.commit(ctx, hgCmd{Kind: hgSupervise, Sess: si, At: int64(ctx.Now())}); err != nil {
		pm.svc.Refuse(ctx, req, err)
		return
	}
	ctx.Reply(req, vid.Message{Op: PmSupervise})
}

// NoteExited marks a supervised session finished, stopping further lease
// traffic, if lhid is its current incarnation. On a home-group member
// that does not lead, the commit is refused and nothing is recorded: the
// leader's next renewal learns the exit code from the hosting manager.
func (pm *PM) NoteExited(ctx *kernel.ProcCtx, lhid vid.LHID, code uint32) error {
	if s := pm.reg.lookup(lhid); s != nil && s.Cur == lhid && !s.resolved() {
		return pm.commit(ctx, hgCmd{Kind: hgDone, Orig: s.Orig, Code: code})
	}
	return nil
}

// noteExited serves PmNoteExited: commit the exit so no replica keeps
// renewing the dead session after a fail-over.
func (pm *PM) noteExited(ctx *kernel.ProcCtx, req *ipc.Req) {
	if !pm.svc.Admit(ctx, req) {
		return
	}
	if err := pm.NoteExited(ctx, vid.LHID(req.Msg.W[0]), req.Msg.W[1]); err != nil {
		pm.svc.Refuse(ctx, req, err)
		return
	}
	ctx.Reply(req, vid.Message{Op: PmNoteExited})
}

// SessionView is one supervised session, for operator tooling.
type SessionView struct {
	LHID        vid.LHID // original LHID — the job handle
	CurLH       vid.LHID
	PID         vid.PID
	Name        string
	HostLH      vid.LHID
	Incarnation int
	Restarts    int
	State       string
	LeaseAge    time.Duration
	ExitCode    uint32
}

// Sessions lists the manager's supervised sessions, ordered by original
// LHID.
func (pm *PM) Sessions() []SessionView {
	out := make([]SessionView, 0, len(pm.reg.sessions))
	for _, s := range pm.reg.sessions {
		out = append(out, SessionView{
			LHID: s.Orig, CurLH: s.Cur, PID: s.PID, Name: s.Name,
			HostLH: s.HostLH, Incarnation: s.Incarnation, Restarts: s.Restarts,
			State: s.State.String(), LeaseAge: pm.host.Eng.Now().Sub(s.LastRenew),
			ExitCode: s.ExitCode,
		})
	}
	return out
}

// reapJob is one message the lease worker sends with retry: an exit note,
// or the destruction of a remote program created but never started (the
// start failed or was partitioned away) or left behind by a failed
// recovery attempt.
type reapJob struct {
	pm       vid.PID
	msg      vid.Message
	attempts int
	next     sim.Time
}

// ReapRemote queues a created-but-unstarted remote program for destruction
// once its manager is reachable again, so a failed Exec cannot leak the
// execution environment it created.
func (pm *PM) ReapRemote(target vid.PID, lhid vid.LHID) {
	pm.queueSend(target, vid.Message{Op: PmDestroyProgram, W: [6]uint32{uint32(lhid)}})
}

// queueSend has the lease worker send msg to target now, and again while
// target cannot be reached; the reaper must not block on a send.
func (pm *PM) queueSend(target vid.PID, msg vid.Message) {
	pm.reapQ = append(pm.reapQ, &reapJob{pm: target, msg: msg, next: pm.host.Eng.Now()})
	pm.kickLease()
}

// reapRetry paces reap attempts against an unreachable manager.
const reapRetry = 2 * time.Second

// reapMaxAttempts bounds reaping of a manager that never comes back (its
// programs died with it anyway).
const reapMaxAttempts = 10

// kickLease tells the lease worker that something it acts on may have
// changed: the registry, a session's waiters, the reap queue, or whether
// this manager leads. Callable from any context.
func (pm *PM) kickLease() {
	pm.leaseKick = true
	pm.leaseWake.WakeAll()
}

// leaseDeadline returns the earliest instant at which the lease worker has
// work that no kick will announce; ok is false when there is none.
func (pm *PM) leaseDeadline() (at sim.Time, ok bool) {
	due := func(t sim.Time) {
		if !ok || t < at {
			at, ok = t, true
		}
	}
	for _, j := range pm.reapQ {
		due(j.next)
	}
	if pm.svc.Leading() {
		for _, s := range pm.reg.sessions {
			switch s.State {
			case sessionActive:
				due(s.LastRenew.Add(params.LeaseInterval))
			case sessionBroken:
				due(s.NextRetry)
			}
		}
	}
	return at, ok
}

// leaseLoop is the pm-lease worker: it renews session leases, recovers
// broken sessions, and drains the remote-reap queue. Between passes it
// parks until the earliest deadline it holds — for ever when it holds
// none — or until kickLease; a kick that lands during a pass starts
// another straight away.
func (pm *PM) leaseLoop(ctx *kernel.ProcCtx) {
	for {
		pm.leaseKick = false
		pm.leasePass(ctx)
		d := kernel.Forever
		if at, ok := pm.leaseDeadline(); ok {
			d = max(0, at.Sub(ctx.Now()))
		}
		ctx.WaitFor(&pm.leaseWake, d, func() bool { return pm.leaseKick })
	}
}

// leasePass does everything that is due now. Sessions are visited in LHID
// order, the registry's; the pass walks a copy of their ids, as a send can
// block while the registry changes.
func (pm *PM) leasePass(ctx *kernel.ProcCtx) {
	pm.drainReapQ(ctx)
	// With a home group only the fenced leader acts on live sessions; a
	// follower (or deposed leader) instead points any waiters it holds
	// back at the group, where the current leader will hold or answer
	// them. Exit results are served by every replica.
	leading := pm.svc.Leading()
	pm.leaseIDs = pm.leaseIDs[:0]
	for _, s := range pm.reg.sessions {
		pm.leaseIDs = append(pm.leaseIDs, s.Orig)
	}
	for i, id := range pm.leaseIDs {
		switch s := pm.reg.sessionAt(i, id); {
		case s == nil || len(s.waiters) == 0 && (s.resolved() || !leading):
			// Forgotten while an earlier session's send blocked, or idle:
			// nothing to answer, and nothing this manager renews or recovers.
		case s.resolved():
			pm.flushWaiters(ctx, s, s.fate())
		case !leading:
			pm.flushWaiters(ctx, s, fate{kind: fateMoved, pm: vid.GroupHomePMs, lh: s.Cur})
		case s.State == sessionActive && ctx.Now().Sub(s.LastRenew) >= params.LeaseInterval:
			pm.renew(ctx, s)
		case s.State == sessionBroken && ctx.Now() >= s.NextRetry:
			pm.recover(ctx, s)
		}
	}
}

// fate is what a resolved session's state says of its program: done is
// exited, and failed is answered as lost is. An active or broken session
// has no fate yet.
func (s *session) fate() fate {
	switch s.State {
	case sessionDone:
		return fate{kind: fateExited, code: s.ExitCode}
	case sessionFailed:
		return fate{kind: fateLost}
	}
	return fate{}
}

func (pm *PM) flushWaiters(ctx *kernel.ProcCtx, s *session, f fate) {
	ws := s.waiters
	s.waiters = nil
	pm.answer(ctx.Task(), ws, s.Orig, f)
}

// renew is one lease heartbeat with the hosting manager.
func (pm *PM) renew(ctx *kernel.ProcCtx, s *session) {
	m, err := ctx.Send(s.HostPM, vid.Message{Op: PmRenewLease, W: [6]uint32{uint32(s.Cur)}})
	if s.State != sessionActive {
		return // broken or resolved while the send blocked
	}
	switch {
	case err == nil && m.Code == CodeMoved:
		// The hosting manager migrated or re-executed the program away:
		// follow the forwarding record. A topology change must survive a
		// home fail-over, so it is a registry mutation.
		hostPM := vid.PID(m.W[1])
		if pm.commit(ctx, hgCmd{
			Kind: hgRenewed, Orig: s.Orig, At: int64(ctx.Now()),
			HostPM: uint32(hostPM), HostLH: uint32(hostPM.LH()), NewLH: m.W[2],
		}) != nil {
			return // lost the majority; the next leader follows the move
		}
		pm.sup.LeaseRenews++
	case err == nil && m.OK() && m.W[1] == 1:
		// Plain renewal: leader-local only. A follower promoted later sees
		// a stale lastRenew and simply renews immediately — cheaper than a
		// log entry per heartbeat.
		s.LastRenew = ctx.Now()
		pm.sup.LeaseRenews++
	case err == nil && m.OK() && m.W[1] == 2:
		pm.commit(ctx, hgCmd{Kind: hgDone, Orig: s.Orig, Code: m.W[2]})
	default:
		// Transport failure (timeout or host-down) or not-found: the
		// lease is lost and the session is broken.
		pm.expireLease(ctx, s)
	}
}

// expireLease breaks a session on lease loss, with the trace event and
// counter. It is the only way a session breaks: a hosting workstation's
// death reaches the leader as a renewal its detector fails with
// CodeHostDown.
func (pm *PM) expireLease(ctx *kernel.ProcCtx, s *session) {
	if pm.commit(ctx, hgCmd{Kind: hgBreak, Orig: s.Orig, At: int64(ctx.Now())}) != nil {
		return // deposed; the next leader re-detects the loss itself
	}
	pm.sup.LeaseExpires++
	pm.host.Trace().Publish(trace.Event{
		At: ctx.Now(), Host: uint16(pm.host.NIC.MAC()), Kind: trace.EvLeaseExpire,
		LH: s.Cur, Peer: s.HostLH.Station(),
	})
}

// recover resolves a broken session: find the program if some host still
// runs it, else re-execute it from its image, else fail the session.
func (pm *PM) recover(ctx *kernel.ProcCtx, s *session) {
	// 1. Double-execution guard: ask the manager group who runs it. Only
	// the manager actually running the program answers (everyone else
	// keeps silent), so one reply is authoritative; the group send is
	// bounded by the short group abort, not the full unicast allowance.
	m, err := ctx.Send(vid.GroupProgramManagers, vid.Message{
		Op: PmLocateProgram, W: [6]uint32{uint32(s.Cur)},
	})
	if s.State != sessionBroken {
		return
	}
	if err == nil && m.OK() {
		// Still running — the host was falsely suspected, or the program
		// moved and the forwarding record died with its manager.
		pm.commit(ctx, hgCmd{
			Kind: hgRenewed, Orig: s.Orig, At: int64(ctx.Now()),
			HostPM: m.W[5], HostLH: m.W[0],
		})
		return
	}
	// 2. Nobody runs it: re-execute, with bounded attempts.
	if s.Restarts >= s.MaxRestarts || pm.Selector == nil {
		pm.failSession(ctx, s)
		return
	}
	// Commit the restart intent BEFORE creating anything: this is the
	// fence that makes a stale minority leader harmless. It cannot reach a
	// majority, so its commit times out here and no second incarnation is
	// ever started — the locate query above plus this committed intent
	// together uphold the double-execution guard across views.
	if pm.commit(ctx, hgCmd{Kind: hgIntent, Orig: s.Orig, Attempt: s.Restarts + 1}) != nil {
		return
	}
	if !pm.reexecSession(ctx, s) {
		if s.Restarts >= s.MaxRestarts {
			pm.failSession(ctx, s)
			return
		}
		// Exponential backoff before the next attempt.
		backoff := ctx.Now().Add(params.ExecRestartBackoff << (s.Restarts - 1))
		pm.commit(ctx, hgCmd{Kind: hgRetryAt, Orig: s.Orig, At: int64(backoff)})
	}
}

// reexecSession runs one recovery attempt on a host that is neither the
// lost one nor our own, and records the new incarnation.
func (pm *PM) reexecSession(ctx *kernel.ProcCtx, s *session) bool {
	l, err := pm.Selector.Select(ctx, s.MinMem, s.HostLH, pm.host.SystemLH().ID())
	if err != nil {
		return false
	}
	home := pm.PID()
	if pm.HomeReplica() != nil {
		home = vid.GroupHomePMs
	}
	newPID, newLH, err := pm.Launch(ctx, l.PM, true, s.Name, s.Args, s.Stdout, home, s.Cur)
	if err != nil {
		return false
	}
	if pm.commit(ctx, hgCmd{
		Kind: hgRebind, Orig: s.Orig, At: int64(ctx.Now()),
		NewLH: uint32(newLH), NewPID: uint32(newPID),
		HostPM: uint32(l.PM), HostLH: uint32(l.SystemLH),
	}) != nil {
		// Deposed between start and commit: this incarnation is not in
		// the replicated registry, so destroy it best-effort. Should the
		// destroy also fail, the orphan is bounded by maxRestarts and
		// the display's adoption counts keep user output exactly-once.
		pm.DestroyRemote(ctx, l.PM, newLH)
		return false
	}
	pm.sup.ExecRestarts++
	pm.host.Trace().Publish(trace.Event{
		At: ctx.Now(), Host: uint16(pm.host.NIC.MAC()), Kind: trace.EvExecRestart,
		LH: newLH, Peer: l.SystemLH.Station(), Prio: s.Incarnation,
	})
	return true
}

// Launch is the one way a program is started (§2.1). The manager target
// creates its environment (a guest one when guest is set) with output to
// stdout and its exit noted to home, and the creator — ctx, on this
// manager's workstation — starts it by "replying to its initial process"
// through the kernel server of the new logical host. A re-execution names
// the logical host it supersedes: the new copy replays output from the
// start, and the display suppresses what the earlier incarnation already
// delivered, so the adoption notice must land before the start. An
// environment that was created but never started is destroyed, or left to
// this manager's retrying reaper.
func (pm *PM) Launch(ctx *kernel.ProcCtx, target vid.PID, guest bool, name string, args []string,
	stdout, home vid.PID, supersedes vid.LHID) (vid.PID, vid.LHID, error) {

	pid, lhid, err := Create(ctx, target, guest, name, args, stdout, home)
	if err != nil {
		return vid.Nil, 0, err
	}
	if supersedes != 0 && stdout != vid.Nil {
		ctx.Send(stdout, vid.Message{Op: display.OpAdopt, W: [6]uint32{uint32(supersedes), uint32(lhid)}})
	}
	m, err := ctx.Send(kernel.KernelServerPID(lhid), vid.Message{
		Op: kernel.KsStartProcess, W: [6]uint32{uint32(pid)},
	})
	if err == nil {
		err = m.Err()
	} else if ranToExit(ctx, target, lhid) {
		err = nil // the go-ahead arrived; only its reply was lost
	}
	if err != nil {
		pm.DestroyRemote(ctx, target, lhid)
		return vid.Nil, 0, err
	}
	return pid, lhid, nil
}

// Create asks the manager target to set up a program's execution
// environment, whose exit it reports to home, without starting it, and
// returns its initial process and logical host.
func Create(ctx *kernel.ProcCtx, target vid.PID, guest bool, name string, args []string,
	stdout, home vid.PID) (vid.PID, vid.LHID, error) {

	w1 := uint32(0)
	if guest {
		w1 = 1
	}
	m, err := ctx.Send(target, vid.Message{
		Op: PmCreateProgram, W: [6]uint32{uint32(stdout), w1, uint32(home)},
		Seg: []byte(strings.Join(append([]string{name}, args...), "\x00")),
	})
	if err == nil {
		err = m.Err()
	}
	if err != nil {
		return vid.Nil, 0, err
	}
	return vid.PID(m.W[0]), vid.LHID(m.W[1]), nil
}

// ranToExit reports whether the manager target has lhid down as exited. A
// start whose reply frame is lost is normally answered again from the
// kernel server's reply cache, but a program shorter than one
// retransmission interval has exited by then, its logical host — the
// address the go-ahead was sent to — is gone, and the retransmissions meet
// silence that reads as host-down. The manager remembers exits, so ask it
// (with the lease heartbeat, which never blocks) before calling the start
// failed.
func ranToExit(ctx *kernel.ProcCtx, target vid.PID, lhid vid.LHID) bool {
	m, err := ctx.Send(target, vid.Message{Op: PmRenewLease, W: [6]uint32{uint32(lhid)}})
	return err == nil && m.OK() && m.W[1] == 2
}

// DestroyRemote tears down a program created on another manager, leaving
// it to the retrying reaper when that manager cannot be reached.
func (pm *PM) DestroyRemote(ctx *kernel.ProcCtx, target vid.PID, lhid vid.LHID) {
	if _, err := ctx.Send(target, vid.Message{
		Op: PmDestroyProgram, W: [6]uint32{uint32(lhid)},
	}); err != nil {
		pm.ReapRemote(target, lhid)
	}
}

// failSession gives up on a session: waiters see an abort and the user
// gets a notification line.
func (pm *PM) failSession(ctx *kernel.ProcCtx, s *session) {
	if pm.commit(ctx, hgCmd{Kind: hgFailed, Orig: s.Orig}) != nil {
		return // deposed; the next leader decides the session's fate
	}
	pm.flushWaiters(ctx, s, s.fate())
	if s.Stdout != vid.Nil {
		ctx.Send(s.Stdout, vid.Message{Op: vvm.OpWriteLine, Seg: []byte(
			fmt.Sprintf("[progmgr %s] %s: host lost, restarts exhausted; giving up", pm.host.Name, s.Name)),
		})
	}
}

// drainReapQ sends every queued message that is due. A job that fails
// again goes to the back with a later time, so the loop ends.
func (pm *PM) drainReapQ(ctx *kernel.ProcCtx) {
	for i := 0; i < len(pm.reapQ); {
		j := pm.reapQ[i]
		if ctx.Now() < j.next {
			i++
			continue
		}
		pm.reapQ = append(pm.reapQ[:i], pm.reapQ[i+1:]...)
		if _, err := ctx.Send(j.pm, j.msg); err != nil {
			// Unreachable (or still down): try again later, boundedly. Any
			// definitive reply — OK, not-found or refused — settles the job.
			j.attempts++
			if j.attempts < reapMaxAttempts {
				j.next = ctx.Now().Add(reapRetry)
				pm.reapQ = append(pm.reapQ, j)
			}
		}
	}
}
