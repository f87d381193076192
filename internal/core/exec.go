package core

import (
	"errors"

	"vsystem/internal/kernel"
	"vsystem/internal/params"
	"vsystem/internal/progmgr"
	"vsystem/internal/sched"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// HostSel identifies a selected execution host.
type HostSel struct {
	PM       vid.PID
	SystemLH vid.LHID
	MemFree  uint32
}

// MAC returns the selected host's station address (derived from the
// system logical-host id, whose station field is the host index + 1).
func (s HostSel) MAC() uint16 { return s.SystemLH.Station() }

// ErrNoHost means no workstation answered a selection query.
var ErrNoHost = errors.New("core: no host available")

// selectVia routes a host-selection query through a workstation's
// scheduling selector (policy + cached load view) and adapts the result.
func selectVia(s *sched.Selector, ctx *kernel.ProcCtx, minMem uint32, exclude ...vid.LHID) (HostSel, error) {
	l, err := s.Select(ctx, minMem, exclude...)
	if err != nil {
		return HostSel{}, ErrNoHost
	}
	return HostSel{PM: l.PM, SystemLH: l.SystemLH, MemFree: l.MemFree}, nil
}

// FindHost resolves a workstation by name through the program-manager
// group (the `@ machine-name` form).
func FindHost(ctx *kernel.ProcCtx, name string) (HostSel, error) {
	m, err := ctx.Send(vid.GroupProgramManagers, vid.Message{
		Op:  progmgr.PmQueryHost,
		Seg: []byte(name),
	})
	if err != nil || !m.OK() {
		return HostSel{}, ErrNoHost
	}
	return HostSel{PM: vid.PID(m.W[5]), SystemLH: vid.LHID(m.W[0])}, nil
}

// Job is a handle to an executing program. A supervised job's wait and
// exit have one authority, its home: the home group, or the agent's own
// manager when the cluster runs none. An unsupervised job (Home
// Nil) is waited for at its hosting manager, following it as it moves.
type Job struct {
	Name string
	PID  vid.PID  // initial process
	LHID vid.LHID // the program's logical host (stable across migration)
	PM   vid.PID  // program manager currently responsible
	Home vid.PID  // the supervisor; Nil when unsupervised
	Host string   // where it started (diagnostic)
}

// ExecMinMem is the default free-memory requirement used for `@ *`
// selection when the image size is not yet known.
const ExecMinMem = 256 * 1024

// Exec runs a program, paralleling the command-interpreter syntax:
// where is "" (local), "*" (any idle machine), or a host name. Remote
// executions are supervised with the default restart budget.
func (a *Agent) Exec(prog string, args []string, where string) (*Job, error) {
	return a.ExecR(prog, args, where, params.ExecMaxRestarts)
}

// ExecR is Exec with an explicit restart budget (0 disables recovery):
// how many times the home program manager may re-execute the program from
// its file-server image if the hosting workstation is lost.
//
// The sequence follows §2.1: select a program manager, send it the
// program-creation request (it builds the address space, loads the image
// from the file server, initializes arguments, environment, and default
// I/O), then start the program by "replying to its initial process" — a
// start operation to the kernel server addressed through the new logical
// host. A remote job is then registered with the home program manager's
// session supervisor, which leases it from the hosting manager and
// recovers it if that host dies (§2.3's residual-dependency stance: the
// remote program should depend on nothing of the hosting workstation the
// home environment cannot replace).
func (a *Agent) ExecR(prog string, args []string, where string, maxRestarts int) (*Job, error) {
	ctx := a.ctx
	var sel HostSel
	var err error
	switch where {
	case "", "local":
		sel = HostSel{
			PM:       a.node.PM.PID(),
			SystemLH: a.node.Host.SystemLH().ID(),
		}
	case "*":
		// "some other lightly loaded machine" (§4.3): exclude the home
		// workstation.
		sel, err = selectVia(a.node.Selector, ctx, ExecMinMem, a.node.Host.SystemLH().ID())
	default:
		sel, err = FindHost(ctx, where)
	}
	if err != nil {
		return nil, err
	}
	guest := sel.SystemLH != a.node.Host.SystemLH().ID()
	home := vid.Nil // unsupervised: nobody is told of the exit
	if guest && maxRestarts > 0 {
		home = a.node.PM.PID()
		if a.node.cluster.homeEnabled() {
			home = vid.GroupHomePMs
		}
	}
	pid, lhid, err := a.node.PM.Launch(ctx, sel.PM, guest, prog, args, a.node.Display.PID(), home, 0)
	if err != nil {
		return nil, err
	}
	job := &Job{Name: prog, PID: pid, LHID: lhid, PM: sel.PM, Host: whereName(a, sel)}
	if home != vid.Nil {
		job.Home = a.superviseSession(&progmgr.SessionInfo{
			LHID: lhid, PID: pid, Name: prog, Args: args,
			Stdout: a.node.Display.PID(), MinMem: ExecMinMem,
			HostPM: sel.PM, HostLH: sel.SystemLH, MaxRestarts: maxRestarts,
		})
	}
	return job, nil
}

// superviseSession registers a remote job with its home and returns it:
// the replicated home group when the cluster runs one, else this
// workstation's own manager. The group's record lands in the consensus
// registry and survives any single member's death; the agent re-asks until
// a leader commits it. A failed group send has already ridden out the
// group's silence, and a member fenced as leader meanwhile serves the next
// copy, so the re-ask goes at once; a duplicate registers nothing.
func (a *Agent) superviseSession(si *progmgr.SessionInfo) vid.PID {
	if !a.node.cluster.homeEnabled() {
		a.node.PM.Supervise(a.ctx, *si)
		return a.node.PM.PID()
	}
	ask := vid.Message{Op: progmgr.PmSupervise, Seg: progmgr.EncodeSessionInfo(si)}
	for {
		if m, err := a.ctx.Send(vid.GroupHomePMs, ask); err == nil && m.OK() {
			return vid.GroupHomePMs
		}
	}
}

func whereName(a *Agent, sel HostSel) string {
	if n := a.node.cluster.NodeByLH(sel.SystemLH); n != nil {
		return n.Name()
	}
	return "?"
}

// ErrTooManyMoves means a Wait followed more CodeMoved redirects than
// WaitMaxMoves allows — a forwarding loop between managers rather than a
// legitimately mobile program — or heard nothing from the home group that
// many times in a row.
var ErrTooManyMoves = errors.New("core: wait followed too many moves")

// Wait blocks until the job exits. A supervised job is waited for at its
// home, which holds the waiter (§3.1.3's reply-pending) through the loss
// and re-execution of its host until the session is done or failed; a
// home-group member deposed meanwhile hands it back to the group with
// CodeMoved. An unsupervised job is waited for at its manager, following
// the program across migrations (a manager that no longer runs it answers
// CodeMoved with the new manager's pid and, for a program re-executed
// under a fresh identity, its new LHID). The redirect chain, and a streak
// of home-group silences, are capped at params.WaitMaxMoves so a buggy or
// split-brain manager pair cannot bounce a waiter forever.
func (a *Agent) Wait(job *Job) (uint32, error) {
	to, lhid, w5 := job.PM, job.LHID, uint32(0)
	if job.Home != vid.Nil {
		// The flag makes every home-group member but the current leader
		// stay silent, so the group send has one authority.
		to, w5 = job.Home, progmgr.PmWaitHome
	}
	// A silent group send ends GroupAbortAfterRetries+1 intervals after it
	// starts; one that lasted an interval longer was held.
	held := (params.GroupAbortAfterRetries + 2) * params.RetransmitInterval
	for moves := 0; moves <= params.WaitMaxMoves; moves++ {
		sent := a.Now()
		m, err := a.ctx.Send(to, vid.Message{
			Op: progmgr.PmWaitProgram,
			W:  [6]uint32{uint32(lhid), 0, 0, 0, 0, w5},
		})
		switch {
		case err != nil && !to.IsGroup():
			return 0, err
		case err != nil:
			// Silence from the home group is an election.
			if a.Now().Sub(sent) >= held {
				moves = 0 // held until its leader died: a new streak
			}
			a.Sleep(params.LeaseInterval)
		case m.Code == progmgr.CodeMoved:
			to = vid.PID(m.W[1])
			if nl := vid.LHID(m.W[2]); nl != 0 {
				lhid = nl
			}
			if job.Home == vid.Nil {
				job.PM, job.LHID = to, lhid
			}
		case !m.OK():
			return 0, m.Err()
		default:
			return m.W[0], nil
		}
	}
	return 0, ErrTooManyMoves
}

// Migrate asks the job's current program manager to move it elsewhere
// (`migrateprog`). kill corresponds to the -n flag: destroy the program if
// no host will take it. On success the job's manager is updated from the
// report.
func (a *Agent) Migrate(job *Job, kill bool) (*MigrationReport, error) {
	w1 := uint32(0)
	if kill {
		w1 = 1
	}
	m, err := a.ctx.Send(job.PM, vid.Message{
		Op: progmgr.PmMigrateProgram,
		W:  [6]uint32{uint32(job.LHID), w1},
	})
	if err != nil {
		return nil, err
	}
	if !m.OK() {
		// The manager relays the failure phase in the refused reply
		// (W[0] = phase+1, W[1] = pre-copy round); reconstruct the typed
		// error so callers can errors.Is/As it.
		if m.W[0] != 0 {
			return nil, &PhaseError{
				Phase: trace.Phase(m.W[0] - 1), Round: int(m.W[1]), Err: m.Err(),
			}
		}
		return nil, m.Err()
	}
	if len(m.Seg) == 0 {
		return nil, nil // destroyed (-n with no host)
	}
	rep, err := DecodeReport(m.Seg)
	if err != nil {
		return nil, err
	}
	job.PM = rep.NewPM
	return rep, nil
}

// MigrateAll asks a node's program manager to remove all guest programs
// (`migrateprog` with no argument, the owner-returns operation).
func (a *Agent) MigrateAll(n *Node, kill bool) error {
	w1 := uint32(0)
	if kill {
		w1 = 1
	}
	m, err := a.ctx.Send(n.PM.PID(), vid.Message{
		Op: progmgr.PmMigrateProgram,
		W:  [6]uint32{0, w1},
	})
	if err != nil {
		return err
	}
	return m.Err()
}

// PS returns the program listing of a node.
func (a *Agent) PS(n *Node) (string, error) {
	m, err := a.ctx.Send(n.PM.PID(), vid.Message{Op: progmgr.PmQueryPrograms})
	if err != nil {
		return "", err
	}
	return m.SegString(), nil
}

// Select performs one decentralized host-selection query (experiments),
// through the node's configured selection policy.
func (a *Agent) Select(minMem uint32) (HostSel, error) {
	return selectVia(a.node.Selector, a.ctx, minMem, a.node.Host.SystemLH().ID())
}

// CreateProgram sets up an execution environment on the selected host
// without starting the program (the experiment harness uses this to
// separate environment setup/teardown cost from execution).
func (a *Agent) CreateProgram(sel HostSel, prog string, args []string) (*Job, error) {
	guest := sel.SystemLH != a.node.Host.SystemLH().ID()
	pid, lhid, err := progmgr.Create(a.ctx, sel.PM, guest, prog, args, a.node.Display.PID(), vid.Nil)
	if err != nil {
		return nil, err
	}
	return &Job{Name: prog, PID: pid, LHID: lhid, PM: sel.PM}, nil
}

// DestroyProgram tears a program down through its manager.
func (a *Agent) DestroyProgram(job *Job) error {
	m, err := a.ctx.Send(job.PM, vid.Message{
		Op: progmgr.PmDestroyProgram,
		W:  [6]uint32{uint32(job.LHID)},
	})
	if err != nil {
		return err
	}
	return m.Err()
}

// Suspend freezes a running program wherever it is — suspension is
// transparent to location (§2).
func (a *Agent) Suspend(job *Job) error {
	m, err := a.ctx.Send(job.PM, vid.Message{Op: progmgr.PmSuspendProgram, W: [6]uint32{uint32(job.LHID)}})
	if err != nil {
		return err
	}
	return m.Err()
}

// Resume unfreezes a suspended program.
func (a *Agent) Resume(job *Job) error {
	m, err := a.ctx.Send(job.PM, vid.Message{Op: progmgr.PmResumeProgram, W: [6]uint32{uint32(job.LHID)}})
	if err != nil {
		return err
	}
	return m.Err()
}

// Inspect reads a process's registers through the kernel server of its
// logical host — the V debugger's remote-transparent primitive (§6). It
// works wherever the program currently runs.
func (a *Agent) Inspect(pid vid.PID) (kernel.Regs, uint32, error) {
	m, err := a.ctx.Send(kernel.KernelServerPID(pid.LH()), vid.Message{
		Op: kernel.KsQueryProcess, W: [6]uint32{uint32(pid)},
	})
	if err != nil {
		return kernel.Regs{}, 0, err
	}
	if !m.OK() {
		return kernel.Regs{}, 0, m.Err()
	}
	regs, err := kernel.DecodeRegs(m.Seg)
	return regs, m.W[0], err
}
