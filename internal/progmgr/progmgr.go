// Package progmgr implements the per-workstation program manager.
//
// The program manager (well-known local index 2, member of the well-known
// program-manager group) provides program management for the programs
// executing on its workstation (§2.1): it answers host-selection queries,
// creates execution environments (address space, loaded image, argument
// and environment initialization), tracks running programs, tears them
// down on exit, and coordinates the receiving side of migration. The
// sending side of migration — the pre-copy engine — is injected by the
// core package as a Migrator, mirroring the paper's split between the
// migration module added to the program manager and the kernel operations
// it drives.
package progmgr

import (
	"fmt"
	"strings"
	"time"

	"vsystem/internal/fileserver"
	"vsystem/internal/image"
	"vsystem/internal/ipc"
	"vsystem/internal/kernel"
	"vsystem/internal/params"
	"vsystem/internal/rsm"
	"vsystem/internal/sched"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
	"vsystem/internal/vvm"
)

// Operations (0x30 region).
const (
	// PmQueryHost: Seg=hostname → reply only from the named host:
	// W0=system LH, W5=PM pid.
	PmQueryHost uint16 = 0x30 + iota
	// PmSelectHost: W0=min free memory (bytes), W1..W4=excluded system
	// LHs, W5=sched query flags (0 = the paper's strict query) → reply
	// only from willing hosts: W = the host's load advertisement
	// (LoadWords: W0=system LH, W1=free memory, W2=ready depth,
	// W3=residents, W4=util‰, W5=PM pid). Unwilling hosts stay silent,
	// unless QueryUnicast asks for an explicit refusal; QueryRelaxed
	// drops the idleness requirement (memory still applies).
	PmSelectHost
	// PmCreateProgram: W0=stdout PID, W1=guest flag, W2=home (sent
	// PmNoteExited at the exit; Nil: none), Seg=program name NUL-joined
	// with arguments → W0=initial process PID, W1=LHID.
	PmCreateProgram
	// PmWaitProgram: W0=LHID, W5=PmWaitHome at a supervised program's
	// home, which holds it until the session resolves → replies when the
	// program exits (W0=exit code) or is not here: CodeMoved (W1=new PM
	// pid, W2 as for PmRenewLease), CodeAborted when it was lost, else
	// CodeNotFound.
	PmWaitProgram
	// PmMigrateProgram: W0=LHID (0 = all guest programs), W1=1 to
	// destroy if no host found (-n) → Seg = gob MigrationReport; with -n
	// and no host, W0=1: the program is gone from this host (destroyed,
	// or it exited while the migration was tried).
	PmMigrateProgram
	// PmInitMigration: W0=page sources (PagesIn*), Seg = InitReq →
	// W0=placeholder LHID, W1=target system LH, W5=PM pid; CodeNoMemory
	// when the host cannot hold the copy or its id range is spent.
	PmInitMigration
	// PmQueryPrograms: → Seg = listing, one program per line.
	PmQueryPrograms
	// PmDestroyProgram: W0=LHID.
	PmDestroyProgram
	// PmAssumeMigration: W0=final LHID, W1=the residue receptacle at the
	// source (as KsUnfreezeLH's) — the source's notice that the incoming
	// copy has assumed its identity and now belongs to this manager.
	PmAssumeMigration
	// PmSuspendProgram: W0=LHID — freeze the program (the transparent
	// suspend of §2: "facilities for terminating, suspending and
	// debugging programs work independent of whether the program is
	// executing locally or remotely").
	PmSuspendProgram
	// PmResumeProgram: W0=LHID — unfreeze a suspended program.
	PmResumeProgram
	// PmRenewLease: the originating manager's session heartbeat.
	// W0=LHID → W1=1 (running, lease renewed) or W1=2 (exited, W2=exit
	// code); CodeMoved with W1=new manager pid and W2=new LHID (0: LHID
	// unchanged) when the program moved; CodeNotFound when this manager
	// knows nothing of it.
	PmRenewLease
	// PmLocateProgram: group query during session recovery — W0=LHID.
	// Only the manager currently *running* the program (not an incoming
	// receptacle) replies, with W0=its system LH and W5=its pid; every
	// other manager stays silent so the first group reply is
	// authoritative. This is the double-execution guard: a supervisor
	// never re-executes a program some host still runs.
	PmLocateProgram
)

// CodeMoved is the WaitProgram reply code when the program migrated; W1
// holds the program manager now responsible.
const CodeMoved uint16 = 100

// progInfo tracks one program.
type progInfo struct {
	lh       *kernel.LogicalHost
	name     string
	args     []string
	stdout   vid.PID
	guest    bool
	incoming bool     // migration receptacle, not yet assumed
	srcLH    vid.LHID // migration source's system LH (incoming only)
	pages    uint32   // where the migration left pages the copy lacks (incoming only; PagesIn*)
	home     vid.PID  // told of the exit (PmCreateProgram W2); Nil: nobody
	waiters  []*ipc.Req
}

// fate is what became of a program this manager no longer runs, kept so
// that late waiters and lease renewals get an answer. A later fate under a
// recycled LHID replaces an earlier one.
type fate struct {
	kind fateKind
	code uint32   // exited: the exit code (0xDEAD: destroyed)
	pm   vid.PID  // moved: the manager now responsible
	lh   vid.LHID // moved: the program's LHID there
}

type fateKind uint8

const (
	fateUnknown fateKind = iota // nothing recorded
	fateExited
	fateMoved
	fateLost // torn down administratively (post-copy residue loss)
)

// reply is the one answer to a PmWaitProgram or PmRenewLease (op) about
// lhid from a manager that does not run the program, in the words the ops'
// comments give; a renewal reads lost as not-found.
func (f fate) reply(op uint16, lhid vid.LHID) vid.Message {
	switch f.kind {
	case fateExited:
		if op == PmRenewLease {
			return vid.Message{Op: op, W: [6]uint32{0, 2, f.code}}
		}
		return vid.Message{Op: op, W: [6]uint32{f.code}}
	case fateMoved:
		w2 := uint32(0)
		if f.lh != lhid {
			w2 = uint32(f.lh)
		}
		return vid.Message{Op: op, Code: CodeMoved, W: [6]uint32{0, uint32(f.pm), w2}}
	case fateLost:
		if op == PmWaitProgram {
			return vid.ErrMsg(vid.CodeAborted)
		}
	}
	return vid.ErrMsg(vid.CodeNotFound)
}

// PM is one workstation's program manager.
type PM struct {
	host     *kernel.Host
	proc     *kernel.Process
	Migrator Migrator
	// Selector, when wired (by core), runs host selection for session
	// recovery and eviction re-execution.
	Selector *sched.Selector
	// SelectDally, when non-zero (set by core for large clusters), is the
	// window over which replies to *multicast* select queries are spread:
	// each willing host sleeps a deterministic slot derived from its
	// station address and the query's transaction id before answering.
	// Without it, every idle host finishes the probe evaluation at the
	// same instant and the reply implosion jams the shared segment.
	SelectDally time.Duration

	progs map[vid.LHID]*progInfo
	fates map[vid.LHID]fate // programs that left progs through retire

	// The manager's four workers are servers in the paper's sense: each
	// blocks until it has something to do. The first three take jobs from
	// an inbox; the lease worker (supervise.go) parks until its earliest
	// deadline or a kick.
	reaper   *kernel.Process
	exits    inbox[*kernel.LogicalHost]
	worker   *kernel.Process
	migrateQ inbox[*migrateJob]
	adopter  *kernel.Process
	adoptQ   inbox[*adoptJob]

	reg       *registry           // supervised remote jobs (supervise.go)
	svc       *rsm.Service[hgCmd] // reg's front end: alone, or a home-group member
	reapQ     []*reapJob          // remote programs to destroy, with retry
	sup       SupStats
	lease     *kernel.Process
	leaseWake sim.WaitQ  // the lease worker parks here
	leaseKick bool       // set by kickLease, cleared as a pass begins
	leaseIDs  []vid.LHID // the sessions a pass visits, reused pass to pass

	fs fileserver.Client // the manager's one way to the file service
	pg *pager            // demand paging of migrated-in copies; nil until the first (pager.go)
}

// Start spawns the program manager on a host.
func Start(h *kernel.Host) *PM {
	pm := &PM{
		host:  h,
		progs: make(map[vid.LHID]*progInfo),
		fates: make(map[vid.LHID]fate),
		reg:   newRegistry(),
	}
	pm.reg.changed = pm.kickLease
	pm.proc = h.SpawnServer("progmgr", 64*1024, pm.run)
	pm.svc = rsm.NewService[hgCmd](pm.proc, pm.reg, 0)
	h.RegisterWellKnown(vid.IdxProgramManager, pm.proc.PID())
	h.JoinGroup(vid.GroupProgramManagers, pm.proc.PID())
	h.OnLHEmpty = pm.onLHEmpty
	h.OnLHIDChanged = pm.onLHIDChanged
	h.OnUnfreezeLH = func(lh *kernel.LogicalHost, recep vid.LHID) { pm.startPaging(lh, recep, true) }
	pm.reaper = h.SpawnServer("pm-reaper", 4096, pm.reap)
	pm.worker = h.SpawnServer("pm-migrate", 16*1024, pm.migrateLoop)
	pm.adopter = h.SpawnServer("pm-adopt", 8*1024, pm.adoptLoop)
	pm.lease = h.SpawnServer("pm-lease", 16*1024, pm.leaseLoop)
	return pm
}

// WorkerDispatches reports how many times the manager's four workers have
// been resumed since boot. It stands still on a workstation with nothing
// to reap, migrate, adopt or supervise.
func (pm *PM) WorkerDispatches() uint64 {
	var n uint64
	for _, p := range []*kernel.Process{pm.reaper, pm.worker, pm.adopter, pm.lease} {
		if t := p.Task(); t != nil {
			n += t.Dispatches()
		}
	}
	return n
}

// PID returns the program manager's process id.
func (pm *PM) PID() vid.PID { return pm.proc.PID() }

// Host returns the managed workstation.
func (pm *PM) Host() *kernel.Host { return pm.host }

// FS returns the manager's file-service client: the migrator's page-out
// from this host and page-in to it go through it too.
func (pm *PM) FS() *fileserver.Client { return &pm.fs }

// ProgMeta returns a tracked program's invocation metadata (arguments,
// output sink and home) so the migration engine can forward it to the
// receiving manager.
func (pm *PM) ProgMeta(lhid vid.LHID) (args []string, stdout, home vid.PID) {
	if pi := pm.progs[lhid]; pi != nil {
		return pi.args, pi.stdout, pi.home
	}
	return nil, vid.Nil, vid.Nil
}

// onLHEmpty runs in the exiting process's context; queue the teardown for
// the reaper task.
func (pm *PM) onLHEmpty(lh *kernel.LogicalHost) {
	pm.exits.put(lh)
}

// inbox is a worker's job queue. put may be called from any context on the
// engine; take blocks the one consuming worker while the inbox is empty.
type inbox[T any] struct {
	jobs []T
	wake sim.WaitQ
}

func (q *inbox[T]) put(v T) {
	q.jobs = append(q.jobs, v)
	q.wake.WakeOne()
}

func (q *inbox[T]) take(ctx *kernel.ProcCtx) T {
	if len(q.jobs) == 0 {
		ctx.WaitFor(&q.wake, kernel.Forever, func() bool { return len(q.jobs) > 0 })
	}
	v := q.jobs[0]
	var zero T
	q.jobs[0] = zero
	q.jobs = q.jobs[1:]
	return v
}

// answer tells the PmWaitProgram waiters held for lhid what became of the
// program, on task t but from the program manager's own service port, the
// one the requests arrived on. The engine reuses a Req once it is answered,
// so the caller takes the waiters out of the list it held them in first. A worker must NOT reply on its own port
// (ctx.Reply): the reply would leave the PM port's open entry and reply
// cache untouched, so if the one reply packet is lost the waiter's
// retransmissions keep hitting the PM port, are answered with
// reply-pending forever, and the transaction never completes.
func (pm *PM) answer(t *sim.Task, waiters []*ipc.Req, lhid vid.LHID, f fate) {
	for _, w := range waiters {
		pm.proc.Port().Reply(t, w, f.reply(PmWaitProgram, lhid))
	}
}

// retire is the one way a program leaves this manager: it drops pi (nil
// when the manager never tracked the logical host) from progs, records
// what became of the program, and answers its waiters once; an exit is also
// noted to its home. It destroys nothing; the caller decides whether the
// logical host goes before or after the waiters hear. An exit (reap) and
// a lost guest (abortGuest) answer first; a destroy, migrateprog -n and
// eviction destroy first, because their reply is the word that the
// logical host is gone.
func (pm *PM) retire(t *sim.Task, lhid vid.LHID, pi *progInfo, f fate) {
	pm.fates[lhid] = f
	if pi != nil {
		delete(pm.progs, lhid)
		ws := pi.waiters
		pi.waiters = nil
		pm.answer(t, ws, lhid, f)
		if f.kind == fateExited && pi.home != vid.Nil {
			pm.queueSend(pi.home, vid.Message{Op: PmNoteExited, W: [6]uint32{uint32(lhid), f.code}})
		}
		if pm.pg != nil {
			pm.pg.wake.WakeOne() // a held residue drain may be waiting on this guest
		}
	}
}

// reap is the pm-reaper worker. A program's exit is answered at the
// instant it happens: the fate is recorded and the waiters hear before the
// teardown is paid, and a wait or lease renewal that arrives during the
// teardown is answered from the fate. The logical host then stays resident,
// holding its memory, until EnvDestroyCPU has been charged.
func (pm *PM) reap(ctx *kernel.ProcCtx) {
	for {
		lh := pm.exits.take(ctx)
		pm.retire(ctx.Task(), lh.ID(), pm.progs[lh.ID()], fate{kind: fateExited, code: lh.ExitCode()})
		ctx.Compute(params.EnvDestroyCPU)
		pm.host.DestroyLH(lh)
	}
}

// abortGuest destroys a hosted guest whose memory can no longer be
// completed — its residue is lost (pager.go). Its fate is lost, which a
// lease renewal reads as not-found: the owning session's lease expires,
// and the program is re-executed from its file-server image. A supervised
// program's waiter is held at its home, which answers it once the session
// resolves; a waiter held here (an unsupervised job's) hears CodeAborted.
// The waiters hear, on task t, before the logical host goes.
func (pm *PM) abortGuest(t *sim.Task, lhid vid.LHID) {
	pi := pm.progs[lhid]
	if pi == nil {
		return
	}
	pm.retire(t, lhid, pi, fate{kind: fateLost})
	pm.host.DestroyLH(pi.lh)
}

// run is the program manager's main service loop.
func (pm *PM) run(ctx *kernel.ProcCtx) {
	port := pm.proc.Port()
	for {
		req := ctx.Receive()
		m := req.Msg
		switch m.Op {
		case PmQueryHost:
			if !strings.EqualFold(m.SegString(), pm.host.Name) {
				port.Drop(req)
				continue
			}
			ctx.Reply(req, vid.Message{Op: m.Op, W: [6]uint32{
				uint32(pm.host.SystemLH().ID()), 0, 0, 0, 0, uint32(pm.PID()),
			}})

		case PmSelectHost:
			pm.selectHost(ctx, req)

		case PmCreateProgram:
			// The reply names the new logical host, so the creator's start,
			// addressed through it, goes straight to this station.
			reply := pm.createProgram(ctx, m)
			ctx.ReplyNaming(req, reply, vid.LHID(reply.W[1]))

		case PmWaitProgram:
			home := m.W[5]&PmWaitHome != 0
			if home && !pm.svc.Admit(ctx, req) {
				// Home-group wait: only the current leader answers or holds
				// the waiter; every other member stays silent so the agent's
				// group send lands on exactly one authority.
				continue
			}
			lhid := vid.LHID(m.W[0])
			if pi := pm.progs[lhid]; pi != nil && !pi.incoming && !home {
				pi.waiters = append(pi.waiters, req)
				continue // deferred reply
			}
			f := pm.fates[lhid]
			if s := pm.reg.lookup(lhid); s != nil && (home || f.kind == fateUnknown || f.kind == fateLost) {
				// This manager supervises the job: the session's state is
				// the program's fate, and until it resolves the waiter is
				// held, whatever becomes of the hosting workstation. An
				// active session renews at once, to learn an exit whose
				// note was lost or came before the session was registered.
				switch s.State {
				case sessionActive:
					s.LastRenew = 0
					fallthrough
				case sessionBroken:
					s.waiters = append(s.waiters, req)
					pm.kickLease() // a follower hands the waiter to the group at once
					continue
				}
				f = s.fate()
			}
			ctx.Reply(req, f.reply(m.Op, lhid))

		case PmRenewLease:
			lhid := vid.LHID(m.W[0])
			if pm.progs[lhid] != nil {
				// Running here (an incoming receptacle also renews: the
				// program is mid-migration, not lost).
				ctx.Reply(req, vid.Message{Op: m.Op, W: [6]uint32{0, 1}})
				continue
			}
			ctx.Reply(req, pm.fates[lhid].reply(m.Op, lhid))

		case PmSupervise:
			pm.supervise(ctx, req)

		case PmNoteExited:
			pm.noteExited(ctx, req)

		case PmLocateProgram:
			if pi := pm.progs[vid.LHID(m.W[0])]; pi != nil && !pi.incoming {
				ctx.Reply(req, vid.Message{Op: m.Op, W: [6]uint32{
					uint32(pm.host.SystemLH().ID()), 0, 0, 0, 0, uint32(pm.PID()),
				}})
				continue
			}
			port.Drop(req) // silence: only the running host may answer

		case PmMigrateProgram:
			lhid := vid.LHID(m.W[0])
			if lhid == 0 {
				// migrateprog with no program: remove all guest programs.
				for id, pi := range pm.progs {
					if pi.guest && !pi.incoming {
						pm.migrateQ.put(&migrateJob{lhid: id, kill: m.W[1] != 0})
					}
				}
				ctx.Reply(req, vid.Message{Op: m.Op})
				continue
			}
			pm.migrateQ.put(&migrateJob{req: req, lhid: lhid, kill: m.W[1] != 0})

		case PmInitMigration:
			ctx.Reply(req, pm.initMigration(ctx, m))

		case PmAssumeMigration:
			pm.assumeIncoming(vid.LHID(m.W[0]), vid.LHID(m.W[1]))
			ctx.Reply(req, vid.Message{Op: m.Op})

		case PmAwaitResidue:
			pm.awaitResidue(ctx, req)

		case PmSuspendProgram, PmResumeProgram:
			pi := pm.progs[vid.LHID(m.W[0])]
			if pi == nil || pi.incoming {
				ctx.Reply(req, vid.ErrMsg(vid.CodeNotFound))
				continue
			}
			if m.Op == PmSuspendProgram {
				pm.host.Freeze(pi.lh)
			} else {
				pm.host.Unfreeze(pi.lh, false)
			}
			ctx.Reply(req, vid.Message{Op: m.Op})

		case PmQueryPrograms:
			var sb strings.Builder
			for _, lh := range pm.host.LHs() {
				if lh.System() {
					continue
				}
				fmt.Fprintf(&sb, "%v %s guest=%v frozen=%v mem=%dK\n",
					lh.ID(), lh.Name(), lh.Guest(), lh.Frozen(), lh.MemUsed()/1024)
			}
			ctx.Reply(req, vid.Message{Op: m.Op, Seg: []byte(sb.String())})

		case PmDestroyProgram:
			lhid := vid.LHID(m.W[0])
			pi := pm.progs[lhid]
			if pi == nil {
				ctx.Reply(req, vid.ErrMsg(vid.CodeNotFound))
				continue
			}
			ctx.Compute(params.EnvDestroyCPU)
			pm.host.DestroyLH(pi.lh)
			pm.retire(ctx.Task(), lhid, pi, fate{kind: fateExited, code: 0xDEAD})
			ctx.Reply(req, vid.Message{Op: m.Op})

		default:
			ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
		}
	}
}

// createProgram sets up a new execution environment (§2.1): find the
// image on a file server, create the logical host and address space, load
// code and data, write the environment block, and create the initial
// process awaiting its creator's start.
func (pm *PM) createProgram(ctx *kernel.ProcCtx, m vid.Message) vid.Message {
	parts := strings.Split(m.SegString(), "\x00")
	progName := parts[0]
	args := parts[1:]
	guest := m.W[1] != 0
	stdout, home := vid.PID(m.W[0]), vid.PID(m.W[2])

	hdr, size, fsPID, err := pm.loadFile(ctx, progName)
	if err != nil {
		if ce, ok := err.(vid.CodeError); ok {
			return vid.ErrMsg(uint16(ce))
		}
		return vid.ErrMsg(vid.CodeNotFound)
	}
	img, err := image.DecodeHeader(hdr, size)
	if err != nil {
		return vid.ErrMsg(vid.CodeBadRequest)
	}

	// Environment setup cost (address space, process, argument and
	// environment initialization — calibrated with destroy to the
	// paper's 40 ms).
	ctx.Compute(params.EnvSetupCPU)

	lh, err := pm.host.CreateLH(progName, guest)
	if err != nil {
		return vid.ErrMsg(vid.CodeNoMemory)
	}
	as, err := lh.CreateSpace(img.SpaceSize)
	if err != nil {
		pm.host.DestroyLH(lh)
		return vid.ErrMsg(vid.CodeNoMemory)
	}
	if len(img.Code) > 0 {
		if err := as.WriteAt(vvm.CodeBase, img.Code); err != nil {
			pm.host.DestroyLH(lh)
			return vid.ErrMsg(vid.CodeBadRequest)
		}
	}
	if len(img.Data) > 0 {
		if err := as.WriteAt(vvm.CodeBase+uint32(len(img.Code)), img.Data); err != nil {
			pm.host.DestroyLH(lh)
			return vid.ErrMsg(vid.CodeBadRequest)
		}
	}
	heap := vvm.CodeBase + uint32(len(img.Code)+len(img.Data))
	heap = (heap + 1023) &^ 1023
	env := image.EnvBlock{
		Stdout:     stdout,
		FileServer: fsPID,
		Args:       append([]string{progName}, args...),
		HeapBase:   heap,
		// "a name cache for commonly used global names" (§2.1): seeded
		// with the bindings this manager knows; migrates with the
		// program's address space (§6).
		NameCache: map[string]vid.PID{
			"fileserver": fsPID,
			"stdout":     stdout,
		},
	}
	if err := as.WriteAt(0, env.Encode()); err != nil {
		pm.host.DestroyLH(lh)
		return vid.ErrMsg(vid.CodeBadRequest)
	}
	// A freshly loaded program starts with clean dirty bits: its code and
	// initialized data are "portions that are never modified" (§3.1.2).
	as.ClearDirty()

	p := lh.NewProcess(as.ID, img.Kind, kernel.Regs{})
	pm.progs[lh.ID()] = &progInfo{lh: lh, name: progName, args: args, stdout: stdout, guest: guest, home: home}
	return vid.Message{Op: PmCreateProgram, W: [6]uint32{uint32(p.PID()), uint32(lh.ID())}}
}

// loadFile fetches an image file from a network file server in 32 KB
// reads. Every read is issued and waited for — the load takes the virtual
// time the protocol takes — but only the file's header is kept, as far as
// the first read's length words declare it: the padding behind it says
// nothing, and each reply's buffer goes back to the engine as soon as the
// header's share is copied out of it. It returns the kept bytes, how many
// arrived in all, which is what image.DecodeHeader wants, and the server
// that served them.
//
// Every read goes through the manager's file-service client. The first
// read, a whole segment at offset 0, is also the stat: its reply's W1 is
// the file's size. A manager with no pinned server, or whose server went
// silent or declined without naming a leader, finds one with a group stat
// first, so an image load survives a file-server crash instead of
// aborting the execution request. A failure keeps its cause: a congested
// or dead server's CodeTimeout or CodeHostDown is transient, and only the
// server's own answer says an image does not exist.
func (pm *PM) loadFile(ctx *kernel.ProcCtx, name string) ([]byte, int, vid.PID, error) {
	var hdr []byte // the file's leading bytes; its capacity is how many are header
	got, size := 0, 0
	for off := 0; off == 0 || off < size; off += vid.SegMax {
		read := vid.Message{
			Op: fileserver.OpRead, W: [6]uint32{uint32(off), vid.SegMax, 0, 0, 0, fileserver.FsUnicast}, Seg: []byte(name),
		}
		r, err := pm.fs.Do(ctx, name, func(dst vid.PID) (vid.Message, error) { return ctx.Send(dst, read) })
		if err == nil {
			err = r.Err()
		}
		if err != nil {
			return nil, 0, vid.Nil, err
		}
		if off == 0 {
			// Sized by what the file says of itself, and never past what
			// the server says it stores: neither word alone is trusted
			// with an allocation.
			size = int(r.W[1])
			hdr = make([]byte, 0, min(image.HeaderLen(r.Seg), uint64(size)))
		}
		hdr = append(hdr, r.Seg[:min(len(r.Seg), cap(hdr)-len(hdr))]...) // never past the header
		got += len(r.Seg)
		ctx.ReleaseReply()
	}
	return hdr, got, pm.fs.Pinned(), nil
}
