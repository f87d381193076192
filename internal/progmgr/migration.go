package progmgr

import (
	"errors"
	"fmt"

	"vsystem/internal/ipc"
	"vsystem/internal/kernel"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
	"vsystem/internal/vvm"
)

// Migration endpoints: the worker that runs the injected Migrator on the
// sending side, and the receiving side of §3.1.1 — receptacle creation,
// its inactivity reaper, and orphan adoption after the identity swap.

// InitReq describes an incoming migration (§3.1.1): the target initializes
// descriptors for the new copy under a different logical-host id. SrcLH is
// the source's system logical host, which the destination's orphan-adoption
// watchdog probes before unfreezing an apparently abandoned copy — source
// *death* must be distinguished from source *unreachability* or the two
// hosts can end up running the same logical host (split-brain).
type InitReq struct {
	Name    string
	Guest   bool
	FinalLH vid.LHID
	SrcLH   vid.LHID
	Spaces  []kernel.SpaceDesc
	// Args and Stdout travel with the program so the receiving manager
	// can re-execute it from its file-server image if it must later be
	// evicted and no host will accept a migration.
	Args   []string
	Stdout vid.PID
	// Home is told of the program's exit (PmCreateProgram W2).
	Home vid.PID
}

// Migrator is the pluggable migration engine (implemented by the core
// package). It runs on the source host's migration worker task and moves
// lh to another host, returning a report.
type Migrator interface {
	Migrate(ctx *kernel.ProcCtx, pm *PM, lh *kernel.LogicalHost) (report []byte, newPM vid.PID, err error)
}

// PhaseTagged is implemented by migration errors that know which phase
// they died in; the program manager relays the tag in its refusal reply
// (W0 = phase+1, W1 = pre-copy round) so requesters on other hosts can
// reconstruct a typed error.
type PhaseTagged interface {
	PhaseTag() (phase, round uint32)
}

// adoptJob is one orphan-adoption candidate: an incoming copy that assumed
// its final identity but whose source has not finished the hand-over.
type adoptJob struct {
	final       vid.LHID
	lh          *kernel.LogicalHost
	srcLH       vid.LHID
	silentSince sim.Time // start of the current probe-silence run (0: none)
}

type migrateJob struct {
	req  *ipc.Req
	lhid vid.LHID
	kill bool
}

func (pm *PM) migrateLoop(ctx *kernel.ProcCtx) {
	for {
		job := pm.migrateQ.take(ctx)
		reply := pm.doMigrate(ctx, job)
		if job.req != nil {
			pm.proc.Port().Reply(ctx.Task(), job.req, reply)
		}
	}
}

func (pm *PM) doMigrate(ctx *kernel.ProcCtx, job *migrateJob) vid.Message {
	pi := pm.progs[job.lhid]
	if pi == nil || pi.incoming {
		return vid.ErrMsg(vid.CodeNotFound)
	}
	if pm.Migrator == nil {
		return vid.ErrMsg(vid.CodeRefused)
	}
	if pi.lh.Frozen() {
		// A suspended program stays where it is; resume it first. (The
		// migration engine manages freezing itself.)
		return vid.ErrMsg(vid.CodeRefused)
	}
	report, newPM, err := pm.Migrator.Migrate(ctx, pm, pi.lh)
	if err != nil {
		// The program runs between attempts and may have exited or been
		// destroyed meanwhile. Then whoever removed it has retired it and
		// answered its waiters, and it is off this host already: nothing
		// is left to destroy, re-execute or suspend.
		gone := pm.progs[job.lhid] != pi
		if job.kill {
			// migrateprog -n: destroy the program when no host accepts it.
			if !gone {
				pm.host.DestroyLH(pi.lh)
				pm.retire(ctx.Task(), job.lhid, pi, fate{kind: fateExited, code: 0xDEAD})
			}
			return vid.Message{Op: PmMigrateProgram, W: [6]uint32{1}}
		}
		if job.req == nil && !gone {
			if pm.reexecElsewhere(ctx, job.lhid, pi) {
				// Eviction (owner-returns) that could not migrate: the guest
				// was re-executed from its image on another host instead.
				return vid.Message{Op: PmMigrateProgram, W: [6]uint32{2}}
			}
			// Last resort for an eviction: suspend the guest and tell its
			// owner, rather than leaving it consuming the workstation.
			pm.host.Freeze(pi.lh)
			if pi.stdout != vid.Nil {
				ctx.Send(pi.stdout, vid.Message{Op: vvm.OpWriteLine, Seg: []byte(
					fmt.Sprintf("[progmgr %s] %s: eviction found no host; suspended", pm.host.Name, pi.name)),
				})
			}
		}
		reply := vid.ErrMsg(vid.CodeRefused)
		var pt PhaseTagged
		if errors.As(err, &pt) {
			reply.W[0], reply.W[1] = pt.PhaseTag()
		}
		return reply
	}
	// The program now belongs to the new host's manager: waiters and lease
	// renewals are redirected there.
	pm.retire(ctx.Task(), job.lhid, pi, fate{kind: fateMoved, pm: newPM, lh: job.lhid})
	return vid.Message{Op: PmMigrateProgram, Seg: report}
}

// RecordMoved notes that a program this manager used to run is now with
// another manager, as a migration does; late waiters and lease renewals
// are redirected there with CodeMoved. Tests use it to stage a forwarding
// loop.
func (pm *PM) RecordMoved(lhid vid.LHID, newPM vid.PID, newLH vid.LHID) {
	pm.fates[lhid] = fate{kind: fateMoved, pm: newPM, lh: newLH}
}

// reexecElsewhere re-executes an evicted guest from its file-server image
// on a freshly selected host — the supervision fallback when migration
// cannot find a receptacle but the owner wants the guest gone. The old
// copy's partial state is lost (the program restarts), but its output is
// deduplicated by the display server via the adoption notice, so the
// stream the user sees stays exactly-once.
func (pm *PM) reexecElsewhere(ctx *kernel.ProcCtx, lhid vid.LHID, pi *progInfo) bool {
	if pm.Selector == nil || pi.name == "" {
		return false
	}
	l, err := pm.Selector.Select(ctx, max(pi.lh.MemUsed(), 256*1024), pm.host.SystemLH().ID())
	if err != nil {
		return false
	}
	_, newLH, err := pm.Launch(ctx, l.PM, true, pi.name, pi.args, pi.stdout, pi.home, lhid)
	if err != nil {
		return false
	}
	pm.host.DestroyLH(pi.lh)
	pm.sup.ExecRestarts++
	pm.host.Trace().Publish(trace.Event{
		At: ctx.Now(), Host: uint16(pm.host.NIC.MAC()), Kind: trace.EvExecRestart,
		LH: newLH, Peer: l.SystemLH.Station(),
	})
	pm.retire(ctx.Task(), lhid, pi, fate{kind: fateMoved, pm: l.PM, lh: newLH})
	return true
}

// initMigration is the receiving side of §3.1.1: allocate a placeholder
// logical host under a different id, create its address spaces, freeze it,
// and remember the identity it will assume.
func (pm *PM) initMigration(ctx *kernel.ProcCtx, m vid.Message) vid.Message {
	req, err := DecodeInitReq(m.Seg)
	if err != nil {
		return vid.ErrMsg(vid.CodeBadRequest)
	}
	var need uint32
	for _, sd := range req.Spaces {
		need += sd.Size
	}
	if need > pm.host.MemFree() {
		return vid.ErrMsg(vid.CodeNoMemory)
	}
	ctx.Compute(params.KernelOpCPU)
	lh, err := pm.host.CreateLH(req.Name, req.Guest)
	if err != nil {
		return vid.ErrMsg(vid.CodeNoMemory)
	}
	for _, sd := range req.Spaces {
		if _, err := lh.InstallSpace(sd.ID, sd.Size); err != nil {
			pm.host.DestroyLH(lh)
			return vid.ErrMsg(vid.CodeNoMemory)
		}
	}
	pm.host.Freeze(lh)
	pm.progs[req.FinalLH] = &progInfo{
		lh: lh, name: req.Name, args: req.Args, stdout: req.Stdout, home: req.Home,
		guest: req.Guest, incoming: true, srcLH: req.SrcLH, pages: m.W[0],
	}
	// A receptacle whose source dies mid-copy never assumes its final
	// identity; garbage-collect it once the transfer goes idle so it
	// cannot pin memory forever.
	tempID := lh.ID()
	pm.host.Eng.After(params.ReceptacleTTL, func() {
		pm.reapReceptacle(req.FinalLH, tempID)
	})
	return vid.Message{Op: m.Op, W: [6]uint32{
		uint32(lh.ID()), uint32(pm.host.SystemLH().ID()), 0, 0, 0, uint32(pm.PID()),
	}}
}

// reapReceptacle destroys an incoming receptacle that never assumed its
// final identity and whose transfer has gone idle for ReceptacleTTL (the
// source died before the swap). The TTL is an *inactivity* timeout: while
// page runs are still arriving — a legitimately slow copy under heavy loss
// and retransmission — the reaper re-arms instead of killing a live
// migration mid-transfer.
func (pm *PM) reapReceptacle(final, tempID vid.LHID) {
	if pm.host.Crashed() {
		return
	}
	pi := pm.progs[final]
	if pi == nil || !pi.incoming || pi.lh.ID() != tempID {
		return // assumed, swapped, or already torn down
	}
	if cur, ok := pm.host.LookupLH(tempID); !ok || cur != pi.lh {
		return
	}
	if idle := pm.host.Eng.Now().Sub(pi.lh.LastWriteAt()); idle < params.ReceptacleTTL {
		pm.host.Eng.After(params.ReceptacleTTL-idle, func() {
			pm.reapReceptacle(final, tempID)
		})
		return
	}
	pm.host.DestroyLH(pi.lh)
	delete(pm.progs, final)
}

// onLHIDChanged runs when a resident logical host assumes a new identity.
// For an incoming migration receptacle this is the atomic swap of §3.1.1:
// from here on the new copy owns the identity, so if the source dies
// before sending its unfreeze/assume messages, the destination must
// finish the hand-over itself (source death after the swap leaves the new
// copy authoritative, §3.1.3). Adoption is handed to the pm-adopt worker,
// which first *probes* the source: a source that is alive but slow or
// unreachable must keep the original authoritative.
func (pm *PM) onLHIDChanged(lh *kernel.LogicalHost, old vid.LHID) {
	pi := pm.progs[lh.ID()]
	if pi == nil || !pi.incoming || pi.lh != lh {
		return
	}
	job := &adoptJob{final: lh.ID(), lh: lh, srcLH: pi.srcLH}
	pm.host.Eng.After(params.OrphanAdoptDelay, func() { pm.adoptQ.put(job) })
}

// adoptLoop is the pm-adopt worker: it serializes orphan-adoption checks,
// each of which may block in a liveness probe of the migration source.
func (pm *PM) adoptLoop(ctx *kernel.ProcCtx) {
	for {
		pm.checkOrphan(ctx, pm.adoptQ.take(ctx))
	}
}

// checkOrphan decides the fate of a post-swap copy whose source has not
// finished the hand-over. In the normal case the source has long since
// unfrozen the copy and sent PmAssumeMigration, making this a no-op.
// Otherwise the copy owns the identity but is still frozen, and the
// destination must distinguish source *death* (adopt: the new copy is
// authoritative, §3.1.3) from source *unreachability* (hold off: the live
// source will abort its ~5 s send and unfreeze the original, and adopting
// too would run the same logical host twice). It probes the source kernel
// for the migrated LHID:
//
//   - source answers "resident, frozen": hand-over still in flight — check
//     again later;
//   - source answers "resident, unfrozen": the source aborted and the
//     original is authoritative — discard the local copy;
//   - source answers "not resident": the source finished (its unfreeze or
//     assume messages were lost) or rebooted (the original died with it) —
//     adopt;
//   - no answer for a continuous OrphanSilence window (≈10 s, comfortably
//     beyond the source's own send abort): presume the source dead — adopt.
//     The window is enforced by the clock, not by counting probe failures:
//     the failure detector fails probes to a suspected station within a
//     retransmission tick, so counting aborts would collapse the guard to
//     well under a second.
func (pm *PM) checkOrphan(ctx *kernel.ProcCtx, job *adoptJob) {
	live := func() bool {
		pi := pm.progs[job.final]
		if pi == nil || !pi.incoming || pi.lh != job.lh {
			return false // assumed or torn down meanwhile
		}
		cur, ok := pm.host.LookupLH(job.final)
		return ok && cur == job.lh
	}
	if !live() {
		return
	}
	if job.srcLH != 0 {
		m, err := ctx.Send(kernel.KernelServerPID(job.srcLH), vid.Message{
			Op: kernel.KsQueryLH, W: [6]uint32{uint32(job.final)},
		})
		if !live() { // the probe blocked; the hand-over may have finished
			return
		}
		switch {
		case err == nil && m.OK() && m.W[3] != 0:
			// Original still frozen at the source: migration in flight.
			job.silentSince = 0
			pm.host.Eng.After(params.OrphanAdoptDelay, func() { pm.adoptQ.put(job) })
			return
		case err == nil && m.OK():
			// Original resident and running: the source aborted the
			// migration after the swap; defer to it and discard the copy.
			pm.host.DestroyLH(job.lh)
			delete(pm.progs, job.final)
			return
		case err != nil:
			if job.silentSince == 0 {
				job.silentSince = ctx.Now()
			}
			if ctx.Now().Sub(job.silentSince) < params.OrphanSilence {
				// Still inside the split-brain guard window: probe again
				// after a delay (probes to a suspected station fail in a
				// tick, so pace them rather than spinning).
				pm.host.Eng.After(params.OrphanAdoptDelay, func() { pm.adoptQ.put(job) })
				return
			}
			// Prolonged silence: presume the source dead and adopt.
		default:
			// Source alive, original gone: the hand-over completed — adopt.
		}
	}
	pi := pm.progs[job.final]
	pi.incoming = false
	if job.lh.Frozen() {
		pm.startPaging(job.lh, 0, false)
		pm.host.Unfreeze(job.lh, true)
	}
}

// assumeIncoming finalizes an incoming migration: the placeholder has been
// relabeled with the final LHID (by the kernel's ChangeLHID); mark the
// program as owned. If the copy is still frozen — the source's direct
// unfreeze was lost but its assume notice got through — finish the
// unfreeze here, broadcasting the binding, with the pager the unfreeze
// would have installed (recep: the residue receptacle it names).
func (pm *PM) assumeIncoming(final, recep vid.LHID) {
	pi := pm.progs[final]
	if pi == nil {
		return
	}
	pi.incoming = false
	if pi.lh.ID() == final && pi.lh.Frozen() {
		pm.startPaging(pi.lh, recep, true)
		pm.host.Unfreeze(pi.lh, true)
	}
}
