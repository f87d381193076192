package core

import (
	"slices"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/fileserver"
	"vsystem/internal/ipc"
	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/params"
	"vsystem/internal/progmgr"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// copyAttempt bundles the per-attempt state of one migration: everything
// the copy steps need to move address-space state between the frozen
// source copy and the destination placeholder. migrate() builds one per
// attempt and calls its three steps — preSwap, beforeUnfreeze and
// afterCommit — which interpret the migrator's Policy.
type copyAttempt struct {
	mg   *Migrator
	ctx  *kernel.ProcCtx
	host *kernel.Host
	lh   *kernel.LogicalHost
	fs   *fileserver.Client // the source manager's: the flush policy's page-out

	sel         HostSel
	finalID     vid.LHID // the migrating identity; lh.ID() until a post-copy rename
	tempLH      vid.LHID // destination placeholder id (pre-swap)
	targetKS    vid.PID  // destination kernel server, via its system LH
	win         *ipc.Window
	rep         *MigrationReport
	srcMAC      ethernet.MAC
	dstMAC      ethernet.MAC
	freezeStart sim.Time // when preSwap froze the logical host

	// residue is set by a receptacle policy's preSwap: the pages the
	// destination lacks, left in the frozen source copy. Once
	// beforeUnfreeze has renamed that copy (lh.ID() != finalID), it is the
	// page-serving receptacle, which afterCommit pushes the residue out of
	// and destroys.
	residue []spacePages
}

// preSwap moves (or flushes, or deliberately defers) the address-space
// state, ending with the logical host frozen. The sink picks where pages
// go; the live phase and residue pick the loop. Everything here precedes
// the identity swap, so failures are retry-safe; the returned phase and
// round label the failure point for the typed PhaseError.
func (at *copyAttempt) preSwap() (trace.Phase, int, error) {
	p := at.mg.Policy
	send := at.writeTo(kernel.WriteModeCopy)
	if p.fileServer {
		send = at.pageOut
	}
	switch {
	case p.receptacle:
		return at.deferResidue(p.live == liveHot, send)
	case p.live == liveRounds:
		return at.iterate(send)
	}
	// No live phase and a frozen residue: stop-and-copy, the naive
	// comparator. Freeze first and copy everything while frozen; that copy
	// is its one round (E2 reads Rounds[0]).
	at.freeze()
	all := at.allPages()
	if err := at.sendResidue(all, send); err != nil {
		return trace.PhaseResidue, 0, err
	}
	kb, dur := kbOf(all), at.ctx.Now().Sub(at.freezeStart)
	at.rep.ResidualKB = kb
	at.rep.Rounds = append(at.rep.Rounds, RoundStat{
		Pages: pageCount(all), KB: kb, Dur: dur, CopyRateKBps: rateKBps(kb, dur),
	})
	return 0, 0, nil
}

// deferResidue inverts the residue cost: freeze almost immediately (for
// hybrid, after one round over the hot working set), and leave every page
// the destination lacks in the frozen source copy, which beforeUnfreeze
// turns into a receptacle the destination demand-faults from while the
// guest already runs. Hybrid pays only an invalidation run — a few bytes
// per page — for hot pages re-dirtied during its round.
func (at *copyAttempt) deferResidue(hybrid bool, send func([]spacePages) error) (trace.Phase, int, error) {
	lh := at.lh

	// sent lists, per space and in page order, the pages the destination
	// will hold a valid copy of at swap time; everything else is post-swap
	// residue. Both are cut from buf, which the attempt keeps: the
	// residue's lists outlive deferResidue, in the receptacle. Each list is
	// capped at its end, so appending to buf never writes into one.
	var sent []spacePages
	var buf []mem.PageNo

	if hybrid {
		// Track dirty bits over a short sample window while the program
		// runs: the recent-dirty set approximates the hot working set.
		for _, as := range lh.Spaces() {
			as.ClearDirty()
		}
		at.ctx.Sleep(params.HybridSampleInterval)
		// Copy the hot set while the program still runs (one pre-copy
		// round over the hot pages only).
		hot := at.dirtyPages()
		if err := at.round(0, hot, send); err != nil {
			return trace.PhasePrecopy, 0, err
		}
		// Copied out of the migrator's buffers, which the next snapshot
		// overwrites.
		buf = make([]mem.PageNo, 0, pageCount(hot))
		for _, s := range hot {
			n := len(buf)
			buf = append(buf, s.pages...)
			sent = append(sent, spacePages{s.as, buf[n:len(buf):len(buf)]})
		}

		at.freeze()

		// Hot pages re-dirtied during the copy are stale at the
		// destination. Copying them now would put the whole hot set back
		// into the freeze window — at a saturating dirty rate that is
		// precisely pre-copy's residue cost. Instead send an invalidation
		// run (page numbers only: ~4 bytes per page on the wire) telling
		// the destination to drop them; they travel post-swap like the
		// rest of the residue.
		stale := at.dirtyPages() // in place of hot
		for i, s := range sent {
			sent[i].pages = appendMissing(s.pages[:0], s.pages, pagesOf(stale, s.as))
		}
		if err := at.sendResidue(stale, at.writeTo(kernel.WriteModeInvalidate)); err != nil {
			return trace.PhaseResidue, 0, err
		}
	} else {
		// Pure post-copy: freeze right away, defer every page.
		at.freeze()
	}

	// Everything not validly at the destination is post-swap residue.
	// Mark it dirty on the frozen source: the dirty bits double as
	// not-yet-delivered markers — KsFetchPage clears a page's bit when it
	// serves it, and the push-out skips pages whose bit is already clear.
	spaces, present := lh.Spaces(), 0
	for _, as := range spaces {
		present += int(as.Allocated() / mem.PageSize)
	}
	buf = slices.Grow(buf, present) // lists cut already keep the old array
	for _, as := range spaces {
		at.mg.pages = as.AppendAllPages(at.mg.pages[:0])
		n := len(buf)
		buf = appendMissing(buf, at.mg.pages, pagesOf(sent, as))
		left := buf[n:len(buf):len(buf)]
		for _, pn := range left {
			as.MarkPageDirty(pn)
		}
		at.residue = append(at.residue, spacePages{as, left})
	}
	return 0, 0, nil
}

// appendMissing appends to dst the pages of a that b lacks, both in
// ascending order. dst may be a[:0].
func appendMissing(dst, a, b []mem.PageNo) []mem.PageNo {
	j := 0
	for _, pn := range a {
		for j < len(b) && b[j] < pn {
			j++
		}
		if j == len(b) || b[j] != pn {
			dst = append(dst, pn)
		}
	}
	return dst
}

// pagesOf returns the list lists holds for as, or nil.
func pagesOf(lists []spacePages, as *mem.AddressSpace) []mem.PageNo {
	for _, s := range lists {
		if s.as == as {
			return s.pages
		}
	}
	return nil
}

// beforeUnfreeze runs after the identity swap has committed but before
// the new copy is unfrozen. A receptacle policy renames the source copy to
// a fresh private id: local senders to the original id then miss and
// rebind to the destination, whose adoption probe correctly sees the
// identity as not resident here. It returns that id, which the unfreeze
// names to the destination's pager (0: no receptacle). When no slot is
// free for it, the residue goes synchronously instead, and a failure there
// sets the report's ResidueAborted.
func (at *copyAttempt) beforeUnfreeze() vid.LHID {
	if !at.mg.Policy.receptacle {
		return 0
	}
	if id, err := at.host.DetachResidue(at.lh); err == nil {
		return id
	}
	// Every local LH slot is in use: drain the residue synchronously while
	// both sides are still frozen, degenerating to stop-and-copy for the
	// remainder, and tear down classically.
	kb, err := at.sendRuns(at.targetKS, vid.Message{
		Op: kernel.KsWritePages, W: [6]uint32{uint32(at.finalID), kernel.WriteModeCopy},
	}, "", at.residue, nil)
	at.rep.ResidualKB += kb
	at.rep.ResidueAborted = err != nil
	return 0
}

// afterCommit runs once the migration is committed, the new copy unfrozen
// and the source identity retired; only a receptacle has work left. It
// must not fail the migration — the identity has moved — so residue
// problems are recorded in the report, never returned.
func (at *copyAttempt) afterCommit() {
	if at.lh.ID() == at.finalID {
		return // no receptacle
	}
	mg, ctx, rep := at.mg, at.ctx, at.rep
	pullStart := ctx.Now()
	at.atPhase(trace.PhasePostSwapPull, 0)

	// Push the remainder out of the receptacle — the residue's only bulk
	// mover — racing the guest's demand fetches: pages whose delivery marker
	// a fetch already cleared are skipped, so a page crosses the wire once,
	// and the destination installs pushes only if-absent, so the same page
	// is never double-applied. One request, held until the pages fetches
	// claimed are resident, then brings back what the faults cost.
	mg.listed = mg.listed[:0]
	kb, err := at.sendRuns(at.targetKS, vid.Message{
		Op: kernel.KsWritePages, W: [6]uint32{uint32(at.finalID), kernel.WriteModeIfAbsent},
	}, "", at.residue, mg.claimUndelivered)
	rep.ResiduePushKB = kb
	if err == nil {
		var m vid.Message
		m, err = ctx.Send(rep.NewPM, vid.Message{
			Op: progmgr.PmAwaitResidue, W: [6]uint32{uint32(at.finalID), uint32(kb * 1024 / mem.PageSize)}, Seg: mg.listed,
		})
		if err == nil {
			rep.PostSwapFaults = int(m.W[0])
			rep.PostSwapStall = time.Duration(uint64(m.W[2])<<32 | uint64(m.W[1]))
			rep.PostSwapPullKB = float64(m.W[3]) * mem.PageSize / 1024
			rep.WireBytes += int64(m.W[4])
			err = m.Err()
		}
	}
	// A failure means the destination died or lost the guest after the
	// commit point. The migration itself stands — returning an error here
	// would make the program manager destroy state it no longer owns — so
	// record the failed residue and let supervision (lease expiry, re-exec
	// from the file-server image) deal with the lost guest.
	rep.ResidueAborted = err != nil

	// The receptacle has served its purpose: every page is at the
	// destination, or the residue is lost. Late in-flight fetches fail
	// harmlessly — the destination re-checks presence and falls back
	// before giving up.
	if cur, ok := at.host.LookupLH(at.lh.ID()); ok && cur == at.lh {
		at.host.DestroyLH(at.lh)
	}
	mg.span(trace.Span{
		LH: at.finalID, Phase: trace.PhasePostSwapPull,
		KB: rep.ResiduePushKB + rep.PostSwapPullKB, Start: pullStart, End: ctx.Now(),
	})
}

// claimUndelivered is the push-out's take: a residue page goes unless its
// delivery marker is already clear (a KsFetchPage served it), and taking
// it clears the marker. A page a fetch served that is not all zero goes on
// the drain's list instead: it is resident at the destination only once
// that fetch's reply is installed.
func (mg *Migrator) claimUndelivered(as *mem.AddressSpace, pn mem.PageNo) bool {
	if as.PageDirty(pn) {
		as.ClearDirtyPage(pn)
		return true
	}
	if !mem.IsZeroPage(as.PageView(pn)) {
		a := vid.Appender{B: mg.listed}
		a.U32(as.ID)
		a.U32(uint32(pn))
		mg.listed = a.B
	}
	return false
}
