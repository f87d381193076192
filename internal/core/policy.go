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

	// residue is set by a receptacle policy's preSwap: the source copy
	// stays behind as a page-serving receptacle and the teardown path
	// changes accordingly.
	residue *residueState
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
	var remaining []spacePages
	for _, as := range spaces {
		at.mg.pages = as.AppendAllPages(at.mg.pages[:0])
		n := len(buf)
		buf = appendMissing(buf, at.mg.pages, pagesOf(sent, as))
		left := buf[n:len(buf):len(buf)]
		for _, pn := range left {
			as.MarkPageDirty(pn)
		}
		remaining = append(remaining, spacePages{as, left})
	}
	at.residue = &residueState{
		srcHost:   at.host,
		srcLH:     lh,
		srcKS:     kernel.KernelServerPID(at.host.SystemLH().ID()),
		remaining: remaining,
		stats:     &PagerStats{},
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
// the new copy is unfrozen: the demand paging its missing pages need must
// be in place before the guest can run — the remote-fault path into a
// receptacle residue, or, after a flush to the file server, page-in from
// the paging store.
func (at *copyAttempt) beforeUnfreeze() {
	node, destLH := at.destCopy()
	if p := at.mg.Policy; !p.receptacle {
		if p.fileServer && destLH != nil {
			at.demandPage(node, destLH, &PagerStats{}, func(t *sim.Task, as *mem.AddressSpace, pn mem.PageNo) {
				at.pageIn(t, node, as, pn)
			})
		}
		return
	}
	rs := at.residue

	// Rename the source copy to a fresh private id. Local senders to the
	// original id then miss and rebind to the destination, and the
	// destination's adoption probe correctly sees the identity as not
	// resident here.
	var renameErr error
	if destLH != nil {
		_, renameErr = at.host.DetachResidue(at.lh)
	}
	if destLH == nil || renameErr != nil {
		// No receptacle possible (destination unreachable in the sim, or
		// every local LH slot in use): drain the residue synchronously
		// while both sides are still frozen, degenerating to stop-and-
		// copy for the remainder, and tear down classically.
		kb, _ := at.sendRuns(at.targetKS, vid.Message{
			Op: kernel.KsWritePages, W: [6]uint32{uint32(at.finalID), kernel.WriteModeCopy},
		}, "", rs.remaining, nil)
		at.rep.ResidualKB += kb
		at.residue = nil
		return
	}
	rs.node = node
	rs.destLH = destLH
	rs.id = at.lh.ID() // the receptacle's fresh private id
	at.demandPage(node, destLH, rs.stats, at.demandFetch)
}

// afterCommit runs once the migration is committed, the new copy unfrozen
// and the source identity retired; only a receptacle residue has work
// left. It must not fail the migration — the identity has moved — so
// residue-transfer problems are recorded in the report, never returned.
func (at *copyAttempt) afterCommit() {
	if at.residue == nil {
		return // no receptacle, or beforeUnfreeze drained it synchronously
	}
	rs, mg, ctx, rep := at.residue, at.mg, at.ctx, at.rep
	pullStart := ctx.Now()
	at.atPhase(trace.PhasePostSwapPull, 0)

	// Push the remainder out of the receptacle — the residue's only bulk
	// mover — racing the guest's demand fetches: pages whose delivery marker
	// a fetch already cleared are skipped, so a page crosses the wire once,
	// and the destination installs pushes only if-absent, so the same page
	// is never double-applied.
	kb, err := at.sendRuns(at.targetKS, vid.Message{
		Op: kernel.KsWritePages, W: [6]uint32{uint32(at.finalID), kernel.WriteModeIfAbsent},
	}, "", rs.remaining, claimUndelivered)
	rep.ResiduePushKB, rs.stats.PushKB = kb, kb
	if err == nil {
		err = rs.awaitDrained(ctx)
	}
	if err != nil {
		// The destination died after the commit point. The migration
		// itself stands — returning an error here would make the program
		// manager destroy state it no longer owns — so record the failed
		// residue and let supervision (lease expiry, re-exec from the
		// file-server image) deal with the lost guest.
		rep.ResidueAborted = true
		rs.abort(err)
	} else {
		rs.finish()
	}

	// The receptacle has served its purpose: every page is at the
	// destination (or the residue is aborted). Late in-flight fetches
	// fail harmlessly — the destination re-checks presence and falls
	// back before giving up.
	rs.destroyReceptacle()

	st := rs.stats
	rep.PostSwapFaults = st.Faults
	rep.PostSwapStall = st.StallTime
	rep.PostSwapPullKB = st.PullKB
	rep.WireBytes += st.FetchWireBytes
	mg.span(trace.Span{
		LH: at.finalID, Phase: trace.PhasePostSwapPull,
		KB: rep.ResiduePushKB + st.PullKB, Start: pullStart, End: ctx.Now(),
	})
}

// claimUndelivered is the push-out's take: a residue page goes unless its
// delivery marker is already clear (a KsFetchPage served it), and taking
// it clears the marker.
func claimUndelivered(as *mem.AddressSpace, pn mem.PageNo) bool {
	if !as.PageDirty(pn) {
		return false
	}
	as.ClearDirtyPage(pn)
	return true
}

// residueState is the shared state of one post-copy residue: the frozen
// source receptacle, the destination copy, and the transfer bookkeeping
// that the source push-out and the destination's demand-fault path
// coordinate through. The simulation is single-threaded, so cross-host
// field access needs no locking and stays deterministic.
type residueState struct {
	srcHost *kernel.Host
	srcLH   *kernel.LogicalHost // the receptacle (renamed post-swap)
	srcKS   vid.PID             // source kernel server, via its system LH
	id      vid.LHID            // the receptacle's private id

	node   *Node               // destination node
	destLH *kernel.LogicalHost // the migrated copy at the destination

	remaining []spacePages // source-side: pages deferred past the swap
	stats     *PagerStats

	done    bool // residue fully transferred; handlers cleared
	aborted bool // residue lost (source or destination died mid-residue)
}

// awaitDrained blocks until every deferred page is present at the
// destination. The push-out skips pages whose delivery marker a fetch
// already cleared, but "served by the receptacle" is not "installed at
// the destination": the reply may still be in flight to a parked
// faulting process. Tearing the receptacle down on cleared markers alone
// loses exactly those pages — the guest's next reference finds the
// receptacle gone and the fallback chain aborts a healthy guest — so
// completion is judged by destination presence, never by source-side
// markers. A page that is all zero in the frozen receptacle counts as
// drained while absent: no install makes it present (zero pages are
// skipped), and once finish clears the fault path an absent page reads as
// zeros. Returns nil once the residue is fully resident (or the guest
// itself is gone, which moots it); errors when the residue aborted
// meanwhile or the destination stops making progress.
func (rs *residueState) awaitDrained(ctx *kernel.ProcCtx) error {
	deadline := ctx.Now().Add(params.ResidueDrainTimeout)
	for {
		if rs.aborted {
			return ErrResidueLost
		}
		cur, ok := rs.node.Host.LookupLH(rs.destLH.ID())
		if !ok || cur != rs.destLH {
			return nil // the guest exited or was destroyed; nothing to complete
		}
		missing := false
	scan:
		for _, s := range rs.remaining {
			das := rs.destSpace(s.as.ID)
			if das == nil {
				continue
			}
			for _, pn := range s.pages {
				if !das.Present(pn) && !mem.IsZeroPage(s.as.PageView(pn)) {
					missing = true
					break scan
				}
			}
		}
		if !missing {
			return nil
		}
		if ctx.Now() > deadline {
			return ErrResidueLost
		}
		ctx.Sleep(time.Millisecond)
	}
}

// destSpace resolves a source space to its destination counterpart (space
// ids are preserved across migration).
func (rs *residueState) destSpace(id uint32) *mem.AddressSpace {
	for _, as := range rs.destLH.Spaces() {
		if as.ID == id {
			return as
		}
	}
	return nil
}

// finish marks the residue complete and retires the remote-fault path:
// every remaining page is now present at the destination (or provably
// all-zero), so absent pages can simply allocate locally again.
func (rs *residueState) finish() {
	rs.done = true
	for _, as := range rs.destLH.Spaces() {
		as.SetFault(nil)
	}
}

// abort marks the residue lost. Called from the source side when the
// push-out cannot reach the destination (the guest there is gone), and
// from the destination side when a fault can be satisfied neither by the
// receptacle nor the file server (abortGuest).
func (rs *residueState) abort(cause error) {
	if rs.aborted {
		return
	}
	rs.aborted = true
	rs.stats.Aborted = true
	if rs.stats.AbortErr == nil {
		rs.stats.AbortErr = &PhaseError{
			Phase: trace.PhasePostSwapPull, Dest: rs.node.Host.SystemLH().ID(), Err: cause,
		}
	}
	for _, as := range rs.destLH.Spaces() {
		as.SetFault(nil)
	}
}

// abortGuest is the destination's clean-abort path: a faulting reference
// could not be satisfied by the receptacle (source crashed mid-residue)
// or the file-server flush image. The guest's memory is incomplete and
// can never be completed, so destroy it rather than let it run on holes.
// The destruction goes through the program manager, which records the
// guest as lost (not exited): the owning session's lease expires and
// supervision re-executes it from its file-server image.
func (rs *residueState) abortGuest(t *sim.Task, cause error) {
	rs.abort(cause)
	if cur, ok := rs.node.Host.LookupLH(rs.destLH.ID()); ok && cur == rs.destLH {
		rs.node.PM.AbortGuest(t, rs.destLH.ID())
	}
}

// destroyReceptacle tears down the source-side receptacle once the
// residue is drained or lost.
func (rs *residueState) destroyReceptacle() {
	if cur, ok := rs.srcHost.LookupLH(rs.srcLH.ID()); ok && cur == rs.srcLH {
		rs.srcHost.DestroyLH(rs.srcLH)
	}
}
