package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/fault"
	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/params"
	"vsystem/internal/progmgr"
	"vsystem/internal/sched"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// Policy is a migration mechanism: one choice on each of three axes, which
// the copy steps of migrate() read (policy.go). The zero value is §3.1's
// pre-copy, and the five named values below are the only configurations.
type Policy struct {
	live       livePhase // what is copied while the program still runs
	fileServer bool      // sink: the file server's paging store, not the destination placeholder
	receptacle bool      // residue: left in a frozen source receptacle, not sent while frozen
}

// livePhase is what a migration copies before it freezes the program.
type livePhase uint8

const (
	liveRounds livePhase = iota // pre-copy rounds until precopyDone
	liveHot                     // one round over the recently dirtied (hot) pages
	liveNone                    // nothing: freeze at once
)

var (
	// PolicyPrecopy is the paper's design (§3.1): iteratively copy the
	// address spaces while the program runs, freeze only for the residue.
	PolicyPrecopy = Policy{}
	// PolicyStopCopy is the naive comparator the paper argues against:
	// freeze first, then copy everything ("frozen for over 6 seconds" for
	// a 2 MB host, §3.1).
	PolicyStopCopy = Policy{live: liveNone}
	// PolicyFlush is the §3.2 virtual-memory variant: flush pages to the
	// network file server, move kernel state only, and demand-fault pages
	// in on the new host.
	PolicyFlush = Policy{fileServer: true}
	// PolicyPostcopy inverts the residue cost: freeze immediately, move
	// kernel state only, swap the identity, and let the destination
	// demand-fault every page from a frozen source receptacle while the
	// guest already runs (with the source's push-out racing the faults).
	PolicyPostcopy = Policy{live: liveNone, receptacle: true}
	// PolicyHybrid is post-copy with hot-working-set pre-copy: a short
	// recent-dirty sample picks the hot pages, which are copied before
	// the freeze; re-dirtied ones are invalidated (not re-copied) during
	// the freeze, and everything else moves post-swap.
	PolicyHybrid = Policy{live: liveHot, receptacle: true}
)

// policyNames names every Policy value: String prints the first name (the
// report's Policy field carries it), and ParsePolicy accepts them all.
var policyNames = []struct {
	names []string
	p     Policy
}{
	{[]string{"precopy"}, PolicyPrecopy},
	{[]string{"stop-and-copy", "stopcopy"}, PolicyStopCopy},
	{[]string{"vm-flush", "flush"}, PolicyFlush},
	{[]string{"postcopy"}, PolicyPostcopy},
	{[]string{"hybrid"}, PolicyHybrid},
}

// pageSources tells the destination's manager where the copy's missing
// pages will be (PmInitMigration's W0): post-copy's receptacle, with the
// paging store behind it, or flush's store.
func (p Policy) pageSources() uint32 {
	switch {
	case p.receptacle:
		return progmgr.PagesInReceptacle | progmgr.PagesInStore
	case p.fileServer:
		return progmgr.PagesInStore
	}
	return 0
}

func (p Policy) String() string {
	for _, e := range policyNames {
		if e.p == p {
			return e.names[0]
		}
	}
	return "?"
}

// ParsePolicy maps a command-line policy name to its value.
func ParsePolicy(s string) (Policy, error) {
	for _, e := range policyNames {
		if slices.Contains(e.names, s) {
			return e.p, nil
		}
	}
	return Policy{}, fmt.Errorf("unknown policy %q (precopy|stopcopy|flush|postcopy|hybrid)", s)
}

// RoundStat describes one pre-copy (or flush) round.
type RoundStat struct {
	Pages int
	KB    float64
	Dur   time.Duration
	// CopyRateKBps is the round's effective copy rate (address-space KB
	// moved per second of round wall time, counting elided zero pages as
	// moved — that is what the destination ends up holding).
	CopyRateKBps float64
}

// MigrationReport is returned to the migrateprog requester and consumed by
// the experiment harness.
type MigrationReport struct {
	Policy      string
	Rounds      []RoundStat
	ResidualKB  float64       // copied while frozen
	FreezeTime  time.Duration // freeze → unfreeze acknowledged
	KernelItems int           // processes + address spaces
	KernelTime  time.Duration // kernel/program-manager state copy
	Total       time.Duration
	BytesCopied int64
	DestHost    vid.LHID // target's system logical host
	NewPM       vid.PID

	// Bulk-transfer engine accounting: segment bytes actually put on the
	// wire after zero-page elision (vs BytesCopied, the logical space
	// moved) — what the copy window sent plus, post-copy, the page runs the
	// destination's demand fetches were answered with — and the copy
	// window's size, issue count, full-window stalls and mean occupancy at
	// issue time.
	WireBytes       int64
	WindowSize      int
	WindowSends     int64
	WindowStalls    int64
	WindowOccupancy float64

	// Post-copy residue accounting (postcopy/hybrid policies; zero
	// otherwise): demand faults taken at the destination after the
	// identity swap, the total time faulting processes were parked, the
	// KB those faults demand-fetched from the source receptacle (faulted
	// page plus read-ahead, counting pages the fetch installed first), the
	// KB the source's push-out delivered, and whether the residue was lost
	// (destination died after the commit point — the migration stands, the
	// guest is gone).
	PostSwapFaults int
	PostSwapStall  time.Duration
	PostSwapPullKB float64
	ResiduePushKB  float64
	ResidueAborted bool
}

// roundStatLen is one RoundStat on the wire: page count, KB, duration, rate.
const roundStatLen = 4 + 8 + 8 + 8

// Encode serializes the report — the segment of a PmMigrateProgram reply —
// as a fixed layout (DESIGN §10): the scalar fields in declaration order
// (durations and counters as 64-bit words, floats as their IEEE bits), the
// policy name, then the counted per-round records.
func (r *MigrationReport) Encode() []byte {
	var a vid.Appender
	a.F64(r.ResidualKB)
	a.U64(uint64(r.FreezeTime))
	a.U32(uint32(r.KernelItems))
	a.U64(uint64(r.KernelTime))
	a.U64(uint64(r.Total))
	a.U64(uint64(r.BytesCopied))
	a.U16(uint16(r.DestHost))
	a.U32(uint32(r.NewPM))
	a.U64(uint64(r.WireBytes))
	a.U32(uint32(r.WindowSize))
	a.U64(uint64(r.WindowSends))
	a.U64(uint64(r.WindowStalls))
	a.F64(r.WindowOccupancy)
	a.U32(uint32(r.PostSwapFaults))
	a.U64(uint64(r.PostSwapStall))
	a.F64(r.PostSwapPullKB)
	a.F64(r.ResiduePushKB)
	a.Bool(r.ResidueAborted)
	a.String(r.Policy)
	a.Count(len(r.Rounds))
	for _, rs := range r.Rounds {
		a.U32(uint32(rs.Pages))
		a.F64(rs.KB)
		a.U64(uint64(rs.Dur))
		a.F64(rs.CopyRateKBps)
	}
	return a.B
}

// DecodeReport parses a MigrationReport.
func DecodeReport(b []byte) (*MigrationReport, error) {
	rd := vid.NewReader(b)
	r := &MigrationReport{
		ResidualKB:      rd.F64(),
		FreezeTime:      time.Duration(rd.U64()),
		KernelItems:     int(rd.U32()),
		KernelTime:      time.Duration(rd.U64()),
		Total:           time.Duration(rd.U64()),
		BytesCopied:     int64(rd.U64()),
		DestHost:        vid.LHID(rd.U16()),
		NewPM:           vid.PID(rd.U32()),
		WireBytes:       int64(rd.U64()),
		WindowSize:      int(rd.U32()),
		WindowSends:     int64(rd.U64()),
		WindowStalls:    int64(rd.U64()),
		WindowOccupancy: rd.F64(),
		PostSwapFaults:  int(rd.U32()),
		PostSwapStall:   time.Duration(rd.U64()),
		PostSwapPullKB:  rd.F64(),
		ResiduePushKB:   rd.F64(),
		ResidueAborted:  rd.Bool(),
		Policy:          rd.String(),
	}
	for i, n := 0, rd.Count(roundStatLen); i < n; i++ {
		r.Rounds = append(r.Rounds, RoundStat{
			Pages: int(rd.U32()), KB: rd.F64(), Dur: time.Duration(rd.U64()), CopyRateKBps: rd.F64(),
		})
	}
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("core: report decode: %w", err)
	}
	return r, nil
}

// ErrMigrationFailed wraps a failed migration attempt.
var ErrMigrationFailed = errors.New("core: migration failed")

// PhaseError reports which phase of the §3.1 algorithm a migration attempt
// failed in. It matches both ErrMigrationFailed and its cause under
// errors.Is/As, and carries the failed destination so a retry can exclude
// it.
//
// Retryable is set only by the migrator itself: true means the attempt is
// known not to have moved the logical host's identity (all pre-swap phases,
// plus swap/rebind failures where the destination positively confirmed the
// copy does not hold it), so trying an alternate host cannot produce a
// second live copy. Errors reconstructed from the wire (Agent.Migrate) do
// not carry it.
type PhaseError struct {
	Phase     trace.Phase
	Round     int      // pre-copy round, when Phase == trace.PhasePrecopy
	Dest      vid.LHID // destination system LH; 0 if selection never completed
	Retryable bool     // identity provably did not move; alternate-host retry is safe
	Err       error    // underlying cause (send abort, refused reply, ...)
}

func (e *PhaseError) Error() string {
	s := "core: migration failed at " + e.Phase.String()
	if e.Phase == trace.PhasePrecopy {
		s += fmt.Sprintf(" round %d", e.Round)
	}
	if e.Dest != 0 {
		s += fmt.Sprintf(" (dest %v)", e.Dest)
	}
	return s + ": " + e.Err.Error()
}

// Unwrap makes errors.Is(err, ErrMigrationFailed) hold for every phase
// failure while keeping the cause inspectable.
func (e *PhaseError) Unwrap() []error { return []error{ErrMigrationFailed, e.Err} }

// PhaseTag encodes the failure point for the wire (progmgr relays it in
// the refused reply): phase+1 so that 0 means "no phase information".
func (e *PhaseError) PhaseTag() (uint32, uint32) {
	return uint32(e.Phase) + 1, uint32(e.Round)
}

// Migrator implements progmgr.Migrator: the sending side of migration,
// running on the source host's migration worker at system priority
// ("higher priority than all other programs on the originating host",
// §3.1.2; the per-packet work runs at kernel priority).
type Migrator struct {
	Policy  Policy
	Cluster *Cluster

	// Selector chooses migration destinations through the node's
	// scheduling policy and cached load view.
	Selector *sched.Selector

	// FaultHook, when set, is called at each phase boundary of an
	// in-flight migration so a fault injector can crash a participant at
	// a precise point (fault.Injector.OnPhase is the standard hook).
	FaultHook func(fault.PhasePoint)

	// Reports collects every migration this engine performed.
	Reports []*MigrationReport

	// Retries counts attempts that were retried to an alternate
	// destination after a typed phase failure.
	Retries int

	// scratch is sendRuns' page-view staging slice, sized once and reused
	// across every batch of every migration (the encoder snapshots page
	// contents into the wire segment, so reuse across in-flight sends is
	// safe; migrations are serialized by the program manager's worker).
	scratch [][]byte
	// pages and lists hold the page lists pageLists makes, each call's in
	// place of the last's, for every round of every migration.
	pages []mem.PageNo
	lists []spacePages
	// listed is afterCommit's PmAwaitResidue list, built in place of the
	// last migration's.
	listed []byte
}

var _ progmgr.Migrator = (*Migrator)(nil)

// span publishes a completed migration phase to the cluster's trace bus.
func (mg *Migrator) span(s trace.Span) {
	if mg.Cluster != nil {
		mg.Cluster.Trace.PublishSpan(s)
	}
}

// atPhase reports a phase boundary to the fault hook, if any.
func (mg *Migrator) atPhase(lh vid.LHID, ph trace.Phase, round int, src, dst ethernet.MAC) {
	if mg.FaultHook != nil {
		mg.FaultHook(fault.PhasePoint{LH: lh, Phase: ph, Round: round, Src: src, Dst: dst})
	}
}

// Migrate moves lh to another workstation per §3.1:
//
//  1. locate a willing host via the program-manager group;
//  2. initialize descriptors for the new copy under a different LHID;
//  3. pre-copy the address-space state (policy-dependent);
//  4. freeze, copy the residue and the kernel/program-manager state;
//  5. change the new copy's LHID to the original, unfreeze it (broadcasting
//     the new binding), delete the old copy.
//
// A destination that dies mid-migration leaves the original unfrozen and
// running (§3.1.3); the migrator then retries to an alternate host,
// excluding destinations that already failed, with exponential backoff,
// up to params.MigrateMaxAttempts. Selection failures (no willing host)
// are not retried — there is nowhere else to go — and neither are
// failures where the identity swap may already have taken effect on the
// unreachable destination (the copy there would be adopted and unfrozen;
// retrying to a third host could then run the same logical host twice).
// Only attempts marked Retryable — identity provably still here — are
// redirected.
func (mg *Migrator) Migrate(ctx *kernel.ProcCtx, pm *progmgr.PM, lh *kernel.LogicalHost) ([]byte, vid.PID, error) {
	host := pm.Host()
	var excludes []vid.LHID
	var firstErr error
	for attempt := 0; attempt < params.MigrateMaxAttempts; attempt++ {
		rep, err := mg.migrate(ctx, pm, lh, excludes)
		if err == nil {
			mg.Reports = append(mg.Reports, rep)
			return rep.Encode(), rep.NewPM, nil
		}
		if firstErr == nil {
			firstErr = err
		}
		var pe *PhaseError
		if !errors.As(err, &pe) || !pe.Retryable || pe.Dest == 0 || len(excludes) >= 3 {
			break // unsafe to retry, or no known-bad destination to route around
		}
		excludes = append(excludes, pe.Dest)
		if attempt+1 >= params.MigrateMaxAttempts {
			break
		}
		mg.Retries++
		ctx.Sleep(params.MigrateRetryBackoff << attempt)
		// The program ran unfrozen during the backoff; it may have exited
		// or been destroyed meanwhile.
		if cur, ok := host.LookupLH(lh.ID()); !ok || cur != lh || lh.Frozen() {
			break
		}
	}
	return nil, vid.Nil, firstErr
}

func (mg *Migrator) migrate(ctx *kernel.ProcCtx, pm *progmgr.PM, lh *kernel.LogicalHost, excludes []vid.LHID) (*MigrationReport, error) {
	host := pm.Host()
	start := ctx.Now()
	rep := &MigrationReport{Policy: mg.Policy.String()}
	// The migrating identity. lh.ID() matches it until beforeUnfreeze
	// renames the source copy into a residue receptacle, so every
	// post-swap step uses this instead.
	finalID := lh.ID()

	// 1. Locate a new host, excluding ourselves and destinations that
	// already failed this migration.
	sel, err := selectVia(mg.Selector, ctx, lh.MemUsed()+64*1024,
		append([]vid.LHID{host.SystemLH().ID()}, excludes...)...)
	if err != nil {
		return nil, &PhaseError{Phase: trace.PhaseSelect, Err: err}
	}
	rep.DestHost = sel.SystemLH
	srcMAC, dstMAC := host.NIC.MAC(), targetMAC(sel)

	// 2. Initialize the new copy's descriptors under a different LHID.
	var descs []kernel.SpaceDesc
	for _, as := range lh.Spaces() {
		descs = append(descs, kernel.SpaceDesc{ID: as.ID, Size: as.Size()})
	}
	progArgs, progStdout, progHome := pm.ProgMeta(lh.ID())
	initRep, err := ctx.Send(sel.PM, vid.Message{
		Op: progmgr.PmInitMigration, W: [6]uint32{mg.Policy.pageSources()},
		Seg: progmgr.EncodeInitReq(&progmgr.InitReq{
			Name:    lh.Name(),
			Guest:   lh.Guest(),
			FinalLH: lh.ID(),
			SrcLH:   host.SystemLH().ID(),
			Spaces:  descs,
			Args:    progArgs,
			Stdout:  progStdout,
			Home:    progHome,
		}),
	})
	if err != nil || !initRep.OK() {
		return nil, &PhaseError{
			Phase: trace.PhaseSelect, Dest: sel.SystemLH, Retryable: true,
			Err: vid.SendErr(initRep, err),
		}
	}
	tempLH := vid.LHID(initRep.W[0])
	targetKS := kernel.KernelServerPID(vid.LHID(initRep.W[1]))
	rep.NewPM = vid.PID(initRep.W[5])
	mg.span(trace.Span{LH: lh.ID(), Phase: trace.PhaseSelect, Start: start, End: ctx.Now()})
	mg.atPhase(lh.ID(), trace.PhaseSelect, 0, srcMAC, dstMAC)

	// The bulk-transfer window lives in the source's system logical host
	// (never frozen) for the whole attempt; every copy path — pre-copy
	// rounds, frozen residue, stop-and-copy, the flush policy's page-out —
	// pipelines through it.
	win := host.IPC.NewWindow(host.SystemLH().ID(), mg.Cluster.opt.CopyWindow)
	rep.WindowSize = win.Size()
	defer func() {
		ws := win.Stats()
		rep.WindowSends, rep.WindowStalls, rep.WindowOccupancy = ws.Sends, ws.Stalls, ws.AvgOccupancy
		win.Close()
	}()

	fail := func(ph trace.Phase, round int, retryable bool, cause error) (*MigrationReport, error) {
		// Copy failed: keep the original authoritative and unfreeze it to
		// avoid timeouts (§3.1.3 — "the execution of the program is
		// unaffected except for a delay"; the paper's implementation then
		// "simply gives up"; ours additionally lets Migrate retry to an
		// alternate host, but only when the identity provably never moved).
		host.Unfreeze(lh, false)
		return nil, &PhaseError{
			Phase: ph, Round: round, Dest: sel.SystemLH, Retryable: retryable, Err: cause,
		}
	}

	// 3+4. Copy address-space state per policy, ending frozen. All of
	// these phases precede the identity swap, so their failures are
	// retry-safe.
	at := &copyAttempt{
		mg: mg, ctx: ctx, host: host, lh: lh, fs: pm.FS(),
		sel: sel, finalID: finalID, tempLH: tempLH, targetKS: targetKS,
		win: win, rep: rep, srcMAC: srcMAC, dstMAC: dstMAC,
	}
	if ph, round, err := at.preSwap(); err != nil {
		return fail(ph, round, true, err)
	}

	// The logical host is now frozen. Copy kernel server + program
	// manager state: the source charges its share of the measured cost,
	// the target's kernel server charges the rest when installing.
	kStart := ctx.Now()
	mg.atPhase(lh.ID(), trace.PhaseSwap, 0, srcMAC, dstMAC)
	st := host.SnapshotKernelState(lh)
	rep.KernelItems = st.Items()
	ctx.Compute(params.KernelStateBaseCPU/2 + time.Duration(st.Items())*params.KernelStatePerItemCPU/2)
	m, err := ctx.Send(targetKS, vid.Message{
		Op: kernel.KsSetState, W: [6]uint32{uint32(tempLH)}, Seg: st.Encode(),
	})
	if err != nil || !m.OK() {
		// The placeholder still holds its temporary identity, so nothing
		// has moved: retrying elsewhere is safe.
		return fail(trace.PhaseSwap, 0, true, vid.SendErr(m, err))
	}
	// Assume the original identity. Until this succeeds the original is
	// authoritative; once it succeeds the new copy owns the identity and
	// the destination's adoption watchdog can finish the hand-over even if
	// we die before unfreezing it.
	m, err = ctx.Send(targetKS, vid.Message{
		Op: kernel.KsChangeLHID, W: [6]uint32{uint32(tempLH), uint32(finalID)},
	})
	switch {
	case err != nil:
		// The send aborted with no reply — but the request may well have
		// been executed and only the reply lost, in which case the
		// destination owns the identity and its adoption watchdog will
		// unfreeze the copy. Ask the destination whether the swap actually
		// happened before deciding.
		switch confirmed, swapped := mg.probeDest(ctx, targetKS, finalID); {
		case confirmed && swapped:
			// Swap took effect; proceed as if the reply had arrived.
		case confirmed:
			return fail(trace.PhaseSwap, 0, true, err)
		default:
			// Destination unreachable: the copy there may yet be adopted,
			// so the identity must not be offered to a third host. Keep
			// the original running and give up.
			return fail(trace.PhaseSwap, 0, false, err)
		}
	case !m.OK():
		// Definitive refusal from a live destination: no swap happened.
		return fail(trace.PhaseSwap, 0, true, m.Err())
	}
	rep.KernelTime = ctx.Now().Sub(kStart)
	mg.span(trace.Span{LH: finalID, Phase: trace.PhaseSwap, Start: kStart, End: ctx.Now()})
	mg.atPhase(finalID, trace.PhaseRebind, 0, srcMAC, dstMAC)
	recep := at.beforeUnfreeze()

	// 5. Unfreeze the new copy (broadcasting the binding), delete the old
	// copy, notify the new manager.
	rbStart := ctx.Now()
	dst, unfreeze := targetKS, vid.Message{Op: kernel.KsUnfreezeLH, W: [6]uint32{uint32(finalID), uint32(recep)}}
	if rep.ResidueAborted {
		// The copy lacks pages nothing can deliver now: rather than
		// unfreeze it on holes, have its manager abort it as lost.
		dst, unfreeze = rep.NewPM, vid.Message{Op: progmgr.PmAwaitResidue, W: [6]uint32{uint32(finalID), 0, 1}}
	}
	m, err = ctx.Send(dst, unfreeze)
	switch {
	case err != nil:
		// Past the swap the copy is authoritative if it exists; confirm
		// before abandoning it.
		switch confirmed, resident := mg.probeDest(ctx, targetKS, finalID); {
		case confirmed && resident:
			// The copy is alive and owns the identity; whether or not the
			// unfreeze request itself got through, the destination's
			// adoption watchdog (or our assume notice below) finishes the
			// unfreeze. Treat the migration as committed.
		case confirmed:
			// The destination lost the copy (crashed and rebooted between
			// swap and unfreeze): the identity is free again and the
			// original survives — retrying elsewhere is safe.
			return fail(trace.PhaseRebind, 0, true, err)
		default:
			return fail(trace.PhaseRebind, 0, false, err)
		}
	case !m.OK():
		// Live destination refused: it no longer holds the copy.
		return fail(trace.PhaseRebind, 0, true, m.Err())
	}
	rep.FreezeTime = ctx.Now().Sub(at.freezeStart)
	mg.span(trace.Span{LH: finalID, Phase: trace.PhaseRebind, Start: rbStart, End: ctx.Now()})
	// The freeze window encloses residue, swap and rebind; its duration is
	// by construction the report's FreezeTime.
	mg.span(trace.Span{LH: finalID, Phase: trace.PhaseFreeze, Start: at.freezeStart, End: ctx.Now()})
	if lh.ID() == finalID {
		host.DestroyLH(lh)
	}
	// The identity now lives at the destination: the local slot must not
	// be recycled into a colliding logical host. (A post-copy source copy
	// survives under a fresh private id as the page-serving receptacle;
	// afterCommit destroys it once the residue drains.)
	host.RetireLHID(finalID)
	ctx.Send(rep.NewPM, vid.Message{
		Op: progmgr.PmAssumeMigration, W: [6]uint32{uint32(finalID), uint32(recep)},
	})
	at.afterCommit()
	rep.Total = ctx.Now().Sub(start)
	return rep, nil
}

// probeDest asks the destination kernel whether the given logical-host
// identity is resident there — the ground truth needed when a swap or
// rebind send aborts without a reply (the request may have executed with
// only the reply lost). confirmed is false when the destination cannot be
// reached at all, in which case the caller must assume the worst.
func (mg *Migrator) probeDest(ctx *kernel.ProcCtx, targetKS vid.PID, id vid.LHID) (confirmed, resident bool) {
	m, err := ctx.Send(targetKS, vid.Message{
		Op: kernel.KsQueryLH, W: [6]uint32{uint32(id)},
	})
	if err != nil {
		return false, false
	}
	return true, m.OK()
}

type spacePages struct {
	as    *mem.AddressSpace
	pages []mem.PageNo
}

func kbOf(sp []spacePages) float64 { return float64(pageCount(sp)) * mem.PageSize / 1024 }

func pageCount(sp []spacePages) int {
	n := 0
	for _, s := range sp {
		n += len(s.pages)
	}
	return n
}

// allPages lists every page of the migrating logical host and restarts
// dirty tracking; nothing blocks between the two.
func (at *copyAttempt) allPages() []spacePages { return at.pageLists(true) }

// dirtyPages lists the pages dirtied since the last snapshot and clears
// their bits.
func (at *copyAttempt) dirtyPages() []spacePages { return at.pageLists(false) }

// pageLists is allPages (all) or dirtyPages. The lists lie in the
// migrator's buffers: the next call overwrites them.
func (at *copyAttempt) pageLists(all bool) []spacePages {
	mg := at.mg
	sp, buf := mg.lists[:0], mg.pages[:0]
	for _, as := range at.lh.Spaces() {
		n := len(buf)
		if all {
			as.ClearDirty()
			buf = as.AppendAllPages(buf)
		} else {
			buf = as.AppendSnapshotDirty(buf)
		}
		sp = append(sp, spacePages{as, buf[n:len(buf):len(buf)]})
	}
	mg.lists, mg.pages = sp, buf
	return sp
}

// iterate is §3.1.2's loop with send as its sink: round 0 sends every
// page while the program runs, each later round the pages dirtied during
// the one before, until the dirty residue is small or stops shrinking; the
// logical host is then frozen and the residue sent. Pre-copy's sink is the
// destination placeholder, §3.2's the file server's paging store. On
// failure it returns the phase and round the send died in.
func (at *copyAttempt) iterate(send func([]spacePages) error) (trace.Phase, int, error) {
	pending := at.allPages()
	for round := 0; ; round++ {
		if err := at.round(round, pending, send); err != nil {
			return trace.PhasePrecopy, round, err
		}
		// The freeze decision happens atomically with the snapshot, which
		// overwrites pending.
		sent := kbOf(pending)
		dirty := at.dirtyPages()
		if !at.mg.Cluster.opt.precopyDone(round, sent, kbOf(dirty)) {
			pending = dirty
			continue
		}
		at.freeze()
		at.rep.ResidualKB = kbOf(dirty)
		if err := at.sendResidue(dirty, send); err != nil {
			return trace.PhaseResidue, 0, err
		}
		return 0, 0, nil
	}
}

// round sends one round of pages while the program still runs, and
// records it as a RoundStat and a pre-copy span.
func (at *copyAttempt) round(n int, sp []spacePages, send func([]spacePages) error) error {
	start := at.ctx.Now()
	at.atPhase(trace.PhasePrecopy, n)
	if err := send(sp); err != nil {
		return err
	}
	kb, dur := kbOf(sp), at.ctx.Now().Sub(start)
	at.rep.Rounds = append(at.rep.Rounds, RoundStat{
		Pages: pageCount(sp), KB: kb, Dur: dur, CopyRateKBps: rateKBps(kb, dur),
	})
	at.mg.span(trace.Span{
		LH: at.finalID, Phase: trace.PhasePrecopy, Round: n, KB: kb, Start: start, End: at.ctx.Now(),
	})
	return nil
}

// freeze stops the logical host: the freeze window FreezeTime measures
// opens here.
func (at *copyAttempt) freeze() {
	at.host.Freeze(at.lh)
	at.freezeStart = at.ctx.Now()
	at.atPhase(trace.PhaseFreeze, 0)
}

// sendResidue sends what the destination still lacks once frozen and
// publishes the residue span, which starts at the freeze.
func (at *copyAttempt) sendResidue(sp []spacePages, send func([]spacePages) error) error {
	at.atPhase(trace.PhaseResidue, 0)
	if err := send(sp); err != nil {
		return err
	}
	at.mg.span(trace.Span{
		LH: at.finalID, Phase: trace.PhaseResidue, KB: kbOf(sp), Start: at.freezeStart, End: at.ctx.Now(),
	})
	return nil
}

// atPhase reports one of the attempt's phase boundaries to the fault hook.
func (at *copyAttempt) atPhase(ph trace.Phase, round int) {
	at.mg.atPhase(at.finalID, ph, round, at.srcMAC, at.dstMAC)
}

// writeTo is the pre-swap sink: KsWritePages runs in the given mode to the
// destination placeholder.
func (at *copyAttempt) writeTo(mode uint32) func([]spacePages) error {
	return func(sp []spacePages) error {
		_, err := at.sendRuns(at.targetKS, vid.Message{
			Op: kernel.KsWritePages, W: [6]uint32{uint32(at.tempLH), mode},
		}, "", sp, nil)
		return err
	}
}

// sendRuns carries every page run a migration sends. The pages go to dst
// in batches of at most kernel.MaxRunPages, each batch the message out
// with the run as its segment — behind key and a NUL when key is set (a
// page-out run's prefix) — keeping up to the window's slot count in
// flight. take, when set, filters each batch as it is built and may claim
// what it takes; it runs before the pages are read, and the views are
// encoded at once, before anything can block. A WriteModeInvalidate run
// carries page numbers only (every body the elided zero page) and moves
// no address space. The receiver applies runs in whatever order they
// arrive — each is self-describing and installing is idempotent — so
// nothing waits for ordering; sendRuns drains the window before it
// returns, so every call is a barrier. It returns the KB of address space
// sent, up to a failure.
func (at *copyAttempt) sendRuns(dst vid.PID, out vid.Message, key string, sp []spacePages,
	take func(*mem.AddressSpace, mem.PageNo) bool) (float64, error) {

	mg, win := at.mg, at.win
	if mg.scratch == nil {
		mg.scratch = make([][]byte, kernel.MaxRunPages)
	}
	inval := out.Op == kernel.KsWritePages && out.W[1] == kernel.WriteModeInvalidate
	var taken []mem.PageNo
	if take != nil {
		taken = make([]mem.PageNo, 0, kernel.MaxRunPages)
	}
	var kb float64
	for _, s := range sp {
		for off := 0; off < len(s.pages); off += kernel.MaxRunPages {
			batch := s.pages[off:min(off+kernel.MaxRunPages, len(s.pages))]
			if take != nil {
				taken = taken[:0]
				for _, pn := range batch {
					if take(s.as, pn) {
						taken = append(taken, pn)
					}
				}
				if len(taken) == 0 {
					continue
				}
				batch = taken
			}
			data := mg.scratch[:len(batch)]
			for i, pn := range batch {
				if inval {
					data[i] = mem.ZeroPage()
				} else {
					data[i] = s.as.PageView(pn)
				}
			}
			seg := win.SegBuf()
			if key != "" {
				seg = append(append(seg, key...), 0)
			}
			out.Seg = kernel.AppendPageRun(seg, s.as.ID, batch, data)
			if err := win.Send(at.ctx.Task(), dst, out); err != nil {
				win.Drain(at.ctx.Task()) // the window's next user starts empty, the failure forgotten
				return kb, err
			}
			at.rep.WireBytes += int64(len(out.Seg))
			if !inval {
				kb += float64(len(batch)) * mem.PageSize / 1024
				at.rep.BytesCopied += int64(len(batch)) * mem.PageSize
			}
		}
	}
	return kb, win.Drain(at.ctx.Task())
}

// rateKBps is KB per second of d, 0 for an instantaneous round.
func rateKBps(kb float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return kb / d.Seconds()
}

func targetMAC(sel HostSel) ethernet.MAC { return ethernet.MAC(sel.SystemLH.Station()) }
