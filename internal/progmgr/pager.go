package progmgr

import (
	"slices"
	"strconv"
	"time"

	"vsystem/internal/fileserver"
	"vsystem/internal/freelist"
	"vsystem/internal/ipc"
	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// Page sources, PmInitMigration's W0: where a migration leaves the pages
// its copy lacks (0: nowhere). The destination's manager pages them in by
// name: from the paging store, under fileserver.AppendPagePrefix's key, or
// from a frozen receptacle at the source, whose id the unfreeze names
// (KsUnfreezeLH's W1, PmAssumeMigration's W1) — a page the store then
// lacks is lost, not a hole.
const (
	PagesInStore uint32 = 1 << iota
	PagesInReceptacle
)

// PmAwaitResidue: the post-copy source's last residue message. W0=final
// LHID, W1=pages its push-out delivered, W2=1 when the residue is lost
// (the copy is aborted, never unfrozen), Seg=(space id, page number) word
// pairs: the pages the push-out skipped, a fetch having claimed them, that
// are not all zero → held until every listed page is resident, the guest
// is gone or ResidueDrainTimeout passes; W0=faults, W1|W2<<32=their stall
// in ns, W3=pages they fetched first, W4=fetch reply bytes. CodeAborted
// when the residue was lost, CodeTimeout at the deadline.
const PmAwaitResidue uint16 = 0x3F

// PagerStats counts a migrated-in copy's demand paging. Every fault counted
// publishes one EvRemoteFault.
type PagerStats struct {
	Faults         int
	StallTime      time.Duration // total time faulting processes were parked
	PullKB         float64       // KB a demand fetch installed first (faulted page + read-ahead)
	PushKB         float64       // KB the source push-out delivered
	Aborted        bool          // the residue was lost; the guest was destroyed
	AbortErr       error         // why, when Aborted
	FetchWireBytes int64         // KsFetchPage reply segments received: the report's WireBytes share
}

const pageKB = float64(mem.PageSize) / 1024

// FaultKB is the address space the faults asked for: one page each.
func (s *PagerStats) FaultKB() float64 { return float64(s.Faults) * pageKB }

// pager is a manager's demand pager, made at its first migration in that
// leaves pages behind; its drain worker, at the first drain.
type pager struct {
	pm      *PM
	guests  map[vid.LHID]*inbound // by final LHID, the last copy of each; kept for the stats
	calls   freelist.List[*pagerCall]
	seq     uint32
	fetched kernel.PageRun // the demand-fetched run being installed
	drains  inbox[*inbound]
	drainer *kernel.Process
	wake    sim.WaitQ // a held drain waits here for its pages or its guest's end
}

// inbound is one migrated-in copy's paging, and its held drain.
type inbound struct {
	final    vid.LHID
	lh       *kernel.LogicalHost
	sources  uint32   // PagesIn*
	srcKS    vid.PID  // the source's kernel server, through its system logical host
	recep    vid.LHID // the receptacle's id there (0: none named)
	stats    PagerStats
	drain    *ipc.Req  // the held PmAwaitResidue
	want     []pageRef // its listed pages not yet resident
	deadline sim.Time
}

type pageRef struct {
	as *mem.AddressSpace
	pn mem.PageNo
}

func (pm *PM) paging() *pager {
	if pm.pg == nil {
		pm.pg = &pager{pm: pm, guests: make(map[vid.LHID]*inbound),
			calls: freelist.NewList(8, func() *pagerCall { return new(pagerCall) }, nil, pm.host.Eng.Poison())}
	}
	return pm.pg
}

// startPaging installs the fault handler on an incoming copy lh, which
// has assumed its identity, as it is unfrozen: once, and only if its
// migration left pages behind. The unfreeze names the receptacle (recep,
// named): 0 then means none, the residue delivered whole. An adopted
// copy's source named nothing.
func (pm *PM) startPaging(lh *kernel.LogicalHost, recep vid.LHID, named bool) {
	pi := pm.progs[lh.ID()]
	if pi == nil || pi.lh != lh || pi.pages == 0 || named && recep == 0 && pi.pages&PagesInReceptacle != 0 {
		return
	}
	pg := pm.paging()
	in := &inbound{final: lh.ID(), lh: lh, sources: pi.pages, srcKS: kernel.KernelServerPID(pi.srcLH), recep: recep}
	pg.guests[in.final], pi.pages = in, 0
	for _, as := range lh.Spaces() {
		as.SetFault(func(pn mem.PageNo) []byte {
			pg.fault(in, as, pn)
			return nil
		})
	}
}

// fault is the one fault handler. A reference to an absent page is counted
// and traced, parks its process while resolve brings the page, and is
// charged the stall; the access then finds the page, or a zero (hole) page.
func (pg *pager) fault(in *inbound, as *mem.AddressSpace, pn mem.PageNo) {
	h := pg.pm.host
	t := h.Eng.Current()
	if t == nil {
		return // non-task access (diagnostics): treat as zero
	}
	start := h.Eng.Now()
	in.stats.Faults++
	h.Trace().Publish(trace.Event{
		At: start, Host: uint16(h.NIC.MAC()), Kind: trace.EvRemoteFault, LH: in.final, Size: int(pn),
	})
	pg.resolve(t, in, as, pn)
	in.stats.StallTime += h.Eng.Now().Sub(start)
	pg.wake.WakeOne()
}

// resolve asks for page pn by name: the receptacle first (or the racing
// push-out, which may have delivered it meanwhile), then the paging store.
// A store without the page means a hole when there is no receptacle (the
// page was never flushed). Otherwise, and whenever no server answers, the
// copy's memory can never be completed: the guest is aborted as lost
// rather than run on holes.
func (pg *pager) resolve(t *sim.Task, in *inbound, as *mem.AddressSpace, pn mem.PageNo) {
	var err error
	if in.recep != 0 {
		if err = pg.fetch(t, in, as, pn); err == nil || as.Present(pn) {
			return
		}
	}
	perr := pg.pageIn(t, in.final, as, pn)
	if perr == nil || perr == vid.CodeError(vid.CodeNotFound) && in.sources&PagesInReceptacle == 0 {
		return
	}
	if err == nil {
		err = perr
	}
	pg.abort(t, in, err)
}

// fetch asks the receptacle for a FetchRunPages run of the faulted page
// plus still-absent neighbors, and installs it if-absent, by copy, without
// blocking (the manager's other faulting tasks find the run free). The
// faulted page's getPage then finds it present — or, being all zero,
// absent, and allocates it zeroed, as it would have made it from the bytes.
func (pg *pager) fetch(t *sim.Task, in *inbound, as *mem.AddressSpace, pn mem.PageNo) error {
	c := pg.call(t)
	defer pg.hangUp(c)
	c.pages = append(c.pages[:0], pn)
	limit := mem.PageNo(as.Size() / mem.PageSize)
	for p := pn + 1; p < limit && len(c.pages) < params.FetchRunPages; p++ {
		if !as.Present(p) {
			c.pages = append(c.pages, p)
		}
	}
	c.seg = kernel.AppendFetchReq(c.seg[:0], as.ID, c.pages)
	m, err := c.Send(in.srcKS, vid.Message{Op: kernel.KsFetchPage, W: [6]uint32{uint32(in.recep)}, Seg: c.seg})
	if err != nil || !m.OK() {
		return vid.SendErr(m, err)
	}
	in.stats.FetchWireBytes += int64(len(m.Seg))
	run := &pg.fetched
	if run.Decode(m.Seg) != nil || run.Space != as.ID || !slices.Contains(run.Pages, pn) {
		return vid.CodeError(vid.CodeBadRequest)
	}
	for i, p := range run.Pages {
		if installed, _ := as.InstallPageIfAbsent(p, run.Data[i]); installed || p == pn {
			in.stats.PullKB += pageKB
		}
	}
	c.port.ReleaseReply() // every page is copied out of the run
	return nil
}

// pageIn reads page pn of the copy migrating as final from the paging
// store, through the manager's file-service client, and installs it by
// copy. It returns the store's CodeNotFound for a page never flushed, and
// a transport error when no server answers.
func (pg *pager) pageIn(t *sim.Task, final vid.LHID, as *mem.AddressSpace, pn mem.PageNo) error {
	c := pg.call(t)
	defer pg.hangUp(c)
	c.seg = strconv.AppendUint(append(fileserver.AppendPagePrefix(c.seg[:0], final), '/'), uint64(as.ID), 10)
	c.seg = strconv.AppendUint(append(c.seg, '/'), uint64(pn), 10)
	m, err := pg.pm.fs.Send(c, vid.Message{Op: fileserver.OpPageIn, Seg: c.seg})
	if err != nil || !m.OK() {
		return vid.SendErr(m, err)
	}
	as.InstallPageIfAbsent(pn, m.Seg)
	c.port.ReleaseReply()
	return nil
}

// abort marks the residue lost and destroys the guest as lost (abortGuest):
// supervision re-executes it from its file-server image.
func (pg *pager) abort(t *sim.Task, in *inbound, cause error) {
	if !in.stats.Aborted {
		in.stats.Aborted, in.stats.AbortErr = true, cause
	}
	if !pg.gone(in) {
		pg.pm.abortGuest(t, in.final)
	}
}

func (pg *pager) gone(in *inbound) bool {
	cur, ok := pg.pm.host.LookupLH(in.final)
	return !ok || cur != in.lh
}

// awaitResidue holds the source's PmAwaitResidue for the drainer. Drained
// means resident here: a page a fetch claimed may still be in its reply,
// while a pushed page is resident once its run is acknowledged, so the
// list names only the first kind.
func (pm *PM) awaitResidue(ctx *kernel.ProcCtx, req *ipc.Req) {
	m := req.Msg
	final := vid.LHID(m.W[0])
	if m.W[2] != 0 {
		pm.abortGuest(ctx.Task(), final)
		ctx.Reply(req, vid.Message{Op: m.Op})
		return
	}
	pg := pm.paging()
	in := pg.guests[final]
	if in == nil {
		ctx.Reply(req, vid.ErrMsg(vid.CodeNotFound))
		return
	}
	in.stats.PushKB = float64(m.W[1]) * pageKB
	for rd := vid.NewReader(m.Seg); rd.Len() >= 8; {
		id, pn := rd.U32(), mem.PageNo(rd.U32())
		if as, ok := in.lh.Space(id); ok {
			in.want = append(in.want, pageRef{as, pn})
		}
	}
	in.drain, in.deadline = req, ctx.Now().Add(params.ResidueDrainTimeout)
	if pg.drainer == nil {
		pg.drainer = pm.host.SpawnServer("pm-pager", 8*1024, pg.drainLoop)
	}
	pg.drains.put(in)
}

// drainLoop is the pm-pager worker: it holds each drain, in arrival order,
// until its residue was lost, its guest is gone, every listed page is
// resident or its deadline passes, and answers it from the manager's
// service port with the copy's fault accounting. A drained residue retires
// the fault path, so absent pages allocate locally again; one still short
// at its deadline is lost, and the guest with it.
func (pg *pager) drainLoop(ctx *kernel.ProcCtx) {
	for {
		in := pg.drains.take(ctx)
		ctx.WaitFor(&pg.wake, max(in.deadline.Sub(ctx.Now()), 0), func() bool {
			if in.stats.Aborted || pg.gone(in) {
				return true
			}
			in.want = slices.DeleteFunc(in.want, func(w pageRef) bool { return w.as.Present(w.pn) })
			return len(in.want) == 0
		})
		code := vid.CodeOK
		switch {
		case in.stats.Aborted:
			code = vid.CodeAborted
		case pg.gone(in):
		case len(in.want) > 0:
			code = vid.CodeTimeout
			pg.abort(ctx.Task(), in, vid.CodeError(code))
		default:
			for _, as := range in.lh.Spaces() {
				as.SetFault(nil)
			}
		}
		st, stall, req := &in.stats, uint64(in.stats.StallTime), in.drain
		in.drain, in.want = nil, nil
		pg.pm.proc.Port().Reply(ctx.Task(), req, vid.Message{Op: PmAwaitResidue, Code: code, W: [6]uint32{
			uint32(st.Faults), uint32(stall), uint32(stall >> 32), uint32(st.PullKB / pageKB), uint32(st.FetchWireBytes),
		}})
	}
}

// pagerCall is one fault's exchange with the server holding its page, the
// file-service client's Conn outside a process: the faulting task, a port
// of its own, and the buffers its request is built in. The pager keeps
// finished calls for the next faults (as many as ran at once, up to 8).
type pagerCall struct {
	pg    *pager
	t     *sim.Task
	port  *ipc.Port
	pages []mem.PageNo
	seg   []byte
}

func (c *pagerCall) Send(dst vid.PID, m vid.Message) (vid.Message, error) {
	freelist.Check(&c.pg.calls, c)
	return c.port.Send(c.t, dst, m)
}
func (c *pagerCall) Sleep(d time.Duration) { c.t.Sleep(d) }

func (pg *pager) call(t *sim.Task) *pagerCall {
	c := pg.calls.Get()
	c.pg, c.t, c.port = pg, t, pg.pm.host.IPC.NewPortGen(pg.pid())
	return c
}

// hangUp closes a call's port and keeps the call for the next fault,
// unless its task is being killed: its request may still be queued for a
// server on this station, reading the segment.
func (pg *pager) hangUp(c *pagerCall) {
	c.port.Close()
	if !c.t.Killed() {
		c.t, c.port = nil, nil
		pg.calls.Put(c)
	}
}

// pid allocates a port id for one fault's transaction, from the system
// logical host's private 0xF000 index block, and the generation to
// register it under (ipc.NewPortGen): each wrap of the 4096-id sequence is
// a new one, since a server that served an id before still remembers its
// transactions. Ids whose port an old fault still holds are skipped.
func (pg *pager) pid() (vid.PID, uint32) {
	h := pg.pm.host
	for i := 0; i < 0x1000; i++ {
		pg.seq++
		pid := vid.NewPID(h.SystemLH().ID(), uint16(0xF000+pg.seq%0x1000))
		if !h.IPC.HasPort(pid) {
			return pid, pg.seq / 0x1000
		}
	}
	panic("progmgr: pager port ids exhausted")
}

// PagedIn yields the stats of the last copy of each LHID this manager
// paged in, and PagerCalls is its pager's free list (nil before the
// first): harness reads.
func (pm *PM) PagedIn(yield func(vid.LHID, *PagerStats) bool) {
	if pm.pg == nil {
		return
	}
	for id, in := range pm.pg.guests {
		if !yield(id, &in.stats) {
			return
		}
	}
}

func (pm *PM) PagerCalls() *freelist.List[*pagerCall] {
	if pm.pg == nil {
		return nil
	}
	return &pm.pg.calls
}
