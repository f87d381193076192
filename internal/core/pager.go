package core

import (
	"fmt"
	"time"

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

// PagerStats counts demand-paging activity for a flush-migrated program
// (§3.2) or a post-copy destination. Pages that were dirty on the
// original host and then referenced on the new host cross the network
// twice — the flush variant's stated cost; post-copy's cost is the stall
// a faulting process pays while its page crosses once. Every fault
// counted here publishes one trace.EvRemoteFault; tests hold the two to
// parity.
type PagerStats struct {
	Faults  int
	FaultKB float64

	// Post-copy residue accounting.
	StallTime time.Duration // total time faulting processes were parked
	PullKB    float64       // KB a demand fetch installed first (faulted page + read-ahead)
	PushKB    float64       // KB the source push-out delivered
	Aborted   bool          // the residue was lost; the guest was destroyed
	AbortErr  error         // typed *PhaseError (trace.PhasePostSwapPull) when Aborted

	// FetchWireBytes is the KsFetchPage reply segments demandFetch
	// received, whether or not their pages were still absent on arrival:
	// the demand path's share of MigrationReport.WireBytes.
	FetchWireBytes int64
}

// flushOut is the source side of the §3.2 variant: instead of copying the
// address spaces to the new host, modified pages are flushed to the
// network file server (iteratively, like pre-copy), the logical host is
// frozen, and the residue flushed. The new host faults pages in from the
// file server on demand.
func (mg *Migrator) flushOut(ctx *kernel.ProcCtx, pm *progmgr.PM, lh *kernel.LogicalHost,
	win *ipc.Window, rep *MigrationReport) error {

	prefix := fmt.Sprintf("pg/%04x", uint16(lh.ID()))

	var pending []spacePages
	for _, as := range lh.Spaces() {
		as.ClearDirty()
		pending = append(pending, spacePages{as, as.AllPages()})
	}
	for round := 0; ; round++ {
		roundStart := ctx.Now()
		if err := mg.flushPages(ctx, prefix, win, pending, rep); err != nil {
			return err
		}
		dur := ctx.Now().Sub(roundStart)
		rep.Rounds = append(rep.Rounds, RoundStat{
			Pages: pageCount(pending), KB: kbOf(pending), Dur: dur,
			CopyRateKBps: rateKBps(kbOf(pending), dur),
		})
		mg.span(trace.Span{
			LH: lh.ID(), Phase: trace.PhasePrecopy, Round: round,
			KB: kbOf(pending), Start: roundStart, End: ctx.Now(),
		})
		var dirty []spacePages
		for _, as := range lh.Spaces() {
			dirty = append(dirty, spacePages{as, as.SnapshotDirty()})
		}
		dirtyKB := kbOf(dirty)
		if mg.Cluster.opt.precopyDone(round, kbOf(pending), dirtyKB) {
			pm.Host().Freeze(lh)
			mg.freezeStart = ctx.Now()
			rep.ResidualKB = dirtyKB
			if err := mg.flushPages(ctx, prefix, win, dirty, rep); err != nil {
				return err
			}
			mg.span(trace.Span{
				LH: lh.ID(), Phase: trace.PhaseResidue, KB: dirtyKB,
				Start: mg.freezeStart, End: ctx.Now(),
			})
			return nil
		}
		pending = dirty
	}
}

// flushPages writes pages to the file server's paging store in page-run
// batches (V moved up to 32 KB as a unit, §3.1; a paging server would
// batch writes the same way), pipelined through the same bulk-transfer
// window as the direct copy paths. The write target is re-resolved per
// call so a flush round started before a file-server failover still
// reaches the new leader.
func (mg *Migrator) flushPages(ctx *kernel.ProcCtx, prefix string,
	win *ipc.Window, sp []spacePages, rep *MigrationReport) error {

	fs := mg.fileServerPID()
	if mg.scratch == nil {
		mg.scratch = make([][]byte, kernel.MaxRunPages)
	}
	for _, s := range sp {
		for off := 0; off < len(s.pages); off += kernel.MaxRunPages {
			end := off + kernel.MaxRunPages
			if end > len(s.pages) {
				end = len(s.pages)
			}
			batch := s.pages[off:end]
			data := mg.scratch[:len(batch)]
			for i, pn := range batch {
				data[i] = s.as.PageView(pn)
			}
			seg := append(append(win.SegBuf(), prefix...), 0)
			seg = kernel.AppendPageRun(seg, s.as.ID, batch, data)
			out := vid.Message{
				Op: fileserver.OpPageOutRun, W: [6]uint32{0, 0, 0, 0, 0, fsW5(fs)}, Seg: seg,
			}
			if err := win.Send(ctx.Task(), fs, out); err != nil {
				return ErrMigrationFailed
			}
			rep.BytesCopied += int64(len(batch)) * mem.PageSize
			rep.WireBytes += int64(len(seg))
		}
	}
	if err := win.Drain(ctx.Task()); err != nil {
		return ErrMigrationFailed
	}
	return nil
}

func pageKey(prefix string, space uint32, pn mem.PageNo) string {
	return fmt.Sprintf("%s/%d/%d", prefix, space, pn)
}

// fileServerPID resolves the cluster's file server (in V this binding
// comes from the program's name cache; the simulation resolves it through
// the cluster facade). With a replicated file service it names the current
// write leader when one is known, else the file-server group.
func (mg *Migrator) fileServerPID() vid.PID { return mg.Cluster.fsTarget() }

// fsW5 marks a request unicast-addressed (fileserver.FsUnicast) so a
// replica that lost authority answers CodeNotLeader promptly instead of
// leaving the sender to ride out a full send abort in silence.
func fsW5(dst vid.PID) uint32 {
	if dst.IsGroup() {
		return 0
	}
	return fileserver.FsUnicast
}

// installPager configures demand paging on the new copy's (empty) address
// spaces: the first access to a missing page pulls it from the file
// server, blocking the faulting process for the fetch. Installed between
// the identity change and the unfreeze.
func (mg *Migrator) installPager(lhid vid.LHID, destSys vid.LHID) {
	node := mg.Cluster.NodeByLH(destSys)
	if node == nil {
		return
	}
	lh, ok := node.Host.LookupLH(lhid)
	if !ok {
		return
	}
	prefix := fmt.Sprintf("pg/%04x", uint16(lhid))
	stats := &PagerStats{}
	mg.Cluster.registerPager(lhid, stats)
	for _, as := range lh.Spaces() {
		as := as
		as.SetFault(func(pn mem.PageNo) []byte {
			t := node.Host.Eng.Current()
			if t == nil {
				return nil // non-task access (diagnostics): treat as zero
			}
			start := node.Host.Eng.Now()
			stats.Faults++
			stats.FaultKB += float64(mem.PageSize) / 1024
			mg.publishRemoteFault(node, lhid, pn, start)
			port := node.Host.IPC.NewPort(node.pagerPID())
			defer port.Close()
			// Resolve the serving replica per fault — the leader at install
			// time may be dead by the time this page is referenced.
			dst := mg.fileServerPID()
			pageIn := vid.Message{
				Op: fileserver.OpPageIn, W: [6]uint32{0, 0, 0, 0, 0, fsW5(dst)},
				Seg: []byte(pageKey(prefix, as.ID, pn)),
			}
			m, err := port.Send(t, dst, pageIn)
			if (err != nil || (!m.OK() && m.Code != vid.CodeNotFound)) && !dst.IsGroup() {
				// Pinned leader gone: one bounded retry through the group.
				// (Not-found is a definitive answer — a hole page — and is
				// not retried.)
				pageIn.W[5] = 0
				m, err = port.Send(t, vid.GroupFileServers, pageIn)
			}
			stats.StallTime += node.Host.Eng.Now().Sub(start)
			if err != nil || !m.OK() {
				return nil // never flushed: a zero (hole) page
			}
			return m.Seg
		})
	}
}

// publishRemoteFault emits the EvRemoteFault event every counted demand
// fault must pair with (stats/trace parity).
func (mg *Migrator) publishRemoteFault(node *Node, lhid vid.LHID, pn mem.PageNo, at sim.Time) {
	var bus *trace.Bus
	if mg.Cluster != nil {
		bus = mg.Cluster.Trace
	}
	bus.Publish(trace.Event{
		At: at, Host: uint16(node.Host.NIC.MAC()),
		Kind: trace.EvRemoteFault, LH: lhid, Size: int(pn),
	})
}

// installRemotePager configures the post-copy remote-fault path on the
// migrated copy: a faulting reference parks the process and pulls a
// FetchRunPages page run from the source receptacle (the faulted page
// plus read-ahead over still-absent neighbors). When the receptacle
// cannot serve — the source crashed mid-residue — the path falls back to
// the file server's flush image for the page, and failing that aborts
// the guest cleanly rather than let it run on memory holes. Installed
// between the identity swap and the unfreeze.
func (mg *Migrator) installRemotePager(rs *residueState) {
	node := rs.node
	for _, as := range rs.destLH.Spaces() {
		as := as
		as.SetFault(func(pn mem.PageNo) []byte {
			t := node.Host.Eng.Current()
			if t == nil {
				return nil // non-task access (diagnostics): treat as zero
			}
			start := node.Host.Eng.Now()
			rs.stats.Faults++
			rs.stats.FaultKB += float64(mem.PageSize) / 1024
			mg.publishRemoteFault(node, rs.destLH.ID(), pn, start)
			data := rs.demandFetch(t, as, pn)
			rs.stats.StallTime += node.Host.Eng.Now().Sub(start)
			return data
		})
	}
}

// demandFetch resolves one demand fault against the source receptacle,
// with the file server and the racing push-out as fallbacks.
func (rs *residueState) demandFetch(t *sim.Task, as *mem.AddressSpace, pn mem.PageNo) []byte {
	// The faulted page plus read-ahead over still-absent neighbors, one
	// fetch-request's worth.
	pages := []mem.PageNo{pn}
	limit := mem.PageNo(as.Size() / mem.PageSize)
	for p := pn + 1; p < limit && len(pages) < params.FetchRunPages; p++ {
		if !as.Present(p) {
			pages = append(pages, p)
		}
	}
	port := rs.node.Host.IPC.NewPort(rs.node.pagerPID())
	defer port.Close()
	m, err := port.Send(t, rs.srcKS, vid.Message{
		Op:  kernel.KsFetchPage,
		W:   [6]uint32{uint32(rs.id)},
		Seg: kernel.EncodeFetchReq(as.ID, pages),
	})
	if err == nil && m.OK() {
		rs.stats.FetchWireBytes += int64(len(m.Seg))
		if spaceID, rp, rd, derr := kernel.DecodePageRun(m.Seg); derr == nil && spaceID == as.ID {
			served := false
			for i, p := range rp {
				installed, _ := as.InstallPageIfAbsent(p, rd[i])
				if p == pn {
					// Installed here, by copy, rather than handed to the
					// faulting getPage: it finds the page present — or, the
					// page being all zero, absent, and allocates it zeroed —
					// just as it would have made it from the bytes.
					served = true
				} else if installed {
					rs.stats.PullKB += float64(mem.PageSize) / 1024
				}
			}
			port.ReleaseReply() // every page is copied out of the run
			if served {
				rs.stats.PullKB += float64(mem.PageSize) / 1024
				return nil
			}
		}
	}
	// The receptacle could not serve. The racing push-out may have
	// delivered the page meanwhile — the faulting getPage re-checks
	// presence after this handler returns, so a nil here is safe when the
	// page is present.
	if as.Present(pn) {
		return nil
	}
	// Fall back to the file server's flush image (populated if this
	// logical host was ever flush-migrated under the same key prefix).
	if b := rs.fetchFromFS(t, as, pn); b != nil {
		return b
	}
	// Nothing can complete this guest's memory: abort cleanly.
	rs.abortGuest(t, sendErr(err, m))
	return nil
}

// fetchFromFS tries the file server's paging store for one page. The
// flush-image fallback is exactly the path that must survive a file-server
// crash: a dead pinned leader gets one bounded retry through the group.
func (rs *residueState) fetchFromFS(t *sim.Task, as *mem.AddressSpace, pn mem.PageNo) []byte {
	prefix := fmt.Sprintf("pg/%04x", uint16(rs.destLH.ID()))
	port := rs.node.Host.IPC.NewPort(rs.node.pagerPID())
	defer port.Close()
	dst := rs.mg.fileServerPID()
	pageIn := vid.Message{
		Op: fileserver.OpPageIn, W: [6]uint32{0, 0, 0, 0, 0, fsW5(dst)},
		Seg: []byte(pageKey(prefix, as.ID, pn)),
	}
	m, err := port.Send(t, dst, pageIn)
	if (err != nil || (!m.OK() && m.Code != vid.CodeNotFound)) && !dst.IsGroup() {
		pageIn.W[5] = 0
		m, err = port.Send(t, vid.GroupFileServers, pageIn)
	}
	if err != nil || !m.OK() {
		return nil
	}
	return m.Seg
}

// pagerPID allocates a unique port id for one page-fault transaction.
// Ids come from the system logical host's private 0xF000 index block.
// The bare sequence wraps after 4096 allocations, and a long-lived
// cluster could recycle an id while an old fault transaction is still
// parked on its port — NewPort panics on the collision — so ids with a
// live port are skipped.
func (n *Node) pagerPID() vid.PID {
	sys := n.Host.SystemLH().ID()
	for i := 0; i < 0x1000; i++ {
		n.pagerSeq++
		pid := vid.NewPID(sys, 0xF000+n.pagerSeq%0x1000)
		if !n.Host.IPC.HasPort(pid) {
			return pid
		}
	}
	panic("core: pager port ids exhausted")
}

// registerPager records a pager's stats for the experiment harness.
func (c *Cluster) registerPager(lhid vid.LHID, st *PagerStats) {
	if c.pagers == nil {
		c.pagers = make(map[vid.LHID]*PagerStats)
	}
	c.pagers[lhid] = st
}

// PagerStatsFor returns demand-paging stats for a flush- or post-copy-
// migrated program.
func (c *Cluster) PagerStatsFor(lhid vid.LHID) *PagerStats { return c.pagers[lhid] }

// RemoteFaultTotals aggregates demand-paging counters across every
// registered pager (flush and post-copy migrations alike). The sums are
// order-independent, so iterating the map stays deterministic.
func (c *Cluster) RemoteFaultTotals() PagerStats {
	var tot PagerStats
	for _, st := range c.pagers {
		tot.Faults += st.Faults
		tot.FaultKB += st.FaultKB
		tot.StallTime += st.StallTime
		tot.PullKB += st.PullKB
		tot.PushKB += st.PushKB
		tot.FetchWireBytes += st.FetchWireBytes
		if st.Aborted {
			tot.Aborted = true
		}
	}
	return tot
}
