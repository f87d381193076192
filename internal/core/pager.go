package core

import (
	"fmt"
	"time"

	"vsystem/internal/fileserver"
	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/params"
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
	Faults int

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

// FaultKB is the address space the faults asked for: one page each.
func (s *PagerStats) FaultKB() float64 { return float64(s.Faults) * mem.PageSize / 1024 }

// pageOut is the §3.2 sink iterate flushes into: page runs to the file
// server's paging store under the logical host's key prefix (V moved up to
// 32 KB as a unit, §3.1; a paging server would batch writes the same
// way). The write target is re-resolved per call so a round started after
// a file-server failover still reaches the new leader.
func (at *copyAttempt) pageOut(sp []spacePages) error {
	fs := at.mg.fileServerPID()
	_, err := at.sendRuns(fs, vid.Message{
		Op: fileserver.OpPageOutRun, W: [6]uint32{5: fsW5(fs)},
	}, pagePrefix(at.finalID), sp, nil)
	return err
}

// pagePrefix is a logical host's key prefix in the paging store; a page is
// stored under "prefix/space/pageno".
func pagePrefix(id vid.LHID) string { return fmt.Sprintf("pg/%04x", uint16(id)) }

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

// destCopy finds the new copy at the destination: nil when the
// simulation cannot reach it.
func (at *copyAttempt) destCopy() (*Node, *kernel.LogicalHost) {
	if node := at.mg.Cluster.NodeByLH(at.sel.SystemLH); node != nil {
		if lh, ok := node.Host.LookupLH(at.finalID); ok {
			return node, lh
		}
	}
	return nil, nil
}

// demandPage is the fault handler both pagers share, installed on every
// space of the new copy lh at node between the identity swap and the
// unfreeze, with stats registered for the harness. A faulting reference
// is counted and traced — one EvRemoteFault per counted fault, the parity
// the tests hold — parks its process while fetch brings the page, and is
// charged the stall. fetch returns the page's bytes, or nil for whatever
// the faulting access then finds: a page fetch installed itself, or a
// zero (hole) page.
func (at *copyAttempt) demandPage(node *Node, lh *kernel.LogicalHost, stats *PagerStats,
	fetch func(t *sim.Task, as *mem.AddressSpace, pn mem.PageNo) []byte) {

	id, c := lh.ID(), at.mg.Cluster
	c.pagers[id] = stats // for the experiment harness
	for _, as := range lh.Spaces() {
		as.SetFault(func(pn mem.PageNo) []byte {
			t := node.Host.Eng.Current()
			if t == nil {
				return nil // non-task access (diagnostics): treat as zero
			}
			start := node.Host.Eng.Now()
			stats.Faults++
			c.Trace.Publish(trace.Event{
				At: start, Host: uint16(node.Host.NIC.MAC()),
				Kind: trace.EvRemoteFault, LH: id, Size: int(pn),
			})
			data := fetch(t, as, pn)
			stats.StallTime += node.Host.Eng.Now().Sub(start)
			return data
		})
	}
}

// demandFetch is post-copy's fetch: it resolves one demand fault against
// the source receptacle — a FetchRunPages run of the faulted page plus
// read-ahead over still-absent neighbors — with the racing push-out and
// the file server's flush image as fallbacks. When nothing can serve the
// page (the source crashed mid-residue) it aborts the guest cleanly
// rather than let it run on memory holes.
func (at *copyAttempt) demandFetch(t *sim.Task, as *mem.AddressSpace, pn mem.PageNo) []byte {
	rs := at.residue
	pages := []mem.PageNo{pn}
	limit := mem.PageNo(as.Size() / mem.PageSize)
	for p := pn + 1; p < limit && len(pages) < params.FetchRunPages; p++ {
		if !as.Present(p) {
			pages = append(pages, p)
		}
	}
	port := rs.node.Host.IPC.NewPortGen(rs.node.pagerPID())
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
	if b := at.pageIn(t, rs.node, as, pn); b != nil {
		return b
	}
	// Nothing can complete this guest's memory: abort cleanly.
	rs.abortGuest(t, sendErr(err, m))
	return nil
}

// pageIn reads one page of the migrated copy's flush image from the file
// server's paging store, for a task at node: flush's whole fetch, and
// post-copy's fallback when the receptacle cannot serve. It returns nil
// when there is none (never flushed: a hole page) or no server answers.
// The serving replica is resolved per fault — the leader at install time
// may be dead by now — and a dead pinned leader gets one bounded retry
// through the group; not-found is a definitive answer and is not retried.
func (at *copyAttempt) pageIn(t *sim.Task, node *Node, as *mem.AddressSpace, pn mem.PageNo) []byte {
	port := node.Host.IPC.NewPortGen(node.pagerPID())
	defer port.Close()
	dst := at.mg.fileServerPID()
	req := vid.Message{
		Op: fileserver.OpPageIn, W: [6]uint32{5: fsW5(dst)},
		Seg: []byte(fmt.Sprintf("%s/%d/%d", pagePrefix(at.finalID), as.ID, pn)),
	}
	m, err := port.Send(t, dst, req)
	if (err != nil || (!m.OK() && m.Code != vid.CodeNotFound)) && !dst.IsGroup() {
		req.W[5] = 0
		m, err = port.Send(t, vid.GroupFileServers, req)
	}
	if err != nil || !m.OK() {
		return nil
	}
	return m.Seg
}

// pagerPID allocates a unique port id for one page-fault transaction, and
// the generation to register it under (ipc.NewPortGen). Ids come from the
// system logical host's private 0xF000 index block. The bare sequence
// wraps after 4096 allocations, and each wrap is a new generation: a server
// that served an id before the wrap still remembers its transactions. A
// long-lived cluster could recycle an id while an old fault transaction is
// still parked on its port — NewPortGen panics on the collision — so ids
// with a live port are skipped.
func (n *Node) pagerPID() (vid.PID, uint32) {
	sys := n.Host.SystemLH().ID()
	for i := 0; i < 0x1000; i++ {
		n.pagerSeq++
		pid := vid.NewPID(sys, uint16(0xF000+n.pagerSeq%0x1000))
		if !n.Host.IPC.HasPort(pid) {
			return pid, n.pagerSeq / 0x1000
		}
	}
	panic("core: pager port ids exhausted")
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
