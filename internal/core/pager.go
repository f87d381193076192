package core

import (
	"errors"
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
// way), through the source manager's file-service client. The window needs
// one server: a manager with no pin finds one with a group stat of the
// program's image first, and a decline naming the leader, or a silent
// server, sends the whole batch again to the server the client turns to —
// page stores are keyed, so a page written twice is written once.
func (at *copyAttempt) pageOut(sp []spacePages) error {
	out := vid.Message{Op: fileserver.OpPageOutRun, W: [6]uint32{5: fileserver.FsUnicast}}
	key := string(appendPagePrefix(nil, at.finalID))
	m, err := at.fs.Do(at.ctx, at.lh.Name(), func(dst vid.PID) (vid.Message, error) {
		_, err := at.sendRuns(dst, out, key, sp, nil)
		var re *ipc.ReplyError
		if errors.As(err, &re) {
			return re.Reply, nil
		}
		return vid.Message{}, err
	})
	return sendErr(err, m)
}

// appendPagePrefix appends a logical host's key prefix in the paging store,
// "pg/" and the id in four hex digits; a page is stored under
// "prefix/space/pageno".
func appendPagePrefix(dst []byte, id vid.LHID) []byte {
	const hex = "0123456789abcdef"
	return append(dst, 'p', 'g', '/', hex[id>>12&15], hex[id>>8&15], hex[id>>4&15], hex[id&15])
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
// charged the stall. fetch installs the page if it can; the faulting
// access then finds what fetch left: the page, or a zero (hole) page.
func (at *copyAttempt) demandPage(node *Node, lh *kernel.LogicalHost, stats *PagerStats,
	fetch func(t *sim.Task, as *mem.AddressSpace, pn mem.PageNo)) {

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
			fetch(t, as, pn)
			stats.StallTime += node.Host.Eng.Now().Sub(start)
			return nil
		})
	}
}

// demandFetch is post-copy's fetch: it resolves one demand fault against
// the source receptacle — a FetchRunPages run of the faulted page plus
// read-ahead over still-absent neighbors — with the racing push-out and
// the file server's flush image as fallbacks. When nothing can serve the
// page (the source crashed mid-residue) it aborts the guest cleanly
// rather than let it run on memory holes.
func (at *copyAttempt) demandFetch(t *sim.Task, as *mem.AddressSpace, pn mem.PageNo) {
	rs := at.residue
	c := rs.node.call(t)
	defer rs.node.hangUp(c)
	c.pages = append(c.pages[:0], pn)
	limit := mem.PageNo(as.Size() / mem.PageSize)
	for p := pn + 1; p < limit && len(c.pages) < params.FetchRunPages; p++ {
		if !as.Present(p) {
			c.pages = append(c.pages, p)
		}
	}
	c.seg = kernel.AppendFetchReq(c.seg[:0], as.ID, c.pages)
	m, err := c.Send(rs.srcKS, vid.Message{Op: kernel.KsFetchPage, W: [6]uint32{uint32(rs.id)}, Seg: c.seg})
	if err == nil && m.OK() {
		rs.stats.FetchWireBytes += int64(len(m.Seg))
		// Decoded and installed without blocking: the node's other faulting
		// tasks find the run free.
		if run := &rs.node.fetched; run.Decode(m.Seg) == nil && run.Space == as.ID {
			served := false
			for i, p := range run.Pages {
				installed, _ := as.InstallPageIfAbsent(p, run.Data[i])
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
			c.port.ReleaseReply() // every page is copied out of the run
			if served {
				rs.stats.PullKB += float64(mem.PageSize) / 1024
				return
			}
		}
	}
	// The receptacle could not serve. The racing push-out may have
	// delivered the page meanwhile — the faulting getPage re-checks
	// presence after this handler returns.
	if as.Present(pn) {
		return
	}
	// Fall back to the file server's flush image (populated if this
	// logical host was ever flush-migrated under the same key prefix).
	if at.pageIn(t, rs.node, as, pn) {
		return
	}
	// Nothing can complete this guest's memory: abort cleanly.
	rs.abortGuest(t, sendErr(err, m))
}

// pageIn reads one page of the migrated copy's flush image from the file
// server's paging store, for a task at node, through node's manager's
// file-service client (its pinned server, else the group): flush's whole
// fetch, and post-copy's fallback when the receptacle cannot serve. It
// installs the page in as by copy, as demandFetch does, so that the
// reply's buffer goes back at once; the faulting access then finds it
// present, or — the page being all zero — absent, and allocates it zeroed,
// just as it would have made it from the bytes. It reports false when
// there is none (never flushed: a hole page) or no server answers.
func (at *copyAttempt) pageIn(t *sim.Task, node *Node, as *mem.AddressSpace, pn mem.PageNo) bool {
	c := node.call(t)
	defer node.hangUp(c)
	c.seg = strconv.AppendUint(append(appendPagePrefix(c.seg[:0], at.finalID), '/'), uint64(as.ID), 10)
	c.seg = strconv.AppendUint(append(c.seg, '/'), uint64(pn), 10)
	m, err := node.PM.FS().Send(c, vid.Message{Op: fileserver.OpPageIn, Seg: c.seg})
	if err != nil || !m.OK() {
		return false
	}
	as.InstallPageIfAbsent(pn, m.Seg)
	c.port.ReleaseReply()
	return true
}

// pagerCall is one fault's exchange with the server that holds its page:
// the faulting task, the port of its own it sends through, and the buffers
// its request is built in — the file-service client's Conn outside a
// process. A node keeps the calls its faults have finished with for the
// next (Node.pagerCalls: as many as ran at once, up to 8).
type pagerCall struct {
	n     *Node
	t     *sim.Task
	port  *ipc.Port
	pages []mem.PageNo
	seg   []byte
}

func (c *pagerCall) Send(dst vid.PID, m vid.Message) (vid.Message, error) {
	freelist.Check(&c.n.pagerCalls, c)
	return c.port.Send(c.t, dst, m)
}
func (c *pagerCall) Sleep(d time.Duration) { c.t.Sleep(d) }

// call opens a pager port for a fault t takes.
func (n *Node) call(t *sim.Task) *pagerCall {
	c := n.pagerCalls.Get()
	c.n, c.t, c.port = n, t, n.Host.IPC.NewPortGen(n.pagerPID())
	return c
}

// hangUp closes a call's port and keeps the call for the node's next
// fault, unless its task is being killed: its request may still be queued
// for a server on this station, reading the segment.
func (n *Node) hangUp(c *pagerCall) {
	c.port.Close()
	if !c.t.Killed() {
		c.t, c.port = nil, nil
		n.pagerCalls.Put(c)
	}
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
