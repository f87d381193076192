package core

import (
	"errors"

	"vsystem/internal/fileserver"
	"vsystem/internal/ipc"
	"vsystem/internal/progmgr"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// PagerStats counts demand-paging activity for a flush-migrated program
// (§3.2) or a post-copy destination; the destination's program manager
// keeps them (progmgr/pager.go).
type PagerStats = progmgr.PagerStats

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
	key := string(fileserver.AppendPagePrefix(nil, at.finalID))
	m, err := at.fs.Do(at.ctx, at.lh.Name(), func(dst vid.PID) (vid.Message, error) {
		_, err := at.sendRuns(dst, out, key, sp, nil)
		var re *ipc.ReplyError
		if errors.As(err, &re) {
			return re.Reply, nil
		}
		return vid.Message{}, err
	})
	return vid.SendErr(m, err)
}

// PagerStatsFor returns the demand-paging stats of a flush- or
// post-copy-migrated program, as the first workstation whose manager
// paged it in keeps them, nil when none has. AbortErr, when set, is a
// *PhaseError at trace.PhasePostSwapPull naming that destination.
func (c *Cluster) PagerStatsFor(lhid vid.LHID) *PagerStats {
	for _, n := range c.Nodes {
		for id, st := range n.PM.PagedIn {
			if id != lhid {
				continue
			}
			cp := *st
			if cp.AbortErr != nil {
				cp.AbortErr = &PhaseError{Phase: trace.PhasePostSwapPull, Dest: n.Host.SystemLH().ID(), Err: cp.AbortErr}
			}
			return &cp
		}
	}
	return nil
}

// RemoteFaultTotals aggregates demand-paging counters across every
// workstation's pager (flush and post-copy migrations alike). The sums are
// order-independent, so iterating the managers' maps stays deterministic.
func (c *Cluster) RemoteFaultTotals() PagerStats {
	var tot PagerStats
	for _, n := range c.Nodes {
		for _, st := range n.PM.PagedIn {
			tot.Faults += st.Faults
			tot.StallTime += st.StallTime
			tot.PullKB += st.PullKB
			tot.PushKB += st.PushKB
			tot.FetchWireBytes += st.FetchWireBytes
			tot.Aborted = tot.Aborted || st.Aborted
		}
	}
	return tot
}
