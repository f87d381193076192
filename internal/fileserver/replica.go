package fileserver

import (
	"strconv"

	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/rsm"
	"vsystem/internal/vid"
)

// The file/page store as a state machine (rsm.Machine): mutations (OpWrite,
// OpRemove, OpPageOut, OpPageOutRun) are commands applied through
// rsm.Service.Commit. StartReplica members commit them through the rsm log
// and apply them on every replica; reads are served by the leader or by any
// follower that is provably caught up, so image loads — and the post-copy
// flush-image fallback — survive the death of any single server machine.
//
// Program images installed at boot are poked directly into every replica's
// store (Put), not logged: they are immutable plate stock a real server
// would reload from disk, and keeping them out of the log keeps snapshots
// from being the only thing that can restock a rejoining replica.

// FsUnicast marks a request addressed to one server (set in W5); Client
// sets it on every request it sends to one server. A replica that cannot serve
// answers a unicast request with CodeNotLeader + the leader's service PID
// in W4, which the client re-pins to; a group-addressed request (no flag)
// it drops in silence, leaving the answer to a replica that can.
const FsUnicast uint32 = 1

// StartReplica spawns file-server replica id of n on a host, joining both
// the client-facing file-server group and the replication group. The
// caller owns store — the replica's "disk" — and re-passes it on restart.
func StartReplica(h *kernel.Host, id, n int, store *rsm.Store) *Server {
	s := boot(h)
	s.svc.Replicate(h, vid.GroupFileServers,
		rsm.Config{Name: "fs", Group: vid.GroupFSRSM, ID: id, N: n}, store)
	return s
}

// Replica returns the server's consensus replica (nil when unreplicated).
func (s *Server) Replica() *rsm.Replica { return s.svc.Replica() }

// cmd is one admitted store mutation, already parsed and validated by the
// request loop.
type cmd struct {
	op   uint16
	off  uint32 // OpWrite: file offset
	name string // file name, page key, or page-run key prefix
	data []byte // OpWrite, OpPageOut: payload
	// OpPageOutRun: one sub-run, stored under "name/space/pageno".
	space uint32
	pages []mem.PageNo
	run   [][]byte
}

// store is the file server's state. Every page in pages is the store's
// alone — a page-in replies with a copy (Server.run), a snapshot is a copy,
// and a restore copies out of its snapshot (rsm.DecodeSortedMap) — so a
// page-out overwrites a page it already holds in place.
type store struct {
	files map[string][]byte
	pages map[string][]byte
	key   []byte         // a page-run key being built
	run   kernel.PageRun // a logged page-out run being decoded
}

// LeaderOnly: writes and page-ins need the fenced leader (freshness); other
// reads are also served by a caught-up follower.
func (st *store) LeaderOnly(op uint16) bool {
	switch op {
	case OpWrite, OpRemove, OpPageOut, OpPageOutRun, OpPageIn:
		return true
	}
	return false
}

// Apply performs one mutation; OpWrite returns the file's new size.
func (st *store) Apply(c cmd) []byte {
	switch c.op {
	case OpWrite:
		f := st.files[c.name]
		if need := int(c.off) + len(c.data); need > len(f) {
			f = append(f, make([]byte, need-len(f))...)
		}
		copy(f[c.off:], c.data)
		st.files[c.name] = f
		var a vid.Appender
		a.U32(uint32(len(f)))
		return a.B
	case OpRemove:
		delete(st.files, c.name)
	case OpPageOut:
		st.putPage(append(st.key[:0], c.name...), c.data)
	case OpPageOutRun:
		for i, pn := range c.pages {
			k := append(st.key[:0], c.name...)
			k = strconv.AppendUint(append(k, '/'), uint64(c.space), 10)
			k = strconv.AppendUint(append(k, '/'), uint64(pn), 10)
			st.putPage(k, c.run[i])
			st.key = k
		}
	}
	return nil
}

// putPage stores a copy of data as the page under key: over the page it
// holds there if the two are the same length, else in a new one.
func (st *store) putPage(key, data []byte) {
	if old, ok := st.pages[string(key)]; ok && len(old) == len(data) {
		copy(old, data)
		return
	}
	st.pages[string(key)] = append([]byte(nil), data...)
}

// Encode renders a command as [op uint16][off uint32][segment], the segment
// in the wire request's own form (name, or name NUL payload), so a replica
// replays exactly what the leader admitted.
func (st *store) Encode(c cmd) []byte {
	var a vid.Appender
	a.U16(c.op)
	a.U32(c.off)
	a.B = append(a.B, c.name...)
	switch c.op {
	case OpWrite, OpPageOut:
		a.U8(0)
		a.B = append(a.B, c.data...)
	case OpPageOutRun:
		a.U8(0)
		a.B = kernel.AppendPageRun(a.B, c.space, c.pages, c.run)
	}
	return a.B
}

// Decode parses a command; an op that is not one of the four mutations is
// malformed.
func (st *store) Decode(b []byte) (c cmd, ok bool) {
	r := vid.NewReader(b)
	c.op, c.off = r.U16(), r.U32()
	seg := r.Rest()
	if r.Err() != nil {
		return c, false
	}
	switch c.op {
	case OpRemove:
		c.name, ok = string(seg), true
	case OpWrite, OpPageOut:
		c.name, c.data, ok = splitNameData(seg)
	case OpPageOutRun:
		var run []byte
		if c.name, run, ok = splitNameData(seg); ok {
			ok = st.run.Decode(run) == nil
			c.space, c.pages, c.run = st.run.Space, st.run.Pages, st.run.Data
		}
	}
	return c, ok
}

// Snapshot renders the whole store deterministically (sorted names).
func (st *store) Snapshot() []byte {
	return rsm.AppendSortedMap(rsm.AppendSortedMap(nil, st.files), st.pages)
}

// Restore installs a snapshot: the files map, then the pages map, and
// nothing after them.
func (st *store) Restore(snap []byte) {
	files, rest, ok := rsm.DecodeSortedMap(snap)
	if !ok {
		return
	}
	pages, rest, ok := rsm.DecodeSortedMap(rest)
	if !ok || len(rest) > 0 {
		return
	}
	st.files, st.pages = files, pages
}
