// Package fileserver implements the network file server.
//
// The paper's workstations are diskless: program images load from network
// file servers, so "the cost of program loading is independent of whether
// a program is executed locally or remotely" (§4.1) — a keystone of
// transparent remote execution. The server also provides the paging
// backend for the §3.2 virtual-memory migration variant and the keep-state
// -in-global-servers discipline that avoids residual dependencies (§3.3).
package fileserver

import (
	"sort"
	"time"

	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/params"
	"vsystem/internal/rsm"
	"vsystem/internal/vid"
)

// Operations.
const (
	// OpStat: Seg=name → W0=size (bytes), W5=the answering server.
	OpStat uint16 = 0x50 + iota
	// OpRead: Seg=name, W0=offset, W1=length (≤ SegMax) → Seg=data,
	// W0=bytes read, W1=size (bytes); a read at or past EOF reads nothing
	// and still tells the size, so a client's first read is its stat.
	OpRead
	// OpWrite: Seg=name bytes NUL data bytes, W0=offset → W0=new size.
	OpWrite
	// OpRemove: Seg=name.
	OpRemove
	// OpPageOut: paging backend — Seg=key NUL data.
	OpPageOut
	// OpPageIn: Seg=key → Seg=data, W5=the answering server.
	OpPageIn
	// OpList: → Seg=NUL-separated names (tools).
	OpList
	// OpPageOutRun: paging backend bulk write — Seg=prefix NUL page-run
	// (kernel.EncodePageRun format); each page is stored under
	// "prefix/space/pageno".
	OpPageOutRun
)

// AppendPagePrefix appends a logical host's key prefix in the paging
// store, "pg/" and the id in four hex digits: a migration flushes the
// logical host's pages under it, and the destination pages them in by
// name, "prefix/space/pageno".
func AppendPagePrefix(dst []byte, id vid.LHID) []byte {
	const hex = "0123456789abcdef"
	return append(dst, 'p', 'g', '/', hex[id>>12&15], hex[id>>8&15], hex[id>>4&15], hex[id&15])
}

// Server is a network file server process with an in-memory store. Every
// mutation of the store goes through svc.Commit, whether the server runs
// alone or as a replica (replica.go has the store's state machine).
type Server struct {
	proc *kernel.Process
	st   *store
	svc  *rsm.Service[cmd]
	out  kernel.PageRun // the page-out run being committed
}

// boot spawns the server process over an empty store.
func boot(h *kernel.Host) *Server {
	s := &Server{st: &store{files: make(map[string][]byte), pages: make(map[string][]byte)}}
	s.proc = h.SpawnServer("fileserver", 128*1024, s.run)
	s.svc = rsm.NewService[cmd](s.proc, s.st, FsUnicast)
	return s
}

// Start spawns a file server on a host (typically a dedicated server
// machine) and joins the file-server group.
func Start(h *kernel.Host) *Server {
	s := boot(h)
	h.JoinGroup(vid.GroupFileServers, s.proc.PID())
	return s
}

// PID returns the file server's process identifier.
func (s *Server) PID() vid.PID { return s.proc.PID() }

// Put stores a file directly (cluster setup; no simulated cost).
func (s *Server) Put(name string, data []byte) {
	s.st.files[name] = append([]byte(nil), data...)
}

// Get reads a file directly (tests; no simulated cost).
func (s *Server) Get(name string) ([]byte, bool) {
	b, ok := s.st.files[name]
	return b, ok
}

// blockCost charges the per-block file-service cost for n bytes.
func blockCost(n int) time.Duration {
	blocks := (n + 1023) / 1024
	if blocks < 1 {
		blocks = 1
	}
	return time.Duration(blocks) * params.FileServerBlockCPU
}

func (s *Server) run(ctx *kernel.ProcCtx) {
	for {
		req := ctx.Receive()
		m := req.Msg
		if !s.svc.Admit(ctx, req) {
			continue
		}
		switch m.Op {
		case OpStat:
			data, ok := s.st.files[m.SegString()]
			if !ok {
				ctx.Reply(req, vid.ErrMsg(vid.CodeNotFound))
				continue
			}
			ctx.Compute(params.FileServerBlockCPU)
			// W5 identifies the answering server, as a page-in reply's
			// does: a Client that found it through the group pins it. A
			// pinned follower's decline names the leader when a
			// leader-only request needs it.
			ctx.Reply(req, vid.Message{Op: m.Op, W: [6]uint32{0: uint32(len(data)), 5: uint32(s.proc.PID())}})

		case OpRead:
			data, ok := s.st.files[m.SegString()]
			if !ok {
				ctx.Reply(req, vid.ErrMsg(vid.CodeNotFound))
				continue
			}
			off, n := int(m.W[0]), int(m.W[1])
			if n > vid.SegMax {
				n = vid.SegMax
			}
			if off > len(data) {
				off = len(data)
			}
			if off+n > len(data) {
				n = len(data) - off
			}
			ctx.Compute(blockCost(n))
			ctx.Reply(req, vid.Message{Op: m.Op, W: [6]uint32{uint32(n), uint32(len(data))}, Seg: data[off : off+n]})

		case OpWrite:
			name, payload, ok := splitNameData(m.Seg)
			if !ok {
				ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
				continue
			}
			res, err := s.svc.Commit(ctx, cmd{op: OpWrite, off: m.W[0], name: name, data: payload})
			if err != nil {
				s.svc.Refuse(ctx, req, err)
				continue
			}
			r := vid.NewReader(res) // the file's new size
			size := r.U32()
			if r.Done() != nil {
				ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
				continue
			}
			ctx.Compute(blockCost(len(payload)))
			ctx.Reply(req, vid.Message{Op: m.Op, W: [6]uint32{size}})

		case OpRemove:
			if _, err := s.svc.Commit(ctx, cmd{op: OpRemove, name: m.SegString()}); err != nil {
				s.svc.Refuse(ctx, req, err)
				continue
			}
			ctx.Reply(req, vid.Message{Op: m.Op})

		case OpPageOut:
			key, payload, ok := splitNameData(m.Seg)
			if !ok {
				ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
				continue
			}
			_, err := s.svc.Commit(ctx, cmd{op: OpPageOut, name: key, data: payload})
			n := len(payload)
			ctx.ReleaseSeg(req) // the store and the log keep copies
			if err != nil {
				s.svc.Refuse(ctx, req, err)
				continue
			}
			ctx.Compute(blockCost(n))
			ctx.Reply(req, vid.Message{Op: m.Op})

		case OpPageOutRun:
			prefix, blob, ok := splitNameData(m.Seg)
			if !ok {
				ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
				continue
			}
			err := s.out.Decode(blob)
			if err != nil {
				ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
				continue
			}
			spaceID, pages, data := s.out.Space, s.out.Pages, s.out.Data
			// A full 30-page run exceeds the log's command budget: commit it
			// as ordered sub-runs that each fit one append entry. Page stores
			// are keyed, so a replayed sub-run is idempotent.
			perCmd := max(1, (params.RsmMaxCmd-len(prefix)-64)/(mem.PageSize+8))
			for off := 0; off < len(pages) && err == nil; off += perCmd {
				end := min(off+perCmd, len(pages))
				_, err = s.svc.Commit(ctx, cmd{op: OpPageOutRun, name: prefix,
					space: spaceID, pages: pages[off:end], run: data[off:end]})
			}
			n := 0
			for _, d := range data {
				n += len(d)
			}
			ctx.ReleaseSeg(req) // the store and the log keep copies
			if err != nil {
				s.svc.Refuse(ctx, req, err)
				continue
			}
			ctx.Compute(blockCost(n))
			ctx.Reply(req, vid.Message{Op: m.Op})

		case OpPageIn:
			data, ok := s.st.pages[m.SegString()]
			ctx.ReleaseSeg(req) // the key is read
			if !ok {
				ctx.Reply(req, vid.ErrMsg(vid.CodeNotFound))
				continue
			}
			ctx.Compute(blockCost(len(data)))
			// A copy in a lent buffer: the store overwrites its page in
			// place at the next page-out, and the reply cache and the
			// receiver may still hold the reply then.
			seg := append(ctx.ReplyBuf(len(data)), data...)
			ctx.Reply(req, vid.Message{Op: m.Op, W: [6]uint32{5: uint32(s.proc.PID())}, Seg: seg})

		case OpList:
			names := make([]string, 0, len(s.st.files))
			for name := range s.st.files {
				names = append(names, name)
			}
			sort.Strings(names)
			var seg []byte
			for _, name := range names {
				seg = append(seg, name...)
				seg = append(seg, 0)
			}
			ctx.Reply(req, vid.Message{Op: m.Op, Seg: seg})

		default:
			ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
		}
	}
}

// splitNameData separates "name\x00data" segments.
func splitNameData(seg []byte) (string, []byte, bool) {
	for i, b := range seg {
		if b == 0 {
			return string(seg[:i]), seg[i+1:], true
		}
	}
	return "", nil, false
}
