// Package nameserver implements the global symbolic-name service.
//
// §6 of the paper states the residual-dependency principle: "name bindings
// in V are stored in a cache in the program's address space as well as in
// global servers". Resident servers register their PIDs here at boot; the
// program manager seeds every new program's environment-block name cache
// from the bindings it knows; cache misses fall back to a query of the
// well-known name-server group. Because the bindings live in the program's
// own address space, they migrate with it — no lookup state is left on the
// previous host.
package nameserver

import (
	"sort"
	"strings"
	"time"

	"vsystem/internal/kernel"
	"vsystem/internal/params"
	"vsystem/internal/rsm"
	"vsystem/internal/vid"
)

// Operations (0x90 region).
const (
	// NsRegister: Seg=name, W0=pid.
	NsRegister uint16 = 0x90 + iota
	// NsLookup: Seg=name → W0=pid.
	NsLookup
	// NsUnregister: Seg=name.
	NsUnregister
	// NsList: → Seg = name NUL pid-hex NUL ... (tools).
	NsList
)

// Server is a global name server. Every change to the binding table goes
// through svc.Commit, whether the server runs alone or as a replica
// (replica.go has the table's state machine).
type Server struct {
	proc *kernel.Process
	tab  *table
	svc  *rsm.Service[cmd]
}

// boot spawns the server process over an empty table. Name-service
// requests are always group-addressed (no unicast mark), so a replica that
// cannot serve simply stays silent.
func boot(h *kernel.Host) *Server {
	s := &Server{tab: &table{names: make(map[string]vid.PID)}}
	s.proc = h.SpawnServer("nameserver", 64*1024, s.run)
	s.svc = rsm.NewService[cmd](s.proc, s.tab, 0)
	return s
}

// Start spawns a name server on a host and joins the name-server group.
func Start(h *kernel.Host) *Server {
	s := boot(h)
	h.JoinGroup(vid.GroupNameServers, s.proc.PID())
	return s
}

// PID returns the name server's process identifier.
func (s *Server) PID() vid.PID { return s.proc.PID() }

// Bindings returns a copy of the current table (tools/tests).
func (s *Server) Bindings() map[string]vid.PID {
	out := make(map[string]vid.PID, len(s.tab.names))
	for k, v := range s.tab.names {
		out[k] = v
	}
	return out
}

func (s *Server) run(ctx *kernel.ProcCtx) {
	for {
		req := ctx.Receive()
		m := req.Msg
		if !s.svc.Admit(ctx, req) {
			continue
		}
		ctx.Compute(params.KernelOpCPU)
		switch m.Op {
		case NsRegister:
			name := m.SegString()
			if name == "" || m.W[0] == 0 {
				ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
				continue
			}
			if _, err := s.svc.Commit(ctx, cmd{op: m.Op, pid: vid.PID(m.W[0]), name: name}); err != nil {
				s.svc.Refuse(ctx, req, err)
				continue
			}
			ctx.Reply(req, vid.Message{Op: m.Op})
		case NsLookup:
			pid, ok := s.tab.names[m.SegString()]
			if !ok {
				ctx.Reply(req, vid.ErrMsg(vid.CodeNotFound))
				continue
			}
			ctx.Reply(req, vid.Message{Op: m.Op, W: [6]uint32{uint32(pid)}})
		case NsUnregister:
			if _, err := s.svc.Commit(ctx, cmd{op: m.Op, name: m.SegString()}); err != nil {
				s.svc.Refuse(ctx, req, err)
				continue
			}
			ctx.Reply(req, vid.Message{Op: m.Op})
		case NsList:
			names := make([]string, 0, len(s.tab.names))
			for n := range s.tab.names {
				names = append(names, n)
			}
			sort.Strings(names)
			var sb strings.Builder
			for _, n := range names {
				sb.WriteString(n)
				sb.WriteByte('\t')
				sb.WriteString(s.tab.names[n].String())
				sb.WriteByte('\n')
			}
			ctx.Reply(req, vid.Message{Op: m.Op, Seg: []byte(sb.String())})
		default:
			ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
		}
	}
}

// RegisterSelf spawns a registrar process on h that announces a binding to
// the name-server group, retrying until a name server accepts it. Resident
// servers call this at boot.
func RegisterSelf(h *kernel.Host, name string, pid vid.PID) {
	RegisterSelfAt(h, name, pid, 0)
}

// RegisterSelfAt is RegisterSelf with an initial delay. Large clusters
// stagger their hosts' boot registrations: several hundred simultaneous
// group sends against the one name server generate a retransmission herd
// whose packet-processing load alone exceeds the server host's capacity,
// so the herd never drains.
func RegisterSelfAt(h *kernel.Host, name string, pid vid.PID, delay time.Duration) {
	h.SpawnServer("register:"+name, 4096, func(ctx *kernel.ProcCtx) {
		if delay > 0 {
			ctx.Sleep(delay)
		}
		for attempt := 0; attempt < 20; attempt++ {
			m, err := ctx.Send(vid.GroupNameServers, vid.Message{
				Op:  NsRegister,
				W:   [6]uint32{uint32(pid)},
				Seg: []byte(name),
			})
			if err == nil && m.OK() {
				return
			}
			ctx.Sleep(500 * time.Millisecond)
		}
	})
}

// Lookup resolves a name through the name-server group with one bounded
// retry: the first query can land while the server that held the binding
// is dead or a replica group is mid-election, and a single follow-up send
// reaches whichever replica has (re)gained authority. Not-found is a
// definitive answer and is not retried.
func Lookup(ctx *kernel.ProcCtx, name string) (vid.PID, error) {
	q := vid.Message{Op: NsLookup, Seg: []byte(name)}
	m, err := ctx.Send(vid.GroupNameServers, q)
	if err != nil || (!m.OK() && m.Code != vid.CodeNotFound) {
		m, err = ctx.Send(vid.GroupNameServers, q)
	}
	if err != nil {
		return vid.Nil, err
	}
	if !m.OK() {
		return vid.Nil, m.Err()
	}
	return vid.PID(m.W[0]), nil
}
