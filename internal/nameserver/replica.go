package nameserver

import (
	"vsystem/internal/kernel"
	"vsystem/internal/rsm"
	"vsystem/internal/vid"
)

// The binding table as a state machine (rsm.Machine): NsRegister and
// NsUnregister are commands applied through rsm.Service.Commit.
// StartReplica members commit them through a consensus log and answer
// NsLookup/NsList from the leader or any caught-up follower, so the
// cluster's boot bindings survive the death of the server machine that
// happened to hold them. Clients keep the group-send protocol unchanged —
// a replica that cannot answer stays silent and the one that can replies
// first.

// StartReplica spawns name-server replica id of n on a host. The caller
// owns store and re-passes it on restart.
func StartReplica(h *kernel.Host, id, n int, store *rsm.Store) *Server {
	s := boot(h)
	s.svc.Replicate(h, vid.GroupNameServers,
		rsm.Config{Name: "ns", Group: vid.GroupNSRSM, ID: id, N: n}, store)
	return s
}

// Replica returns the server's consensus replica (nil when unreplicated).
func (s *Server) Replica() *rsm.Replica { return s.svc.Replica() }

// cmd is one binding change: NsRegister binds name to pid, NsUnregister
// removes name.
type cmd struct {
	op   uint16
	pid  vid.PID
	name string
}

type table struct{ names map[string]vid.PID }

// LeaderOnly: registrations need the fenced leader; lookups are also served
// by a caught-up follower.
func (t *table) LeaderOnly(op uint16) bool { return op == NsRegister || op == NsUnregister }

func (t *table) Apply(c cmd) []byte {
	switch c.op {
	case NsRegister:
		t.names[c.name] = c.pid
	case NsUnregister:
		delete(t.names, c.name)
	}
	return nil
}

// Encode renders a command as [op uint16][pid uint32][name...].
func (t *table) Encode(c cmd) []byte {
	var a vid.Appender
	a.U16(c.op)
	a.U32(uint32(c.pid))
	a.B = append(a.B, c.name...)
	return a.B
}

func (t *table) Decode(b []byte) (cmd, bool) {
	r := vid.NewReader(b)
	c := cmd{op: r.U16(), pid: vid.PID(r.U32()), name: string(r.Rest())}
	return c, r.Err() == nil
}

// Snapshot renders the table in rsm's sorted-map form, each PID as a
// 4-byte value.
func (t *table) Snapshot() []byte {
	m := make(map[string][]byte, len(t.names))
	for name, pid := range t.names {
		var a vid.Appender
		a.U32(uint32(pid))
		m[name] = a.B
	}
	return rsm.AppendSortedMap(nil, m)
}

func (t *table) Restore(snap []byte) {
	m, rest, ok := rsm.DecodeSortedMap(snap)
	if !ok || len(rest) > 0 {
		return
	}
	names := make(map[string]vid.PID, len(m))
	for name, v := range m {
		r := vid.NewReader(v)
		if names[name] = vid.PID(r.U32()); r.Done() != nil {
			return
		}
	}
	t.names = names
}
