package fileserver

import (
	"time"

	"vsystem/internal/vid"
)

// Conn is the sending end a Client talks through: a process's context
// (*kernel.ProcCtx), or a task with a port of its own, as a pager's fault
// handler has.
type Conn interface {
	Send(dst vid.PID, m vid.Message) (vid.Message, error)
	Sleep(d time.Duration)
}

// A group send's tries, and the pause between them.
const (
	groupTries = 3
	groupGap   = 500 * time.Millisecond
)

// Client is system code's one way to the file service. It holds one
// pinned server, learnt from a group answer's W5 (a stat's or a
// page-in's) or from the leader a declining replica names in W4, and
// sends a request to it alone, flagged FsUnicast. A decline that names a
// leader re-pins to it and the request goes once more. Silence, or a
// decline without a hint, unpins the client, and an unpinned client turns
// to the group, trying three times 500 ms apart while the group is silent:
// a single request goes there itself (Send), an exchange that needs one
// server — a load's reads, a page-out window — first finds one with a
// group stat of the file it concerns and then goes once to it (Do). Any
// other answer, found or not, is definitive and never retried. A program
// manager owns one; its loads, the flush policy's page-out from its host
// and page-in to it share it.
type Client struct {
	pin vid.PID
}

// Pinned returns the pinned server (vid.Nil when none).
func (c *Client) Pinned() vid.PID { return c.pin }

// Send exchanges the single request m, unflagged, with the service
// through conn: the pinned server, flagged FsUnicast, else the group.
func (c *Client) Send(conn Conn, m vid.Message) (vid.Message, error) {
	if dst := c.pin; dst != vid.Nil {
		one := m
		one.W[5] |= FsUnicast
		r, answered, err := c.at(dst, func(dst vid.PID) (vid.Message, error) { return conn.Send(dst, one) })
		if answered {
			return r, err
		}
	}
	return c.group(conn, m)
}

// Do runs an exchange that needs one server: send addresses it to dst
// alone, flagged FsUnicast, and returns the answer, a transport failure as
// the error. The server is the pinned one, else the one a group stat of
// name finds.
func (c *Client) Do(conn Conn, name string, send func(dst vid.PID) (vid.Message, error)) (vid.Message, error) {
	if dst := c.pin; dst != vid.Nil {
		if r, answered, err := c.at(dst, send); answered {
			return r, err
		}
	}
	st, err := c.group(conn, vid.Message{Op: OpStat, Seg: []byte(name)})
	if err != nil || !st.OK() {
		return st, err
	}
	r, _, err := c.at(vid.PID(st.W[5]), send)
	return r, err
}

// at sends through send to dst, and once more to the leader a decline
// names, pinning it. answered is false for silence or a decline, which
// unpin the server that failed.
func (c *Client) at(dst vid.PID, send func(dst vid.PID) (vid.Message, error)) (vid.Message, bool, error) {
	r, err := send(dst)
	if hint := vid.PID(r.W[4]); err == nil && r.Code == vid.CodeNotLeader && hint != vid.Nil {
		dst, c.pin = hint, hint
		r, err = send(dst)
	}
	answered := err == nil && r.Code != vid.CodeNotLeader
	if !answered && c.pin == dst {
		c.pin = vid.Nil
	}
	return r, answered, err
}

// group sends m to the file-server group, up to three times 500 ms apart
// while the group is silent — a replicated store can be leaderless
// mid-election — and pins the server that answers (W5).
func (c *Client) group(conn Conn, m vid.Message) (r vid.Message, err error) {
	for try := 0; try < groupTries; try++ {
		if try > 0 {
			conn.Sleep(groupGap)
		}
		if r, err = conn.Send(vid.GroupFileServers, m); err == nil {
			break
		}
	}
	if err == nil && r.OK() && r.W[5] != 0 {
		c.pin = vid.PID(r.W[5])
	}
	return r, err
}
