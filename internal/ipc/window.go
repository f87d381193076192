package ipc

import (
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// Window is the pipelined bulk-transfer engine: a ring of sub-ports that
// keeps up to `size` message transactions in flight at once, so a copy
// loop (migration pre-copy rounds, the flush policy's page-out) saturates
// the wire instead of stalling for a full reply round trip between runs.
//
// A V process has at most one outstanding Send per port, so pipelining is
// built the way a V program would build it: the window owns `size`
// distinct worker ports in the caller's logical host and rotates issues
// across whichever is free. Completions are harvested in any order — a
// transaction stalled behind a retransmission never blocks the rest of
// the pipeline — and errors are sticky: the first transport failure or
// error reply (a *ReplyError) is remembered and returned from every Send
// up to the next Drain, which returns it and clears it, so a window
// outlives a failed stream.
//
// Window size 1 degenerates to the stop-and-wait copy loop the paper
// describes, which is exactly how the E10 baseline is measured.
//
// The window also owns the bulk segments while they travel: SegBuf lends
// the buffer to encode the next one into, the transaction carries it, and
// reaping the transaction hands it back to the engine — as it does the
// buffer a fragmented reply was reassembled in, once onReply has seen it.
type Window struct {
	eng   *Engine
	ports []*Port
	wait  sim.WaitQ
	seg   []byte // lent by SegBuf, not yet sent

	inflight int
	err      error

	sends    int64
	stalls   int64
	occupSum int64 // Σ in-flight count at each issue, for mean occupancy

	onReply func(req, reply vid.Message)
}

// ReplyError is a window's sticky error when a transaction was answered
// with an error code: the reply's fixed part, whose words may carry what a
// protocol puts there (a declining file-server replica names its leader in
// W4). errors.Is matches it against the reply's vid.CodeError.
type ReplyError struct{ Reply vid.Message }

func (e *ReplyError) Error() string { return e.Reply.Err().Error() }

// Unwrap returns the reply's vid.CodeError.
func (e *ReplyError) Unwrap() error { return e.Reply.Err() }

// SetOnReply installs a completion hook, invoked during reaping for every
// transaction that completed with an OK reply, with the original request
// and its reply. rsm's replication feed reads every follower reply
// through it. The hook runs on whatever task is driving the window and
// must not block (bump counters — never send), and must not keep a slice
// of either segment: both buffers are reused once it returns.
func (w *Window) SetOnReply(fn func(req, reply vid.Message)) { w.onReply = fn }

// WindowStats summarizes a window's activity.
type WindowStats struct {
	// Sends counts transactions issued through the window.
	Sends int64
	// Stalls counts issue-time waits with every slot in flight (a full
	// window). A stop-and-wait window of size 1 stalls on ~every send;
	// an open window should mostly issue immediately.
	Stalls int64
	// AvgOccupancy is the mean number of in-flight transactions observed
	// at issue time (1.0 for stop-and-wait, → size as the pipe fills).
	AvgOccupancy float64
}

// NewWindow creates a bulk-transfer window of `size` worker ports owned
// by logical host lh (the caller's — for the migrator, the system logical
// host, which is never frozen). Close releases the ports.
func (e *Engine) NewWindow(lh vid.LHID, size int) *Window {
	if size < 1 {
		size = 1
	}
	w := &Window{eng: e}
	for i := 0; i < size; i++ {
		// Window worker PIDs live in a private high index range (below the
		// pager's 0xF000 block, far above real process indices); the
		// sequence advances per port so a fresh window never collides with
		// late replies addressed to a predecessor's transactions. Each
		// wrap of the range is a new generation of its ids: a server that
		// served the id before the wrap still remembers its transactions.
		pid := vid.NewPID(lh, uint16(0xE000+e.winSeq%0x0FF0))
		p := e.NewPortGen(pid, e.winSeq/0x0FF0)
		e.winSeq++
		p.winq = &w.wait
		w.ports = append(w.ports, p)
	}
	return w
}

// Size returns the window's slot count.
func (w *Window) Size() int { return len(w.ports) }

// SegBuf returns an empty buffer of capacity vid.SegMax to build the
// segment of the next Send in. The window takes the buffer back with that
// Send: the caller must not touch the segment afterwards, and a message
// whose segment was built elsewhere is sent as before, the caller's own.
// The segment is encoded before Send waits for a slot, so it is a snapshot
// of the moment the caller made it, however long the wait.
func (w *Window) SegBuf() []byte {
	if w.seg == nil {
		w.seg = w.eng.segs.Get()
	}
	return w.seg[:0]
}

// reap harvests every completed transaction, recording the first error
// (transport failure or error reply) and freeing the slots.
func (w *Window) reap(t *sim.Task) {
	for _, p := range w.ports {
		s := p.send
		if s == nil || !s.done {
			continue
		}
		req, buf := s.msg, s.buf
		if s.reading > 0 {
			buf = nil // a task part-way through transmitting it keeps it
		}
		reply, err := p.AwaitReply(t) // completed: returns without blocking
		w.inflight--
		if err == nil && !reply.OK() {
			err = &ReplyError{Reply: vid.Message{Op: reply.Op, Code: reply.Code, W: reply.W}}
		}
		if err != nil && w.err == nil {
			w.err = err
		}
		if err == nil && w.onReply != nil {
			w.onReply(req, reply)
		}
		p.ReleaseReply()
		if buf != nil {
			w.eng.segs.Put(buf)
		}
	}
}

// Send issues one transaction through the window, blocking only while all
// slots are in flight. The calling task is charged for fragmentation of
// msg.Seg exactly as a blocking Send would charge it; what pipelining
// overlaps is the destination's processing and the reply latency. A
// sticky error from an earlier transaction is returned immediately (the
// new message is not sent).
func (w *Window) Send(t *sim.Task, dst vid.PID, msg vid.Message) error {
	var free *Port
	for {
		w.reap(t)
		if w.err != nil {
			return w.err
		}
		for _, p := range w.ports {
			if p.send == nil {
				free = p
				break
			}
		}
		if free != nil {
			break
		}
		w.stalls++
		w.eng.stats.WindowStalls++
		w.wait.Wait(t)
	}
	var buf []byte
	if w.seg != nil && len(msg.Seg) > 0 && &msg.Seg[0] == &w.seg[:1][0] {
		buf, w.seg = w.seg, nil
	}
	free.startSend(t, dst, msg, buf)
	w.inflight++
	w.sends++
	w.occupSum += int64(w.inflight)
	w.eng.stats.WindowSends++
	w.eng.publish(trace.Event{Kind: trace.EvCopyWindow, LH: dst.LH(), Size: w.inflight})
	return nil
}

// Drain blocks until every in-flight transaction has completed, returning
// the first error since the previous Drain and clearing it, so the next
// Send starts a clean stream. Nothing issued after them covers those
// transactions any more, so each takes its tail probe (evDrain); a full
// window mid-stream gets none, as its other slots cover the stall.
func (w *Window) Drain(t *sim.Task) error {
	for _, p := range w.ports {
		if s := p.send; s != nil {
			p.post(clientEv{kind: evDrain, now: t.Now(), pto: w.eng.pto(s.msg.Op)})
		}
	}
	for {
		w.reap(t)
		if w.inflight == 0 {
			err := w.err
			w.err = nil
			return err
		}
		w.wait.Wait(t)
	}
}

// AbortTo ends every in-flight transaction addressed to dst with
// CodeAborted, as Port.AbortTo does for one port's: the owner has learnt
// that dst is dead.
func (w *Window) AbortTo(dst vid.PID) {
	for _, p := range w.ports {
		p.AbortTo(dst)
	}
}

// Stats returns the window's activity counters.
func (w *Window) Stats() WindowStats {
	s := WindowStats{Sends: w.sends, Stalls: w.stalls}
	if w.sends > 0 {
		s.AvgOccupancy = float64(w.occupSum) / float64(w.sends)
	}
	return s
}

// Close releases the window's ports; any still-in-flight transactions are
// abandoned (their timers stop with the ports).
func (w *Window) Close() {
	for _, p := range w.ports {
		p.Close()
	}
	if w.seg != nil {
		w.eng.segs.Put(w.seg)
		w.seg = nil
	}
}
