package ipc

import (
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// slowEchoServer models a destination kernel server: each request costs
// fixed processing time before the reply, so a stop-and-wait sender pays
// the full round trip per request while a windowed sender overlaps them.
func slowEchoServer(se *sim.Engine, p *Port, work time.Duration) {
	se.Spawn("slow-echo", func(t *sim.Task) {
		for {
			r := p.Receive(t)
			t.Sleep(work)
			p.Reply(t, r, r.Msg)
		}
	})
}

// runWindowPush pushes n requests through a window of the given size and
// returns the elapsed virtual time and the window's stats.
func runWindowPush(t *testing.T, seed int64, size, n int, loss float64, bus *trace.Bus) (time.Duration, WindowStats, Stats) {
	t.Helper()
	r := newRig(t, 2, seed)
	if loss > 0 {
		r.bus.SetLoss(ethernet.RandomLoss(r.sim, loss))
	}
	if bus != nil {
		for _, h := range r.hosts {
			h.eng.SetTraceBus(bus)
		}
	}
	lhA, lhB := vid.LHID(10), vid.LHID(20)
	r.place(lhA, 0)
	r.place(lhB, 1)
	server := r.hosts[1].eng.NewPort(vid.NewPID(lhB, 16))
	slowEchoServer(r.sim, server, 2*time.Millisecond)

	var elapsed time.Duration
	var ws WindowStats
	var pushErr error
	r.sim.Spawn("pusher", func(tk *sim.Task) {
		win := r.hosts[0].eng.NewWindow(lhA, size)
		defer win.Close()
		start := tk.Now()
		for i := 0; i < n; i++ {
			if err := win.Send(tk, server.PID(), vid.Message{Op: testOp, W: [6]uint32{uint32(i)}}); err != nil {
				pushErr = err
				return
			}
		}
		if err := win.Drain(tk); err != nil {
			pushErr = err
			return
		}
		elapsed = tk.Now().Sub(start)
		ws = win.Stats()
	})
	r.sim.RunFor(5 * time.Minute)
	if pushErr != nil {
		t.Fatalf("window push: %v", pushErr)
	}
	if elapsed == 0 {
		t.Fatal("push did not complete")
	}
	return elapsed, ws, r.hosts[0].eng.Stats()
}

// TestWindowIDWrapIsHeard: window sub-port ids come from a private block of
// 0x0FF0 and wrap. A server that served the block's first id still
// remembers that transaction when the id comes round again, so the id must
// come back under the next generation: at generation 0 its first
// transaction would be taken for a retransmission of the old one, answered
// from the reply cache while that lives and reply-pending for ever after.
func TestWindowIDWrapIsHeard(t *testing.T) {
	r, _, server := bulkRig(t, 21)
	t.Cleanup(r.sim.Shutdown)
	served := uint32(0)
	r.sim.Spawn("server", func(tk *sim.Task) {
		for {
			req := server.Receive(tk)
			served++
			server.Reply(tk, req, vid.Message{W: [6]uint32{served}})
		}
	})
	eng := r.hosts[0].eng
	var replies []uint32
	var errs []error
	send := func(tk *sim.Task, w *Window) {
		w.SetOnReply(func(_, reply vid.Message) { replies = append(replies, reply.W[0]) })
		err := w.Send(tk, server.PID(), vid.Message{Op: testOp})
		if err == nil {
			err = w.Drain(tk)
		}
		errs = append(errs, err)
		w.Close()
	}
	var firstPID, lastPID vid.PID
	r.sim.Spawn("client", func(tk *sim.Task) {
		first := eng.NewWindow(10, 1)
		firstPID = first.ports[0].PID()
		send(tk, first)
		for i := 1; i < 0x0FF0; i++ {
			eng.NewWindow(10, 1).Close()
		}
		// Past the reply cache's lifetime: all the server keeps of the old
		// id is the number of its last transaction.
		tk.Sleep(params.ReplyCacheTTL + time.Second)
		last := eng.NewWindow(10, 1)
		lastPID = last.ports[0].PID()
		send(tk, last)
	})
	r.sim.RunFor(time.Minute)
	if lastPID != firstPID {
		t.Fatalf("window %#x got id %v, want the wrapped %v", 0x0FF0, lastPID, firstPID)
	}
	if len(errs) != 2 {
		t.Fatalf("%d of 2 sends completed: the wrapped id's first Send hangs", len(errs))
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("send %d: %v", i+1, err)
		}
	}
	if len(replies) != 2 || replies[1] != 2 {
		t.Fatalf("replies %v, want [1 2]: the wrapped id was answered for its predecessor", replies)
	}
}

// TestWindowPipelinesRequests: an open window must overlap the
// destination's per-request processing that stop-and-wait serializes.
func TestWindowPipelinesRequests(t *testing.T) {
	const n = 40
	serial, ws1, _ := runWindowPush(t, 1, 1, n, 0, nil)
	piped, ws4, _ := runWindowPush(t, 1, 4, n, 0, nil)
	if piped >= serial {
		t.Fatalf("window 4 (%v) not faster than stop-and-wait (%v)", piped, serial)
	}
	if got := float64(serial) / float64(piped); got < 1.5 {
		t.Fatalf("window speedup %.2fx, want >= 1.5x (serial %v, piped %v)", got, serial, piped)
	}
	if ws1.AvgOccupancy != 1 {
		t.Fatalf("stop-and-wait occupancy %.2f, want 1.0", ws1.AvgOccupancy)
	}
	if ws4.AvgOccupancy <= 1.5 {
		t.Fatalf("window-4 occupancy %.2f, want > 1.5", ws4.AvgOccupancy)
	}
	if ws4.Stalls >= ws1.Stalls {
		t.Fatalf("window-4 stalls %d not below stop-and-wait stalls %d", ws4.Stalls, ws1.Stalls)
	}
}

// TestWindowLossParity: under frame loss the pipeline rides out
// retransmissions, every transaction still completes exactly once at the
// application level, and the trace events stay in lockstep with the
// engine's counters.
func TestWindowLossParity(t *testing.T) {
	const n = 60
	bus := trace.NewBus()
	_, ws, st := runWindowPush(t, 3, 4, n, 0.05, bus)
	if ws.Sends != n {
		t.Fatalf("window sends %d, want %d", ws.Sends, n)
	}
	if st.WindowSends != n {
		t.Fatalf("stats WindowSends %d, want %d", st.WindowSends, n)
	}
	if got := bus.Count(trace.EvCopyWindow); got != st.WindowSends {
		t.Fatalf("EvCopyWindow count %d != Stats.WindowSends %d", got, st.WindowSends)
	}
	if ws.Stalls != st.WindowStalls {
		t.Fatalf("window stalls %d != Stats.WindowStalls %d", ws.Stalls, st.WindowStalls)
	}
	if st.Retransmits == 0 {
		t.Fatal("expected retransmissions at 5% loss")
	}
}

// TestWindowStallsWhenFull: a window of size 1 must stall on every issue
// after the first (it is the stop-and-wait loop).
func TestWindowStallsWhenFull(t *testing.T) {
	const n = 10
	_, ws, _ := runWindowPush(t, 2, 1, n, 0, nil)
	if ws.Stalls < n-1 {
		t.Fatalf("size-1 window stalled %d times for %d sends, want >= %d", ws.Stalls, n, n-1)
	}
}

// TestWindowStickyError: a transaction that fails (no such destination →
// abort) must surface from a later Send or from Drain, and the window must
// not hang. Drain clears the error: the same window then carries a send to
// a live destination.
func TestWindowStickyError(t *testing.T) {
	r := newRig(t, 2, 4)
	lhA, lhB := vid.LHID(10), vid.LHID(20)
	r.place(lhA, 0)
	r.place(lhB, 1)
	server := r.hosts[1].eng.NewPort(vid.NewPID(lhB, 16))
	echoServer(r.sim, server)
	var err, again error
	done := false
	r.sim.Spawn("pusher", func(tk *sim.Task) {
		win := r.hosts[0].eng.NewWindow(lhA, 2)
		defer win.Close()
		// No such logical host anywhere: the send aborts after its locate
		// and retransmission timeouts.
		if err = win.Send(tk, vid.NewPID(vid.LHID(99), 16), vid.Message{Op: testOp}); err == nil {
			err = win.Drain(tk)
		}
		if again = win.Send(tk, server.PID(), vid.Message{Op: testOp}); again == nil {
			again = win.Drain(tk)
		}
		done = true
	})
	r.sim.RunFor(2 * time.Minute)
	if !done {
		t.Fatal("window push did not finish")
	}
	if err == nil {
		t.Fatal("expected an error from a send to a nonexistent destination")
	}
	if again != nil {
		t.Fatalf("after Drain returned the error, a send to a live server failed: %v", again)
	}
}

// TestWindowAbortTo: AbortTo ends at once the window's transaction to a
// destination its owner knows is dead — here a server that never receives,
// whose kernel would hold the sender with reply-pending for ever — and
// leaves the transaction in the other slot, to a live server, to finish.
func TestWindowAbortTo(t *testing.T) {
	r := newRig(t, 2, 6)
	lhA, lhB := vid.LHID(10), vid.LHID(20)
	r.place(lhA, 0)
	r.place(lhB, 1)
	silent := r.hosts[1].eng.NewPort(vid.NewPID(lhB, 16))
	live := r.hosts[1].eng.NewPort(vid.NewPID(lhB, 17))
	slowEchoServer(r.sim, live, 2*time.Second)
	win := r.hosts[0].eng.NewWindow(lhA, 2)
	var answered int
	win.SetOnReply(func(req, reply vid.Message) { answered++ })
	var err error
	var took time.Duration
	r.sim.Spawn("pusher", func(tk *sim.Task) {
		start := tk.Now()
		if err = win.Send(tk, silent.PID(), vid.Message{Op: testOp}); err == nil {
			if err = win.Send(tk, live.PID(), vid.Message{Op: testOp}); err == nil {
				err = win.Drain(tk)
			}
		}
		took = tk.Now().Sub(start)
	})
	const abortAt = time.Second
	r.sim.After(abortAt, func() { win.AbortTo(silent.PID()) })
	r.sim.RunFor(time.Minute)
	if code, ok := err.(vid.CodeError); !ok || uint16(code) != vid.CodeAborted {
		t.Fatalf("Drain returned %v, want the aborted transaction's CodeAborted", err)
	}
	if answered != 1 || took < 2*time.Second || took > 3*time.Second {
		t.Errorf("%d replies, drained after %v: want the live server's one reply, at about 2 s", answered, took)
	}
}
