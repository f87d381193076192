package ipc

import (
	"errors"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/packet"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// TestGatherCollectsAllReplies sends to a group in gather mode and checks
// that every member's reply is collected, in arrival order — unlike the
// plain group Send, where the first reply wins and the rest are discarded.
func TestGatherCollectsAllReplies(t *testing.T) {
	r := newRig(t, 4, 31)
	group := vid.GroupProgramManagers
	lhA := vid.LHID(10)
	r.place(lhA, 0)
	client := r.hosts[0].eng.NewPort(vid.NewPID(lhA, 16))
	delays := []time.Duration{30 * time.Millisecond, 5 * time.Millisecond, 60 * time.Millisecond}
	for i := 1; i < 4; i++ {
		lh := vid.LHID(20 + i)
		r.place(lh, i)
		p := r.hosts[i].eng.NewPort(vid.NewPID(lh, 16))
		r.hosts[i].join(group, p.PID())
		d := delays[i-1]
		id := uint32(i)
		r.sim.Spawn("member", func(tk *sim.Task) {
			for {
				req := p.Receive(tk)
				tk.Sleep(d)
				m := req.Msg
				m.W[0] = id
				p.Reply(tk, req, m)
			}
		})
	}
	var rs []GatherReply
	var err error
	var elapsed time.Duration
	r.sim.Spawn("client", func(tk *sim.Task) {
		client.StartGather(tk, group, vid.Message{Op: testOp}, 200*time.Millisecond, nil)
		sent := tk.Now()
		rs, err = client.AwaitGather(tk)
		elapsed = tk.Now().Sub(sent)
	})
	r.sim.RunFor(5 * time.Second)
	if err != nil {
		t.Fatalf("AwaitGather: %v", err)
	}
	if len(rs) != 3 {
		t.Fatalf("gathered %d replies, want 3", len(rs))
	}
	// Arrival order follows the members' response delays: 5, 30, 60 ms.
	want := []uint32{2, 1, 3}
	seen := map[vid.PID]bool{}
	for i, gr := range rs {
		if gr.Msg.W[0] != want[i] {
			t.Errorf("reply %d from member %d, want member %d", i, gr.Msg.W[0], want[i])
		}
		if seen[gr.Src] {
			t.Errorf("duplicate source %v in gather results", gr.Src)
		}
		seen[gr.Src] = true
	}
	// The window must run to completion even after all members answered —
	// and end there, to the instant.
	if elapsed != 200*time.Millisecond {
		t.Fatalf("gather closed %v after the query went out, want its 200 ms window", elapsed)
	}
}

// TestGatherDedupsDuplicateReplies injects a second copy of a member's
// reply mid-window (as a retransmission-prompted reply-cache resend would)
// and checks the per-source dedup keeps only the first.
func TestGatherDedupsDuplicateReplies(t *testing.T) {
	r := newRig(t, 2, 32)
	group := vid.GroupProgramManagers
	lhA, lhB := vid.LHID(10), vid.LHID(20)
	r.place(lhA, 0)
	r.place(lhB, 1)
	client := r.hosts[0].eng.NewPort(vid.NewPID(lhA, 16))
	server := r.hosts[1].eng.NewPort(vid.NewPID(lhB, 16))
	r.hosts[1].join(group, server.PID())
	echoServer(r.sim, server)

	var rs []GatherReply
	var err error
	var elapsed time.Duration
	r.sim.Spawn("client", func(tk *sim.Task) {
		client.StartGather(tk, group, vid.Message{Op: testOp, W: [6]uint32{41}}, 200*time.Millisecond, nil)
		sent := tk.Now()
		rs, err = client.AwaitGather(tk)
		elapsed = tk.Now().Sub(sent)
	})
	// Well inside the window, after the genuine reply has arrived.
	r.sim.After(100*time.Millisecond, func() {
		client.answered(server.PID(), vid.Message{Op: testOp, W: [6]uint32{99}}, nil)
	})
	r.sim.RunFor(5 * time.Second)
	if err != nil {
		t.Fatalf("AwaitGather: %v", err)
	}
	if len(rs) != 1 {
		t.Fatalf("gathered %d replies, want 1 (duplicate not deduped)", len(rs))
	}
	if rs[0].Msg.W[0] != 42 {
		t.Fatalf("kept reply W0 = %d, want the first arrival (42)", rs[0].Msg.W[0])
	}
	// A group of one is still a group: its only member's answer does not
	// end the gather.
	if elapsed != 200*time.Millisecond {
		t.Fatalf("gather closed %v after the query went out, want its 200 ms window", elapsed)
	}
}

// TestGatherEmptyWindowTimesOut checks that a gather with no responders
// reports a timeout once — and only once — its window elapses.
func TestGatherEmptyWindowTimesOut(t *testing.T) {
	r := newRig(t, 2, 33)
	lhA := vid.LHID(10)
	r.place(lhA, 0)
	client := r.hosts[0].eng.NewPort(vid.NewPID(lhA, 16))
	const window = 150 * time.Millisecond
	var rs []GatherReply
	var err error
	var elapsed time.Duration
	r.sim.Spawn("client", func(tk *sim.Task) {
		client.StartGather(tk, vid.GroupProgramManagers, vid.Message{Op: testOp}, window, nil)
		sent := tk.Now()
		rs, err = client.AwaitGather(tk)
		elapsed = tk.Now().Sub(sent)
	})
	r.sim.RunFor(5 * time.Second)
	if err == nil {
		t.Fatalf("empty gather succeeded with %d replies", len(rs))
	}
	if elapsed != window {
		t.Fatalf("empty gather closed %v after the query went out, want %v", elapsed, window)
	}
}

// TestGatherUnicastProbe uses gather mode against a single process — the
// scheduling layer's bounded probe. One destination is one possible
// responder, so its reply ends the gather; the window is what silence
// costs, instead of the full retransmission schedule of a plain Send to a
// dead host.
func TestGatherUnicastProbe(t *testing.T) {
	r := newRig(t, 2, 34)
	lhA, lhB := vid.LHID(10), vid.LHID(20)
	r.place(lhA, 0)
	r.place(lhB, 1)
	client := r.hosts[0].eng.NewPort(vid.NewPID(lhA, 16))
	server := r.hosts[1].eng.NewPort(vid.NewPID(lhB, 16))
	mute := r.hosts[1].eng.NewPort(vid.NewPID(lhB, 17)) // receives, never replies
	// Echo, after as many milliseconds as the request's W1 asks for.
	r.sim.Spawn("echo", func(tk *sim.Task) {
		for {
			req := server.Receive(tk)
			tk.Sleep(time.Duration(req.Msg.W[1]) * time.Millisecond)
			m := req.Msg
			m.W[0]++
			server.Reply(tk, req, m)
		}
	})
	const window = 100 * time.Millisecond
	type result struct {
		rs      []GatherReply
		err     error
		elapsed time.Duration // from the moment the request was out
	}
	gather := func(tk *sim.Task, dst vid.PID, m vid.Message) result {
		m.Op = testOp
		client.StartGather(tk, dst, m, window, nil)
		sent := tk.Now()
		rs, err := client.AwaitGather(tk)
		return result{rs, err, tk.Now().Sub(sent)}
	}
	var first, second, silent, absent result
	r.sim.Spawn("client", func(tk *sim.Task) {
		first = gather(tk, server.PID(), vid.Message{W: [6]uint32{41}})
		// Straight after, from the same port, with the first reply arriving
		// once more (as the responder's reply cache would resend it) while
		// the second request is still being served.
		stale := packet.AppendMarshal(nil, &packet.Packet{
			Kind: packet.KReply, TxID: client.txSeq, Src: server.PID(), Dst: client.PID(),
			Msg: first.rs[0].Msg,
		})
		r.sim.After(2*time.Millisecond, func() {
			r.hosts[1].nic.StartSend(ethernet.Frame{Dst: 1, Payload: stale}, nil)
		})
		second = gather(tk, server.PID(), vid.Message{W: [6]uint32{50, 20}})
		silent = gather(tk, mute.PID(), vid.Message{})
		absent = gather(tk, vid.NewPID(lhB, 99), vid.Message{})
	})
	r.sim.RunFor(5 * time.Second)

	if first.err != nil || len(first.rs) != 1 || first.rs[0].Msg.W[0] != 42 {
		t.Fatalf("unicast gather = %v, %v; want one echo reply", first.rs, first.err)
	}
	if first.elapsed > 10*time.Millisecond {
		t.Errorf("answered unicast gather took %v of its %v window, want the round trip", first.elapsed, window)
	}
	if second.err != nil || len(second.rs) != 1 || second.rs[0].Msg.W[0] != 51 {
		t.Errorf("second gather = %v, %v; want its own reply (51), not the first one's duplicate", second.rs, second.err)
	}
	if second.elapsed < 20*time.Millisecond || second.elapsed > 30*time.Millisecond {
		t.Errorf("second gather took %v, want its server's 20 ms and the round trip", second.elapsed)
	}
	if !errors.Is(silent.err, vid.CodeError(vid.CodeTimeout)) || silent.elapsed != window {
		t.Errorf("silent destination: %v after %v, want a timeout at exactly %v", silent.err, silent.elapsed, window)
	}
	if len(mute.rq) != 1 {
		t.Errorf("the silent destination holds %d requests, want the probe", len(mute.rq))
	}
	if !errors.Is(absent.err, vid.CodeError(vid.CodeNoProcess)) || absent.elapsed > 10*time.Millisecond {
		t.Errorf("no such process: %v after %v, want no-process at once", absent.err, absent.elapsed)
	}
}

// TestBindingCacheTraceMatchesStats drives the binding cache through
// misses, hits, and an explicit invalidation, then checks that the trace
// bus saw exactly as many events as the Stats counters recorded — the
// cache instrumentation may have no blind spots.
func TestBindingCacheTraceMatchesStats(t *testing.T) {
	r := newRig(t, 2, 35)
	tb := r.attachTrace()
	lhA, lhB := vid.LHID(10), vid.LHID(20)
	r.place(lhA, 0)
	r.place(lhB, 1)
	client := r.hosts[0].eng.NewPort(vid.NewPID(lhA, 16))
	server := r.hosts[1].eng.NewPort(vid.NewPID(lhB, 16))
	echoServer(r.sim, server)

	send := func(tk *sim.Task) {
		if _, err := client.Send(tk, server.PID(), vid.Message{Op: testOp}); err != nil {
			t.Errorf("send: %v", err)
		}
	}
	r.sim.Spawn("client", func(tk *sim.Task) {
		for i := 0; i < 5; i++ {
			send(tk)
		}
	})
	r.sim.RunFor(5 * time.Second)

	// Force a re-locate: the next send must miss again.
	r.hosts[0].eng.InvalidateCache(lhB)
	r.sim.Spawn("client2", func(tk *sim.Task) { send(tk) })
	r.sim.RunFor(5 * time.Second)

	var sum Stats
	for _, h := range r.hosts {
		st := h.eng.Stats()
		sum.BindingHits += st.BindingHits
		sum.BindingMisses += st.BindingMisses
		sum.BindingInvalidations += st.BindingInvalidations
	}
	checks := []struct {
		name  string
		kind  trace.Kind
		stats int64
	}{
		{"bind-hit", trace.EvBindHit, sum.BindingHits},
		{"bind-miss", trace.EvBindMiss, sum.BindingMisses},
		{"bind-invalidate", trace.EvBindInvalidate, sum.BindingInvalidations},
	}
	for _, c := range checks {
		if got := tb.Count(c.kind); got != c.stats {
			t.Errorf("trace %s events = %d, Stats counter = %d", c.name, got, c.stats)
		}
		if c.stats == 0 {
			t.Errorf("%s path was not exercised", c.name)
		}
	}
	if st := r.hosts[0].eng.Stats(); st.BindingInvalidations != 1 {
		t.Errorf("client invalidations = %d, want exactly the explicit one", st.BindingInvalidations)
	}
	// Invalidating an absent binding neither counts nor traces.
	before := tb.Count(trace.EvBindInvalidate)
	r.hosts[0].eng.InvalidateCache(vid.LHID(777))
	if tb.Count(trace.EvBindInvalidate) != before {
		t.Error("invalidating an uncached binding published a trace event")
	}
}

// TestGatherClosesOnRule: a group gather with a close rule ends at the
// reply after which the rule holds, at that instant and with the replies
// so far; one whose rule never holds collects every reply and closes at
// its window, to the instant, as a gather without a rule does.
func TestGatherClosesOnRule(t *testing.T) {
	r := newRig(t, 4, 37)
	group := vid.GroupProgramManagers
	lhA := vid.LHID(10)
	r.place(lhA, 0)
	client := r.hosts[0].eng.NewPort(vid.NewPID(lhA, 16))
	delays := []time.Duration{30 * time.Millisecond, 5 * time.Millisecond, 60 * time.Millisecond}
	for i := 1; i < 4; i++ {
		lh := vid.LHID(20 + i)
		r.place(lh, i)
		p := r.hosts[i].eng.NewPort(vid.NewPID(lh, 16))
		r.hosts[i].join(group, p.PID())
		d := delays[i-1]
		id := uint32(i)
		r.sim.Spawn("member", func(tk *sim.Task) {
			for {
				req := p.Receive(tk)
				tk.Sleep(d)
				m := req.Msg
				m.W[0] = id
				p.Reply(tk, req, m)
			}
		})
	}
	const window = 200 * time.Millisecond
	type result struct {
		rs      []GatherReply
		err     error
		sentAt  sim.Time
		elapsed time.Duration // from the moment the request was out
		held    time.Duration // when the rule last answered true, likewise
		calls   []int         // how many replies the rule saw, call by call
	}
	gather := func(tk *sim.Task, need int) *result {
		res := &result{}
		client.StartGather(tk, group, vid.Message{Op: testOp}, window, func(rs []GatherReply) bool {
			res.calls = append(res.calls, len(rs))
			if len(rs) < need {
				return false
			}
			res.held = r.sim.Now().Sub(res.sentAt)
			return true
		})
		res.sentAt = tk.Now()
		res.rs, res.err = client.AwaitGather(tk)
		res.elapsed = tk.Now().Sub(res.sentAt)
		return res
	}
	var two, never *result
	r.sim.Spawn("client", func(tk *sim.Task) {
		two = gather(tk, 2)
		tk.Sleep(time.Second) // the third member's late answer to the first query falls stale
		never = gather(tk, 4)
	})
	r.sim.RunFor(5 * time.Second)

	if two.err != nil || len(two.rs) != 2 || two.rs[0].Msg.W[0] != 2 || two.rs[1].Msg.W[0] != 1 {
		t.Fatalf("gather closing at two replies = %v, %v; want members 2 then 1", two.rs, two.err)
	}
	if two.elapsed != two.held {
		t.Errorf("gather closed %v after the query went out, the rule held at %v: want the same instant", two.elapsed, two.held)
	}
	if two.elapsed < 30*time.Millisecond || two.elapsed >= window {
		t.Errorf("gather closed after %v, want the second member's 30 ms and a round trip", two.elapsed)
	}
	if len(two.calls) != 2 || two.calls[0] != 1 || two.calls[1] != 2 {
		t.Errorf("rule saw %v replies call by call, want [1 2]", two.calls)
	}
	if never.err != nil || len(never.rs) != 3 {
		t.Fatalf("gather whose rule never holds = %v, %v; want every member's reply", never.rs, never.err)
	}
	if never.elapsed != window {
		t.Errorf("gather whose rule never holds closed %v after the query went out, want its %v window", never.elapsed, window)
	}
}
