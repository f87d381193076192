package rsm_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/kernel"
	"vsystem/internal/packet"
	"vsystem/internal/params"
	"vsystem/internal/rsm"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// logOf returns the entries for indices from..to at the given term, each
// the command k<index>=<term>, so two replicas render the same state only
// when they agree on every index's term.
func logOf(from, to, term uint32) []rsm.Entry {
	var log []rsm.Entry
	for i := from; i <= to; i++ {
		log = append(log, rsm.Entry{Term: term, Cmd: []byte(fmt.Sprintf("k%03d=%d", i, term))})
	}
	return log
}

// disk returns a durable store at term 3 holding log.
func disk(log ...[]rsm.Entry) *rsm.Store {
	st := &rsm.Store{Term: 3, VotedFor: -1}
	for _, l := range log {
		st.Log = append(st.Log, l...)
	}
	return st
}

// feedMsg is one transaction a leader's feed started to a replica: its
// operation and, for an append, the index before its first entry.
type feedMsg struct {
	op   uint16
	prev uint32
}

// onFeed calls fn, in order, with every transaction sent to replica i's
// current incarnation as it first goes out (a retransmission is not a new
// one).
func (h *harness) onFeed(i int, fn func(feedMsg)) {
	seen := make(map[[2]uint32]bool)
	h.tb.Subscribe(func(ev trace.Event) {
		p := ev.Pkt
		if ev.Kind != trace.EvPktTx || p.Kind != packet.KRequest || p.Dst != h.reps[i].PID() {
			return
		}
		key := [2]uint32{uint32(p.Src), p.TxID}
		if seen[key] || (p.Msg.Op != rsm.OpAppend && p.Msg.Op != rsm.OpSnap) {
			return
		}
		seen[key] = true
		m := feedMsg{op: p.Msg.Op}
		if a, err := rsm.DecodeAppendReq(p.Msg.Seg); err == nil {
			m.prev = a.PrevIndex
		}
		fn(m)
	})
}

// feedTo records every transaction onFeed reports for replica i.
func (h *harness) feedTo(i int) *[]feedMsg {
	var got []feedMsg
	h.onFeed(i, func(m feedMsg) { got = append(got, m) })
	return &got
}

// cutOff cuts replica i off from the other two for d, from the moment the
// first transaction to it that at picks goes out — a frame the cut then
// drops. It reports whether that happened.
func (h *harness) cutOff(i int, d time.Duration, at func(feedMsg) bool) *bool {
	cut := false
	h.onFeed(i, func(m feedMsg) {
		if !cut && at(m) {
			cut = true
			h.bus.SetCut(h.isolate([]int{i}, []int{(i + 1) % 3, (i + 2) % 3}))
			h.eng.At(h.eng.Now().Add(d), func() { h.bus.SetCut(nil) })
		}
	})
	return &cut
}

// snapFollows checks what went to a replica whose disk was empty: the
// snapshot's chunks (want of them at least), then appends that start at
// the snapshot's last index.
func snapFollows(t *testing.T, sent []feedMsg, want int, snapIndex uint32) {
	t.Helper()
	chunks, after := 0, -1
	for k, m := range sent {
		if m.op == rsm.OpSnap {
			chunks++
		} else if chunks > 0 {
			after = k
			break
		}
	}
	if chunks < want || after < 0 || sent[after].prev != snapIndex {
		t.Fatalf("sent %d snapshot chunks, then %v; want %d, then an append after index %d",
			chunks, sent, want, snapIndex)
	}
}

// minPrev returns the lowest PrevIndex of the appends in msgs.
func minPrev(msgs []feedMsg) uint32 {
	low := ^uint32(0)
	for _, m := range msgs {
		if m.op == rsm.OpAppend {
			low = min(low, m.prev)
		}
	}
	return low
}

// converged fails the test unless every replica has applied what the
// leader has, into the same state.
func (h *harness) converged(t *testing.T) {
	t.Helper()
	lead := h.leaderIdx()
	if lead < 0 {
		t.Fatal("no leader")
	}
	for i, r := range h.reps {
		if r.AppliedIndex() != h.reps[lead].AppliedIndex() || h.sms[i].render() != h.sms[lead].render() {
			t.Errorf("replica %d applied through %d, leader %d through %d; states equal: %v", i,
				r.AppliedIndex(), lead, h.reps[lead].AppliedIndex(), h.sms[i].render() == h.sms[lead].render())
		}
	}
}

// isolate cuts every frame between the stations of the replicas in a and
// those in b.
func (h *harness) isolate(a, b []int) ethernet.CutFunc {
	side := make(map[ethernet.MAC]int)
	for _, i := range a {
		side[h.hosts[i].NIC.MAC()] = 1
	}
	for _, i := range b {
		side[h.hosts[i].NIC.MAC()] = 2
	}
	return func(src, dst ethernet.MAC) bool {
		return side[src] != 0 && side[dst] != 0 && side[src] != side[dst]
	}
}

// TestFeedReplyRule drives each arm of the rule a leader reads every feed
// reply by. Replicas 0 and 2 boot from identical disks, so whichever wins
// the first election, replica 1 is the follower behind it. Every log stays
// under RsmSnapshotEntries past its snapshot, so no leader compacts.
func TestFeedReplyRule(t *testing.T) {
	// Replica 1's disk is empty, and the others' logs start past a
	// snapshot of six chunks.
	const chunks = 6
	snapDisks := func() []*rsm.Store {
		snap := newKV()
		for i := 1; i <= 50; i++ {
			snap.m[fmt.Sprintf("k%03d", i)] = strings.Repeat("s", 1800)
		}
		full := func() *rsm.Store {
			st := disk(logOf(51, 100, 3))
			st.SnapData, st.SnapIndex, st.SnapTerm = snap.Snapshot(), 50, 3
			return st
		}
		return []*rsm.Store{full(), disk(), full()}
	}
	for _, tc := range []struct {
		name   string
		stores func() []*rsm.Store
		run    func(t *testing.T, h *harness)
	}{{
		// Replica 1 holds a term-2 tail the leader never had. The first
		// heartbeat is refused back to replica 1's end, and the stream from
		// there is refused at each conflicting index in turn: the leader
		// backs up to each hint, to the last common index and no further
		// (backing up to its match, 0 after an election, resends the log).
		name: "refusal backs up to the hint",
		stores: func() []*rsm.Store {
			long := func() *rsm.Store { return disk(logOf(1, 10, 1), logOf(11, 60, 3)) }
			return []*rsm.Store{long(), disk(logOf(1, 10, 1), logOf(11, 40, 2)), long()}
		},
		run: func(t *testing.T, h *harness) {
			sent := h.feedTo(1)
			h.eng.RunFor(5 * time.Second)
			if low := minPrev(*sent); low != 10 {
				t.Errorf("appends to replica 1 went back to index %d, want the last common index 10", low)
			}
			h.converged(t)
		},
	}, {
		// The stream to replica 1 is cut off at its first batch, before
		// anything is acknowledged: the leader's match for it is still 0.
		// Every retry resumes where that pass began, and the tail arrives
		// once the cut heals.
		name: "transport failure rolls back to where the pass began",
		stores: func() []*rsm.Store {
			return []*rsm.Store{disk(logOf(1, 60, 3)), disk(logOf(1, 20, 3)), disk(logOf(1, 60, 3))}
		},
		run: func(t *testing.T, h *harness) {
			sent := h.feedTo(1)
			cut := h.cutOff(1, 8*time.Second, func(m feedMsg) bool { return m.op == rsm.OpAppend && m.prev == 20 })
			h.eng.RunFor(15 * time.Second)
			if !*cut {
				t.Fatal("no stream to replica 1 began at index 21")
			}
			if low := minPrev(*sent); low != 20 {
				t.Errorf("appends to replica 1 went back to index %d, want 20: the pass began at 21", low)
			}
			h.converged(t)
		},
	}, {
		// The snapshot goes first, and the appends that follow it start at
		// SnapIndex+1. The chunk that completes the install is answered
		// with the match, SnapIndex; every other chunk with 0.
		name:   "snapshot install is followed by appends from SnapIndex+1",
		stores: snapDisks,
		run: func(t *testing.T, h *harness) {
			sent := h.feedTo(1)
			var matches []uint32
			h.tb.Subscribe(func(ev trace.Event) {
				if p := ev.Pkt; ev.Kind == trace.EvPktTx && p.Kind == packet.KReply &&
					p.Src == h.reps[1].PID() && p.Msg.Op == rsm.OpSnap {
					matches = append(matches, p.Msg.W[2])
				}
			})
			h.eng.RunFor(5 * time.Second)
			snapFollows(t, *sent, chunks, 50)
			if zeros := slices.DeleteFunc(slices.Clone(matches), func(m uint32) bool { return m != 0 }); len(matches) != chunks ||
				len(zeros) != chunks-1 || !slices.Contains(matches, 50) {
				t.Errorf("snapshot chunk replies carried matches %v, want one 50 and the rest 0", matches)
			}
			if n := h.reps[1].Stats().SnapInstalls; n != 1 {
				t.Errorf("replica 1 installed %d snapshots, want 1", n)
			}
			h.converged(t)
		},
	}, {
		// The snapshot's first chunk is cut off, with five more to send:
		// the pass ends there, and the snapshot goes again once the cut
		// heals — never an append before it.
		name:   "transport failure mid-snapshot sends it again",
		stores: snapDisks,
		run: func(t *testing.T, h *harness) {
			sent := h.feedTo(1)
			cut := h.cutOff(1, 8*time.Second, func(m feedMsg) bool { return m.op == rsm.OpSnap })
			h.eng.RunFor(15 * time.Second)
			if !*cut {
				t.Fatal("no snapshot went to replica 1")
			}
			snapFollows(t, *sent, chunks+1, 50)
			if n := h.reps[1].Stats().SnapInstalls; n != 1 {
				t.Errorf("replica 1 installed %d snapshots, want 1", n)
			}
			h.converged(t)
		},
	}, {
		// A leader cut off with a backlog the others never saw — eight
		// batches of two 8 KB commands — while they elect a successor. The
		// cut then heals between the old leader and the successor's
		// follower only, so nothing but that follower's replies, each
		// carrying the later term, can tell the old leader it is deposed.
		// The pass stops at the first one it reads, mid-stream: no more
		// batches than the window holds and the one it was waiting to send.
		name: "later term mid-stream steps the leader down",
		stores: func() []*rsm.Store {
			return []*rsm.Store{rsm.NewStore(), rsm.NewStore(), rsm.NewStore()}
		},
		run: func(t *testing.T, h *harness) {
			h.eng.RunFor(3 * time.Second)
			old := h.leaderIdx()
			if old < 0 {
				t.Fatal("no leader")
			}
			type start struct {
				at  sim.Time
				dst vid.PID
			}
			first := make(map[[2]uint32]start) // the old leader's appends, by port and transaction
			oldSrc := h.hosts[old].NIC.MAC()
			h.tb.Subscribe(func(ev trace.Event) {
				p := ev.Pkt
				if ev.Kind == trace.EvPktTx && p.Kind == packet.KRequest && ethernet.MAC(ev.Host) == oldSrc &&
					p.Msg.Op == rsm.OpAppend {
					key := [2]uint32{uint32(p.Src), p.TxID}
					if _, ok := first[key]; !ok {
						first[key] = start{ev.At, p.Dst}
					}
				}
			})
			others := []int{(old + 1) % 3, (old + 2) % 3}
			h.bus.SetCut(h.isolate([]int{old}, others))
			for k := 0; k < 16; k++ {
				cmd := []byte(fmt.Sprintf("big%02d=%s", k, strings.Repeat("b", 8*1024)))
				h.hosts[old].SpawnServer("stale", 4096, func(ctx *kernel.ProcCtx) { h.reps[old].Submit(ctx, cmd) })
			}
			h.eng.RunFor(params.RsmFailoverBudget + time.Second)
			succ := h.leaderIdx()
			if succ < 0 || succ == old {
				t.Fatalf("leader %d after the partition, want a successor to %d", succ, old)
			}
			f := 3 - old - succ
			term := h.reps[succ].Term()
			healed := h.eng.Now()
			h.bus.SetCut(h.isolate([]int{old}, []int{succ}))
			for h.eng.Now().Sub(healed) < 2*time.Second && h.reps[old].Role() == "leader" {
				h.eng.RunFor(time.Millisecond)
			}
			if h.reps[old].Role() == "leader" || h.reps[old].Term() != term {
				t.Fatalf("old leader %d is %s at term %d 2 s after the follower could answer it, want a follower at %d",
					old, h.reps[old].Role(), h.reps[old].Term(), term)
			}
			sent := 0
			for _, s := range first {
				if s.at >= healed && s.dst == h.reps[f].PID() {
					sent++
				}
			}
			if sent > params.CopyWindow+1 {
				t.Errorf("the old leader started %d appends to the follower before stepping down, want at most %d",
					sent, params.CopyWindow+1)
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, bootStores(t, 1, tc.stores()))
		})
	}
}

// TestRejoinerCatchUpCrossesOnce: a follower cut off while the leader
// commits 41 entries is unbound at the leader by the time the cut heals,
// since the retransmissions to it dropped its binding. The catch-up opens
// with a window of appends to that unbound logical host: one locate
// answers for all of them, so each missing entry crosses the wire once.
func TestRejoinerCatchUpCrossesOnce(t *testing.T) {
	h := boot(t, 3, 1)
	h.eng.RunFor(3 * time.Second)
	lead := h.leaderIdx()
	if lead < 0 {
		t.Fatal("no leader")
	}
	f := (lead + 1) % 3
	h.bus.SetCut(h.isolate([]int{f}, []int{lead, (lead + 2) % 3}))
	missed := h.reps[f].AppliedIndex() + 1
	const n = 41
	h.hosts[lead].SpawnServer("submit", 4096, func(ctx *kernel.ProcCtx) {
		for k := range n {
			if _, err := h.reps[lead].Submit(ctx, []byte(fmt.Sprintf("m%02d=1", k))); err != nil {
				t.Errorf("submit %d: %v", k, err)
			}
		}
	})
	h.eng.RunFor(3 * time.Second)
	if _, bound := h.hosts[lead].IPC.CacheLookup(h.reps[f].PID().LH()); bound {
		t.Fatal("the leader still binds the cut-off follower; the catch-up would need no locate")
	}
	crossed := make(map[uint32]int) // entry index → appends that carried it to f
	h.tb.Subscribe(func(ev trace.Event) {
		p := ev.Pkt
		if ev.Kind != trace.EvPktTx || p.Kind != packet.KRequest || p.Dst != h.reps[f].PID() || p.Msg.Op != rsm.OpAppend {
			return
		}
		a, err := rsm.DecodeAppendReq(p.Msg.Seg)
		if err != nil {
			t.Fatalf("append to the rejoiner: %v", err)
		}
		for i := range a.Entries {
			crossed[a.PrevIndex+1+uint32(i)]++
		}
	})
	h.bus.SetCut(nil)
	h.eng.RunFor(3 * time.Second)
	h.converged(t)
	last := h.reps[lead].CommitIndex()
	if last < missed+n-1 {
		t.Fatalf("leader committed through %d, want at least %d", last, missed+n-1)
	}
	for idx := missed; idx <= last; idx++ {
		if crossed[idx] != 1 {
			t.Fatalf("entry %d crossed the wire %d times after the heal, want once (entries %d–%d were missing)",
				idx, crossed[idx], missed, last)
		}
	}
}
