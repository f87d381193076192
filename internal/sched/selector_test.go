package sched

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"vsystem/internal/ipc"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// The selector against a scripted Sender: no cluster, no engine. Each
// manager's answer to a directed probe and the group's answer to a
// multicast are table entries; the Sender logs what it was asked.

const (
	testGroup = vid.PID(0xFFFF0001)
	testOp    = uint16(0x77)
)

// sent is one transaction the selector issued.
type sent struct {
	dst    vid.PID
	flags  uint32 // W5 of the query
	gather bool   // SendGather rather than Send
	window time.Duration
}

// scriptSender answers a probe of manager pm with probes[pm] (absent:
// silence for the whole window; !OK: a refusal) and a group query with the
// next entry of multicasts (exhausted: nobody answers).
type scriptSender struct {
	clk        *testClock
	probes     map[vid.PID]vid.Message
	multicasts [][]Load
	log        []sent
}

func answer(l Load) vid.Message { return vid.Message{W: l.Words()} }

func refusal() vid.Message { return vid.Message{Code: vid.CodeRefused} }

func (s *scriptSender) Now() sim.Time { return s.clk.now }

func (s *scriptSender) nextMulticast() []Load {
	if len(s.multicasts) == 0 {
		return nil
	}
	ls := s.multicasts[0]
	s.multicasts = s.multicasts[1:]
	return ls
}

func (s *scriptSender) Send(dst vid.PID, msg vid.Message) (vid.Message, error) {
	s.log = append(s.log, sent{dst: dst, flags: msg.W[5]})
	if ls := s.nextMulticast(); len(ls) > 0 {
		return answer(ls[0]), nil
	}
	return vid.Message{}, vid.CodeError(vid.CodeTimeout)
}

func (s *scriptSender) SendGather(dst vid.PID, msg vid.Message, window time.Duration, enough func([]ipc.GatherReply) bool) ([]ipc.GatherReply, error) {
	s.log = append(s.log, sent{dst: dst, flags: msg.W[5], gather: true, window: window})
	if dst == testGroup {
		s.clk.advance(window)
		var rs []ipc.GatherReply
		for _, l := range s.nextMulticast() {
			rs = append(rs, ipc.GatherReply{Src: l.PM, Msg: answer(l)})
		}
		if len(rs) == 0 {
			return nil, vid.CodeError(vid.CodeTimeout)
		}
		return rs, nil
	}
	m, ok := s.probes[dst]
	if !ok {
		s.clk.advance(window)
		return nil, vid.CodeError(vid.CodeTimeout)
	}
	s.clk.advance(25 * time.Millisecond)
	return []ipc.GatherReply{{Src: dst, Msg: m}}, nil
}

// probed lists the managers the selector probed, in order; multicasts
// counts its group transactions.
func (s *scriptSender) probed() (pms []vid.PID, multicasts int) {
	for _, c := range s.log {
		if c.dst == testGroup {
			multicasts++
		} else {
			pms = append(pms, c.dst)
		}
	}
	return pms, multicasts
}

// newTestSelector caches the given view (LeastLoaded then probes it in
// Better order) and returns the selector with its sender and bus.
func newTestSelector(p Policy, view ...Load) (*Selector, *scriptSender, *trace.Bus) {
	clk := &testClock{}
	cache := NewCache(clk.fn())
	for _, l := range view {
		cache.ObserveLoad(l)
	}
	bus := trace.NewBus()
	sel := NewSelector(p, cache, testGroup, testOp, 9, bus, rand.New(rand.NewSource(1)), nil)
	return sel, &scriptSender{clk: clk, probes: map[vid.PID]vid.Message{}}, bus
}

// TestWarmPathRanksOnTheFreshAnswer walks the warm path's outcomes: what a
// probe answers, not what the cache held, decides; a busy answer buys one
// more probe and never a third; an answer in hand is never traded for a
// multicast.
func TestWarmPathRanksOnTheFreshAnswer(t *testing.T) {
	// The cached view says all three are idle, host 1 first in Better order.
	h1, h2, h3 := ld(1, 0, 512), ld(2, 0, 512), ld(3, 0, 512)
	busy := func(l Load, ready int) Load { l.Ready = ready; return l }
	// What no two hosts can report, the id being part of the order: a load
	// that ties with host 1's. Better is strict, so the answer already in
	// hand stays; the manager word tells the two apart.
	twin := busy(h1, 2)
	twin.PM = h2.PM

	cases := []struct {
		name       string
		answers    map[vid.PID]vid.Message
		multicasts [][]Load
		wantProbes []vid.PID
		wantMulti  int
		want       Load
		wantStats  Stats
		wantNeg    []vid.LHID
	}{
		{
			name:       "idle first answer commits at once",
			answers:    map[vid.PID]vid.Message{h1.PM: answer(h1), h2.PM: answer(h2)},
			wantProbes: []vid.PID{h1.PM},
			want:       h1,
			wantStats:  Stats{Queries: 1, WarmPicks: 1, Probes: 1},
		},
		{
			name:       "busy first, idle second: the second",
			answers:    map[vid.PID]vid.Message{h1.PM: answer(busy(h1, 2)), h2.PM: answer(h2)},
			wantProbes: []vid.PID{h1.PM, h2.PM},
			want:       h2,
			wantStats:  Stats{Queries: 1, WarmPicks: 1, Probes: 2},
		},
		{
			name:       "two busy answers: the better one, here the second",
			answers:    map[vid.PID]vid.Message{h1.PM: answer(busy(h1, 3)), h2.PM: answer(busy(h2, 1)), h3.PM: answer(h3)},
			wantProbes: []vid.PID{h1.PM, h2.PM},
			want:       busy(h2, 1),
			wantStats:  Stats{Queries: 1, WarmPicks: 1, Probes: 2},
		},
		{
			name:       "two busy answers: the better one, here the first, and no third probe",
			answers:    map[vid.PID]vid.Message{h1.PM: answer(busy(h1, 1)), h2.PM: answer(busy(h2, 3)), h3.PM: answer(h3)},
			wantProbes: []vid.PID{h1.PM, h2.PM},
			want:       busy(h1, 1),
			wantStats:  Stats{Queries: 1, WarmPicks: 1, Probes: 2},
		},
		{
			name:       "a tie keeps the first answer",
			answers:    map[vid.PID]vid.Message{h1.PM: answer(busy(h1, 2)), h2.PM: answer(twin)},
			wantProbes: []vid.PID{h1.PM, h2.PM},
			want:       busy(h1, 2),
			wantStats:  Stats{Queries: 1, WarmPicks: 1, Probes: 2},
		},
		{
			name:       "busy answer, silent second: the busy host, no multicast",
			answers:    map[vid.PID]vid.Message{h1.PM: answer(busy(h1, 2))},
			wantProbes: []vid.PID{h1.PM, h2.PM},
			want:       busy(h1, 2),
			wantStats:  Stats{Queries: 1, WarmPicks: 1, Probes: 2, ProbeFailures: 1},
			wantNeg:    []vid.LHID{h2.SystemLH},
		},
		{
			name:       "refusal, then a busy answer: that host",
			answers:    map[vid.PID]vid.Message{h1.PM: refusal(), h2.PM: answer(busy(h2, 4)), h3.PM: answer(h3)},
			wantProbes: []vid.PID{h1.PM, h2.PM},
			want:       busy(h2, 4),
			wantStats:  Stats{Queries: 1, WarmPicks: 1, Probes: 2, ProbeFailures: 1},
			wantNeg:    []vid.LHID{h1.SystemLH},
		},
		{
			name:       "two failures: the cold path, as before",
			answers:    map[vid.PID]vid.Message{h1.PM: refusal(), h3.PM: answer(h3)},
			multicasts: [][]Load{{busy(h3, 1), busy(h2, 5)}},
			wantProbes: []vid.PID{h1.PM, h2.PM},
			wantMulti:  1,
			want:       busy(h3, 1),
			wantStats:  Stats{Queries: 1, Multicasts: 1, Probes: 2, ProbeFailures: 2},
			wantNeg:    []vid.LHID{h1.SystemLH, h2.SystemLH},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sel, tx, bus := newTestSelector(LeastLoaded{}, h1, h2, h3)
			tx.probes, tx.multicasts = c.answers, c.multicasts
			var probeEvs []trace.Event
			bus.Subscribe(func(ev trace.Event) {
				if ev.Kind == trace.EvSelectProbe {
					probeEvs = append(probeEvs, ev)
				}
			})
			got, err := sel.Select(tx, 64*1024)
			if err != nil {
				t.Fatalf("Select: %v", err)
			}
			if got != c.want {
				t.Errorf("chose %v, want %v", got, c.want)
			}
			pms, multi := tx.probed()
			if !slices.Equal(pms, c.wantProbes) {
				t.Fatalf("probed %v, want %v", pms, c.wantProbes)
			}
			if multi != c.wantMulti {
				t.Errorf("%d multicasts, want %d", multi, c.wantMulti)
			}
			for _, s := range tx.log {
				if s.dst != testGroup && (!s.gather || s.window != params.SelectProbeWindow || s.flags != QueryUnicast|QueryRelaxed) {
					t.Errorf("probe went out as %+v", s)
				}
				if s.dst == testGroup && (!s.gather || s.window != params.SelectGatherWindow || s.flags != QueryRelaxed) {
					t.Errorf("cold query went out as %+v", s)
				}
			}
			if st := sel.Stats(); st != c.wantStats {
				t.Errorf("stats %+v, want %+v", st, c.wantStats)
			}
			var negs []vid.LHID // Entries sorts by logical host, as wantNeg is
			for _, e := range sel.Cache.Entries() {
				if e.Neg {
					negs = append(negs, e.Load.SystemLH)
				}
			}
			if !slices.Equal(negs, c.wantNeg) {
				t.Errorf("negatively cached %v, want %v", negs, c.wantNeg)
			}
			// One event per probe, carrying what it learned.
			if len(probeEvs) != len(pms) {
				t.Fatalf("%d select-probe events for %d probes", len(probeEvs), len(pms))
			}
			for i, ev := range probeEvs {
				m, answered := c.answers[pms[i]]
				answered = answered && m.OK()
				wantReady := 0
				if answered {
					wantReady = LoadFromWords(m.W).Ready
				}
				if ev.Host != 9 || ev.LH != pms[i].LH() || ev.Prio != boolInt(answered) || ev.Size != wantReady {
					t.Errorf("probe %d published %+v (answered %v, ready %d)", i, ev, answered, wantReady)
				}
			}
		})
	}
}

// TestWarmPathWithOneCandidate: a busy answer from the only cached host is
// still an answer — it is chosen, with no second probe to make.
func TestWarmPathWithOneCandidate(t *testing.T) {
	h1 := ld(1, 0, 512)
	fresh := h1
	fresh.Ready = 3
	sel, tx, _ := newTestSelector(RandomK{K: 2}, h1)
	tx.probes[h1.PM] = answer(fresh)
	got, err := sel.Select(tx, 0)
	if err != nil || got != fresh {
		t.Fatalf("Select = %v, %v; want %v", got, err, fresh)
	}
	if st := sel.Stats(); st.Probes != 1 || st.WarmPicks != 1 || st.Multicasts != 0 {
		t.Fatalf("stats %+v, want one probe, one warm pick", st)
	}
}

// TestSelectExhaustedReportsNoHost: two failed probes and two empty
// gathers are everything a load-aware selection sends.
func TestSelectExhaustedReportsNoHost(t *testing.T) {
	sel, tx, _ := newTestSelector(LeastLoaded{}, ld(1, 0, 512), ld(2, 0, 512), ld(3, 0, 512))
	if _, err := sel.Select(tx, 0); !errors.Is(err, ErrNoHost) {
		t.Fatalf("Select on a silent cluster: %v, want ErrNoHost", err)
	}
	pms, multi := tx.probed()
	if len(pms) != 2 || multi != 2 {
		t.Fatalf("%d probes and %d multicasts, want 2 and 2", len(pms), multi)
	}
	want := 2*params.SelectProbeWindow + 2*params.SelectGatherWindow
	if got := time.Duration(tx.clk.now); got != want {
		t.Fatalf("a silent cluster cost %v, want %v", got, want)
	}
}

// TestFirstResponseSendsTheSameTwoMulticasts: the paper's policy never
// looks at the cache, never probes, never gathers — two strict
// first-response group sends, the reply-permille in the flag word.
func TestFirstResponseSendsTheSameTwoMulticasts(t *testing.T) {
	h1, h2 := ld(1, 0, 512), ld(2, 0, 512)
	sel, tx, bus := newTestSelector(FirstResponse{}, h1, h2)
	sel.ReplyPermille = 250
	tx.multicasts = [][]Load{nil, {h2}}
	got, err := sel.Select(tx, 64*1024, vid.LHID(77))
	if err != nil || got != h2 {
		t.Fatalf("Select = %v, %v; want %v", got, err, h2)
	}
	if len(tx.log) != 2 {
		t.Fatalf("sent %+v, want two multicasts", tx.log)
	}
	for _, s := range tx.log {
		if s.dst != testGroup || s.gather || s.flags != 250<<16 {
			t.Errorf("first-response query went out as %+v", s)
		}
	}
	if st := sel.Stats(); st != (Stats{Queries: 1, Multicasts: 2}) {
		t.Errorf("stats %+v", st)
	}
	if n := bus.Count(trace.EvSelectProbe); n != 0 {
		t.Errorf("%d select-probe events under first-response", n)
	}
	tx.log = nil
	if _, err := sel.Select(tx, 0); !errors.Is(err, ErrNoHost) || len(tx.log) != 2 {
		t.Fatalf("silent cluster: %v after %d sends, want ErrNoHost after 2", err, len(tx.log))
	}
}

// idleSender answers every probe at once with an idle load, from a reply
// made once: a Sender that allocates nothing itself.
type idleSender struct {
	clk   *testClock
	reply []ipc.GatherReply
}

func (s *idleSender) Now() sim.Time { return s.clk.now }

func (s *idleSender) Send(vid.PID, vid.Message) (vid.Message, error) {
	return vid.Message{}, vid.CodeError(vid.CodeTimeout)
}

func (s *idleSender) SendGather(dst vid.PID, _ vid.Message, _ time.Duration, _ func([]ipc.GatherReply) bool) ([]ipc.GatherReply, error) {
	s.clk.advance(25 * time.Millisecond)
	l := LoadFromWords(s.reply[0].Msg.W)
	l.PM = dst
	s.reply[0].Msg.W = l.Words()
	return s.reply, nil
}

// TestWarmSelectAllocatesNothing: a warm selection over a 100-entry view —
// the candidates, random-2's sample, the probe, the placement bump —
// allocates nothing once the selector has a candidate buffer.
func TestWarmSelectAllocatesNothing(t *testing.T) {
	clk := &testClock{}
	cache := NewCache(clk.fn())
	sel := NewSelector(RandomK{K: 2}, cache, testGroup, testOp, 9, trace.NewBus(), rand.New(rand.NewSource(1)), nil)
	view := make([]Load, 100)
	for i := range view {
		view[i] = ld(uint16(i+1), i%3, 512)
	}
	tx := &idleSender{clk: clk, reply: []ipc.GatherReply{{Msg: answer(ld(1, 0, 512))}}}
	selects := 0
	warm := func() {
		for _, l := range view {
			cache.ObserveLoad(l) // the beacons keep the whole view fresh
		}
		if _, err := sel.Select(tx, 256*1024, vid.NewHostLH(1, 1)); err != nil {
			t.Fatal(err)
		}
		selects++
	}
	warm()
	if n := testing.AllocsPerRun(100, warm); n != 0 {
		t.Fatalf("%v allocations per warm selection, want 0", n)
	}
	if st := sel.Stats(); st.WarmPicks != int64(selects) || st.Multicasts != 0 {
		t.Fatalf("%+v after %d selections: not every one was warm", st, selects)
	}
}
