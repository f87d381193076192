package sched

import (
	"math/rand"
	"slices"
	"time"

	"vsystem/internal/freelist"
	"vsystem/internal/ipc"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// Sender is the transaction capability a Selector needs; *kernel.ProcCtx
// satisfies it (the sched package deliberately does not import the
// kernel — it sits beside it, like progmgr).
type Sender interface {
	Send(dst vid.PID, msg vid.Message) (vid.Message, error)
	SendGather(dst vid.PID, msg vid.Message, window time.Duration, enough func([]ipc.GatherReply) bool) ([]ipc.GatherReply, error)
	Now() sim.Time
}

// Stats counts a selector's activity.
type Stats struct {
	// Queries is the number of Select calls.
	Queries int64
	// WarmPicks is how many selections committed from the cache without
	// any multicast.
	WarmPicks int64
	// Multicasts is how many group queries went out (first-response sends
	// and gathering queries both count).
	Multicasts int64
	// Probes / ProbeFailures count directed willingness probes of cached
	// candidates.
	Probes, ProbeFailures int64
}

// Selector runs host selection for one workstation: a policy over the
// host's load-view cache, falling back to the multicast query protocol
// when the cache cannot answer.
type Selector struct {
	Policy Policy
	Cache  *Cache

	// ReplyPermille, when non-zero, is stamped into the high half of the
	// query's flag word: each manager hashes (MAC, TxID) against it and
	// only ~N×permille/1000 answer a multicast query. Large clusters set
	// it to keep the expected responder count near
	// params.SelectReplyTarget; zero means every willing host answers
	// (the paper's protocol, kept exact on small clusters).
	ReplyPermille uint32

	// Listen, when set, has the station join the load-beacon listeners
	// (vid.GroupLoadListeners). Every load-aware selection calls it, so the
	// station hears beacons from its first such selection on, and again
	// from the first after a crash cleared its groups: it must be
	// idempotent.
	Listen func()

	group vid.PID
	op    uint16
	host  uint16 // station MAC, for trace events
	bus   *trace.Bus
	rng   *rand.Rand
	// bufs holds the candidate buffers no Select is using. A warm Select
	// holds one across its probes, while the node's other agents select.
	bufs freelist.ResetList[[]Load]

	stats Stats
}

// NewSelector builds a selector for the workstation with the given
// station MAC. group/op address the selection protocol (the
// program-manager group and its PmSelectHost operation — passed in so
// sched does not import progmgr). The rng must be dedicated to this
// selector and deterministically seeded; sw is its cluster's poisoning
// switch (freelist).
func NewSelector(p Policy, cache *Cache, group vid.PID, op uint16, host uint16, bus *trace.Bus, rng *rand.Rand, sw *freelist.Switch) *Selector {
	return &Selector{
		Policy: p, Cache: cache,
		group: group, op: op, host: host, bus: bus, rng: rng,
		bufs: freelist.NewResetList(8, func() []Load { return nil }, clearLoads, sw),
	}
}

// clearLoads readies a candidate buffer for the next Select, zeroing it
// first when told to poison; one that never grew is not kept.
func clearLoads(b []Load, poison bool) ([]Load, bool) {
	if poison {
		clear(b[:cap(b)])
	}
	return b[:0], cap(b) > 0
}

// Stats snapshots the selector's counters.
func (s *Selector) Stats() Stats { return s.stats }

// Select picks an execution host with at least minMem free, never one of
// the excluded system logical hosts. Under a non-load-aware policy it is
// wire-compatible with the paper's protocol: up to two first-response
// multicasts. Under a load-aware policy it first consults the cache and
// directly probes the policy's choice (warm path, no multicast), then
// falls back to a gathering multicast that collects every answer within
// the window.
func (s *Selector) Select(tx Sender, minMem uint32, exclude ...vid.LHID) (Load, error) {
	s.stats.Queries++
	s.bus.Publish(trace.Event{
		At: tx.Now(), Host: s.host, Kind: trace.EvSelectQuery, Size: int(minMem / 1024),
	})

	var w [6]uint32
	w[0] = minMem
	for i, lh := range exclude[:min(len(exclude), 4)] {
		w[i+1] = uint32(lh)
	}

	if !s.Policy.LoadAware() {
		return s.selectFirst(tx, w)
	}
	if s.Listen != nil {
		s.Listen()
	}

	// Warm path: the cache proposes candidates; probe the policy's choice
	// directly and rank on what it answers, which is fresher than anything
	// cached. An idle answer commits at once. A busy one (Ready > 0) is
	// kept while the policy picks once more from the rest, and the better of
	// the answers in hand wins. A refusal or silence negatively caches the
	// candidate; after two probes with no answer fall through to the
	// multicast rather than serially probing a cold cluster.
	cands := s.Cache.Candidates(s.bufs.Get(), minMem, exclude)
	for _, c := range cands {
		s.candidate(tx, c, true)
	}
	var best Load
	answered := false
	for probes := 0; len(cands) > 0 && probes < 2; probes++ {
		pick := s.Policy.Pick(cands, s.rng)
		l, ok := s.probe(tx, pick, w)
		switch {
		case !ok:
			s.Cache.Negative(pick.SystemLH)
		case !answered || l.Better(best):
			best, answered = l, true
		}
		if answered && best.Ready == 0 {
			break
		}
		cands = dropLH(cands, pick.SystemLH)
	}
	s.bufs.Put(cands)
	if answered {
		s.stats.WarmPicks++
		s.choose(tx, best, true)
		return best, nil
	}

	// Cold path: gather every answer within the window and let the
	// policy rank them. Relaxed — busy hosts answer with their load.
	wq := w
	wq[5] = QueryRelaxed | s.ReplyPermille<<16
	for attempt := 0; attempt < 2; attempt++ {
		s.stats.Multicasts++
		rs, err := tx.SendGather(s.group, vid.Message{Op: s.op, W: wq}, params.SelectGatherWindow, nil)
		if err != nil {
			continue
		}
		var got []Load
		for _, r := range rs {
			if !r.Msg.OK() {
				continue
			}
			l := LoadFromWords(r.Msg.W)
			s.Cache.ObserveLoad(l)
			if slices.Contains(exclude, l.SystemLH) {
				continue
			}
			got = append(got, l)
			s.candidate(tx, l, false)
		}
		if len(got) > 0 {
			l := s.Policy.Pick(got, s.rng)
			s.choose(tx, l, false)
			return l, nil
		}
	}
	return Load{}, ErrNoHost
}

// selectFirst is the paper's protocol, kept call-for-call identical to
// the pre-sched implementation: two strict first-response multicasts.
// On large clusters the query carries the reply-permille so only a
// deterministic sample evaluates and answers.
func (s *Selector) selectFirst(tx Sender, w [6]uint32) (Load, error) {
	w[5] |= s.ReplyPermille << 16
	for attempt := 0; attempt < 2; attempt++ {
		s.stats.Multicasts++
		m, err := tx.Send(s.group, vid.Message{Op: s.op, W: w})
		if err == nil && m.OK() {
			l := LoadFromWords(m.W)
			s.Cache.ObserveLoad(l)
			s.candidate(tx, l, false)
			s.choose(tx, l, false)
			return l, nil
		}
	}
	return Load{}, ErrNoHost
}

// probe asks one cached candidate directly for its load. It is a gather to
// one process rather than a plain Send: the answer ends it, and a dead or
// partitioned candidate costs one probe window, not a full retransmission
// abort.
func (s *Selector) probe(tx Sender, cand Load, w [6]uint32) (Load, bool) {
	if cand.PM == 0 {
		return Load{}, false
	}
	s.stats.Probes++
	wq := w
	wq[5] = QueryUnicast | QueryRelaxed
	rs, err := tx.SendGather(cand.PM, vid.Message{Op: s.op, W: wq}, params.SelectProbeWindow, nil)
	ok := err == nil && len(rs) > 0 && rs[0].Msg.OK()
	var l Load
	if ok {
		l = LoadFromWords(rs[0].Msg.W)
		s.Cache.ObserveLoad(l)
	} else {
		s.stats.ProbeFailures++
	}
	s.bus.Publish(trace.Event{
		At: tx.Now(), Host: s.host, Kind: trace.EvSelectProbe,
		LH: cand.SystemLH, Size: l.Ready, Prio: boolInt(ok),
	})
	return l, ok
}

// choose commits the selection: a placement bump bridges the window until
// the chosen host's own advertisements reflect the new work.
func (s *Selector) choose(tx Sender, l Load, warm bool) {
	s.Cache.NotePlaced(l.SystemLH)
	s.bus.Publish(trace.Event{
		At: tx.Now(), Host: s.host, Kind: trace.EvSelectChoice,
		LH: l.SystemLH, Prio: boolInt(warm),
	})
}

func (s *Selector) candidate(tx Sender, l Load, warm bool) {
	s.bus.Publish(trace.Event{
		At: tx.Now(), Host: s.host, Kind: trace.EvSelectCandidate,
		LH: l.SystemLH, Size: l.Ready, Prio: boolInt(warm),
	})
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func dropLH(ls []Load, lh vid.LHID) []Load {
	out := ls[:0]
	for _, l := range ls {
		if l.SystemLH != lh {
			out = append(out, l)
		}
	}
	return out
}
