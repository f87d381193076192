package ipc

import (
	"slices"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/packet"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// TestCacheSweepOncePerEntry: a reply answered from the reply cache k times
// is swept by one timer, whose deadline each answer moves. Once the sender
// is quiet the sweep fires at most twice — at the first deadline, which has
// moved, and at the last — however large k is.
func TestCacheSweepOncePerEntry(t *testing.T) {
	for _, k := range []int{0, 3, 10} {
		r, client, server := bulkRig(t, 1)
		echoServer(r.sim, server)
		frame := packet.AppendMarshal(nil, &packet.Packet{
			Kind: packet.KRequest, TxID: 1, Src: client.PID(), Dst: server.PID(), Msg: vid.Message{Op: testOp},
		})
		// The request, then k retransmissions of it, each answered whole
		// from the cache.
		for i := 0; i <= k; i++ {
			r.hosts[0].nic.StartSend(ethernet.Frame{Dst: 2, Payload: frame}, nil)
			r.sim.RunFor(100 * time.Millisecond)
		}
		if got := server.eng.Stats().RepliesFromCache; got != int64(k) {
			t.Fatalf("k=%d: %d answers from the cache", k, got)
		}
		before := r.sim.Stats().Fired
		r.sim.Run()
		if fired := r.sim.Stats().Fired - before; fired > 2 {
			t.Errorf("k=%d: the reply cache's sweep fired %d times after the last answer, want at most 2", k, fired)
		}
		if c := server.peers[client.PID()].cache; c != nil {
			t.Errorf("k=%d: the cached reply outlived its deadline", k)
		}
		r.sim.Shutdown()
	}
}

// TestClientTxnTable steps a send transaction in each state it can be in
// through every event the engine posts to it there, and pins each result:
// the action, the next value and the deadline that value leaves for the
// port's one timer (DESIGN §5 has the table). A pair a row does not list
// leaves the transaction as it was and asks nothing of the engine; a row
// names the events the engine never posts in its state. The interval of a
// started row ends now; the tail probe of a lone send is due 50 ms into its
// first interval, and a tick, a learnt binding, a reply-pending or a
// fragment of the reply spends it.
func TestClientTxnTable(t *testing.T) {
	const txid = 7
	const pto = 50 * time.Millisecond
	now := sim.Time(10 * time.Second)
	ago := func(ms int) sim.Time { return now.Add(-time.Duration(ms) * time.Millisecond) }
	next := now.Add(params.RetransmitInterval) // the end of an interval that starts now
	uni, grp := vid.NewPID(20, 16), vid.GroupProgramManagers

	events := []struct {
		name string
		ev   clientEv
	}{
		{"sent", clientEv{kind: evSent, now: now, pto: pto}},
		{"sent, no PTO", clientEv{kind: evSent, now: now}},
		{"sent, PTO past the interval", clientEv{kind: evSent, now: now, pto: params.RetransmitInterval}},
		{"drain", clientEv{kind: evDrain, now: ago(180), pto: pto}},
		{"drain, past the PTO", clientEv{kind: evDrain, now: ago(100), pto: pto}},
		{"drain, no PTO", clientEv{kind: evDrain, now: ago(180)}},
		{"activate", clientEv{kind: evActivate, now: now}},
		{"timer, early", clientEv{kind: evTimer, now: ago(180)}},
		{"timer, probe due", clientEv{kind: evTimer, now: ago(150)}},
		{"tick", clientEv{kind: evTimer, now: now}},
		{"tick, station suspected", clientEv{kind: evTimer, now: now, suspected: true}},
		{"tick, station heard 0.4 s ago", clientEv{kind: evTimer, now: now, heard: ago(400)}},
		{"tick, station heard 1.2 s ago", clientEv{kind: evTimer, now: now, heard: ago(1200)}},
		{"tick, no rebind", clientEv{kind: evTimer, now: now, noRebind: true}},
		{"reply-pending", clientEv{kind: evPending, now: now, txid: txid}},
		{"reply-pending, other", clientEv{kind: evPending, now: now, txid: txid - 1}},
		{"reply", clientEv{kind: evReply, txid: txid}},
		{"reply, enough", clientEv{kind: evReply, txid: txid, enough: true}},
		{"reply, other", clientEv{kind: evReply, txid: txid - 1, enough: true}},
		{"no-process", clientEv{kind: evNoProc, txid: txid}},
		{"no-process, other", clientEv{kind: evNoProc, txid: txid - 1}},
		{"bound", clientEv{kind: evBound, lh: 20}},
		{"bound, other", clientEv{kind: evBound, lh: 21}},
		{"suspect", clientEv{kind: evSuspect, mac: 2}},
		{"suspect, other", clientEv{kind: evSuspect, mac: 3}},
		{"abort", clientEv{kind: evAbort, dst: uni}},
		{"abort, other", clientEv{kind: evAbort, dst: vid.NewPID(21, 16)}},
		{"window, got", clientEv{kind: evWindow, got: true}},
		{"window, empty", clientEv{kind: evWindow}},
		{"reply fragment", clientEv{kind: evFrag, txid: txid}},
		{"reply fragment, other", clientEv{kind: evFrag, txid: txid - 1}},
	}
	names := func(from, to string) []string {
		var ns []string
		for i, in := 0, false; i < len(events); i++ {
			in = in || events[i].name == from
			if in {
				ns = append(ns, events[i].name)
			}
			if events[i].name == to {
				break
			}
		}
		return ns
	}
	starts, drains := names("sent", "sent, PTO past the interval"), names("drain", "drain, no PTO")
	timers := names("timer, early", "tick, no rebind")

	type out struct {
		act  clientAct
		next clientTxn
		at   sim.Time // next's deadline
	}
	// Spending the tail probe in a started send's first interval moves its
	// deadline to that interval's end, whether or not the probe was due.
	spent := func(c clientTxn) clientTxn {
		if !c.probed && c.due != 0 {
			c.due = c.sent.Add(params.RetransmitInterval)
		}
		c.probed = true
		return c
	}
	over := func(c clientTxn, code uint16) out {
		c.done, c.code, c.due = true, code, 0
		return out{actFinish, c, 0}
	}
	// A tick counts a silent interval, spends the tail probe and starts the
	// next interval; activation starts it without counting.
	ticked := func(c clientTxn) clientTxn { c.silent, c.probed, c.due = c.silent+1, true, next; return c }
	activated := func(c clientTxn) out { c.sent, c.due = now, next; return out{actRetry, c, next} }
	ticks := func(c clientTxn, act clientAct) map[string]out {
		m := map[string]out{"activate": activated(c)}
		for _, name := range names("tick", "tick, no rebind") {
			m[name] = out{act, ticked(c), next}
		}
		return m
	}
	timeouts := func(c clientTxn, m map[string]out) map[string]out {
		for _, name := range names("tick", "tick, no rebind") {
			m[name] = over(ticked(c), vid.CodeTimeout)
		}
		return m
	}
	// Every send is ended by its reply, a no-process or a whole gather
	// reply, and a fragment of its reply spends its probe.
	answers := func(c clientTxn, m map[string]out) map[string]out {
		m["reply fragment"] = out{actNone, spent(c), spent(c).due}
		m["reply"] = over(c, vid.CodeOK)
		m["reply, enough"] = over(c, vid.CodeOK)
		m["no-process"] = over(c, vid.CodeNoProcess)
		return m
	}
	// unicast adds what every unicast send does: reply-pending is evidence
	// of life, and a learnt binding, an abort and (once located) a
	// suspicion of its station prompt or end it; a probe due is sent.
	unicast := func(c clientTxn, m map[string]out) map[string]out {
		m = answers(c, m)
		alive := spent(c)
		alive.silent, alive.lastAlive = 0, now
		m["reply-pending"] = out{actNone, alive, alive.due}
		m["bound"] = out{actResend, spent(c), spent(c).due}
		m["abort"] = over(c, vid.CodeAborted)
		if c.mac != 0 {
			m["suspect"] = over(c, vid.CodeHostDown)
		}
		if !c.probed && c.due != 0 && c.due != c.sent.Add(params.RetransmitInterval) {
			m["timer, probe due"] = out{actProbe, spent(c), spent(c).due}
		}
		return m
	}
	// started is a new send once its first transmission has ended; a lone
	// one that went to a station is probed after its PTO.
	started := func(c clientTxn, m map[string]out) map[string]out {
		m["activate"] = activated(c)
		c.sent, c.due = now, next
		m["sent, no PTO"] = out{actNone, c, next}
		m["sent, PTO past the interval"] = out{actNone, c, next}
		m["sent"] = out{actNone, c, next}
		if !c.probed && !c.group && !c.gather && c.mac != 0 {
			c.due = now.Add(pto)
			m["sent"] = out{actNone, c, c.due}
		}
		return m
	}
	// drained is a window's send, told its window drains: probed from its
	// first transmission, or at once when that is past.
	drained := func(c clientTxn, m map[string]out) map[string]out {
		for name, at := range map[string]sim.Time{"drain": ago(150), "drain, past the PTO": ago(100)} {
			p := c
			p.due = at
			m[name] = out{actNone, p, at}
		}
		return m
	}

	fresh := clientTxn{txid: txid, dst: uni, mac: 2, lastAlive: now}
	freshUnlocated := clientTxn{txid: txid, dst: uni, lastAlive: now}
	freshGroup := clientTxn{txid: txid, dst: grp, group: true, lastAlive: now}
	freshProbe := clientTxn{txid: txid, dst: uni, gather: true, mac: 2, lastAlive: now}
	first := func(c clientTxn) clientTxn { c.sent, c.due, c.lastAlive = ago(200), now, ago(200); return c }
	unlocated := first(freshUnlocated)
	sent := first(fresh)
	probeDue := sent
	probeDue.due = ago(150)
	spentSent := spent(sent)
	relocating := clientTxn{txid: txid, dst: uni, mac: 2, silent: 2, probed: true, sent: ago(600), due: now, lastAlive: ago(600)}
	suspecting := clientTxn{txid: txid, dst: uni, mac: 2, silent: 4, probed: true, sent: ago(1000), due: now, lastAlive: ago(1500)}
	aborting := clientTxn{txid: txid, dst: uni, silent: params.AbortAfterRetries, probed: true, sent: ago(5200), due: now, lastAlive: ago(5200)}
	group := first(freshGroup)
	groupAborting := clientTxn{txid: txid, dst: grp, group: true, silent: params.GroupAbortAfterRetries, probed: true, sent: ago(800), due: now, lastAlive: ago(800)}
	probe := clientTxn{txid: txid, dst: uni, gather: true, mac: 2, silent: 2, probed: true, sent: ago(600), due: now, lastAlive: ago(600)}
	gather := clientTxn{txid: txid, dst: grp, group: true, gather: true, silent: 3, probed: true, sent: ago(800), due: now, lastAlive: ago(800)}
	restored := clientTxn{txid: txid, dst: uni, probed: true}

	// A new send's timer is not yet set, nor is a restored one's before
	// activation; only a window's sends drain, and a gather is never one.
	notStarted := append(append([]string{}, timers...), drains...)
	gathers := append(append([]string{}, starts...), drains...)

	rows := []struct {
		name  string
		c     clientTxn
		at    sim.Time // its deadline
		want  map[string]out
		never []string
	}{
		{"new", fresh, 0, started(fresh, unicast(fresh, map[string]out{})), notStarted},
		{"new, unlocated", freshUnlocated, 0, started(freshUnlocated, unicast(freshUnlocated, map[string]out{})), notStarted},
		{"new, group", freshGroup, 0, started(freshGroup, answers(freshGroup, map[string]out{})), notStarted},
		{"new, probe", freshProbe, 0, started(freshProbe, func() map[string]out {
			m := answers(freshProbe, map[string]out{})
			m["bound"] = out{actResend, spent(freshProbe), 0}
			m["abort"] = over(freshProbe, vid.CodeAborted)
			m["window, got"] = over(freshProbe, vid.CodeOK)
			m["window, empty"] = over(freshProbe, vid.CodeTimeout)
			return m
		}()), notStarted},
		{"unlocated", unlocated, now, unicast(unlocated, ticks(unlocated, actRetry)), starts},
		{"sent", sent, now, drained(sent, unicast(sent, func() map[string]out {
			m := ticks(sent, actRetry)
			m["tick, station suspected"] = over(ticked(sent), vid.CodeHostDown)
			return m
		}())), starts},
		// A lone send: it is never drained.
		{"probe due", probeDue, ago(150), unicast(probeDue, func() map[string]out {
			m := ticks(probeDue, actRetry)
			m["tick, station suspected"] = over(ticked(probeDue), vid.CodeHostDown)
			return m
		}()), append(append([]string{}, starts...), drains...)},
		{"sent, probe spent", spentSent, now, unicast(spentSent, func() map[string]out {
			m := ticks(spentSent, actRetry)
			m["tick, station suspected"] = over(ticked(spentSent), vid.CodeHostDown)
			return m
		}()), starts},
		{"one tick from relocating", relocating, now, unicast(relocating, func() map[string]out {
			m := ticks(relocating, actRelocate)
			m["tick, station suspected"] = over(ticked(relocating), vid.CodeHostDown)
			m["tick, no rebind"] = out{actRetry, ticked(relocating), next}
			return m
		}()), starts},
		{"one tick from suspicion", suspecting, now, unicast(suspecting, func() map[string]out {
			m := ticks(suspecting, actSuspect)
			m["tick, station suspected"] = over(ticked(suspecting), vid.CodeHostDown)
			m["tick, station heard 0.4 s ago"] = out{actRelocate, ticked(suspecting), next}
			heard := ticked(suspecting)
			heard.lastAlive = ago(1200)
			m["tick, station heard 1.2 s ago"] = out{actSuspect, heard, next}
			return m
		}()), starts},
		{"one tick from abort", aborting, now, unicast(aborting, timeouts(aborting, ticks(aborting, actNone))), starts},
		{"group", group, now, answers(group, ticks(group, actRetry)), starts},
		{"group, one tick from abort", groupAborting, now, answers(groupAborting, timeouts(groupAborting, ticks(groupAborting, actNone))), starts},
		{"probe", probe, now, answers(probe, func() map[string]out {
			m := ticks(probe, actRelocate)
			m["tick, no rebind"] = out{actRetry, ticked(probe), next}
			m["bound"] = out{actResend, probe, now}
			m["abort"] = over(probe, vid.CodeAborted)
			m["window, got"] = over(probe, vid.CodeOK)
			m["window, empty"] = over(probe, vid.CodeTimeout)
			return m
		}()), gathers},
		{"group gather", gather, now, func() map[string]out {
			m := ticks(gather, actRetry)
			m["reply, enough"] = over(gather, vid.CodeOK)
			m["no-process"] = over(gather, vid.CodeNoProcess)
			m["window, got"] = over(gather, vid.CodeOK)
			m["window, empty"] = over(gather, vid.CodeTimeout)
			return m
		}(), gathers},
		// Restored quiesced (RestorePort): heard from, but silent until
		// activated.
		{"restored", restored, 0, unicast(restored, map[string]out{"activate": activated(restored)}),
			append(append([]string{}, starts...), notStarted...)},
		{"done", over(sent, vid.CodeOK).next, 0, map[string]out{}, nil},
	}

	pairs := 0
	for _, row := range rows {
		if got := row.c.due; got != row.at {
			t.Errorf("%s: deadline %v, want %v", row.name, got, row.at)
		}
		for _, e := range events {
			if e.ev.kind == evWindow && !row.c.gather || slices.Contains(row.never, e.name) {
				continue
			}
			want, ok := row.want[e.name]
			if !ok {
				want = out{actNone, row.c, row.at}
			}
			next, act := row.c.step(e.ev)
			if act != want.act || next != want.next || next.due != want.at {
				t.Errorf("%s + %s = %+v, %d, deadline %v; want %+v, %d, deadline %v",
					row.name, e.name, next, act, next.due, want.next, want.act, want.at)
			}
			pairs++
		}
	}
	if pairs != 3*19+21+8*26+23+2*25+16+29 {
		t.Errorf("stepped %d pairs", pairs)
	}
}

// TestServerTxnTable steps what a server knows of one sender, in each state
// it can be in, through every event of that sender's requests and their
// service, and pins each result (DESIGN §5 has the table). A pair a row does
// not list leaves the peer as it was and asks nothing of the engine. A peer
// never heard from has only requests to hear, and a row names the events
// the engine never posts in its state: a request is received once, and
// replied to only once received.
func TestServerTxnTable(t *testing.T) {
	now := sim.Time(10 * time.Second)
	deadline, renewed := now.Add(time.Second), now.Add(params.ReplyCacheTTL)
	src := vid.NewPID(10, 16)
	req7, req6, lost := &Req{Src: src, txid: 7}, &Req{Src: src, txid: 6}, &Req{Src: src, txid: 7}
	c7, c6, fresh := &cachedReply{txid: 7}, &cachedReply{txid: 6}, &cachedReply{txid: 7}

	events := []struct {
		name string
		ev   serverEv
	}{
		{"request 8", serverEv{kind: evRequest, now: now, txid: 8}},
		{"request 7", serverEv{kind: evRequest, now: now, txid: 7}},
		{"request 7, reply going out", serverEv{kind: evRequest, now: now, txid: 7, held: true, sending: true}},
		{"request 7, repair held", serverEv{kind: evRequest, now: now, txid: 7, held: true}},
		{"request 7, repair held, local", serverEv{kind: evRequest, now: now, txid: 7, held: true, local: true}},
		{"request 6", serverEv{kind: evRequest, now: now, txid: 6}},
		{"received 7", serverEv{kind: evReceived, req: req7}},
		{"replied 7", serverEv{kind: evReplied, now: now, req: req7, cache: fresh}},
		{"replied 6", serverEv{kind: evReplied, now: now, req: req6, cache: c6}},
		{"dropped 7", serverEv{kind: evDropped, req: req7}},
		{"dropped, other", serverEv{kind: evDropped, req: lost}},
		{"swept, early", serverEv{kind: evSwept, now: now, cache: c7}},
		{"swept, due", serverEv{kind: evSwept, now: deadline, cache: c7}},
		{"swept, stale", serverEv{kind: evSwept, now: deadline, cache: c6}},
	}

	type out struct {
		act  serverAct
		next peer
	}
	queued := peer{seen: true, last: 7}
	served := peer{seen: true, last: 7, open: req7}
	replied := peer{seen: true, last: 7, cache: c7, deadline: deadline}
	superseded := peer{seen: true, last: 8, cache: c7, deadline: deadline}
	servedSuperseded := peer{seen: true, last: 8, open: req7}
	with := func(pr peer, f func(*peer)) peer { f(&pr); return pr }
	renew := func(pr peer) peer { pr.deadline = renewed; return pr }
	cached := func(pr peer) peer { pr.open, pr.cache, pr.deadline = nil, fresh, renewed; return pr }

	rows := []struct {
		name  string
		pr    peer
		want  map[string]out
		never []string
	}{
		{"unseen", peer{}, map[string]out{
			"request 8":                     {srvAccept, peer{seen: true, last: 8}},
			"request 7":                     {srvAccept, queued},
			"request 7, reply going out":    {srvAccept, queued},
			"request 7, repair held":        {srvAccept, queued},
			"request 7, repair held, local": {srvAccept, queued},
			"request 6":                     {srvAccept, peer{seen: true, last: 6}},
		}, nil},
		// Queued, or dropped after it was received: a retransmission gets
		// reply-pending, as the repair buffer of an earlier reply does not
		// make it one.
		{"queued", queued, map[string]out{
			"request 8":                     {srvAccept, peer{seen: true, last: 8}},
			"request 7":                     {srvPending, queued},
			"request 7, reply going out":    {srvPending, queued},
			"request 7, repair held":        {srvPending, queued},
			"request 7, repair held, local": {srvPending, queued},
			"request 6":                     {srvStale, queued},
			"received 7":                    {srvNone, served},
		}, []string{"replied 7"}},
		{"served", served, map[string]out{
			"request 8":                     {srvAccept, with(served, func(p *peer) { p.last = 8 })},
			"request 7":                     {srvPending, served},
			"request 7, reply going out":    {srvPending, served},
			"request 7, repair held":        {srvPending, served},
			"request 7, repair held, local": {srvPending, served},
			"request 6":                     {srvStale, served},
			"replied 7":                     {srvSweep, cached(served)},
			"dropped 7":                     {srvNone, queued},
		}, []string{"received 7"}},
		{"replied", replied, map[string]out{
			"request 8":                     {srvAccept, with(replied, func(p *peer) { p.last = 8 })},
			"request 7":                     {srvWhole, renew(replied)},
			"request 7, reply going out":    {srvPending, replied},
			"request 7, repair held":        {srvSummary, renew(replied)},
			"request 7, repair held, local": {srvWhole, renew(replied)},
			"request 6":                     {srvStale, replied},
			"swept, early":                  {srvSweep, replied},
			"swept, due":                    {srvNone, queued},
		}, []string{"received 7", "replied 7"}},
		// Request 8 arrived while the reply to 7 is still cached.
		{"superseded", superseded, map[string]out{
			"request 8":                     {srvPending, superseded},
			"request 7":                     {srvStale, superseded},
			"request 7, reply going out":    {srvStale, superseded},
			"request 7, repair held":        {srvStale, superseded},
			"request 7, repair held, local": {srvStale, superseded},
			"request 6":                     {srvStale, superseded},
			"swept, early":                  {srvSweep, superseded},
			"swept, due":                    {srvNone, peer{seen: true, last: 8}},
		}, []string{"received 7", "replied 7"}},
		// Request 8 arrived while 7 was being served: the reply to 7 is
		// sent, and not cached.
		{"served, superseded", servedSuperseded, map[string]out{
			"request 8":                     {srvPending, servedSuperseded},
			"request 7":                     {srvStale, servedSuperseded},
			"request 7, reply going out":    {srvStale, servedSuperseded},
			"request 7, repair held":        {srvStale, servedSuperseded},
			"request 7, repair held, local": {srvStale, servedSuperseded},
			"request 6":                     {srvStale, servedSuperseded},
			"replied 7":                     {srvNone, peer{seen: true, last: 8}},
			"dropped 7":                     {srvNone, peer{seen: true, last: 8}},
		}, []string{"received 7"}},
	}

	pairs := 0
	for _, row := range rows {
		for _, e := range events {
			if !row.pr.seen && e.ev.kind != evRequest || slices.Contains(row.never, e.name) {
				continue
			}
			want, ok := row.want[e.name]
			if !ok {
				want = out{srvNone, row.pr}
			}
			next, act := row.pr.step(e.ev)
			if act != want.act || next != want.next {
				t.Errorf("%s + %s = %+v, %d; want %+v, %d", row.name, e.name, next, act, want.next, want.act)
			}
			pairs++
		}
	}
	if pairs != 6+5*14-7 {
		t.Errorf("stepped %d pairs", pairs)
	}
}

// TestDroppedRequestHeldUntilAborted drives the port ends of three rows: a
// receive that times out with nothing queued, a request dropped after it
// was received — whose retransmissions get reply-pending, so its sender is
// held rather than timed out — and an abort that ends the held send.
func TestDroppedRequestHeldUntilAborted(t *testing.T) {
	r, client, server := bulkRig(t, 3)
	t.Cleanup(r.sim.Shutdown)
	var idle, dropped *Req
	r.sim.Spawn("server", func(tk *sim.Task) {
		idle = server.ReceiveTimeout(tk, 100*time.Millisecond)
		dropped = server.Receive(tk)
		server.Drop(dropped)
	})
	var err error
	var held time.Duration
	r.sim.Spawn("client", func(tk *sim.Task) {
		tk.Sleep(200 * time.Millisecond)
		start := tk.Now()
		_, err = client.Send(tk, server.PID(), vid.Message{Op: testOp})
		held = tk.Now().Sub(start)
	})
	const abortAt = 8 * time.Second // past a silent send's abort timeout
	r.sim.After(abortAt, func() { client.AbortTo(server.PID()) })
	r.sim.RunFor(10 * time.Second)
	if idle != nil || dropped == nil {
		t.Fatalf("receive with nothing queued = %v; then received %v", idle, dropped)
	}
	if server.OpenRequest(client.PID()) != nil {
		t.Error("the dropped request is still open")
	}
	if code, ok := err.(vid.CodeError); !ok || uint16(code) != vid.CodeAborted || held < abortAt-time.Second {
		t.Errorf("send ended with %v after %v; want aborted after being held until %v", err, held, abortAt)
	}
	if st := server.eng.Stats(); st.ReplyPendings < 30 || st.RepliesFromCache != 0 {
		t.Errorf("retransmissions of the dropped request got %d reply-pendings and %d cached replies", st.ReplyPendings, st.RepliesFromCache)
	}
}
