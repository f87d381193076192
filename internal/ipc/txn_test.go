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
// through every event the engine posts to it there, and pins each result
// (DESIGN §5 has the table). A pair a row does not list leaves the
// transaction as it was and asks nothing of the engine; a gather window
// ends gathers only. The tail probe resends once a unicast request that
// went to a station and has heard nothing; a tick, a learnt binding, a
// reply-pending or a fragment of the reply spends it.
func TestClientTxnTable(t *testing.T) {
	const txid = 7
	now := sim.Time(10 * time.Second)
	ago := func(ms int) sim.Time { return now.Add(-time.Duration(ms) * time.Millisecond) }
	uni, grp := vid.NewPID(20, 16), vid.GroupProgramManagers

	events := []struct {
		name string
		ev   clientEv
	}{
		{"tick", clientEv{kind: evTick, now: now}},
		{"tick, station suspected", clientEv{kind: evTick, now: now, suspected: true}},
		{"tick, station heard 0.4 s ago", clientEv{kind: evTick, now: now, heard: ago(400)}},
		{"tick, station heard 1.2 s ago", clientEv{kind: evTick, now: now, heard: ago(1200)}},
		{"tick, no rebind", clientEv{kind: evTick, now: now, noRebind: true}},
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
		{"tail probe", clientEv{kind: evProbe}},
		{"reply fragment", clientEv{kind: evFrag, txid: txid}},
		{"reply fragment, other", clientEv{kind: evFrag, txid: txid - 1}},
	}

	type out struct {
		act  clientAct
		next clientTxn
	}
	probed := func(c clientTxn) clientTxn { c.probed = true; return c }
	silent := func(c clientTxn, n int) clientTxn { c.silent = n; return probed(c) }
	over := func(c clientTxn, code uint16) clientTxn { c.done, c.code = true, code; return c }
	alive := func(c clientTxn) clientTxn { c.silent, c.lastAlive = 0, now; return probed(c) }
	// A tick retransmits, and spends the tail probe.
	ticks := func(c clientTxn, act clientAct) map[string]out {
		m := map[string]out{}
		for _, e := range events[:5] {
			m[e.name] = out{act, silent(c, c.silent+1)}
		}
		return m
	}
	// unicast adds what every unicast send does: reply-pending is evidence
	// of life, and a reply, a no-process, a learnt binding, an abort and
	// (once located) a suspicion of its station end or prompt it; once
	// located, it is probed if nothing spent the probe.
	unicast := func(c clientTxn, m map[string]out) map[string]out {
		m["reply fragment"] = out{actNone, probed(c)}
		m["reply-pending"] = out{actNone, alive(c)}
		m["reply"] = out{actFinish, over(c, vid.CodeOK)}
		m["reply, enough"] = out{actFinish, over(c, vid.CodeOK)}
		m["no-process"] = out{actFinish, over(c, vid.CodeNoProcess)}
		m["bound"] = out{actResend, probed(c)}
		m["abort"] = out{actFinish, over(c, vid.CodeAborted)}
		if c.mac != 0 {
			m["suspect"] = out{actFinish, over(c, vid.CodeHostDown)}
			if !c.probed {
				m["tail probe"] = out{actResend, probed(c)}
			}
		}
		return m
	}

	unlocated := clientTxn{txid: txid, dst: uni, lastAlive: ago(200)}
	sent := clientTxn{txid: txid, dst: uni, mac: 2, lastAlive: ago(200)}
	spent := probed(sent)
	relocating := clientTxn{txid: txid, dst: uni, mac: 2, silent: 2, probed: true, lastAlive: ago(600)}
	suspecting := clientTxn{txid: txid, dst: uni, mac: 2, silent: 4, probed: true, lastAlive: ago(1500)}
	aborting := clientTxn{txid: txid, dst: uni, silent: params.AbortAfterRetries, probed: true, lastAlive: ago(5200)}
	group := clientTxn{txid: txid, dst: grp, group: true, lastAlive: ago(200)}
	groupAborting := clientTxn{txid: txid, dst: grp, group: true, silent: params.GroupAbortAfterRetries, probed: true, lastAlive: ago(800)}
	probe := clientTxn{txid: txid, dst: uni, gather: true, mac: 2, silent: 2, probed: true, lastAlive: ago(600)}
	gather := clientTxn{txid: txid, dst: grp, group: true, gather: true, silent: 3, probed: true, lastAlive: ago(800)}

	rows := []struct {
		name string
		c    clientTxn
		want map[string]out
	}{
		{"unlocated", unlocated, unicast(unlocated, ticks(unlocated, actRetry))},
		{"sent", sent, unicast(sent, func() map[string]out {
			m := ticks(sent, actRetry)
			m["tick, station suspected"] = out{actFinish, over(silent(sent, 1), vid.CodeHostDown)}
			return m
		}())},
		{"sent, probe spent", spent, unicast(spent, func() map[string]out {
			m := ticks(spent, actRetry)
			m["tick, station suspected"] = out{actFinish, over(silent(spent, 1), vid.CodeHostDown)}
			return m
		}())},
		{"one tick from relocating", relocating, unicast(relocating, func() map[string]out {
			m := ticks(relocating, actRelocate)
			m["tick, station suspected"] = out{actFinish, over(silent(relocating, 3), vid.CodeHostDown)}
			m["tick, no rebind"] = out{actRetry, silent(relocating, 3)}
			return m
		}())},
		{"one tick from suspicion", suspecting, unicast(suspecting, func() map[string]out {
			m := ticks(suspecting, actSuspect)
			m["tick, station suspected"] = out{actFinish, over(silent(suspecting, 5), vid.CodeHostDown)}
			m["tick, station heard 0.4 s ago"] = out{actRelocate, silent(suspecting, 5)}
			heard := silent(suspecting, 5)
			heard.lastAlive = ago(1200)
			m["tick, station heard 1.2 s ago"] = out{actSuspect, heard}
			return m
		}())},
		{"one tick from abort", aborting, unicast(aborting, func() map[string]out {
			m := ticks(aborting, actFinish)
			for k, o := range m {
				m[k] = out{actFinish, over(o.next, vid.CodeTimeout)}
			}
			return m
		}())},
		{"group", group, func() map[string]out {
			m := ticks(group, actRetry)
			m["reply fragment"] = out{actNone, probed(group)}
			m["reply"] = out{actFinish, over(group, vid.CodeOK)}
			m["reply, enough"] = out{actFinish, over(group, vid.CodeOK)}
			m["no-process"] = out{actFinish, over(group, vid.CodeNoProcess)}
			return m
		}()},
		{"group, one tick from abort", groupAborting, func() map[string]out {
			m := ticks(groupAborting, actFinish)
			for k, o := range m {
				m[k] = out{actFinish, over(o.next, vid.CodeTimeout)}
			}
			m["reply"] = out{actFinish, over(groupAborting, vid.CodeOK)}
			m["reply, enough"] = out{actFinish, over(groupAborting, vid.CodeOK)}
			m["no-process"] = out{actFinish, over(groupAborting, vid.CodeNoProcess)}
			return m
		}()},
		{"probe", probe, func() map[string]out {
			m := ticks(probe, actRelocate)
			m["tick, no rebind"] = out{actRetry, silent(probe, 3)}
			m["reply"] = out{actFinish, over(probe, vid.CodeOK)}
			m["reply, enough"] = out{actFinish, over(probe, vid.CodeOK)}
			m["no-process"] = out{actFinish, over(probe, vid.CodeNoProcess)}
			m["bound"] = out{actResend, probe}
			m["abort"] = out{actFinish, over(probe, vid.CodeAborted)}
			m["window, got"] = out{actFinish, over(probe, vid.CodeOK)}
			m["window, empty"] = out{actFinish, over(probe, vid.CodeTimeout)}
			return m
		}()},
		{"group gather", gather, func() map[string]out {
			m := ticks(gather, actRetry)
			m["reply, enough"] = out{actFinish, over(gather, vid.CodeOK)}
			m["no-process"] = out{actFinish, over(gather, vid.CodeNoProcess)}
			m["window, got"] = out{actFinish, over(gather, vid.CodeOK)}
			m["window, empty"] = out{actFinish, over(gather, vid.CodeTimeout)}
			return m
		}()},
		{"done", over(sent, vid.CodeOK), map[string]out{}},
	}

	pairs := 0
	for _, row := range rows {
		for _, e := range events {
			if e.ev.kind == evWindow && !row.c.gather {
				continue
			}
			want, ok := row.want[e.name]
			if !ok {
				want = out{actNone, row.c}
			}
			next, act := row.c.step(e.ev)
			if act != want.act || next != want.next {
				t.Errorf("%s + %s = %+v, %d; want %+v, %d", row.name, e.name, next, act, want.next, want.act)
			}
			pairs++
		}
	}
	if pairs != 8*21+2*23+21 {
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
