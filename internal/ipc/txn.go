package ipc

import (
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// A transaction's decisions (§3.1.3: retransmission, reply-pending, reply
// caches, rebinding) are two pure steps over comparable values: clientTxn,
// the sender's side of one transaction, and peer, what a server knows of one
// sender. A step returns the next value and a fixed-size action, which the
// engine carries out, setting its one timer for the client value's deadline;
// timers, buffers and the wire stay the engine's, and what a step needs of
// them comes in the event. DESIGN §5 has the tables.

// clientTxn is the decision state of a send transaction.
type clientTxn struct {
	txid   uint32
	dst    vid.PID
	group  bool // dst is a process group
	gather bool // StartGather: collect replies until the window closes
	done   bool
	// probed: the tail probe is spent, or made moot by a retransmission or
	// by evidence that the request arrived (reply-pending, a fragment of
	// the reply), so a transaction sends at most one.
	probed bool
	code   uint16 // failure code when done && code != OK

	// Failure-detector evidence: the station transmit last sent the request
	// to (0 until a unicast route resolved), the retransmissions since the
	// last evidence the destination was alive, and that evidence's moment.
	mac       ethernet.MAC
	silent    int
	lastAlive sim.Time

	// The schedule: when the first transmission ended (activation restarts
	// it) and the deadline, which is the tail probe while one is due, else
	// the interval's end; 0 before the send starts and once it is over.
	sent, due sim.Time
}

type clientEvKind uint8

const (
	evSent     clientEvKind = iota // the first transmission ended
	evDrain                        // the owning window drains (Window.Drain)
	evActivate                     // a restored port resumes (Port.Activate)
	evTimer                        // the transaction timer fired
	evPending                      // a reply-pending for txid
	evReply                        // a whole reply for txid
	evNoProc                       // a no-process for txid
	evBound                        // a binding for lh was learnt
	evSuspect                      // the station mac is suspected dead
	evAbort                        // dst is known dead (AbortTo)
	evWindow                       // the gather window elapsed
	evFrag                         // a fragment of txid's reply
)

// clientEv is one event of a send transaction.
type clientEv struct {
	kind   clientEvKind
	now    sim.Time
	txid   uint32
	enough bool // evReply: a group gather's close rule is met
	got    bool // evWindow: the gather holds a reply
	lh     vid.LHID
	mac    ethernet.MAC
	dst    vid.PID
	pto    time.Duration // evSent, evDrain: the op's probe timeout (Engine.pto), 0 for none

	// evTimer: whether the transaction's station is suspected already, and
	// the last frame heard from it.
	suspected bool
	heard     sim.Time
}

// clientAct is what a client step asks of the engine.
type clientAct uint8

const (
	actNone     clientAct = iota
	actResend             // transmit the request again
	actProbe              // transmit it again as the tail probe
	actRetry              // transmit it again; a new interval sets the timer afresh
	actRelocate           // drop dst's binding (§3.1.4), then as actRetry
	actSuspect            // condemn mac, failing every transaction to it
	actFinish             // over: stop both timers, drop the repair buffer, wake
)

// awaits reports whether the transaction is waiting for a reply to txid.
func (c clientTxn) awaits(txid uint32) bool { return !c.done && c.txid == txid }

// end is the current interval's end; until the probe is spent it is the first.
func (c clientTxn) end() sim.Time {
	if c.probed {
		return c.due
	}
	return c.sent.Add(params.RetransmitInterval)
}

// spend spends the tail probe: a started send's deadline is the interval's end.
func (c *clientTxn) spend() {
	if c.due != 0 {
		c.due = c.end()
	}
	c.probed = true
}

// step is the client side: what ev does to the transaction.
func (c clientTxn) step(ev clientEv) (clientTxn, clientAct) {
	if c.done {
		return c, actNone
	}
	switch ev.kind {
	case evSent:
		c.sent, c.due = ev.now, ev.now.Add(params.RetransmitInterval)
		fallthrough
	case evDrain:
		// Only a located unicast request that has heard nothing is probed (RFC
		// 8985 §7), from its first transmission, in its first interval.
		at := max(c.sent.Add(ev.pto), ev.now)
		if ev.pto > 0 && !c.probed && !c.group && !c.gather && c.mac != 0 && at < c.end() {
			c.due = at
		}
	case evActivate:
		// A restored copy's round trip and interval start here.
		c.sent, c.due = ev.now, ev.now.Add(params.RetransmitInterval)
		return c, actRetry
	case evTimer:
		if ev.now < c.due {
			return c, actNone // set for a probe spent since
		}
		if ev.now < c.end() {
			c.spend() // no silence: the interval and the detector run as without it
			return c, actProbe
		}
		c.silent, c.probed, c.due = c.silent+1, true, ev.now.Add(params.RetransmitInterval)
		if !c.group && !c.gather && c.mac != 0 {
			if ev.suspected {
				// The first transmission was a liveness probe: one interval
				// of silence is enough.
				return c.finish(vid.CodeHostDown)
			}
			// The whole station must have been silent for the window: what
			// it sent this host meanwhile vetoes the verdict.
			window := time.Duration(params.SuspectAfterRetries) * params.RetransmitInterval
			if alive := max(c.lastAlive, ev.heard); c.silent >= params.SuspectAfterRetries && ev.now.Sub(alive) >= window {
				c.lastAlive = alive
				return c, actSuspect
			}
		}
		limit := params.AbortAfterRetries
		if c.group {
			limit = params.GroupAbortAfterRetries
		}
		switch {
		case c.silent > limit && !c.gather: // a gather's window ends it
			return c.finish(vid.CodeTimeout)
		case c.silent >= params.LocateAfterRetries && !c.group:
			return c, actRelocate
		}
		return c, actRetry
	case evPending:
		// A group send hears it as a unicast one does: a member holds the
		// request (§3.1.3), and one that declined dropped it and sends none.
		// A gather ignores it: its window is fixed whoever is alive.
		if c.txid == ev.txid && !c.gather {
			c.silent, c.lastAlive = 0, ev.now
			c.spend()
		}
	case evReply:
		if c.txid == ev.txid && (!c.group || !c.gather || ev.enough) {
			return c.finish(vid.CodeOK)
		}
	case evNoProc:
		if c.txid == ev.txid {
			return c.finish(vid.CodeNoProcess)
		}
	case evBound:
		if c.dst.LH() == ev.lh {
			c.spend()
			return c, actResend
		}
	case evSuspect:
		if c.mac == ev.mac && !c.gather {
			return c.finish(vid.CodeHostDown)
		}
	case evAbort:
		if c.dst == ev.dst {
			return c.finish(vid.CodeAborted)
		}
	case evWindow:
		if ev.got {
			return c.finish(vid.CodeOK)
		}
		return c.finish(vid.CodeTimeout)
	case evFrag:
		if c.txid == ev.txid {
			c.spend()
		}
	}
	return c, actNone
}

func (c clientTxn) finish(code uint16) (clientTxn, clientAct) {
	c.done, c.code, c.due = true, code, 0
	return c, actFinish
}

// peer is what a server port knows of one sender: the newest transaction
// seen from it (if seen) and whether the server dropped that request
// unanswered, its request being served, and the transaction whose reply is
// cached (0 for none; the port holds the reply itself, Port.replies), kept
// to answer its retransmissions until deadline. A request is replied to
// once, so its txid names the cache entry.
type peer struct {
	seen     bool
	dropped  bool
	last     uint32
	open     *Req
	cache    uint32
	deadline sim.Time
}

type serverEvKind uint8

const (
	evRequest  serverEvKind = iota // a request txid arrived
	evReceived                     // the server took req (Receive)
	evReplied                      // the server replied to req
	evDropped                      // the server dropped req
	evSwept                        // the sweep of the reply to txid came due
)

// serverEv is one event of a server's peer.
type serverEv struct {
	kind  serverEvKind
	now   sim.Time
	txid  uint32
	local bool // evRequest: it came from this station
	req   *Req

	// evRequest: the repair buffer of txid's reply is held (a fragmented
	// reply), and its first transmission is under way.
	held, sending bool
}

// serverAct is what a server step asks of the engine.
type serverAct uint8

const (
	srvNone    serverAct = iota
	srvAccept            // a new request: reassemble and queue it
	srvAgain             // a copy of the request the server dropped: as srvAccept
	srvStale             // older than the newest: drop it
	srvPending           // a duplicate with no reply to give yet: reply-pending
	srvSummary           // a duplicate: the reply's summary alone; the sender NACKs its gaps
	srvWhole             // a duplicate: the whole cached reply again
	srvSweep             // arm the sweep of the cached reply for deadline
)

// step is the server side: what ev does to what the port knows of a sender.
// A retransmission of the newest request gets what the state of its reply
// allows, so a reply crosses the wire once however often the request comes.
// An answer from the cache renews it: a retransmitting sender (one frozen
// mid-migration) keeps its reply alive until it can accept it. A request the
// server dropped unanswered has no reply to come, so its retransmission is
// received as new, and the server decides again whether it can serve it
// (§2.1: "only those who can serve reply").
func (pr peer) step(ev serverEv) (peer, serverAct) {
	switch ev.kind {
	case evRequest:
		switch {
		case !pr.seen || ev.txid > pr.last:
			pr.seen, pr.last, pr.dropped = true, ev.txid, false
			return pr, srvAccept
		case ev.txid < pr.last:
			return pr, srvStale
		case pr.dropped:
			pr.dropped = false
			return pr, srvAgain
		case pr.cache == 0 || pr.cache != ev.txid || ev.sending:
			// Queued or served, or its fragmented reply is on its first
			// transmission.
			return pr, srvPending
		}
		pr.deadline = ev.now.Add(params.ReplyCacheTTL)
		if ev.held && !ev.local {
			return pr, srvSummary
		}
		return pr, srvWhole
	case evReceived:
		pr.open = ev.req
	case evReplied:
		if pr.open == ev.req {
			pr.open = nil
		}
		if pr.last == ev.req.txid {
			pr.cache, pr.deadline = ev.req.txid, ev.now.Add(params.ReplyCacheTTL)
			return pr, srvSweep
		}
	case evDropped:
		if pr.open == ev.req {
			// Only the newest: an older one's sender has moved on. An open
			// request has no reply cached, so a replied request's
			// retransmission still gets its reply.
			pr.open, pr.dropped = nil, pr.last == ev.req.txid
		}
	case evSwept:
		if pr.cache != ev.txid {
			break
		}
		if ev.now < pr.deadline {
			return pr, srvSweep
		}
		pr.cache, pr.deadline = 0, 0
	}
	return pr, srvNone
}
