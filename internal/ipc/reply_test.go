package ipc

import (
	"bytes"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/packet"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// The reply side of adversarial_test.go: a retransmitted request whose
// reply is fragmented gets reply-pending while the reply is still going
// out, and the reply's summary alone once it has gone — the client NACKs
// what it lacks, and the repair goes where the NACK came from.

// replyLen is an image read's size: the reply these tests stream.
const replyLen = 32 * 1024

// wireFrame is one frame as the bus carried it.
type wireFrame struct {
	at       sim.Time
	from, to ethernet.MAC
	kind     packet.Kind
	idx      uint16
}

// logWire records every frame put on the wire, dropping the ones drop
// selects (nil drops none).
func logWire(r *rig, drop func(p *packet.Packet) bool) *[]wireFrame {
	var log []wireFrame
	r.bus.SetLoss(func(f ethernet.Frame) bool {
		p, err := packet.Unmarshal(f.Payload)
		if err != nil {
			return false
		}
		log = append(log, wireFrame{at: r.sim.Now(), from: f.Src, to: f.Dst, kind: p.Kind, idx: p.FragIdx})
		return drop != nil && drop(p)
	})
	return &log
}

// frames counts the logged frames of kind from station from to station to
// (0 matches any station).
func frames(log []wireFrame, kind packet.Kind, from, to ethernet.MAC) int {
	n := 0
	for _, f := range log {
		if f.kind == kind && (from == 0 || f.from == from) && (to == 0 || f.to == to) {
			n++
		}
	}
	return n
}

// replyOK has the server hold one request for hold before answering it
// with replyLen bytes, and verifies the client receives them intact.
func replyOK(t *testing.T, r *rig, client, server *Port, hold time.Duration) {
	t.Helper()
	seg := patterned(nil, replyLen, 1)
	r.sim.Spawn("server", func(tk *sim.Task) {
		req := server.Receive(tk)
		tk.Sleep(hold)
		server.Reply(tk, req, vid.Message{Seg: seg})
	})
	var got []byte
	var err error
	r.sim.Spawn("client", func(tk *sim.Task) {
		var m vid.Message
		m, err = client.Send(tk, server.PID(), vid.Message{Op: testOp})
		got = m.Seg
	})
	r.sim.RunFor(time.Minute)
	if err != nil {
		t.Fatalf("send failed: %v", err)
	}
	if !bytes.Equal(got, seg) {
		t.Fatal("reply corrupted")
	}
}

func TestDuplicateWhileReplyStreamsGetsPending(t *testing.T) {
	// The server holds the request past one retransmission interval, and the
	// next retransmission arrives while the reply's fragments are going out:
	// it is answered reply-pending, and the reply crosses the wire once.
	r, client, server := bulkRig(t, 41)
	log := logWire(r, nil)
	replyOK(t, r, client, server, 2*params.RetransmitInterval-params.RetransmitInterval/4)
	var first, last sim.Time
	for _, f := range *log {
		if f.kind == packet.KFrag && f.from == 2 {
			if first == 0 {
				first = f.at
			}
			last = f.at
		}
	}
	midStream := 0
	for _, f := range *log {
		if f.kind == packet.KRequest && f.from == 1 && f.at > first && f.at < last {
			midStream++
		}
	}
	if midStream == 0 {
		t.Fatal("no retransmitted request arrived while the reply was streaming")
	}
	if n, want := frames(*log, packet.KFrag, 2, 0), packet.NumFrags(replyLen); n != want {
		t.Fatalf("server sent %d fragments, want %d: the reply went out more than once", n, want)
	}
	if st := r.hosts[1].eng.Stats(); st.ReplyPendings < 2 {
		t.Fatalf("%d reply-pendings, want one while served and one while the reply streamed", st.ReplyPendings)
	}
}

func TestDropReplySummaryResendsSummaryOnly(t *testing.T) {
	// The reply's summary is lost. The client's retransmission draws the
	// summary again, and it has every fragment already: no data fragment
	// is sent twice and nothing is NACKed.
	r, client, server := bulkRig(t, 42)
	dropped := 0
	log := logWire(r, func(p *packet.Packet) bool {
		if p.Kind == packet.KReply && dropped == 0 {
			dropped++
			return true
		}
		return false
	})
	replyOK(t, r, client, server, 0)
	if dropped != 1 {
		t.Fatal("reply summary was not dropped")
	}
	if n, want := frames(*log, packet.KFrag, 2, 0), packet.NumFrags(replyLen); n != want {
		t.Fatalf("server sent %d fragments, want %d", n, want)
	}
	if n := frames(*log, packet.KReply, 2, 1); n != 2 {
		t.Fatalf("server sent %d reply summaries, want 2", n)
	}
	if n := frames(*log, packet.KFragNack, 0, 0); n != 0 {
		t.Fatalf("%d NACKs for a reply whose fragments all arrived", n)
	}
}

func TestDropReplyFragmentsRepairedSelectively(t *testing.T) {
	// Three of the reply's fragments are lost: the client NACKs exactly the
	// gaps, and only those are sent again.
	r, client, server := bulkRig(t, 43)
	dropped := map[uint16]bool{}
	log := logWire(r, func(p *packet.Packet) bool {
		if p.Kind == packet.KFrag && len(dropped) < 3 && !dropped[p.FragIdx] {
			dropped[p.FragIdx] = true
			return true
		}
		return false
	})
	replyOK(t, r, client, server, 0)
	sent := map[uint16]int{}
	for _, f := range *log {
		if f.kind == packet.KFrag && f.from == 2 {
			sent[f.idx]++
		}
	}
	if len(sent) != packet.NumFrags(replyLen) {
		t.Fatalf("%d distinct fragments sent, want %d", len(sent), packet.NumFrags(replyLen))
	}
	for idx, n := range sent {
		if want := map[bool]int{false: 1, true: 2}[dropped[idx]]; n != want {
			t.Errorf("fragment %d sent %d times, want %d (dropped: %v)", idx, n, want, dropped[idx])
		}
	}
	if n := frames(*log, packet.KFragNack, 1, 2); n != 1 {
		t.Fatalf("%d NACKs, want 1", n)
	}
}

func TestReplyRepairFollowsMigratedClient(t *testing.T) {
	// The client's logical host is frozen while its reply is in flight, so
	// the fragments reach the old station and the summary is discarded
	// there. It then moves to another station. Its retransmission draws the
	// summary at the new station, which NACKs every fragment; the repair
	// goes there — where the NACK came from, not where the reply first
	// went — and the Send completes.
	r := newRig(t, 3, 44)
	lhA, lhB := vid.LHID(10), vid.LHID(20)
	r.place(lhA, 0)
	r.place(lhB, 2)
	client := r.hosts[0].eng.NewPort(vid.NewPID(lhA, 16))
	server := r.hosts[2].eng.NewPort(vid.NewPID(lhB, 16))
	log := logWire(r, nil)
	seg := patterned(nil, replyLen, 2)
	r.sim.Spawn("server", func(tk *sim.Task) {
		req := server.Receive(tk)
		r.hosts[0].frozen[lhA] = true
		server.Reply(tk, req, vid.Message{Seg: seg})
	})
	var got []byte
	var err error
	var moved sim.Time
	r.sim.Spawn("client", func(tk *sim.Task) {
		client.StartSend(tk, server.PID(), vid.Message{Op: testOp})
		tk.Sleep(time.Second)
		st := client.Snapshot()
		client.Close()
		r.hosts[0].resident[lhA] = false
		r.hosts[0].frozen[lhA] = false
		r.hosts[1].resident[lhA] = true
		moved = tk.Now()
		client = r.hosts[1].eng.RestorePort(st, true)
		r.hosts[1].eng.BroadcastBinding(lhA)
		var m vid.Message
		m, err = client.AwaitReply(tk)
		got = m.Seg
	})
	r.sim.RunFor(time.Minute)
	if err != nil {
		t.Fatalf("migrated send failed: %v", err)
	}
	if !bytes.Equal(got, seg) {
		t.Fatal("reply corrupted")
	}
	want := packet.NumFrags(replyLen)
	if n := frames(*log, packet.KFrag, 3, 1); n != want {
		t.Errorf("%d fragments to the old station, want the first transmission's %d", n, want)
	}
	if n := frames(*log, packet.KFrag, 3, 2); n != want {
		t.Errorf("%d fragments repaired at the new station, want %d", n, want)
	}
	if n := frames(*log, packet.KFragNack, 2, 3); n != 1 {
		t.Errorf("%d NACKs from the new station, want 1", n)
	}
	for _, f := range *log {
		if f.from == 3 && f.to == 2 && (f.kind == packet.KReply || f.kind == packet.KFrag) {
			if f.kind != packet.KReply || f.at < moved {
				t.Errorf("the reply reached the new station first as %v at %v (moved at %v), want the summary", f.kind, f.at, moved)
			}
			break
		}
	}
}

// TestSecondAnswerToHandedBackReqPanics: Reply and Drop hand a Req back to
// its port, which fills it with the next request to arrive. A second
// answer to it before that happens panics; after it, the same Req carries
// the new request, which is why a server holding Reqs in a list takes each
// out before answering it.
func TestSecondAnswerToHandedBackReqPanics(t *testing.T) {
	for _, second := range []string{"Reply", "Drop"} {
		t.Run(second, func(t *testing.T) {
			r, client, server := bulkRig(t, 1)
			t.Cleanup(r.sim.Shutdown)
			var first, next *Req
			var nextW uint32
			var panicked any
			r.sim.Spawn("server", func(tk *sim.Task) {
				first = server.Receive(tk)
				server.Reply(tk, first, first.Msg)
				func() {
					defer func() { panicked = recover() }()
					if second == "Reply" {
						server.Reply(tk, first, first.Msg)
					} else {
						server.Drop(first)
					}
				}()
				next = server.Receive(tk)
				nextW = next.Msg.W[0]
				server.Reply(tk, next, next.Msg)
			})
			var errs []error
			r.sim.Spawn("client", func(tk *sim.Task) {
				for i := uint32(0); i < 2; i++ {
					if _, err := client.Send(tk, server.PID(), vid.Message{Op: testOp, W: [6]uint32{i}}); err != nil {
						errs = append(errs, err)
					}
				}
			})
			r.sim.RunFor(5 * time.Second)
			if panicked == nil {
				t.Fatalf("a second %s to an answered request did not panic", second)
			}
			if len(errs) != 0 {
				t.Fatalf("sends failed: %v", errs)
			}
			if next != first || nextW != 1 {
				t.Fatalf("the next request came in another Req (%p, was %p) or is not the second send (W0 %d)", next, first, nextW)
			}
		})
	}
}
