package nameserver

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/kernel"
	"vsystem/internal/packet"
	"vsystem/internal/rsm"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// repRig is a client host plus n name-server replicas on their own hosts.
type repRig struct {
	eng    *sim.Engine
	bus    *ethernet.Bus
	client *kernel.Host
	hosts  []*kernel.Host
	stores []*rsm.Store
	reps   []*Server
}

func newRepRig(n int, seed int64) *repRig {
	eng := sim.NewEngine(seed)
	r := &repRig{eng: eng, bus: ethernet.NewBus(eng)}
	r.client = kernel.NewHost(eng, r.bus, 0, "ws0")
	for i := 0; i < n; i++ {
		r.hosts = append(r.hosts, kernel.NewHost(eng, r.bus, 1+i, fmt.Sprintf("srv%d", i)))
		r.stores = append(r.stores, rsm.NewStore())
		r.reps = append(r.reps, StartReplica(r.hosts[i], i, n, r.stores[i]))
	}
	return r
}

// leader returns a fenced leader other than replica not (-1: none).
func (r *repRig) leader(not int) int {
	for i, s := range r.reps {
		if i != not && s.Replica().IsLeader() {
			return i
		}
	}
	return -1
}

// The same requests must leave the same table whether they were applied in
// place by a lone server or committed through a three-replica log.
func TestSoloAndReplicatedReachSameTable(t *testing.T) {
	ops := []vid.Message{
		{Op: NsRegister, W: [6]uint32{0x00010012}, Seg: []byte("display.ws0")},
		{Op: NsRegister, W: [6]uint32{0x00020002}, Seg: []byte("progmgr.ws1")},
		{Op: NsRegister, W: [6]uint32{0x00030012}, Seg: []byte("display.ws0")}, // rebinding
		{Op: NsUnregister, Seg: []byte("progmgr.ws1")},
		{Op: NsUnregister, Seg: []byte("never-registered")},
		{Op: NsRegister, W: [6]uint32{0x00040002}, Seg: []byte("progmgr.ws3")},
	}
	drive := func(eng *sim.Engine, client *kernel.Host, settle time.Duration) {
		client.SpawnServer("driver", 4096, func(ctx *kernel.ProcCtx) {
			ctx.Sleep(settle)
			for _, op := range ops {
				if m, err := ctx.Send(vid.GroupNameServers, op); err != nil || !m.OK() {
					t.Errorf("op %#x %q: %v %v", op.Op, op.Seg, m, err)
				}
			}
		})
		eng.RunFor(settle + 10*time.Second)
	}
	solo := newRig(1)
	drive(solo.eng, solo.client, 0)
	rep := newRepRig(3, 1)
	drive(rep.eng, rep.client, 3*time.Second)

	want := string(solo.ns.tab.Snapshot())
	if len(solo.ns.Bindings()) != 2 {
		t.Fatalf("solo table = %v, want 2 bindings", solo.ns.Bindings())
	}
	for i, s := range rep.reps {
		if got := string(s.tab.Snapshot()); got != want {
			t.Errorf("replica %d table %v differs from the lone server's %v", i, s.Bindings(), solo.ns.Bindings())
		}
	}
}

// A leader deposed while a registration is waiting in its log must stay
// silent, not answer CodeTimeout: the request was group-addressed, and the
// first reply the registrar sees has to be the new leader's OK. Staged by
// cutting the leader off from its followers, sending the registration the
// moment a follower puts its first vote request on the wire (so only the
// stale leader admits it: the follower is fenced only once its pre-vote,
// its vote and its term-start barrier have each taken a round trip), and
// healing once the follower is fenced in — the old leader then hears the
// higher term with the registrar's send still open, and the successor
// answers that send's next copy.
func TestDeposedLeaderStaysSilentMidRegister(t *testing.T) {
	r := newRepRig(3, 1)
	tb := trace.NewBus()
	for _, h := range append([]*kernel.Host{r.client}, r.hosts...) {
		h.AttachTrace(tb)
	}
	r.eng.RunFor(3 * time.Second)
	old := r.leader(-1)
	if old < 0 {
		t.Fatal("no leader")
	}
	oldMAC := r.hosts[old].NIC.MAC()
	repMAC := map[ethernet.MAC]bool{}
	for _, h := range r.hosts {
		repMAC[h.NIC.MAC()] = true
	}
	r.bus.SetCut(func(src, dst ethernet.MAC) bool {
		return repMAC[src] && repMAC[dst] && (src == oldMAC) != (dst == oldMAC)
	})
	step := func(what string, cond func() bool) {
		t.Helper()
		for i := 0; !cond(); i++ {
			if i > 1000 {
				t.Fatalf("never reached: %s", what)
			}
			r.eng.RunFor(5 * time.Millisecond)
		}
	}
	var campaigns sim.WaitQ
	var registrar vid.PID
	var repliers []uint16 // the station of every reply the registrar was sent
	tb.Subscribe(func(ev trace.Event) {
		switch {
		case ev.Kind != trace.EvPktTx:
		case ev.Pkt.Kind == packet.KRequest && ev.Pkt.Msg.Op == rsm.OpVote:
			campaigns.WakeAll()
		case ev.Pkt.Kind == packet.KReply && ev.Pkt.Dst == registrar:
			repliers = append(repliers, ev.Host)
		}
	})

	type answer struct {
		m   vid.Message
		err error
	}
	var answers []answer
	r.client.SpawnServer("registrar", 4096, func(ctx *kernel.ProcCtx) {
		registrar = ctx.PID()
		campaigns.Wait(ctx.Task())
		for attempt := 0; attempt < 10; attempt++ {
			m, err := ctx.Send(vid.GroupNameServers, vid.Message{
				Op: NsRegister, W: [6]uint32{0x00010012}, Seg: []byte("display.ws0"),
			})
			answers = append(answers, answer{m, err})
			if err == nil && m.OK() {
				return
			}
			ctx.Sleep(500 * time.Millisecond)
		}
	})
	step("the stale leader logs the registration", func() bool {
		log := r.stores[old].Log
		return len(log) > 0 && len(log[len(log)-1].Cmd) > 6 && string(log[len(log)-1].Cmd[6:]) == "display.ws0"
	})
	if !r.reps[old].Replica().IsLeader() {
		t.Fatal("staging failed: the old leader was deposed before it admitted the request")
	}
	step("a new leader is fenced in", func() bool { return r.leader(old) >= 0 })
	successor := uint16(r.hosts[r.leader(old)].NIC.MAC())
	r.bus.SetCut(nil)
	r.eng.RunFor(10 * time.Second)

	if r.reps[old].Replica().Role() == "leader" {
		t.Fatal("staging failed: the old leader was never deposed")
	}
	// The successor dropped the first copies as a follower, and answers
	// the first send's retransmission once fenced.
	if len(answers) != 1 {
		t.Fatalf("registrar needed %d attempts; the successor should have answered its first send", len(answers))
	}
	if len(repliers) == 0 || slices.ContainsFunc(repliers, func(h uint16) bool { return h != successor }) {
		t.Fatalf("the registrar was answered from stations %#x; want the successor %#x alone", repliers, successor)
	}
	for i, a := range answers {
		if a.err == nil && !a.m.OK() {
			t.Fatalf("attempt %d was answered %v — a deposed leader must leave the reply to its successor", i, a.m.Err())
		}
	}
	if last := answers[len(answers)-1]; last.err != nil || !last.m.OK() {
		t.Fatalf("registration never succeeded: %v %v", last.m, last.err)
	}
	for i, s := range r.reps {
		if s.Bindings()["display.ws0"] != 0x00010012 {
			t.Errorf("replica %d does not hold the binding: %v", i, s.Bindings())
		}
	}
}
