package rsm_test

import (
	"fmt"
	"sort"
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

// kvSM is a toy deterministic state machine: commands are "key=value"
// assignments, results echo the key, snapshots are the sorted rendering.
type kvSM struct {
	m       map[string]string
	applies int
}

func newKV() *kvSM { return &kvSM{m: make(map[string]string)} }

func (s *kvSM) Apply(t *sim.Task, cmd []byte) []byte {
	k, v, _ := strings.Cut(string(cmd), "=")
	s.m[k] = v
	s.applies++
	return []byte("ok:" + k)
}

func (s *kvSM) Snapshot() []byte {
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(s.m[k])
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

func (s *kvSM) Restore(snap []byte) {
	s.m = make(map[string]string)
	for _, line := range strings.Split(string(snap), "\n") {
		if k, v, ok := strings.Cut(line, "="); ok {
			s.m[k] = v
		}
	}
}

func (s *kvSM) render() string { return string(s.Snapshot()) }

// harness boots N bare hosts each carrying one replica of a kv set.
type harness struct {
	eng    *sim.Engine
	bus    *ethernet.Bus
	tb     *trace.Bus
	hosts  []*kernel.Host
	stores []*rsm.Store
	reps   []*rsm.Replica
	sms    []*kvSM
}

func boot(t *testing.T, n int, seed int64) *harness {
	t.Helper()
	stores := make([]*rsm.Store, n)
	for i := range stores {
		stores[i] = rsm.NewStore()
	}
	return bootStores(t, seed, stores)
}

// bootStores is boot with each replica's durable state given: the replicas
// come up as if rebooting onto those disks.
func bootStores(t *testing.T, seed int64, stores []*rsm.Store) *harness {
	t.Helper()
	n := len(stores)
	eng := sim.NewEngine(seed)
	bus := ethernet.NewBus(eng)
	tb := trace.NewBus()
	bus.SetTraceBus(tb)
	h := &harness{eng: eng, bus: bus, tb: tb}
	for i := 0; i < n; i++ {
		host := kernel.NewHost(eng, bus, i, fmt.Sprintf("r%d", i))
		host.AttachTrace(tb)
		h.hosts = append(h.hosts, host)
		h.stores = append(h.stores, stores[i])
		h.sms = append(h.sms, newKV())
		h.reps = append(h.reps, rsm.New(host, rsm.Config{
			Name: "kv", Group: vid.GroupHomeRSM, ID: i, N: n,
		}, h.sms[i], h.stores[i]))
	}
	return h
}

// restart reboots replica i's host and re-attaches a fresh state machine to
// the surviving durable store — the crash/rejoin cycle.
func (h *harness) restart(i int) {
	h.hosts[i].Restart()
	h.sms[i] = newKV()
	h.reps[i] = rsm.New(h.hosts[i], rsm.Config{
		Name: "kv", Group: vid.GroupHomeRSM, ID: i, N: len(h.reps),
	}, h.sms[i], h.stores[i])
}

func (h *harness) leaderIdx() int {
	for i, r := range h.reps {
		if !h.hosts[i].Crashed() && r.IsLeader() {
			return i
		}
	}
	return -1
}

// submitter spawns a driver process on every host that waits for delay,
// then pushes the given commands through whichever replica becomes leader
// (polling, so a crash-perturbed election schedule doesn't strand them).
func (h *harness) submitter(delay time.Duration, cmds []string, errs *[]error) {
	claimed := false
	for i := range h.hosts {
		idx := i
		h.hosts[i].SpawnServer("driver", 4096, func(ctx *kernel.ProcCtx) {
			ctx.Sleep(delay)
			for n := 0; n < 100 && !claimed; n++ {
				if h.reps[idx].IsLeader() {
					claimed = true
					for _, c := range cmds {
						if _, err := h.reps[idx].Submit(ctx, []byte(c)); err != nil {
							*errs = append(*errs, err)
						}
					}
					return
				}
				ctx.Sleep(200 * time.Millisecond)
			}
		})
	}
}

func TestElectionConvergesToOneLeader(t *testing.T) {
	h := boot(t, 3, 1)
	h.eng.RunFor(3 * time.Second)
	leaders := 0
	for i, r := range h.reps {
		if r.IsLeader() {
			leaders++
		} else if r.Role() == "leader" {
			t.Errorf("replica %d holds unfenced leadership", i)
		}
	}
	if leaders != 1 {
		t.Fatalf("want exactly 1 fenced leader, got %d", leaders)
	}
	// every replica agrees on who leads
	lead := h.leaderIdx()
	for i, r := range h.reps {
		if r.LeaderID() != lead {
			t.Errorf("replica %d thinks leader is %d, want %d", i, r.LeaderID(), lead)
		}
	}
	// counter ↔ event parity
	var elects, commits, fails int64
	for _, r := range h.reps {
		st := r.Stats()
		elects += st.Elections
		commits += st.Commits
		fails += st.Failovers
	}
	if elects != h.tb.Count(trace.EvElect) {
		t.Errorf("Elections=%d but EvElect=%d", elects, h.tb.Count(trace.EvElect))
	}
	if commits != h.tb.Count(trace.EvCommit) {
		t.Errorf("Commits=%d but EvCommit=%d", commits, h.tb.Count(trace.EvCommit))
	}
	if fails != 0 || h.tb.Count(trace.EvFailover) != 0 {
		t.Errorf("boot election must not count as failover (stats=%d events=%d)",
			fails, h.tb.Count(trace.EvFailover))
	}
}

func TestSubmitReplicatesToAllReplicas(t *testing.T) {
	h := boot(t, 3, 1)
	var errs []error
	h.submitter(2*time.Second, []string{"a=1", "b=2", "c=3"}, &errs)
	h.eng.RunFor(5 * time.Second)
	if len(errs) > 0 {
		t.Fatalf("submit errors: %v", errs)
	}
	want := h.sms[h.leaderIdx()].render()
	if want == "" {
		t.Fatal("leader state empty after submits")
	}
	for i, sm := range h.sms {
		if got := sm.render(); got != want {
			t.Errorf("replica %d state %q != leader state %q", i, got, want)
		}
	}
}

func TestSubmitOnFollowerRedirects(t *testing.T) {
	h := boot(t, 3, 1)
	var sawNotLeader bool
	for i := range h.hosts {
		idx := i
		h.hosts[i].SpawnServer("probe", 4096, func(ctx *kernel.ProcCtx) {
			ctx.Sleep(2 * time.Second)
			if h.reps[idx].IsLeader() {
				return
			}
			if _, err := h.reps[idx].Submit(ctx, []byte("x=1")); err == rsm.ErrNotLeader {
				sawNotLeader = true
			}
		})
	}
	h.eng.RunFor(3 * time.Second)
	if !sawNotLeader {
		t.Fatal("follower Submit did not return ErrNotLeader")
	}
}

func TestLeaderCrashFailsOverWithinBudget(t *testing.T) {
	h := boot(t, 3, 1)
	var errs []error
	h.submitter(2*time.Second, []string{"a=1"}, &errs)

	var crashAt, electAt sim.Time
	h.tb.Subscribe(func(ev trace.Event) {
		if ev.Kind == trace.EvFailover && electAt == 0 {
			electAt = ev.At
		}
	})
	h.eng.At(h.eng.Now().Add(3*time.Second), func() {
		lead := h.leaderIdx()
		if lead < 0 {
			t.Error("no leader to crash at 3s")
			return
		}
		crashAt = h.eng.Now()
		h.hosts[lead].Crash()
	})
	h.eng.RunFor(8 * time.Second)
	if len(errs) > 0 {
		t.Fatalf("submit errors: %v", errs)
	}
	if h.leaderIdx() < 0 {
		t.Fatal("no new leader after crashing the old one")
	}
	if electAt == 0 {
		t.Fatal("no EvFailover published")
	}
	if d := electAt.Sub(crashAt); d > params.RsmFailoverBudget {
		t.Errorf("failover took %v, budget %v", d, params.RsmFailoverBudget)
	}
	var fails int64
	for _, r := range h.reps {
		fails += r.Stats().Failovers
	}
	if fails != h.tb.Count(trace.EvFailover) {
		t.Errorf("Failovers=%d but EvFailover=%d", fails, h.tb.Count(trace.EvFailover))
	}
}

func TestRejoinCatchesUpFromLog(t *testing.T) {
	h := boot(t, 3, 1)
	var errs []error
	h.submitter(2*time.Second, []string{"a=1", "b=2"}, &errs)
	h.eng.At(h.eng.Now().Add(1*time.Second), func() { h.hosts[2].Crash() })
	h.eng.At(h.eng.Now().Add(4*time.Second), func() { h.restart(2) })
	h.eng.RunFor(6 * time.Second)
	if len(errs) > 0 {
		t.Fatalf("submit errors: %v", errs)
	}
	lead := h.leaderIdx()
	if lead < 0 {
		t.Fatal("no leader")
	}
	if got, want := h.sms[2].render(), h.sms[lead].render(); got != want {
		t.Errorf("rejoined replica state %q != leader %q", got, want)
	}
}

// TestRejoinerHearsLeaderAtOnce: when a member restarts, the leader's
// replication worker is usually part-way through an append to the dead
// incarnation's PID, which nothing answers (stale identities die silently
// in V). The member's hello announces its new PID, and the first append to
// that PID must leave within one heartbeat of it — not after the old
// transaction has ridden out its ~5 s abort.
func TestRejoinerHearsLeaderAtOnce(t *testing.T) {
	h := boot(t, 3, 1)
	h.eng.RunFor(3 * time.Second)
	lead := h.leaderIdx()
	if lead < 0 {
		t.Fatal("no leader")
	}
	member := (lead + 1) % 3
	h.hosts[member].Crash()
	h.eng.RunFor(3 * time.Second)

	var hello, firstAppend sim.Time
	h.tb.Subscribe(func(ev trace.Event) {
		p := ev.Pkt
		if ev.Kind != trace.EvPktTx || p.Kind != packet.KRequest {
			return
		}
		switch {
		case p.Msg.Op == rsm.OpHello && vid.PID(p.Msg.W[1]) == h.reps[member].PID() && hello == 0:
			hello = ev.At
		case p.Msg.Op == rsm.OpAppend && p.Dst == h.reps[member].PID() && firstAppend == 0:
			firstAppend = ev.At
		}
	})
	h.restart(member)
	h.eng.RunFor(6 * time.Second)
	if hello == 0 || firstAppend == 0 {
		t.Fatalf("hello at %v, first append to the new PID at %v: want both", hello, firstAppend)
	}
	if d := firstAppend.Sub(hello); d < 0 || d > params.RsmHeartbeatInterval {
		t.Errorf("first append to the rejoined member's new PID left %v after its hello, want within %v",
			d, params.RsmHeartbeatInterval)
	}
}

// TestLeaderKillElectsAtFirstTimeout: with the leader dead, the first
// survivor whose election timer fires is elected within 20 ms of it — a
// pre-vote, a vote and nothing else, each closing at its majority. (With
// gathers that sit out their 250 ms windows it took two of them.)
func TestLeaderKillElectsAtFirstTimeout(t *testing.T) {
	h := boot(t, 3, 1)
	h.eng.RunFor(3 * time.Second)
	lead := h.leaderIdx()
	if lead < 0 {
		t.Fatal("no leader")
	}
	var poll, elect sim.Time
	elected := -1
	h.tb.Subscribe(func(ev trace.Event) {
		switch {
		case ev.Kind == trace.EvPktTx && ev.Pkt.Kind == packet.KRequest && ev.Pkt.Msg.Op == rsm.OpVote && poll == 0:
			poll = ev.At
		case ev.Kind == trace.EvElect && elect == 0:
			elect, elected = ev.At, ev.Size
		}
	})
	h.hosts[lead].Crash()
	h.eng.RunFor(params.RsmFailoverBudget)
	if poll == 0 || elect == 0 {
		t.Fatalf("first vote request at %v, election at %v: want both", poll, elect)
	}
	if elected == lead {
		t.Fatalf("the crashed replica %d was elected", lead)
	}
	if d := elect.Sub(poll); d > 20*time.Millisecond {
		t.Errorf("elected %v after the first survivor's timer fired, want within 20 ms", d)
	}
}

func TestRejoinPastCompactionInstallsSnapshot(t *testing.T) {
	h := boot(t, 3, 1)
	// enough commands to force compaction while replica 2 is down
	var cmds []string
	for i := 0; i < params.RsmSnapshotEntries+20; i++ {
		cmds = append(cmds, fmt.Sprintf("k%03d=%d", i, i))
	}
	var errs []error
	h.submitter(2*time.Second, cmds, &errs)
	h.eng.At(h.eng.Now().Add(1*time.Second), func() { h.hosts[2].Crash() })
	h.eng.At(h.eng.Now().Add(20*time.Second), func() { h.restart(2) })
	h.eng.RunFor(40 * time.Second)
	if len(errs) > 0 {
		t.Fatalf("submit errors: %v", errs)
	}
	lead := h.leaderIdx()
	if lead < 0 {
		t.Fatal("no leader")
	}
	if h.stores[lead].SnapIndex == 0 {
		t.Fatal("leader never compacted; test needs more commands")
	}
	if h.reps[2].Stats().SnapInstalls == 0 {
		t.Error("rejoined replica caught up without a snapshot install")
	}
	if got, want := h.sms[2].render(), h.sms[lead].render(); got != want {
		t.Errorf("rejoined replica state diverges after snapshot catch-up")
	}
}

func TestMinorityLeaderSubmitFencedByTimeout(t *testing.T) {
	h := boot(t, 3, 1)
	h.eng.RunFor(3 * time.Second)
	lead := h.leaderIdx()
	if lead < 0 {
		t.Fatal("no leader")
	}
	// cut the leader off from both followers
	leadMAC := h.hosts[lead].NIC.MAC()
	h.bus.SetCut(func(src, dst ethernet.MAC) bool {
		return (src == leadMAC) != (dst == leadMAC)
	})
	var err error
	done := false
	h.hosts[lead].SpawnServer("stale", 4096, func(ctx *kernel.ProcCtx) {
		_, err = h.reps[lead].Submit(ctx, []byte("stale=1"))
		done = true
	})
	h.eng.RunFor(params.RsmSubmitTimeout + 2*time.Second)
	if !done {
		t.Fatal("stale-leader Submit never returned")
	}
	if err == nil {
		t.Fatal("stale minority leader committed a command")
	}
	// the majority side must have moved on to a new leader
	newLead := -1
	for i, r := range h.reps {
		if i != lead && r.IsLeader() {
			newLead = i
		}
	}
	if newLead < 0 {
		t.Error("majority side did not elect a replacement leader")
	}
}

// TestOnLeadingFiresWhenFencedAndWhenDeposed pins the one notification a
// replica gives the service beside it: IsLeader has just become true (the
// term-start barrier applied — not merely the election won), or has just
// become false (the leader stepped down). A service that acts on Leading
// without being asked — the program manager's lease worker — parks between
// the two and hangs if either call is missing.
func TestOnLeadingFiresWhenFencedAndWhenDeposed(t *testing.T) {
	eng := sim.NewEngine(1)
	bus := ethernet.NewBus(eng)
	type note struct {
		id      int
		leading bool
	}
	var notes []note
	const n = 3
	hosts := make([]*kernel.Host, n)
	reps := make([]*rsm.Replica, n)
	for i := 0; i < n; i++ {
		i := i
		hosts[i] = kernel.NewHost(eng, bus, i, fmt.Sprintf("r%d", i))
		reps[i] = rsm.New(hosts[i], rsm.Config{
			Name: "kv", Group: vid.GroupHomeRSM, ID: i, N: n,
			OnLeading: func() { notes = append(notes, note{i, reps[i].IsLeader()}) },
		}, newKV(), rsm.NewStore())
	}
	eng.RunFor(3 * time.Second)
	if len(notes) != 1 || !notes[0].leading {
		t.Fatalf("after the boot election: notes %v, want exactly one, from the fenced leader", notes)
	}
	first := notes[0].id

	// Cut the leader off: the other two elect a successor, and when the
	// partition heals the old leader hears the higher term and steps down.
	mac := hosts[first].NIC.MAC()
	bus.SetCut(func(src, dst ethernet.MAC) bool { return (src == mac) != (dst == mac) })
	eng.RunFor(params.RsmFailoverBudget + time.Second)
	if len(notes) != 2 || notes[1].id == first || !notes[1].leading {
		t.Fatalf("after the partition: notes %v, want a second one from the successor, leading", notes)
	}
	bus.SetCut(nil)
	eng.RunFor(2 * time.Second)
	if len(notes) != 3 || notes[2] != (note{first, false}) {
		t.Fatalf("after the heal: notes %v, want a third from replica %d, no longer leading", notes, first)
	}
}

// TestFollowerLogSurvivesBufferReuse: an append request too long for one
// frame is reassembled in a buffer the engine lends; a follower copies the
// entries' commands out of it and hands it back, so the buffers the next
// appends reuse — poisoned on their return here — leave its log intact.
func TestFollowerLogSurvivesBufferReuse(t *testing.T) {
	h := boot(t, 3, 5)
	h.eng.PoisonFreed()
	var cmds []string
	for i := 0; i < 8; i++ {
		cmds = append(cmds, fmt.Sprintf("k%d=%s", i, strings.Repeat(string(rune('a'+i)), 3*packet.FragChunk)))
	}
	var errs []error
	h.submitter(2*time.Second, cmds, &errs)
	h.eng.RunFor(8 * time.Second)
	if len(errs) > 0 {
		t.Fatalf("submit errors: %v", errs)
	}
	for i, st := range h.stores {
		var log []string
		for _, e := range st.Log {
			if len(e.Cmd) > 0 {
				log = append(log, string(e.Cmd))
			}
		}
		if got, want := strings.Join(log, "\n"), strings.Join(cmds, "\n"); got != want {
			t.Errorf("replica %d's log holds other commands than were submitted (%d of %d entries)", i, len(log), len(cmds))
		}
	}
}
