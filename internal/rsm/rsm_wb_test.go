package rsm

// White-box tests: interleavings that depend on replica-internal scheduling
// (a deposal and an applied-index jump landing in one handler call) cannot
// be staged reliably through the network, so they drive the replica's own
// state transitions directly.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/kernel"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

type wbSM struct{ applied [][]byte }

func (s *wbSM) Apply(t *sim.Task, cmd []byte) []byte {
	s.applied = append(s.applied, cmd)
	return append([]byte("ok:"), cmd...)
}
func (s *wbSM) Snapshot() []byte { return nil }
func (s *wbSM) Restore([]byte)   {}

// TestDeposedSubmitNeverFalselySucceeds reproduces the stale-leader race:
// a leader proposes an entry that never reaches a majority, is deposed, and
// the new leader's repair — delivered as ONE append batch (or snapshot) —
// overwrites the entry at that index, commits and applies past it, all
// within a single handler call. The Submit waiter then wakes with
// applied>=idx having had no scheduling gap in which to observe the role
// change mid-loop; it must still report failure, never return the
// overwriting entry's result as its own success.
func TestDeposedSubmitNeverFalselySucceeds(t *testing.T) {
	eng := sim.NewEngine(1)
	bus := ethernet.NewBus(eng)
	host := kernel.NewHost(eng, bus, 0, "r0")
	sm := &wbSM{}
	r := New(host, Config{Name: "kv", Group: vid.GroupHomeRSM, ID: 0, N: 3}, sm, NewStore())

	// Hand the lone replica unfenced leadership of term 1 directly: its two
	// peers are absent, so nothing it proposes can reach a majority.
	r.role = leader
	r.st.Term = 1
	r.nextIndex = make([]uint32, r.cfg.N)
	r.matchIndex = make([]uint32, r.cfg.N)

	var (
		res  []byte
		err  error
		done bool
	)
	host.SpawnServer("waiter", 4096, func(ctx *kernel.ProcCtx) {
		res, err = r.Submit(ctx, []byte("k=stale"))
		done = true
	})

	// While the waiter blocks, replay what a healed partition delivers in a
	// single handleAppend/handleSnap invocation from a higher-term leader:
	// deposal, the stale entry overwritten, commit and apply past it —
	// atomically with respect to the waiter's process.
	eng.At(eng.Now().Add(500*time.Millisecond), func() {
		idx := r.lastIndex() // the stale proposal's index
		if idx == 0 || r.termAt(idx) != 1 {
			t.Errorf("stale entry not in place at idx=%d", idx)
			return
		}
		r.stepDown(2, eng.Now())
		r.st.Log[idx-r.st.SnapIndex-1] = Entry{Term: 2, Cmd: []byte("k=other")}
		r.noteCommit(nil, idx)
	})
	eng.RunFor(2 * time.Second)

	if !done {
		t.Fatal("Submit never returned")
	}
	if err == nil {
		t.Fatalf("deposed Submit reported success (res=%q) for an entry that never committed", res)
	}
	if err != ErrNotLeader {
		t.Errorf("want ErrNotLeader, got %v", err)
	}
	// The overwriting entry must have applied exactly once — the deposal
	// path must not disturb the applied log itself.
	if len(sm.applied) != 1 || !bytes.Equal(sm.applied[0], []byte("k=other")) {
		t.Errorf("applied log = %q, want exactly [k=other]", sm.applied)
	}
}

// TestStepDownSameTermKeepsVote pins the one-vote-per-term invariant: a
// candidate (which voted for itself) yielding to the term's elected leader
// steps down without clearing VotedFor, while a strictly higher term does
// reset it.
func TestStepDownSameTermKeepsVote(t *testing.T) {
	eng := sim.NewEngine(1)
	bus := ethernet.NewBus(eng)
	host := kernel.NewHost(eng, bus, 0, "r0")
	r := New(host, Config{Name: "kv", Group: vid.GroupHomeRSM, ID: 0, N: 3}, &wbSM{}, NewStore())

	r.st.Term = 3
	r.st.VotedFor = 0 // voted for itself as candidate in term 3
	r.role = candidate

	r.stepDown(3, eng.Now())
	if r.role != follower {
		t.Errorf("same-term stepDown left role=%v, want follower", r.role)
	}
	if r.st.VotedFor != 0 {
		t.Errorf("same-term stepDown cleared VotedFor (=%d), breaking one-vote-per-term", r.st.VotedFor)
	}

	r.stepDown(4, eng.Now())
	if r.st.Term != 4 || r.st.VotedFor != -1 {
		t.Errorf("higher-term stepDown: term=%d votedFor=%d, want 4/-1", r.st.Term, r.st.VotedFor)
	}
}

// wbSet boots a three-replica set, runs it until it has a fenced leader,
// crashes that leader and returns the two survivors, lower id first.
func wbSet(t *testing.T) (eng *sim.Engine, lo, hi *Replica) {
	t.Helper()
	eng = sim.NewEngine(1)
	bus := ethernet.NewBus(eng)
	var hosts []*kernel.Host
	var reps []*Replica
	for i := 0; i < 3; i++ {
		hosts = append(hosts, kernel.NewHost(eng, bus, i, fmt.Sprintf("r%d", i)))
		reps = append(reps, New(hosts[i], Config{Name: "kv", Group: vid.GroupHomeRSM, ID: i, N: 3}, &wbSM{}, NewStore()))
	}
	eng.RunFor(3 * time.Second)
	var live []*Replica
	for i, r := range reps {
		if r.IsLeader() {
			hosts[i].Crash()
		} else {
			live = append(live, r)
		}
	}
	if len(live) != 2 {
		t.Fatalf("%d survivors, want 2", len(live))
	}
	return eng, live[0], live[1]
}

// fireAt moves a replica's election deadline to at (past the sticky-leader
// window, so its peers grant pre-votes) and wakes its campaign process.
func (r *Replica) fireAt(at sim.Time) {
	r.electionDeadline = at
	r.electWake.WakeAll()
}

// TestCloseTimersElectInOneRound: two survivors whose election timers fire
// together or 2 ms apart, either one first, elect one leader in one round,
// at the next term and within 20 ms of the first timer. 2 ms apart, the
// one that campaigns second answers the first's requests while its own
// gather is open; together, neither has heard the other, and the lower id
// outranks the higher, so that they do not both stand and split the vote.
func TestCloseTimersElectInOneRound(t *testing.T) {
	for _, skew := range []time.Duration{-2 * time.Millisecond, 0, 2 * time.Millisecond} {
		eng, lo, hi := wbSet(t)
		term := lo.st.Term
		at := eng.Now().Add(params.RsmStickyLeader + 100*time.Millisecond)
		lo.fireAt(at)
		hi.fireAt(at.Add(skew))
		eng.RunFor(at.Sub(eng.Now()) + min(skew, 0) + 20*time.Millisecond)
		leaders, elections := 0, int64(0)
		for _, r := range []*Replica{lo, hi} {
			if r.role == leader {
				leaders++
			}
			elections += r.stats.Elections
			if r.st.Term != term+1 {
				t.Errorf("higher id %v later: replica %d at term %d, want %d", skew, r.cfg.ID, r.st.Term, term+1)
			}
		}
		if leaders != 1 || elections != 1 {
			t.Errorf("higher id %v later: %d leaders from %d elections 20 ms after the first timer, want 1 and 1",
				skew, leaders, elections)
		}
	}
}

// TestFresherCandidateWinsTie: a stale low-id replica and a fresh high-id
// one campaign at the same instant. The low id outranks the high one only
// when the high one's log is no fresher; here it is fresher, and the low
// one's log disqualifies it, so the high one must win — in one round.
// Without the freshness clause each denies the other whenever they
// campaign together.
func TestFresherCandidateWinsTie(t *testing.T) {
	eng, stale, fresh := wbSet(t)
	term := fresh.st.Term
	// One entry the dead leader got to the high-id survivor only.
	fresh.st.Log = append(fresh.st.Log, Entry{Term: term})
	at := eng.Now().Add(params.RsmStickyLeader + 100*time.Millisecond)
	stale.fireAt(at)
	fresh.fireAt(at)
	eng.RunFor(at.Sub(eng.Now()) + 20*time.Millisecond)
	if fresh.role != leader || fresh.st.Term != term+1 || fresh.stats.Elections != 1 {
		t.Fatalf("fresh replica %d: %v at term %d after %d elections, want leader at %d after 1",
			fresh.cfg.ID, fresh.role, fresh.st.Term, fresh.stats.Elections, term+1)
	}
	if stale.role == leader || stale.stats.Elections != 0 {
		t.Errorf("stale replica %d: %v after %d elections", stale.cfg.ID, stale.role, stale.stats.Elections)
	}
}

// TestAdvanceCommitTakesTheMajorityMatch: a leader's commit index moves to
// the highest index a majority of the N match indexes hold, whichever
// members hold it, and working that out allocates nothing.
func TestAdvanceCommitTakesTheMajorityMatch(t *testing.T) {
	eng := sim.NewEngine(1)
	bus := ethernet.NewBus(eng)
	host := kernel.NewHost(eng, bus, 0, "r0")
	r := New(host, Config{Name: "kv", Group: vid.GroupHomeRSM, ID: 0, N: 5}, &wbSM{}, NewStore())
	r.role, r.st.Term = leader, 1
	r.nextIndex, r.matchIndex = make([]uint32, r.cfg.N), make([]uint32, r.cfg.N)
	for i := 0; i < 5; i++ {
		r.appendLocal([]byte{byte(i)})
	}
	for _, c := range []struct {
		match []uint32
		want  uint32
	}{
		{[]uint32{5, 0, 0, 0, 0}, 0},
		{[]uint32{5, 1, 4, 2, 3}, 3},
		{[]uint32{0, 4, 5, 0, 5}, 4},
		{[]uint32{5, 5, 1, 5, 2}, 5},
	} {
		copy(r.matchIndex, c.match)
		r.advanceCommit(nil)
		if r.commit != c.want {
			t.Fatalf("match %v: commit %d, want %d", c.match, r.commit, c.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { r.advanceCommit(nil) }); n != 0 {
		t.Fatalf("advanceCommit allocates %.0f times a call, want 0", n)
	}
}
