package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"vsystem/internal/fileserver"
	"vsystem/internal/packet"
	"vsystem/internal/progs"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// fsLeaderIdx finds the replica index currently leading the file-server
// group (-1 when no fenced leader exists).
func fsLeaderIdx(c *Cluster) int {
	for i, fs := range c.FSReps {
		if !c.FSHosts[i].Crashed() && fs.Replica() != nil && fs.Replica().IsLeader() {
			return i
		}
	}
	return -1
}

func nsLeaderIdx(c *Cluster) int {
	for i, ns := range c.NSReps {
		if !c.FSHosts[i].Crashed() && ns.Replica() != nil && ns.Replica().IsLeader() {
			return i
		}
	}
	return -1
}

// A program image must load even after the file-server leader machine is
// killed: the stat/read loop re-resolves through the group and a surviving
// replica serves the image.
func TestReplicatedImageLoadSurvivesFSLeaderCrash(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 2, Seed: 1, ReplicateFS: 3})
	c.Sim.At(c.Sim.Now().Add(3*time.Second), func() {
		idx := fsLeaderIdx(c)
		if idx < 0 {
			t.Error("no file-server leader elected by 3s")
			return
		}
		c.FSHosts[idx].Crash()
	})
	var code uint32
	var err error
	done := false
	c.Node(0).Agent(func(a *Agent) {
		a.Sleep(4 * time.Second) // start after the crash
		var job *Job
		if job, err = a.Exec("hello", nil, ""); err == nil {
			code, err = a.Wait(job)
		}
		done = true
	})
	c.Run(60 * time.Second)
	if !done {
		t.Fatal("agent never finished")
	}
	if err != nil {
		t.Fatalf("exec after fs-leader crash: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if lines := c.Node(0).Display.Lines(); len(lines) != 1 || lines[0] != "hello from the VVM" {
		t.Fatalf("display = %q", lines)
	}
}

// A manager's second load reads first from the replica its first load
// pinned. When that replica's machine has crashed in between, the read
// fails, the load falls back to the group stat, pins a survivor and the
// program runs.
func TestPinnedImageLoadFailsOverWhenItsReplicaCrashes(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 2, Seed: 1, ReplicateFS: 3})
	pm := c.Node(0).PM.PID()
	type req struct {
		op  uint16
		dst vid.PID
	}
	var sent []req // node 0's manager's file-server requests, retransmissions dropped
	lastTx := uint32(0)
	c.Trace.Subscribe(func(ev trace.Event) {
		if p := ev.Pkt; ev.Kind == trace.EvPktTx && p.Kind == packet.KRequest && p.Src == pm &&
			(p.Msg.Op == fileserver.OpStat || p.Msg.Op == fileserver.OpRead) && p.TxID != lastTx {
			sent, lastTx = append(sent, req{p.Msg.Op, p.Dst}), p.TxID
		}
	})
	var pinned vid.PID
	var err error
	failed := 0 // which exec failed, 1 or 2
	done := false
	c.Node(0).Agent(func(a *Agent) {
		a.Sleep(4 * time.Second) // a leader is elected by 3s
		for i := 0; i < 2; i++ {
			if i == 1 {
				// Crash the replica the first load pinned: its last read's.
				pinned = sent[len(sent)-1].dst
				for k, fs := range c.FSReps {
					if fs.PID() == pinned {
						c.FSHosts[k].Crash()
					}
				}
				sent = sent[:0]
				a.Sleep(time.Second)
			}
			var job *Job
			var code uint32
			if job, err = a.Exec("hello", nil, ""); err == nil {
				code, err = a.Wait(job)
			}
			if err == nil && code != 0 {
				t.Errorf("exec %d: exit = %d", i+1, code)
			}
			if err != nil {
				failed = i + 1
				break
			}
		}
		done = true
	})
	c.Run(60 * time.Second)
	if !done {
		t.Fatal("agent never finished")
	}
	if err != nil {
		t.Fatalf("exec %d of 2 (the second after the pinned replica crashed): %v", failed, err)
	}
	if len(sent) < 3 || sent[0] != (req{fileserver.OpRead, pinned}) ||
		sent[1] != (req{fileserver.OpStat, vid.GroupFileServers}) || sent[2].op != fileserver.OpRead || sent[2].dst == pinned {
		t.Fatalf("second load sent %v; want a read to the crashed replica %v, a group stat, then a read from a survivor", sent, pinned)
	}
	if lines := c.Node(0).Display.Lines(); len(lines) != 2 || lines[0] != "hello from the VVM" || lines[1] != lines[0] {
		t.Fatalf("display = %q", lines)
	}
}

// TestFlushAfterFSLeaderReplaced: a flush migration in a cluster whose
// replicated file service lost its leader, and elected another, between
// the guest's load and the move. The source manager's pinned replica may
// be the dead leader or a follower that declines page-out, and the
// destination's manager has no pin; page-out and page-in reach the new
// leader through the managers' file-service clients all the same. The
// guest — memwalk, whose exit code is a checksum of its memory — exits
// with the code and display lines of an unmigrated twin.
func TestFlushAfterFSLeaderReplaced(t *testing.T) {
	t.Parallel()
	run := func(migrate bool) (code uint32, lines []string, rep *MigrationReport, faults int) {
		c := boot(t, Options{Workstations: 3, Seed: 5, Policy: PolicyFlush, ReplicateFS: 3})
		img := progs.MemWalker(64, 900)
		c.Install(img)
		var err error
		done := false
		c.Node(0).Agent(func(a *Agent) {
			defer func() { done = true }()
			a.Sleep(4 * time.Second) // a leader is elected by 3 s
			var job *Job
			if job, err = a.Exec(img.Name, nil, "ws1"); err != nil {
				return
			}
			old := fsLeaderIdx(c)
			c.FSHosts[old].Crash()
			a.Sleep(3 * time.Second)
			if now := fsLeaderIdx(c); now < 0 || now == old {
				err = fmt.Errorf("file-server leader %d after killing %d", now, old)
				return
			}
			if migrate {
				if rep, err = a.Migrate(job, false); err != nil {
					return
				}
				if st := c.PagerStatsFor(job.LHID); st != nil {
					faults = st.Faults
				}
			}
			code, err = a.Wait(job)
		})
		c.Run(2 * time.Minute)
		if !done || err != nil {
			t.Fatalf("migrate=%v: finished=%v, %v", migrate, done, err)
		}
		return code, c.Node(0).Display.Lines(), rep, faults
	}
	wantCode, wantLines, _, _ := run(false)
	code, lines, rep, faults := run(true)
	if rep.Policy != PolicyFlush.String() || faults == 0 {
		t.Fatalf("report policy %q, %d page-in faults: want a flush that paged in", rep.Policy, faults)
	}
	if code != wantCode || !reflect.DeepEqual(lines, wantLines) {
		t.Fatalf("migrated guest exited %d with %q; the unmigrated twin %d with %q", code, lines, wantCode, wantLines)
	}
}

// Name lookups must survive the name-server leader's death: the bounded
// Lookup retry lands on whichever replica regained authority.
func TestLookupSurvivesNameServerCrash(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 2, Seed: 1, ReplicateFS: 3})
	c.Sim.At(c.Sim.Now().Add(3*time.Second), func() {
		idx := nsLeaderIdx(c)
		if idx < 0 {
			t.Error("no name-server leader elected by 3s")
			return
		}
		c.FSHosts[idx].Crash()
	})
	var err error
	done := false
	c.Node(0).Agent(func(a *Agent) {
		a.Sleep(4 * time.Second)
		_, err = a.Resolve("progmgr.ws1")
		done = true
	})
	c.Run(30 * time.Second)
	if !done {
		t.Fatal("agent never finished")
	}
	if err != nil {
		t.Fatalf("lookup after ns-leader crash: %v", err)
	}
}

// Without replication the same crash loses the service: the non-replicated
// baseline demonstrates what the consensus layer buys.
func TestUnreplicatedLookupDiesWithServer(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 2, Seed: 1})
	c.Sim.At(c.Sim.Now().Add(3*time.Second), func() { c.FSHost.Crash() })
	var err error
	done := false
	c.Node(0).Agent(func(a *Agent) {
		a.Sleep(4 * time.Second)
		_, err = a.Resolve("progmgr.ws1")
		done = true
	})
	c.Run(30 * time.Second)
	if !done {
		t.Fatal("agent never finished")
	}
	if err == nil {
		t.Fatal("lookup succeeded with the only name server dead")
	}
}
