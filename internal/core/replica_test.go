package core

import (
	"testing"
	"time"
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
