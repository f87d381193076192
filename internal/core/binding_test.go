package core

import (
	"testing"
	"time"

	"vsystem/internal/packet"
	"vsystem/internal/sched"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// §3.1.4's binding cache is filled from the packets a kernel sees, and a
// locate is broadcast only for a binding none of them carried. Starting a
// program and probing a beaconing host both go to a station whose binding
// was just on the wire: the create reply names the new logical host, and a
// beacon comes from its host's program manager. Neither needs a locate.

// TestExecBroadcastsNoLocate: on the paper's 25 hosts under first-response
// selection, twenty remote executions select, create, start, print and
// exit without one locate anywhere in the cluster.
func TestExecBroadcastsNoLocate(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 25, Seed: 1})
	c.Run(2 * time.Second) // registrations
	locates := 0
	c.Trace.Subscribe(func(ev trace.Event) {
		if ev.Kind == trace.EvLocate {
			locates++
		}
	})
	const n = 20
	done := 0
	var err error
	c.Node(0).Agent(func(a *Agent) {
		for ; done < n && err == nil; done++ {
			var job *Job
			if job, err = a.ExecR("hello", nil, "*", 0); err == nil {
				_, err = a.Wait(job)
			}
		}
	})
	c.Run(time.Minute)
	if err != nil || done != n {
		t.Fatalf("%d of %d executions: %v", done, n, err)
	}
	if locates != 0 {
		t.Fatalf("%d locates broadcast during %d executions, want 0", locates, n)
	}
}

// TestProbeOfBeaconingHostBroadcastsNoLocate: under random-2 past the
// beacon warm-up, a workstation listening for beacons sends its warm-path
// probe to a host it has never sent a request to, and broadcasts no
// locate for it.
func TestProbeOfBeaconingHostBroadcastsNoLocate(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 8, Seed: 2, Select: sched.RandomK{K: 2}})
	me := uint16(c.Node(0).Host.NIC.MAC())
	contacted := make(map[vid.LHID]bool) // before the selection began
	var probed []vid.LHID
	selecting := false
	locates := 0
	c.Trace.Subscribe(func(ev trace.Event) {
		if ev.Host != me {
			return
		}
		switch {
		case ev.Kind == trace.EvSelectQuery:
			selecting = true
		case ev.Kind == trace.EvPktTx && !selecting && ev.Pkt.Kind == packet.KRequest && !ev.Pkt.Dst.IsGroup():
			contacted[ev.Pkt.Dst.LH()] = true
		case ev.Kind == trace.EvSelectProbe:
			probed = append(probed, ev.LH)
		case ev.Kind == trace.EvLocate && selecting && len(probed) == 0:
			locates++ // from the query to the first probe's answer
		}
	})
	var err error
	c.Node(0).Agent(func(a *Agent) {
		c.Node(0).Host.ListenForLoad()
		a.Sleep(3 * time.Second) // every host has beaconed
		_, err = a.Select(ExecMinMem)
	})
	c.Run(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(probed) == 0 {
		t.Fatal("no warm-path probe: the scenario tests nothing")
	}
	if contacted[probed[0]] {
		t.Fatalf("the probed host %v was contacted before: the scenario tests nothing", probed[0])
	}
	if locates != 0 {
		t.Fatalf("%d locates broadcast for the probe of a beaconing host, want 0", locates)
	}
}
