package core

import (
	"testing"
	"time"

	"vsystem/internal/packet"
	"vsystem/internal/params"
	"vsystem/internal/sched"
)

// TestBeaconsReachOnlyListeners: a load beacon goes to the listener group,
// which a station joins at its first load-aware selection. Before it, the
// station takes no beacon and its kernel pays for nothing but its own
// beacons; from it, the station hears every other workstation once per
// interval; a crash takes it out of the group until it selects again.
func TestBeaconsReachOnlyListeners(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 8, Seed: 1, Select: sched.RandomK{K: 2}})
	const others = 7 // the file server does not beacon
	n := c.Node(3)
	type sample struct {
		ads, rx, tx int64
		kernel      time.Duration
	}
	now := func() sample {
		s := n.Host.IPC.Stats()
		return sample{s.RxByKind[packet.KLoadAd], s.RxPackets, s.TxPackets, n.Host.CPU.Busy(params.PrioKernel)}
	}
	selectOnce := func() {
		var err error
		n.Agent(func(a *Agent) { _, err = a.Select(ExecMinMem) })
		c.Run(time.Second)
		if err != nil {
			t.Fatal(err)
		}
	}

	c.Run(2 * time.Second) // boot registrations
	s0 := now()
	c.Run(5 * params.LoadBeaconInterval)
	s1 := now()
	if s1.ads != 0 {
		t.Fatalf("a station that never selected received %d beacons, want 0", s1.ads)
	}
	if s1.rx != s0.rx || s1.kernel-s0.kernel != time.Duration(s1.tx-s0.tx)*params.SmallPktSendCPU {
		t.Fatalf("silent station: kernel CPU %v for %d sends and %d receipts, want only its sends' %v",
			s1.kernel-s0.kernel, s1.tx-s0.tx, s1.rx-s0.rx, time.Duration(s1.tx-s0.tx)*params.SmallPktSendCPU)
	}

	selectOnce()
	s2 := now()
	c.Run(5 * params.LoadBeaconInterval)
	s3 := now()
	if got, want := s3.ads-s2.ads, int64(5*others); got != want {
		t.Fatalf("a listener received %d beacons in 5 intervals, want %d", got, want)
	}
	if got, want := s3.kernel-s2.kernel, time.Duration(s3.tx-s2.tx)*params.SmallPktSendCPU+time.Duration(s3.ads-s2.ads)*params.LoadAdRecvCPU; s3.rx-s2.rx != s3.ads-s2.ads || got != want {
		t.Fatalf("listener: kernel CPU %v for %d receipts (%d beacons), want %v", got, s3.rx-s2.rx, s3.ads-s2.ads, want)
	}

	n.Host.Crash()
	c.Run(time.Second)
	n.Restart()
	c.Run(time.Second)
	s4 := now()
	c.Run(5 * params.LoadBeaconInterval)
	if got := now().ads - s4.ads; got != 0 {
		t.Fatalf("after a restart, before selecting again, the station received %d beacons, want 0", got)
	}

	selectOnce()
	s5 := now()
	c.Run(params.LoadBeaconInterval)
	if got := now().ads - s5.ads; got != others {
		t.Fatalf("after selecting again the station received %d beacons in an interval, want %d", got, others)
	}
}
