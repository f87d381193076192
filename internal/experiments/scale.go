package experiments

import (
	"fmt"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/workload"
)

// SelectionScaling probes the §2.1 claim that first-responder selection
// "performs well at minimal cost for reasonably small systems": the time
// to the *first* response stays flat as the cluster grows (every idle host
// evaluates in parallel), while the total processing overhead — every
// manager pays the evaluation cost and the requester absorbs the extra
// responses — grows with cluster size. The paper's own cluster had ~25
// machines.
func SelectionScaling(seed int64) *Result {
	r := newResult("E8", "decentralized selection vs cluster size (§2.1)")

	sizes := []int{5, 10, 25}
	var firstMS []float64
	for _, n := range sizes {
		c := bootCluster(core.Options{Workstations: n, Seed: seed})
		defer c.Close()
		var sel float64
		var rxExtra int64
		var err error
		c.Node(0).Agent(func(a *core.Agent) {
			a.Sleep(time.Second) // boot-time registrations settle
			var lat []float64
			for i := 0; i < 8; i++ {
				before := c.Node(0).Host.IPC.Stats().RxPackets
				t0 := a.Now()
				if _, e := a.Select(64 * 1024); e != nil {
					err = e
					return
				}
				lat = append(lat, a.Now().Sub(t0).Seconds()*1000)
				// Later responses keep arriving; count them after a beat.
				a.Sleep(200 * time.Millisecond)
				rxExtra += c.Node(0).Host.IPC.Stats().RxPackets - before
			}
			sel = mean(lat)
		})
		c.Run(time.Minute)
		if err != nil {
			r.check(false, "n=%d: %v", n, err)
			return r
		}
		firstMS = append(firstMS, sel)
		r.row(fmt.Sprintf("%2d workstations: first response", n), "≈23 ms (flat)",
			ms(sel), fmt.Sprintf("%.0f packets received per query", float64(rxExtra)/8))
		r.metric(fmt.Sprintf("select_ms_%d", n), sel)
	}
	// Shape: flat within noise across a 5x size range.
	r.check(firstMS[len(firstMS)-1] < firstMS[0]*1.6+5,
		"selection degraded with size: %.1f → %.1f ms", firstMS[0], firstMS[len(firstMS)-1])
	for _, v := range firstMS {
		r.check(v > 10 && v < 46, "first response %.1fms not ≈23ms", v)
	}
	return r
}

// MigrationUnderLoss probes the §3.1.3 reliability machinery end to end:
// migrations complete correctly under increasing Ethernet frame-loss
// rates, with freeze times degrading gracefully (lost residue frames are
// NACK-repaired inside the freeze window).
func MigrationUnderLoss(seed int64) *Result {
	r := newResult("A4", "migration under packet loss (§3.1.3 reliability)")

	rates := []float64{0, 0.02, 0.05, 0.10}
	var freezes []float64
	for _, rate := range rates {
		c := bootCluster(core.Options{Workstations: 3, Seed: seed, LossRate: rate})
		defer c.Close()
		tex, _ := workload.PaperSpec("tex")
		c.Install(workload.Image(forever(tex), 0))
		var rep *core.MigrationReport
		var err error
		var lines int
		c.Node(0).Agent(func(a *core.Agent) {
			spec := workload.Spec{Name: "texout", HotKB: 96, HotRateKBps: 550,
				StreamKBps: 15.6, StreamKB: 192, DurationMs: 0, OutputEveryMs: 500}
			c.Install(workload.Image(spec, 0))
			job, e := a.Exec("texout", nil, "ws1")
			if e != nil {
				err = e
				return
			}
			a.Sleep(4 * time.Second)
			rep, err = a.Migrate(job, false)
			if err != nil {
				return
			}
			a.Sleep(4 * time.Second)
			lines = len(c.Node(0).Display.Lines())
		})
		c.Run(2 * time.Minute)
		if err != nil {
			r.check(false, "loss %.0f%%: %v", rate*100, err)
			return r
		}
		frz := rep.FreezeTime.Seconds() * 1000
		freezes = append(freezes, frz)
		r.row(fmt.Sprintf("loss %4.0f%%: migration", rate*100), "completes; freeze grows gracefully",
			fmt.Sprintf("ok, %d rounds, frozen %.0f ms", len(rep.Rounds), frz),
			fmt.Sprintf("%d output lines kept flowing", lines))
		r.metric(fmt.Sprintf("freeze_ms_loss%02.0f", rate*100), frz)
		r.check(lines > 10, "output stalled at %.0f%% loss", rate*100)
	}
	// The claim is bounded degradation, not a fixed ratio: each frame
	// lost inside the freeze window costs about one retransmission
	// interval, so even at 10% loss the freeze stays within a few
	// seconds (vs. aborting or hanging).
	r.check(freezes[len(freezes)-1] < 4000,
		"freeze exploded under loss: %.0f → %.0f ms", freezes[0], freezes[len(freezes)-1])
	return r
}
