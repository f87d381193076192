package experiments

import (
	"fmt"
	"time"

	"vsystem/internal/core"
)

// PrecopyRounds ablates the pre-copy stopping policy — the design choice
// behind the paper's "usually 2 pre-copy iterations were useful" (§4.1).
// The iteration cap is swept from 1 (a single full copy, then freeze) to 6
// on the heaviest dirtier (tex): freeze time drops sharply from 1 to 2-3
// rounds and then flattens, while total migration time and bytes keep
// growing — the diminishing-returns curve that justifies stopping early.
func PrecopyRounds(seed int64) *Result {
	r := newResult("A5", "ablation: how many pre-copy iterations are useful (§3.1.2, §4.1)")

	var freezes []float64
	for _, cap := range []int{1, 2, 3, 4, 6} {
		// The auxiliary stop conditions are disabled so the cap is the only
		// policy.
		c := bootCluster(core.Options{
			Workstations: 3, Seed: seed,
			PrecopyMaxRounds: cap, PrecopyStopKB: 1, PrecopyMinShrink: 1.0,
		})
		defer c.Close()
		m := migrateAfter(c.Node(0), "tex", "ws1", 4*time.Second)
		c.Run(time.Minute)
		if err := m.failed(); err != nil {
			r.check(false, "cap=%d: %v", cap, err)
			return r
		}
		rep := m.rep
		frz := rep.FreezeTime.Seconds() * 1000
		freezes = append(freezes, frz)
		r.row(fmt.Sprintf("%d iteration(s)", cap),
			"2 useful; more: diminishing returns",
			fmt.Sprintf("freeze %4.0f ms, residual %5.1f KB, total %.2f s, %3.0f KB copied",
				frz, rep.ResidualKB, rep.Total.Seconds(), float64(rep.BytesCopied)/1024),
			fmt.Sprintf("%d rounds actually run", len(rep.Rounds)))
		r.metric(fmt.Sprintf("freeze_ms_cap%d", cap), frz)
		r.metric(fmt.Sprintf("total_s_cap%d", cap), rep.Total.Seconds())
	}
	// Shape: the second iteration buys a large freeze reduction...
	r.check(freezes[1] < freezes[0]*0.6,
		"second iteration bought little: %.0f → %.0f ms", freezes[0], freezes[1])
	// ...and beyond three the curve is flat (within 2x of the 3-round
	// point — page quantization makes tiny residues noisy).
	for i := 2; i < len(freezes); i++ {
		r.check(freezes[i] < freezes[2]*2+30,
			"cap %d freeze %.0fms regressed vs 3-round %.0fms", []int{1, 2, 3, 4, 6}[i], freezes[i], freezes[2])
	}
	return r
}
