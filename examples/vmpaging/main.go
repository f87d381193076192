// VM paging: the §3.2 migration variant (Figure 3-1). Instead of copying
// the address spaces host-to-host, the source flushes pages to the network
// file server; the new host demand-faults them back in. Pages dirty on the
// old host and then referenced on the new one cross the network twice —
// the cost the paper predicted would stay small.
package main

import (
	"fmt"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/workload"
)

func main() {
	run := func(policy core.Policy) (*core.MigrationReport, *core.PagerStats, *core.Cluster, *core.Job) {
		c := core.NewCluster(core.Options{Workstations: 4, Seed: 3, Policy: policy})
		tex, _ := workload.PaperSpec("tex")
		c.Install(workload.Image(tex, 220*1024))
		var rep *core.MigrationReport
		var job *core.Job
		c.Node(0).Agent(func(a *core.Agent) {
			var err error
			job, err = a.Exec("tex", nil, "ws1")
			must(err)
			a.Sleep(4 * time.Second)
			rep, err = a.Migrate(job, false)
			must(err)
			a.Sleep(10 * time.Second) // let the new copy fault its pages in
		})
		c.Run(time.Minute)
		return rep, c.PagerStatsFor(job.LHID), c, job
	}

	fmt.Println("migrating tex (≈400 KB of state) with both mechanisms:")

	pre, _, _, _ := run(core.PolicyPrecopy)
	fmt.Printf("\npre-copy (§3.1): host-to-host page runs\n")
	fmt.Printf("  rounds %d, residual %.1f KB, frozen %v, %0.f KB on the wire\n",
		len(pre.Rounds), pre.ResidualKB, pre.FreezeTime, float64(pre.BytesCopied)/1024)

	fl, pg, _, _ := run(core.PolicyFlush)
	fmt.Printf("\nflush to file server (§3.2): pages via the paging store\n")
	fmt.Printf("  rounds %d, residual %.1f KB, frozen %v, %0.f KB flushed\n",
		len(fl.Rounds), fl.ResidualKB, fl.FreezeTime, float64(fl.BytesCopied)/1024)
	fmt.Printf("  demand faults on the new host: %d (%.0f KB moved twice)\n",
		pg.Faults, pg.FaultKB())

	fmt.Println("\nshape: both freeze only for the residue; the flush variant")
	fmt.Println("frees the source without talking to the new host, at the cost")
	fmt.Println("of a second network crossing for pages referenced after the move.")
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
