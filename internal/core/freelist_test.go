package core

import (
	"fmt"
	"testing"
	"time"

	"vsystem/internal/freelist"
	"vsystem/internal/workload"
)

// TestCopyListsStayUnderTheirBounds records each free list's high-water
// mark over a migrate-like run — two paper guests migrated around every
// second under each copy policy at 1 % loss — and holds it below the
// list's bound: a Put never found its list full, so a list that misses
// there is one whose buffers are not handed back (a frame the bus drops
// was one, until the bus handed its payload back). The bounds were set from
// these marks and from bench's workloads (DESIGN §8).
func TestCopyListsStayUnderTheirBounds(t *testing.T) {
	t.Parallel()
	for _, pol := range []Policy{PolicyPrecopy, PolicyPostcopy, PolicyHybrid, PolicyFlush} {
		t.Run(pol.String(), func(t *testing.T) {
			t.Parallel()
			c := boot(t, Options{Workstations: 4, Seed: 5, LossRate: 0.01, Policy: pol})
			for _, name := range []string{"tex", "parser"} {
				spec, _ := workload.PaperSpec(name)
				spec.Name, spec.DurationMs = "g-"+name, 0 // runs until the cluster is closed
				c.Install(workload.Image(spec, 32*1024))
			}
			var errs []error
			for i, name := range []string{"tex", "parser"} {
				c.Node(0).Agent(func(a *Agent) {
					job, err := a.ExecR("g-"+name, nil, fmt.Sprintf("ws%d", i+1), 0)
					for k := 0; k < 6 && err == nil; k++ {
						a.Sleep(time.Second)
						_, err = a.Migrate(job, false)
					}
					if err != nil {
						errs = append(errs, err)
					}
				})
			}
			c.Run(15 * time.Second)
			if len(errs) > 0 || c.Bus.Stats().Dropped == 0 {
				t.Fatalf("migrations: %v, %d frames dropped", errs, c.Bus.Stats().Dropped)
			}
			lists := []struct {
				name string
				l    *freelist.Bytes
			}{{"frame payloads", c.Bus.FrameBufs()}, {"page frames", c.Bus.PageFrames()}, {"segment buffers", c.Node(0).Host.NIC.SegBufs()}}
			for _, l := range lists {
				t.Logf("%s: held at most %d of %d", l.name, l.l.High(), l.l.Bound())
				if l.l.High() == 0 || l.l.High() >= l.l.Bound() {
					t.Errorf("%s: held at most %d of %d; want some, and never a full list", l.name, l.l.High(), l.l.Bound())
				}
			}
			for _, n := range c.Nodes {
				if l := n.PM.PagerCalls(); l != nil && l.High() >= l.Bound() {
					t.Errorf("%s's pager calls: held at most %d of %d", n.Name(), l.High(), l.Bound())
				}
			}
		})
	}
}
