package core_test

import (
	"fmt"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/progs"
)

// Example shows the paper's basic flow: run a program on "some other
// lightly loaded machine" with @ *, wait for it, and read its output from
// the home workstation's display. The simulation is deterministic, so the
// output is exact.
func Example() {
	c := core.NewCluster(core.Options{Workstations: 3, Seed: 1})
	c.Install(progs.Primes(100))

	c.Node(0).Agent(func(a *core.Agent) {
		job, err := a.Exec("primes100", nil, "*")
		if err != nil {
			panic(err)
		}
		code, err := a.Wait(job)
		if err != nil {
			panic(err)
		}
		fmt.Printf("ran on %s, exit %d\n", job.Host, code)
	})
	c.Run(time.Minute)
	fmt.Printf("display: %v\n", c.Node(0).Display.Lines())
	// Output:
	// ran on ws2, exit 25
	// display: [25]
}

// Example_migrateprog shows preemption: the owner of the execution host
// evicts the guest with migrateprog; the program finishes elsewhere with
// its output intact. ws0 and ws2 are equally idle, so under first-response
// selection the guest goes to whichever answers the multicast first: ws0,
// the lower station. (It was ws2 while each manager's four poll loops put
// 800 kernel-priority CPU grants a second, at a phase of their own, in
// front of the reply.)
func Example_migrateprog() {
	c := core.NewCluster(core.Options{Workstations: 3, Seed: 2})
	c.Install(progs.Ticker(40))

	c.Node(0).Agent(func(a *core.Agent) {
		job, _ := a.Exec("ticker40", nil, "ws1")
		a.Sleep(500 * time.Millisecond)
		rep, err := a.Migrate(job, false)
		if err != nil {
			panic(err)
		}
		fmt.Printf("moved to %v after %d pre-copy round(s)\n",
			c.NodeByLH(rep.DestHost).Name(), len(rep.Rounds))
		a.Wait(job)
	})
	c.Run(5 * time.Minute)
	lines := c.Node(0).Display.Lines()
	fmt.Printf("%d lines, last %q\n", len(lines), lines[len(lines)-1])
	// Output:
	// moved to ws0 after 1 pre-copy round(s)
	// 40 lines, last "t40"
}
