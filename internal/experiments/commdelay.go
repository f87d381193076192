package experiments

import (
	"fmt"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/vid"
	"vsystem/internal/workload"
)

// CommDuringMigration regenerates the §3.1.3 behavioural claim that has no
// numeric table but anchors the whole design: operations on a migrating
// program are *suspended, not aborted* — "operations that normally take a
// few milliseconds could take [longer] to complete", bounded by the freeze
// window plus a retransmission, and "critical system servers … are not
// subjected to inordinate delays".
//
// A client calls a migratable echo service every 50 ms while the service
// is migrated. Expected shape: zero failed or misordered operations; the
// slowest operation ≈ freeze time + at most one retransmission interval;
// operations outside the migration window stay at baseline latency.
func CommDuringMigration(seed int64) *Result {
	r := newResult("E7", "operations on a migrating program: delayed, never aborted (§3.1.3)")
	c := bootCluster(core.Options{Workstations: 4, Seed: seed})
	defer c.Close()
	c.Install(workload.ServiceImage("txmgr"))

	const calls = 150
	var latencies []float64 // ms
	failures, misordered := 0, 0
	var rep *core.MigrationReport
	var err error

	c.Node(0).Agent(func(a *core.Agent) {
		job, e := a.Exec("txmgr", nil, "ws1")
		if e != nil {
			err = e
			return
		}
		// The migration happens from a second agent mid-stream.
		c.Node(0).Agent(func(m *core.Agent) {
			m.Sleep(2 * time.Second)
			rep, err = m.Migrate(job, false)
		})
		for i := 0; i < calls; i++ {
			t0 := a.Now()
			reply, e := a.Ctx().Send(job.PID, vid.Message{
				Op: workload.OpEchoService,
				W:  [6]uint32{uint32(i)},
			})
			if e != nil || !reply.OK() || reply.W[1] != 1 {
				failures++
			} else if reply.W[0] != uint32(i) {
				misordered++
			}
			latencies = append(latencies, a.Now().Sub(t0).Seconds()*1000)
			a.Sleep(20 * time.Millisecond)
		}
	})
	c.Run(2 * time.Minute)
	if err != nil {
		r.check(false, "run failed: %v", err)
		return r
	}

	var maxMS, base float64
	slow := 0
	for i, l := range latencies {
		if l > maxMS {
			maxMS = l
		}
		if l > 25 {
			slow++
		}
		if i < 20 {
			base += l / 20
		}
	}

	r.row("operations aborted by the migration", "none (reply-pending defers)", fmt.Sprint(failures), "")
	r.row("operations answered out of order / wrongly", "none (exactly-once)", fmt.Sprint(misordered), "")
	r.row("baseline operation latency", "a few ms", ms(base), "echo with 2 ms service time")
	r.row("slowest operation during migration", "freeze + retransmission",
		ms(maxMS), fmt.Sprintf("freeze was %.0f ms", rep.FreezeTime.Seconds()*1000))
	r.row("operations visibly delayed (>25 ms)", "only those in the freeze window", fmt.Sprint(slow), "")
	r.metric("failures", float64(failures))
	r.metric("max_ms", maxMS)
	r.metric("base_ms", base)
	r.check(failures == 0, "%d operations failed", failures)
	r.check(misordered == 0, "%d operations misordered", misordered)
	r.check(base < 15, "baseline latency %.1fms too high", base)
	frzMS := rep.FreezeTime.Seconds() * 1000
	r.check(maxMS < frzMS+450, "max latency %.0fms far above freeze %.0fms + retransmits", maxMS, frzMS)
	r.check(slow >= 1 && slow <= 10, "%d delayed ops — freeze window not exercised or too disruptive", slow)
	r.check(maxMS > frzMS/2, "max latency %.0fms did not reflect the %.0fms freeze — window missed", maxMS, frzMS)
	return r
}
