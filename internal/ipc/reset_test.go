package ipc

import (
	"testing"
	"time"

	"vsystem/internal/sim"
)

// TestResetDropsQueuedJobs: protocol work queued for netd before a crash
// must not execute on the restarted kernel. netd discards jobs only lazily
// (it checks down when popping), so a crash followed quickly by a restart
// would otherwise let pre-crash jobs run against fresh kernel state; Reset
// has to drain the queue.
func TestResetDropsQueuedJobs(t *testing.T) {
	r := newRig(t, 1, 1)
	e := r.hosts[0].eng

	var preCrash, postRestart bool
	e.jobs.Push(job{fn: func(*sim.Task) { preCrash = true }})
	e.SetDown(true) // crash before netd pops the job
	e.Reset()       // reboot: fresh kernel, powered back on
	e.jobs.Push(job{fn: func(*sim.Task) { postRestart = true }})

	r.sim.RunFor(time.Second)
	if preCrash {
		t.Fatal("job queued before the crash executed on the restarted kernel")
	}
	if !postRestart {
		t.Fatal("job queued after the restart never executed")
	}
}
