package core

import (
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"vsystem/internal/mem"
	"vsystem/internal/progs"
	"vsystem/internal/sim"
)

// allocsOfAtLeast counts the heap allocations made so far whose size class
// reaches size bytes. The runtime books an allocation when the span it came
// from is flushed, which a collection forces: collect first.
func allocsOfAtLeast(size int) uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/allocs-by-size:bytes"}}
	metrics.Read(s)
	h := s[0].Value.Float64Histogram()
	var n uint64
	for i, c := range h.Counts {
		if h.Buckets[i+1] > float64(size) { // the bucket's largest size is ≥ size
			n += c
		}
	}
	return n
}

// TestExecLeavesNoImageOrPages: once a first execution has filled the free
// lists, running a program whose stored file is 64 KB of padding on the
// other workstation — select by name, create (a stat, three reads: 32 KB,
// 32 KB and the tail), start, run, print, exit, the manager's reaper
// destroying the logical host, the wait answered — costs the whole cluster
// a few kilobytes of small objects: transactions, requests, cached replies,
// the task, the image's 100-odd bytes of header. It leaves no image (64 KB),
// no reassembled read (32 KB) and no page (1 KB) behind: not one allocation
// of a page's size or more per execution.
//
// Not parallel: the allocation counters are the process's.
func TestExecLeavesNoImageOrPages(t *testing.T) {
	c := boot(t, Options{Workstations: 2, Seed: 3})
	img := progs.Hello()
	img.Name, img.Pad = "hello64k", 64<<10
	c.Install(img)

	var next sim.WaitQ
	var execErr error
	runs := 0
	c.Node(0).Agent(func(a *Agent) {
		for execErr == nil {
			var job *Job
			if job, execErr = a.ExecR(img.Name, nil, "ws1", 0); execErr == nil {
				_, execErr = a.Wait(job)
			}
			runs++
			next.Wait(a.Ctx().Task())
		}
	})
	once := func() {
		next.WakeOne()
		for done, t0 := runs, c.Sim.Now(); runs == done && c.Sim.Now().Sub(t0) < time.Minute; {
			c.Run(100 * time.Millisecond)
		}
	}
	c.Run(5 * time.Second) // boot and the warm-up execution
	once()
	if execErr != nil || runs != 2 {
		t.Fatalf("warm-up: %d executions, %v", runs, execErr)
	}
	frames := c.Bus.PageFrames().Len()
	if frames == 0 {
		t.Fatal("a destroyed program returned no page frame")
	}

	// Twice the 32 logical-host slots of a workstation: from the 33rd on,
	// each program has an earlier one's PID, under the slot's next
	// generation.
	const n = 64
	big := allocsOfAtLeast(mem.PageSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		once()
	}
	runtime.ReadMemStats(&after)
	big = allocsOfAtLeast(mem.PageSize) - big
	if execErr != nil || runs != n+2 {
		t.Fatalf("%d executions, want %d; error %v", runs, n+2, execErr)
	}
	if got := c.Bus.PageFrames().Len(); got != frames {
		t.Errorf("free list of page frames went %d → %d over %d executions: every frame taken should come back", frames, got, n)
	}
	perExec := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes allocated per execution, %d allocations of a page's size or more in %d executions", perExec, big, n)
	// Measured 15.3 KB (two workstations and a file server, go1.24), pinned
	// with a third of headroom; one reassembled read would add 32 KB, the
	// image 64 KB. The few large allocations that do happen are tables
	// growing (9 in 64 executions when measured), not one per execution.
	if perExec > 20<<10 {
		t.Errorf("%d bytes allocated per execution, budget 20 KB", perExec)
	}
	if big >= n {
		t.Errorf("%d allocations of %d bytes or more in %d executions: an image, a segment or a page is being made per execution", big, mem.PageSize, n)
	}
}
