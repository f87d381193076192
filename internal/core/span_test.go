package core

import (
	"testing"
	"time"

	"vsystem/internal/trace"
)

// TestMigrationSpanSequence migrates tex and checks the published phase
// spans against §3.1.2's structure: select → N×precopy → residue → swap →
// rebind form a well-formed, non-overlapping chain in virtual time, and
// the enclosing freeze window's duration equals the reported FreezeTime.
func TestMigrationSpanSequence(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 3, Seed: 17})
	var rep *MigrationReport
	var err error
	var job *Job
	c.Node(0).Agent(func(a *Agent) {
		job, err = a.Exec("tex", nil, "ws1")
		if err != nil {
			return
		}
		a.Sleep(3 * time.Second)
		rep, err = a.Migrate(job, false)
	})
	c.Run(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	spans := c.Trace.SpansFor(job.LHID)
	if len(spans) == 0 {
		t.Fatal("migration published no spans")
	}

	// Split off the freeze window (published last, at unfreeze); the rest
	// is the strictly sequential phase chain.
	var freeze *trace.Span
	var chain []trace.Span
	for i := range spans {
		if spans[i].Phase == trace.PhaseFreeze {
			if freeze != nil {
				t.Fatal("more than one freeze span")
			}
			freeze = &spans[i]
		} else {
			chain = append(chain, spans[i])
		}
	}
	if freeze == nil {
		t.Fatal("no freeze span published")
	}

	// Phase sequence: select, precopy round 0..N-1, residue, swap, rebind.
	var wantPhases []trace.Phase
	var wantRounds []int
	wantPhases = append(wantPhases, trace.PhaseSelect)
	wantRounds = append(wantRounds, 0)
	for k := range rep.Rounds {
		wantPhases = append(wantPhases, trace.PhasePrecopy)
		wantRounds = append(wantRounds, k)
	}
	wantPhases = append(wantPhases, trace.PhaseResidue, trace.PhaseSwap, trace.PhaseRebind)
	wantRounds = append(wantRounds, 0, 0, 0)
	if len(chain) != len(wantPhases) {
		t.Fatalf("chain has %d spans, want %d (%d pre-copy rounds): %v", len(chain), len(wantPhases), len(rep.Rounds), chain)
	}
	for i, s := range chain {
		if s.Phase != wantPhases[i] || s.Round != wantRounds[i] {
			t.Fatalf("span %d = %v[%d], want %v[%d]", i, s.Phase, s.Round, wantPhases[i], wantRounds[i])
		}
	}
	if len(rep.Rounds) < 1 {
		t.Fatalf("tex migration ran %d pre-copy rounds, want at least 1", len(rep.Rounds))
	}

	// Well-formed and non-overlapping in virtual time.
	for i, s := range chain {
		if s.End < s.Start {
			t.Fatalf("span %v ends before it starts", s)
		}
		if i > 0 && s.Start < chain[i-1].End {
			t.Fatalf("span %v overlaps previous %v", s, chain[i-1])
		}
	}

	// Pre-copy rounds must report the Kbytes the harness saw.
	for k, r := range rep.Rounds {
		if got := chain[1+k].KB; got != r.KB {
			t.Fatalf("round %d span KB = %.1f, report = %.1f", k, got, r.KB)
		}
	}

	// The freeze window starts with the residue copy, ends with the rebind
	// acknowledgment, and its duration is exactly the reported FreezeTime.
	residue := chain[len(chain)-3]
	rebind := chain[len(chain)-1]
	if freeze.Start != residue.Start {
		t.Fatalf("freeze starts at %v, residue at %v", freeze.Start, residue.Start)
	}
	if freeze.End != rebind.End {
		t.Fatalf("freeze ends at %v, rebind at %v", freeze.End, rebind.End)
	}
	if freeze.Dur() != rep.FreezeTime {
		t.Fatalf("freeze span %v != reported FreezeTime %v", freeze.Dur(), rep.FreezeTime)
	}

	// The kernel's freeze/unfreeze events must bracket the window too.
	if c.Trace.Count(trace.EvFreeze) == 0 || c.Trace.Count(trace.EvUnfreeze) == 0 {
		t.Fatal("no kernel freeze/unfreeze events on the bus")
	}
}
