package core

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden migration reports")

// parityReport is the exact field set MigrationReport carried before the
// copy-policy extraction. The golden files under testdata/ were generated
// against the pre-refactor inline copy loops; projecting through this
// struct keeps the comparison byte-for-byte on those fields while letting
// the report grow new (post-copy) fields without invalidating the pin.
//
// Regenerated once since, when the program manager's workers stopped
// polling: the source CPU no longer serves 800 kernel-priority frozen-check
// grants a second beside the copy, so every round is ~1 % shorter (round 1
// 972.3 → 964.8 ms), tex dirties correspondingly fewer pages in it (round 2
// 88 → 83 KB), and the later rounds, residue and freeze time follow.
//
// Regenerated a second time when gob left the wire: the KsSetState segment
// that crosses inside the freeze window shrank (a one-process LHState 892 →
// 187 B), so KernelTime is 0.464 ms shorter (35.8684 → 35.4044 ms) and
// FreezeTime and Total are shorter by exactly that. Sizes only: every round
// — pages, KB, duration, rate — the residue, the byte counts and the window
// counters are unchanged.
type parityReport struct {
	Policy      string
	Rounds      []RoundStat
	ResidualKB  float64
	FreezeTime  time.Duration
	KernelItems int
	KernelTime  time.Duration
	Total       time.Duration
	BytesCopied int64
	DestHost    uint16
	NewPM       uint32

	WireBytes       int64
	WindowSize      int
	WindowSends     int64
	WindowStalls    int64
	WindowOccupancy float64
}

func project(r *MigrationReport) parityReport {
	return parityReport{
		Policy: r.Policy, Rounds: r.Rounds, ResidualKB: r.ResidualKB,
		FreezeTime: r.FreezeTime, KernelItems: r.KernelItems,
		KernelTime: r.KernelTime, Total: r.Total, BytesCopied: r.BytesCopied,
		DestHost: uint16(r.DestHost), NewPM: uint32(r.NewPM),
		WireBytes: r.WireBytes, WindowSize: r.WindowSize,
		WindowSends: r.WindowSends, WindowStalls: r.WindowStalls,
		WindowOccupancy: r.WindowOccupancy,
	}
}

// parityScenario runs the fixed migration scenario the goldens pin: boot
// three workstations on seed 7, run the paper's "tex" workload (the
// highest dirty rate in Table 4-1, so pre-copy rounds and the flush
// residue are all exercised) and migrate it off its home host 4 s in.
func parityScenario(t *testing.T, policy Policy) *MigrationReport {
	t.Helper()
	c := boot(t, Options{Workstations: 3, Seed: 7, Policy: policy})
	var rep *MigrationReport
	var err error
	c.Node(1).Agent(func(a *Agent) {
		var job *Job
		job, err = a.Exec("tex", nil, "")
		if err != nil {
			return
		}
		a.Sleep(4 * time.Second)
		rep, err = a.Migrate(job, false)
	})
	c.Run(60 * time.Second)
	if err != nil {
		t.Fatalf("%v migration: %v", policy, err)
	}
	return rep
}

func checkGolden(t *testing.T, name string, rep *MigrationReport) {
	t.Helper()
	got, jerr := json.MarshalIndent(project(rep), "", "  ")
	if jerr != nil {
		t.Fatal(jerr)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("report diverged from pre-refactor golden %s\n got: %s\nwant: %s",
			name, got, want)
	}
}

// TestPrecopyReportParity and TestFlushReportParity are the copy-policy
// refactor's safety net: the extracted policies must reproduce the
// pre-refactor inline loops' reports byte for byte — same rounds, same
// byte counts, same virtual-time durations.
func TestPrecopyReportParity(t *testing.T) {
	t.Parallel()
	checkGolden(t, "report_precopy.json", parityScenario(t, PolicyPrecopy))
}

func TestFlushReportParity(t *testing.T) {
	t.Parallel()
	checkGolden(t, "report_flush.json", parityScenario(t, PolicyFlush))
}
