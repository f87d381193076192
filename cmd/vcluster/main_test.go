package main

import (
	"fmt"
	"strings"
	"testing"

	"vsystem/internal/core"
)

// script drives the REPL with a command script and returns its output.
func script(t *testing.T, opt core.Options, cmds string) string {
	t.Helper()
	var out strings.Builder
	r := newRepl(opt, &out)
	r.loop(strings.NewReader(cmds))
	return out.String()
}

func TestScriptedSession(t *testing.T) {
	out := script(t, core.Options{Workstations: 4, Seed: 1}, `
# a comment
run hello @ ws1
wait j1
run tex @ ws2
ps ws2
migrate j2
display ws0
hosts
quit
`)
	for _, w := range []string{
		"j1: hello on ws1",
		"hello exited with code 0",
		"j2: tex on ws2",
		"guest=true",
		"tex migrated (precopy)",
		"ws0| hello from the VVM",
		"ws1 ",
	} {
		if !strings.Contains(out, w) {
			t.Fatalf("output missing %q:\n%s", w, out)
		}
	}
}

// TestScriptedMigrateEveryPolicy pins `vcluster -policy`: each of its
// spellings parses, and a migration under it reports the policy's name.
func TestScriptedMigrateEveryPolicy(t *testing.T) {
	for spelling, name := range map[string]string{
		"precopy":       "precopy",
		"stopcopy":      "stop-and-copy",
		"stop-and-copy": "stop-and-copy",
		"flush":         "vm-flush",
		"vm-flush":      "vm-flush",
		"postcopy":      "postcopy",
		"hybrid":        "hybrid",
	} {
		pol, err := core.ParsePolicy(spelling)
		if err != nil {
			t.Fatalf("-policy %s: %v", spelling, err)
		}
		out := script(t, core.Options{Workstations: 3, Seed: 8, Policy: pol}, `
run tex @ ws1
advance 3s
migrate j1
`)
		if w := "tex migrated (" + name + ")"; !strings.Contains(out, w) {
			t.Fatalf("-policy %s: output missing %q:\n%s", spelling, w, out)
		}
	}
}

func TestScriptedErrors(t *testing.T) {
	out := script(t, core.Options{Workstations: 2, Seed: 2}, `
run nosuchprogram
wait j9
migrate j9
ps
frobnicate
crash ws9
advance xyz
`)
	for _, w := range []string{
		"! v: not-found",
		`! unknown job "j9"`,
		"! ps <host>",
		`! unknown command "frobnicate"`,
		`! no such host "ws9"`,
		"! time: invalid duration",
	} {
		if !strings.Contains(out, w) {
			t.Fatalf("output missing %q:\n%s", w, out)
		}
	}
}

func TestScriptedCrashAndAdvance(t *testing.T) {
	out := script(t, core.Options{Workstations: 3, Seed: 3}, `
crash ws2
hosts
advance 1500ms
time
`)
	if !strings.Contains(out, "ws2 crashed") || !strings.Contains(out, "ws2    crashed") {
		t.Fatalf("crash not reflected:\n%s", out)
	}
	if !strings.Contains(out, "clock: 1.5") {
		t.Fatalf("advance not reflected:\n%s", out)
	}
}

func TestScriptedMigrateKill(t *testing.T) {
	// The only other workstation (ws0) runs the owner's local program, so
	// no host will take the guest: migrate -n destroys it.
	out := script(t, core.Options{Workstations: 2, Seed: 4}, `
run tex
run ticker100 @ ws1
advance 2s
migrate -n j2
`)
	if !strings.Contains(out, "destroyed (no host would accept it)") {
		t.Fatalf("migrate -n did not destroy:\n%s", out)
	}
}

func TestScriptedSuspendResumeInspect(t *testing.T) {
	out := script(t, core.Options{Workstations: 3, Seed: 5}, `
run ticker100 @ ws1
suspend j1
inspect j1
advance 5s
resume j1
wait j1
`)
	for _, w := range []string{
		"ticker100 suspended",
		"running", // inspect shows the process table state (started)
		"ticker100 resumed",
		"ticker100 exited with code 0",
	} {
		if !strings.Contains(out, w) {
			t.Fatalf("output missing %q:\n%s", w, out)
		}
	}
}

func TestScriptedStatsAndLoss(t *testing.T) {
	out := script(t, core.Options{Workstations: 2, Seed: 6}, `
run ticker100 @ ws1
loss 0.05
advance 2s
stats
loss 0
`)
	for _, w := range []string{
		"frame loss set to 5%",
		"frame loss set to 0%",
		"ws1",
		"guests=1",
	} {
		if !strings.Contains(out, w) {
			t.Fatalf("output missing %q:\n%s", w, out)
		}
	}
}

func TestScriptedTraceAndStats(t *testing.T) {
	out := script(t, core.Options{Workstations: 3, Seed: 8}, `
trace on
run tex @ ws1
advance 3s
migrate j1
trace off
stats
trace bogus
`)
	for _, w := range []string{
		"trace on",
		"trace span", // migration phase spans streamed
		" freeze[",   // ... including the freeze window
		" rebind ",   // rebind broadcast event
		"tex migrated (precopy)",
		"trace off",
		"pkts=",       // per-host packet counters
		"freezes=",    // per-host freeze metrics
		"events: tx=", // bus-wide event counts
		"! trace on|off",
	} {
		if !strings.Contains(out, w) {
			t.Fatalf("output missing %q:\n%s", w, out)
		}
	}
	if strings.Contains(strings.SplitN(out, "trace off", 2)[1], "trace span") {
		t.Fatalf("trace kept streaming after trace off:\n%s", out)
	}
}

func TestScriptedProgramArguments(t *testing.T) {
	out := script(t, core.Options{Workstations: 2, Seed: 7}, `
run primesrange 2 100 @ ws1
wait j1
display
`)
	if !strings.Contains(out, "primesrange exited with code 25") {
		t.Fatalf("π(100) not computed from arguments:\n%s", out)
	}
	if !strings.Contains(out, "ws0| 25") {
		t.Fatalf("output missing:\n%s", out)
	}
}

// TestStatsGolden pins the whole `stats` block byte for byte: every
// counter it prints comes from one deterministic run, so a change to
// where `stats` reads its counters must leave this block unchanged.
func TestStatsGolden(t *testing.T) {
	out := script(t, core.Options{Workstations: 4, Seed: 1}, `
run ticker100 @ ws1
run tex @ ws2
loss 0.05
advance 3s
migrate j2
advance 2s
stats
`)
	const want = `t=9s  frames=1117 lost=37 bus-busy=655.208ms  fileserver-frames=259
  ws0   util= 33.2% guests=1 locals=0 memfree=1435K pkts=173/654 retx=14 locates=0 freezes=1 frozen=1.7718382s
  ws1   util= 31.8% guests=0 locals=0 memfree=1792K pkts=113/114 retx=1 locates=0 freezes=0 frozen=0s
  ws2   util= 57.2% guests=0 locals=0 memfree=1792K pkts=588/295 retx=35 locates=0 freezes=1 frozen=0s
  ws3   util=  0.3% guests=0 locals=0 memfree=1792K pkts=3/6 retx=0 locates=0 freezes=0 frozen=0s
  events: tx=1117 local=19 retx=50 drop=0 frame-drop=37 reply-pending=13 locate=0 rebind=1 freeze=2
  bulk-transfer: window=4 sends=17 stalls=0 copy-window-events=17
  remote faults: 0 (0.0 KB) stalled=0s demand=0.0K push=0.0K events=0 aborted=false
  engine: fired=12316 task-dispatches=5454 merged-wakes=3723 skipped-slice-ends=21272 timers-stopped=696 pending=33 max-pending=144
`
	i := strings.LastIndex(out, "\nt=")
	if i < 0 {
		t.Fatalf("no stats block:\n%s", out)
	}
	if got := out[i+1:]; got != want {
		t.Fatalf("stats block drifted:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestStatsCountsEveryServerMachine checks that `stats` sums the bulk
// transfer counters over every file-server replica. Under -replicate-fs
// the consensus leader's log windows run on whichever replica leads, so
// reading one server machine misses them; summed over all hosts, window
// sends equal the copy-window events the bus counted (ipc.Stats).
func TestStatsCountsEveryServerMachine(t *testing.T) {
	out := script(t, core.Options{Workstations: 4, Seed: 1, ReplicateFS: 3}, `
run ticker100 @ ws1
advance 3s
stats
`)
	var window, sends, stalls, events int
	i := strings.Index(out, "bulk-transfer:")
	if i < 0 {
		t.Fatalf("no bulk-transfer line:\n%s", out)
	}
	if _, err := fmt.Sscanf(out[i:], "bulk-transfer: window=%d sends=%d stalls=%d copy-window-events=%d",
		&window, &sends, &stalls, &events); err != nil {
		t.Fatalf("bulk-transfer line: %v\n%s", err, out)
	}
	if events == 0 || sends != events {
		t.Fatalf("sends=%d, copy-window-events=%d: want equal and nonzero\n%s", sends, events, out)
	}
}
