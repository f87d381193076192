package core

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"vsystem/internal/vid"
)

// TestPolicyTable pins the policy names: the seven spellings vcluster
// accepts and the value each means, the name a report carries for each
// value, that the five values are distinct, that the zero value is
// pre-copy, and the error text for an unknown name.
func TestPolicyTable(t *testing.T) {
	t.Parallel()
	spellings := map[string]Policy{
		"precopy":       PolicyPrecopy,
		"stopcopy":      PolicyStopCopy,
		"stop-and-copy": PolicyStopCopy,
		"flush":         PolicyFlush,
		"vm-flush":      PolicyFlush,
		"postcopy":      PolicyPostcopy,
		"hybrid":        PolicyHybrid,
	}
	n := 0
	for _, e := range policyNames {
		n += len(e.names)
	}
	if n != len(spellings) {
		t.Errorf("the table spells %d names, want %d", n, len(spellings))
	}
	for s, want := range spellings {
		if got, err := ParsePolicy(s); err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}

	reported := map[Policy]string{
		PolicyPrecopy:  "precopy",
		PolicyStopCopy: "stop-and-copy",
		PolicyFlush:    "vm-flush",
		PolicyPostcopy: "postcopy",
		PolicyHybrid:   "hybrid",
	}
	if len(reported) != 5 || len(policyNames) != 5 {
		t.Fatalf("%d distinct named values, %d table rows; want 5 of each", len(reported), len(policyNames))
	}
	names := map[string]bool{}
	for _, e := range policyNames {
		if want := reported[e.p]; e.p.String() != want {
			t.Errorf("%v.String() = %q, want %q", e.names, e.p.String(), want)
		}
		if names[e.p.String()] {
			t.Errorf("two values are named %q", e.p.String())
		}
		names[e.p.String()] = true
		if got, err := ParsePolicy(e.p.String()); err != nil || got != e.p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want the value it names", e.p, got, err)
		}
	}

	if (Policy{}) != PolicyPrecopy {
		t.Error("the zero Policy is not pre-copy, so Options{} no longer defaults to it")
	}
	const want = `unknown policy "copy" (precopy|stopcopy|flush|postcopy|hybrid)`
	if _, err := ParsePolicy("copy"); err == nil || err.Error() != want {
		t.Errorf("ParsePolicy(\"copy\") error = %v, want %s", err, want)
	}
}

// TestFlushUnansweredPageInAbortsGuest: a flush-migrated guest whose
// page-in gets no answer — the file server crashed after the move — must
// not run on at its new host with the pages it owned before the move read
// as zeros. The one fault handler aborts it as lost, as post-copy's does
// when nothing can serve a page; a page the store never held stays a hole.
func TestFlushUnansweredPageInAbortsGuest(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 3, Seed: 14, Policy: PolicyFlush})
	var job *Job
	var err error
	c.Node(0).Agent(func(a *Agent) {
		if job, err = a.Exec("parser", nil, "ws1"); err != nil {
			return
		}
		a.Sleep(2 * time.Second)
		if _, err = a.Migrate(job, false); err == nil {
			c.Fault.Crash(c.FSHost.NIC.MAC())
		}
	})
	c.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if node, lh := c.FindProgram(job.LHID); lh != nil {
		t.Fatalf("guest still runs at %s on pages its page-ins never brought", node.Name())
	}
	if st := c.PagerStatsFor(job.LHID); st == nil || !st.Aborted {
		t.Fatalf("pager stats %+v, want the residue aborted", st)
	}
}

// TestSentAwayIdentitiesExhaustExecCleanly: every migration out of a host
// retires its identity's slot, and nothing gives one back yet, so after 31
// programs sent away and destroyed elsewhere the host's id range is spent.
// Its next exec must then fail with an error instead of panicking the
// cluster, and the other hosts keep serving.
func TestSentAwayIdentitiesExhaustExecCleanly(t *testing.T) {
	t.Parallel()
	c := boot(t, Options{Workstations: 3, Seed: 5})
	var execErr, err error
	c.Node(0).Agent(func(a *Agent) {
		for i := 0; i < vid.LHSlotCount-1 && err == nil; i++ {
			var job *Job
			if job, err = a.Exec("ticker200", nil, "ws1"); err != nil {
				return
			}
			if _, err = a.Migrate(job, false); err == nil {
				err = a.DestroyProgram(job)
			}
		}
		if err != nil {
			return
		}
		_, execErr = a.Exec("ticker200", nil, "ws1")
		_, err = a.Exec("hello", nil, "ws2")
	})
	c.Run(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(execErr, vid.CodeError(vid.CodeNoMemory)) {
		t.Fatalf("exec on a host whose id range is spent: %v, want %v", execErr, vid.CodeError(vid.CodeNoMemory))
	}
}

// TestCopyPathReachesNoOtherHost is the source-level guard on migration's
// copy path: no non-test core file but cluster.go and exec.go (the
// harness's) looks a node up by its logical host, installs a fault
// handler or aborts a guest, and none looks up a logical host on any host
// but the migration's source. The destination is reached by messages.
func TestCopyPathReachesNoOtherHost(t *testing.T) {
	t.Parallel()
	banned := regexp.MustCompile(`\b(NodeByLH|SetFault|AbortGuest)\(`)
	lookup := regexp.MustCompile(`([\w.]+)\.LookupLH\(`)
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources (%v)", err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") || f == "cluster.go" || f == "exec.go" {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if m := banned.Find(src); m != nil {
			t.Errorf("%s calls %s: the copy path reaches into the destination", f, m[:len(m)-1])
		}
		for _, m := range lookup.FindAllSubmatch(src, -1) {
			if recv := string(m[1]); recv != "host" && recv != "at.host" {
				t.Errorf("%s looks up a logical host on %s, not the migration's source", f, recv)
			}
		}
	}
}
