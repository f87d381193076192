package core

import "testing"

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
