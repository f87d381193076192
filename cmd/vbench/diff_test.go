package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestDiffListsTheRebaselinedMovers: docs/rebaselines.md lists, between
// BENCH_PR28.json and BENCH_PR30.json, E11 (28 of 39 metrics and ten row
// texts), E12 (33 of 136 metrics and twelve row texts) and E6's source
// sizes as the only movers. -diff finds exactly those, and exits non-zero
// unless all are allowed.
func TestDiffListsTheRebaselinedMovers(t *testing.T) {
	old, err := readArtifact("../../BENCH_PR28.json")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := readArtifact("../../BENCH_PR30.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"E11": "28 of 39 metrics, 10 of 12 rows",
		"E12": "33 of 136 metrics, 12 of 40 rows",
		"E6":  "1 of 2 metrics, 1 of 2 rows, 1 of 1 notes",
	}
	movers := diffArtifacts(old, cur)
	if len(movers) != len(want) {
		t.Fatalf("%d movers, want %d: %+v", len(movers), len(want), movers)
	}
	for _, m := range movers {
		if want[m.id] != m.head {
			t.Errorf("%s: %q, want %q", m.id, m.head, want[m.id])
		}
		for _, l := range m.lines {
			if f := strings.Fields(l); f[0] == "metric" && len(f) >= 5 && f[len(f)-4] == f[len(f)-2] {
				t.Errorf("%s: a move printed as no move: %s", m.id, l)
			}
		}
	}

	var out bytes.Buffer
	if code := runDiff(&out, "../../BENCH_PR28.json", "../../BENCH_PR30.json", []string{"E11", "E12", "E6"}); code != 0 {
		t.Fatalf("every mover allowed: exit %d", code)
	}
	if last := out.String()[strings.LastIndex(strings.TrimSpace(out.String()), "\n")+1:]; last != "3 of 22 elements moved: E11 E12 E6\n" {
		t.Fatalf("summary line %q", last)
	}
	if code := runDiff(&out, "../../BENCH_PR28.json", "../../BENCH_PR30.json", []string{"E11", "E12"}); code != 1 {
		t.Fatalf("E6 not allowed: exit %d, want 1", code)
	}
	out.Reset()
	if code := runDiff(&out, "../../BENCH_PR30.json", "../../BENCH_PR30.json", nil); code != 0 || out.Len() != 0 {
		t.Fatalf("an artifact against itself: exit %d, printed %q", code, out.String())
	}
}

// TestNumTellsAMoveApart: a value is printed with as many digits as it
// takes to differ from the one it moved from, and never in exponent form
// at or above 1.
func TestNumTellsAMoveApart(t *testing.T) {
	for _, c := range []struct {
		v, other float64
		want     string
	}{
		{11004, 11005, "11004"},
		{267.27, 267.34, "267.27"},
		{1.2137, 1.2142, "1.2137"},
		{0.07466, 0.06976, "0.07466"},
		{47.4397, 47.4397, "47.44"},
		{3343.2, 2679.1, "3343"},
	} {
		if got := num(c.v, c.other); got != c.want {
			t.Errorf("num(%v, %v) = %q, want %q", c.v, c.other, got, c.want)
		}
	}
}
