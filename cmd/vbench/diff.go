package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"vsystem/internal/experiments"
)

// A mover is one element of a -json artifact that differs between two
// runs: its title, check (the shape assertions' verdict), notes, rows or
// metrics. lines says what moved, one thing a line, old → new.
type mover struct {
	id    string
	head  string
	lines []string
}

// diffArtifacts compares two -json artifacts element by element, matched
// by ID, in the new artifact's order and then any element it lacks.
func diffArtifacts(old, cur []experiments.Result) []mover {
	byID := make(map[string]*experiments.Result, len(old))
	for i := range old {
		byID[old[i].ID] = &old[i]
	}
	var out []mover
	seen := make(map[string]bool)
	for i := range cur {
		n := &cur[i]
		seen[n.ID] = true
		o := byID[n.ID]
		if o == nil {
			out = append(out, mover{id: n.ID, head: "added"})
			continue
		}
		if m, moved := diffResult(o, n); moved {
			out = append(out, m)
		}
	}
	for i := range old {
		if !seen[old[i].ID] {
			out = append(out, mover{id: old[i].ID, head: "removed"})
		}
	}
	return out
}

// diffResult lists what moved between two runs of one element.
func diffResult(o, n *experiments.Result) (mover, bool) {
	m := mover{id: n.ID}
	if o.Title != n.Title {
		m.lines = append(m.lines, fmt.Sprintf("title %q → %q", o.Title, n.Title))
	}
	if o.Pass != n.Pass {
		m.lines = append(m.lines, fmt.Sprintf("check %s → %s", verdict(o.Pass), verdict(n.Pass)))
	}
	notes := 0
	for i := 0; i < max(len(o.Notes), len(n.Notes)); i++ {
		if a, b := at(o.Notes, i), at(n.Notes, i); a != b {
			notes++
			m.lines = append(m.lines, fmt.Sprintf("note %d: %s → %s", i+1, a, b))
		}
	}
	rows := 0
	for i := 0; i < max(len(o.Rows), len(n.Rows)); i++ {
		if d := diffRow(o.Rows, n.Rows, i); d != "" {
			rows++
			m.lines = append(m.lines, d)
		}
	}
	keys := slices.Collect(maps.Keys(o.Metrics))
	for k := range n.Metrics {
		if _, both := o.Metrics[k]; !both {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	metrics := 0
	for _, k := range keys {
		a, inOld := o.Metrics[k]
		b, inNew := n.Metrics[k]
		if inOld == inNew && a == b {
			continue
		}
		metrics++
		switch {
		case !inNew:
			m.lines = append(m.lines, fmt.Sprintf("metric %s %s → —", k, num(a, a)))
		case !inOld:
			m.lines = append(m.lines, fmt.Sprintf("metric %s — → %s", k, num(b, b)))
		default:
			m.lines = append(m.lines, fmt.Sprintf("metric %s %s → %s %s", k, num(a, b), num(b, a), ratio(a, b)))
		}
	}
	if len(m.lines) == 0 {
		return m, false
	}
	var parts []string
	if o.Pass != n.Pass {
		parts = append(parts, "check")
	}
	if metrics > 0 {
		parts = append(parts, fmt.Sprintf("%d of %d metrics", metrics, len(n.Metrics)))
	}
	if rows > 0 {
		parts = append(parts, fmt.Sprintf("%d of %d rows", rows, len(n.Rows)))
	}
	if notes > 0 {
		parts = append(parts, fmt.Sprintf("%d of %d notes", notes, len(n.Notes)))
	}
	if o.Title != n.Title {
		parts = append(parts, "title")
	}
	m.head = strings.Join(parts, ", ")
	return m, true
}

// diffRow describes row i's move, "" if it did not.
func diffRow(o, n []experiments.Row, i int) string {
	switch {
	case i >= len(n):
		return fmt.Sprintf("row %q removed", o[i].Label)
	case i >= len(o):
		return fmt.Sprintf("row %q added: %s", n[i].Label, n[i].Measured)
	case o[i] == n[i]:
		return ""
	}
	a, b := o[i], n[i]
	var f []string
	for _, c := range [...]struct{ name, a, b string }{
		{"label", a.Label, b.Label}, {"paper", a.Paper, b.Paper},
		{"measured", a.Measured, b.Measured}, {"note", a.Note, b.Note},
	} {
		if c.a != c.b {
			f = append(f, fmt.Sprintf("%s %q → %q", c.name, c.a, c.b))
		}
	}
	return fmt.Sprintf("row %q: %s", b.Label, strings.Join(f, "; "))
}

func at(s []string, i int) string {
	if i < len(s) {
		return strconv.Quote(s[i])
	}
	return "—"
}

func verdict(pass bool) string {
	if pass {
		return "pass"
	}
	return "FAIL"
}

// num prints v with the fewest significant digits (at least four) that
// tell it apart from other, so a move never prints as x → x.
func num(v, other float64) string {
	for p := 4; p < 17; p++ {
		if s := sig(v, p); s != sig(other, p) || v == other {
			return s
		}
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sig prints v to p significant digits, in exponent form only below 1.
func sig(v float64, p int) string {
	if a := math.Abs(v); a >= 1 {
		return strconv.FormatFloat(v, 'f', max(p-1-int(math.Log10(a)), 0), 64)
	}
	return strconv.FormatFloat(v, 'g', p, 64)
}

func ratio(a, b float64) string {
	if a == 0 {
		return "(from 0)"
	}
	return fmt.Sprintf("(%.3f×)", b/a)
}

func readArtifact(path string) ([]experiments.Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []experiments.Result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return rs, nil
}

// runDiff prints every mover between the artifacts at oldPath and newPath
// and returns the exit status: 0 when every moved element is in allow, 1
// when one is not, 2 when an artifact cannot be read.
func runDiff(w io.Writer, oldPath, newPath string, allow []string) int {
	old, err := readArtifact(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vbench: %v\n", err)
		return 2
	}
	cur, err := readArtifact(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vbench: %v\n", err)
		return 2
	}
	movers := diffArtifacts(old, cur)
	var ids, unexpected []string
	for _, m := range movers {
		fmt.Fprintf(w, "%s: %s\n", m.id, m.head)
		for _, l := range m.lines {
			fmt.Fprintf(w, "  %s\n", l)
		}
		ids = append(ids, m.id)
		if !slices.Contains(allow, m.id) {
			unexpected = append(unexpected, m.id)
		}
	}
	if len(movers) > 0 {
		fmt.Fprintf(w, "%d of %d elements moved: %s\n", len(movers), len(cur), strings.Join(ids, " "))
	}
	if len(unexpected) > 0 {
		fmt.Fprintf(os.Stderr, "vbench: moved but not allowed: %s\n", strings.Join(unexpected, " "))
		return 1
	}
	return 0
}
