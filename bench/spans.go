package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"

	"vsystem/internal/sim"
)

// span is one timed interval of one operation, in virtual time. Spans of
// one operation share Op; Parent is the ID of the enclosing span (0 for
// the operation's root).
type span struct {
	ID     int      `json:"id"`
	Parent int      `json:"parent"`
	Op     int      `json:"op"`
	Name   string   `json:"name"`
	Start  sim.Time `json:"start_ns"`
	End    sim.Time `json:"end_ns"`
}

func (s span) ms() float64 { return s.End.Sub(s.Start).Seconds() * 1000 }

// recorder keeps the traced run's spans in memory until the run ends. A
// nil *recorder is the untraced run: every method is a no-op, so the
// workload code reads the same in both runs.
type recorder struct {
	spans []span
	heard int64 // events and spans the trace-bus listener was handed
}

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, op, parent int, at sim.Time) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: at, End: at})
	return len(r.spans)
}

func (r *recorder) end(id int, at sim.Time) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = at
}

// add records an already-complete span.
func (r *recorder) add(name string, op, parent int, start, end sim.Time) int {
	id := r.begin(name, op, parent, start)
	r.end(id, end)
	return id
}

// byName returns the durations (ms) of every span with the name.
func (r *recorder) byName(name string) samples {
	if r == nil {
		return nil
	}
	var out samples
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover. Overlapping children are
// counted once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]float64 {
	type iv struct{ a, b sim.Time }
	kids := map[int][]iv{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		a, b := s.Start, s.End
		if a < p.Start {
			a = p.Start
		}
		if b > p.End {
			b = p.End
		}
		if b > a {
			kids[s.Parent] = append(kids[s.Parent], iv{a, b})
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered := sim.Time(0)
		edge := s.Start
		for _, k := range ivs {
			if k.a > edge {
				edge = k.a
			}
			if k.b > edge {
				covered += k.b - edge
				edge = k.b
			}
		}
		out[s.ID] = (s.End.Sub(s.Start) - covered.Duration()).Seconds() * 1000
	}
	return out
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
