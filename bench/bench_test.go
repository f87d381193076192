package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vsystem/internal/sim"
)

// The benchmark runs on one P (see main); so do its tests.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}

// smokeScale shrinks every workload to a second or two of host time: a
// 1.8 s farm stream, 8 s of exec25, 2 moves per guest, one leader kill.
const smokeScale = 0.03

// TestSmokeRepeatsExactly runs every workload three times at one seed —
// untraced, then the traced run's own untraced and traced passes — and
// requires every virtual-clock figure to be identical between the two
// untraced passes, the traced pass's span arithmetic to close, and a
// second seed to generate different inputs.
func TestSmokeRepeatsExactly(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 1, scale: smokeScale}
			first := measure(w, cfg)
			traced := measureTraced(w, cfg, t.TempDir()+"/spans.jsonl")

			if first.attempted == 0 {
				t.Fatal("no operations attempted")
			}
			for _, p := range append(first.problems, traced.problems...) {
				t.Errorf("correctness: %s", p)
			}
			if got, want := timingLines(traced.untracedTimings), timingLines(first.timings); got != want {
				t.Errorf("virtual metrics differ between two untraced runs at one seed:\n%s\n---\n%s", want, got)
			}
			if first.inputs != traced.inputs {
				t.Errorf("inputs digest differs at one seed: %x vs %x", first.inputs, traced.inputs)
			}
			for _, name := range []string{"bench.exec_sum_err_max", "bench.freeze_sum_err_max", "bench.gen_late_max_ms"} {
				if v := traced.layer[name]; v > 0.01 {
					t.Errorf("%s = %v, want ≤ 0.01", name, v)
				}
			}
			if _, err := os.Stat(traced.traceOut); err != nil {
				t.Errorf("span file: %v", err)
			}
			for _, d := range perLayer {
				if v, ok := traced.layer[d.name]; ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
					t.Errorf("%s = %v", d.name, v)
				}
			}
			for name := range traced.layer {
				if !defined(perLayer, name) {
					t.Errorf("per-layer metric %q is produced but not declared in perLayer", name)
				}
			}

			// Set-up alone generates the schedules and offsets.
			same, other := w.new(cfg), w.new(config{seed: 2, scale: smokeScale})
			same.setup()
			other.setup()
			if same.inputs() == other.inputs() {
				t.Errorf("seeds 1 and 2 generated the same inputs (digest %x)", same.inputs())
			}
		})
	}
}

func timingLines(ts []timing) string {
	r := result{timings: ts}
	return strings.Join(r.virtualLines()[:len(ts)], "\n")
}

func defined(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// TestMicroMetrics runs the host-clock loops once: each must report a
// positive figure under a declared name.
func TestMicroMetrics(t *testing.T) {
	m := map[string]float64{}
	microMetrics(m)
	for name, v := range m {
		if !defined(perLayer, name) {
			t.Errorf("%q is produced but not declared in perLayer", name)
		}
		if !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", name, v)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	ramp := func(n int) samples {
		s := make(samples, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{19, 0.50, false, 0},
		{20, 0.50, true, 11},
		{199, 0.95, false, 0},
		{200, 0.95, true, 191},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 991},
		{1040, 0.99, true, 1030},
		{0, 0.50, false, 0},
	}
	for _, c := range cases {
		got, err := ramp(c.n).quantile(c.p)
		if (err == nil) != c.ok {
			t.Errorf("n=%d p=%v: err=%v, want ok=%v", c.n, c.p, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("n=%d p=%v: got %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	at := func(ms int) sim.Time { return sim.Time(ms) * 1e6 }
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "exec", Start: at(0), End: at(60)},
		{ID: 3, Parent: 2, Name: "select", Start: at(0), End: at(20)},
		{ID: 4, Parent: 2, Name: "create", Start: at(20), End: at(50)},
		{ID: 5, Parent: 1, Name: "wait", Start: at(60), End: at(90)},
		// Overlapping children count once; a child is clipped to its parent.
		{ID: 6, Parent: 5, Name: "a", Start: at(60), End: at(80)},
		{ID: 7, Parent: 5, Name: "b", Start: at(70), End: at(120)},
	}
	want := map[int]float64{1: 10, 2: 10, 3: 20, 4: 30, 5: 0, 6: 20, 7: 50}
	got := selfTimes(spans)
	for id, w := range want {
		if math.Abs(got[id]-w) > 1e-9 {
			t.Errorf("span %d: self %v ms, want %v", id, got[id], w)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metric and workload names
// the program prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program runs %v", names, want)
	}
	same := func(kind string, got []entry, defs []metricDef) {
		var have []entry
		for _, d := range defs {
			have = append(have, entry{d.name, d.unit})
		}
		if !reflect.DeepEqual(got, have) {
			t.Errorf("%s: BENCHMARK.json and the program disagree:\n json    %v\n program %v", kind, got, have)
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
