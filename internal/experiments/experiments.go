// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the simulated cluster, reporting paper-vs-measured
// rows. DESIGN.md carries the experiment index; EXPERIMENTS.md records the
// outcomes.
package experiments

import (
	"fmt"
	"maps"
	"strings"

	"vsystem/internal/core"
	"vsystem/internal/progs"
	"vsystem/internal/workload"
)

// Row is one comparison line of an experiment.
type Row struct {
	Label    string
	Paper    string
	Measured string
	Note     string
}

// Result is one regenerated table/figure.
type Result struct {
	ID    string
	Title string
	Rows  []Row
	// Metrics carries machine-readable values for the benchmark harness
	// (testing.B ReportMetric).
	Metrics map[string]float64
	// Pass reports whether the shape assertions held.
	Pass bool
	// Notes holds free-form commentary.
	Notes []string
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Metrics: map[string]float64{}, Pass: true}
}

func (r *Result) row(label, paper, measured, note string) {
	r.Rows = append(r.Rows, Row{Label: label, Paper: paper, Measured: measured, Note: note})
}

func (r *Result) metric(k string, v float64) { r.Metrics[k] = v }

func (r *Result) note(f string, a ...any) { r.Notes = append(r.Notes, fmt.Sprintf(f, a...)) }

func (r *Result) check(ok bool, f string, a ...any) {
	if !ok {
		r.Pass = false
		r.note("FAIL: "+f, a...)
	}
}

// Format renders the result as an aligned text table.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", r.ID, r.Title)
	w1, w2, w3 := len("measurement"), len("paper"), len("measured")
	for _, row := range r.Rows {
		w1, w2, w3 = max(w1, len(row.Label)), max(w2, len(row.Paper)), max(w3, len(row.Measured))
	}
	fmt.Fprintf(&b, "   %-*s  %-*s  %-*s  %s\n", w1, "measurement", w2, "paper", w3, "measured", "note")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "   %-*s  %-*s  %-*s  %s\n", w1, row.Label, w2, row.Paper, w3, row.Measured, row.Note)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "   # %s\n", n)
	}
	if r.Pass {
		fmt.Fprintf(&b, "   => shape assertions PASS\n")
	} else {
		fmt.Fprintf(&b, "   => shape assertions FAIL\n")
	}
	return b.String()
}

// absorb appends the rows, metrics, notes and verdicts of an experiment's
// cells, in the order given: cells fill a Result of their own while they run
// side by side, and the experiment's table is their concatenation.
func (r *Result) absorb(cells ...*Result) {
	for _, c := range cells {
		r.Rows = append(r.Rows, c.Rows...)
		maps.Copy(r.Metrics, c.Metrics)
		r.Notes = append(r.Notes, c.Notes...)
		r.Pass = r.Pass && c.Pass
	}
}

// Experiment is one entry of the table: the id `vbench -e` takes and the
// function that runs it. Run takes the pool its cluster runs draw slots
// from.
type Experiment struct {
	ID  string
	Run func(p *Pool, seed int64) *Result
}

// ClusterLoadDefault is E11's grid: the cluster scale the paper could
// only speculate about ("a larger network of perhaps 100 machines", §5)
// and then some. `vbench -hosts` shrinks it (CI runs the determinism check
// at 100); the test suite runs 150, past the >127-host LHID-station region
// where the 8-bit station layout used to collide with the group-id space.
const ClusterLoadDefault = 500

// Table lists every simulation experiment in run order: the one list that
// vbench, the tests and the root benchmarks read. hosts sizes E11's grid
// (0 = ClusterLoadDefault). E6 is not in it — it reads source files,
// not a cluster, and takes the repository root instead of a seed.
func Table(hosts int) []Experiment {
	if hosts <= 0 {
		hosts = ClusterLoadDefault
	}
	return []Experiment{
		{"remote-exec", leaf(RemoteExecCosts)},
		{"copy-costs", leaf(MigrationCopyCosts)},
		{"dirty-rates", leaf(DirtyPageRates)},
		{"precopy", leaf(PrecopyEffectiveness)},
		{"overheads", leaf(ExecutionOverheads)},
		{"comm-paths", leaf(CommPaths)},
		{"comm-migration", leaf(CommDuringMigration)},
		{"vmpaging", leaf(VMPaging)},
		{"ablation-freeze", leaf(AblationFreeze)},
		{"ablation-residual", leaf(AblationResidual)},
		{"usage", leaf(Usage)},
		{"selection-scale", leaf(SelectionScaling)},
		{"select-policy", leaf(SelectionPolicies)},
		{"migration-loss", leaf(MigrationUnderLoss)},
		{"precopy-rounds", leaf(PrecopyRounds)},
		{"fault-sweep", FaultSweep},
		{"guest-crash", GuestCrash},
		{"home-crash", HomeCrash},
		{"copy-throughput", leaf(CopyThroughput)},
		{"cluster-load", func(p *Pool, seed int64) *Result { return ClusterLoad(p, seed, hosts) }},
		{"migration-policy", MigrationPolicies},
	}
}

// Lookup finds an experiment by id.
func Lookup(table []Experiment, id string) (Experiment, bool) {
	for _, e := range table {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// newCluster makes every cluster an experiment runs; the tests poison them.
var newCluster = core.NewCluster

// bootCluster creates a cluster with the standard images installed. The
// caller defers Close, also inside a loop of cells: the clusters then live
// until the experiment returns, and none outlives it.
func bootCluster(opt core.Options) *core.Cluster {
	c := newCluster(opt)
	c.Install(progs.Hello())
	c.Install(progs.Primes(2000))
	c.Install(progs.Ticker(200))
	for _, img := range workload.PaperImages() {
		c.Install(img)
	}
	return c
}

func ms(d float64) string { return fmt.Sprintf("%.1f ms", d) }
