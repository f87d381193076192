// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the simulated cluster, reporting paper-vs-measured
// rows. DESIGN.md carries the experiment index; EXPERIMENTS.md records the
// outcomes.
package experiments

import (
	"fmt"
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

// All runs every experiment.
func All(seed int64) []*Result {
	return []*Result{
		RemoteExecCosts(seed),
		MigrationCopyCosts(seed),
		DirtyPageRates(seed),
		PrecopyEffectiveness(seed),
		ExecutionOverheads(seed),
		CommPaths(seed),
		CommDuringMigration(seed),
		VMPaging(seed),
		AblationFreeze(seed),
		AblationResidual(seed),
		Usage(seed),
		SelectionScaling(seed),
		SelectionPolicies(seed),
		MigrationUnderLoss(seed),
		PrecopyRounds(seed),
		FaultSweep(seed),
		GuestCrash(seed),
		HomeCrash(seed),
		CopyThroughput(seed),
		ClusterLoad(seed),
		MigrationPolicies(seed),
	}
}

// ByName returns the experiment runner for an id ("remote-exec", ...).
func ByName(name string) (func(int64) *Result, bool) {
	m := map[string]func(int64) *Result{
		"remote-exec":       RemoteExecCosts,
		"copy-costs":        MigrationCopyCosts,
		"dirty-rates":       DirtyPageRates,
		"precopy":           PrecopyEffectiveness,
		"overheads":         ExecutionOverheads,
		"comm-paths":        CommPaths,
		"comm-migration":    CommDuringMigration,
		"vmpaging":          VMPaging,
		"ablation-freeze":   AblationFreeze,
		"ablation-residual": AblationResidual,
		"usage":             Usage,
		"selection-scale":   SelectionScaling,
		"select-policy":     SelectionPolicies,
		"migration-loss":    MigrationUnderLoss,
		"precopy-rounds":    PrecopyRounds,
		"fault-sweep":       FaultSweep,
		"guest-crash":       GuestCrash,
		"home-crash":        HomeCrash,
		"copy-throughput":   CopyThroughput,
		"cluster-load":      ClusterLoad,
		"migration-policy":  MigrationPolicies,
	}
	f, ok := m[name]
	return f, ok
}

// Names lists experiment ids in run order.
func Names() []string {
	return []string{
		"remote-exec", "copy-costs", "dirty-rates", "precopy", "overheads",
		"comm-paths", "comm-migration", "vmpaging", "ablation-freeze",
		"ablation-residual", "usage", "selection-scale", "select-policy",
		"migration-loss", "precopy-rounds", "fault-sweep", "guest-crash",
		"home-crash", "copy-throughput", "cluster-load", "migration-policy",
	}
}

// bootCluster creates a cluster with the standard images installed. The
// caller defers Close, also inside a loop of cells: the clusters then live
// until the experiment returns, and none outlives it.
func bootCluster(opt core.Options) *core.Cluster {
	c := core.NewCluster(opt)
	c.Install(progs.Hello())
	c.Install(progs.Primes(2000))
	c.Install(progs.Ticker(200))
	for _, img := range workload.PaperImages() {
		c.Install(img)
	}
	return c
}

func ms(d float64) string { return fmt.Sprintf("%.1f ms", d) }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
