package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"vsystem/internal/core"
)

// TestMain runs every cluster of the suite poisoned: a recycled buffer
// read late is garbage in a result, and a recycled record used late
// panics. Poisoning changes no virtual result, so the shape assertions
// judge what vbench prints.
func TestMain(m *testing.M) {
	newCluster = func(opt core.Options) *core.Cluster {
		c := core.NewCluster(opt)
		c.Sim.PoisonFreed()
		return c
	}
	os.Exit(m.Run())
}

// testHosts is E11's grid in the suite: big enough to cover the >127-host
// LHID-station region (where the 8-bit station layout used to collide with
// the group-id space) while keeping `go test` fast. The full 500-host
// default runs via vbench; CI checks determinism at 100 hosts.
const testHosts = 150

// testPool is shared by every test of the package, so that parallel tests
// and the cells inside them together keep one cluster per core in flight.
var testPool = NewPool()

// testTable is the table the suite runs, each entry run at most once per
// seed: the named tests and the seed sweep both want seed 1, and a run is a
// function of its seed and nothing else, so whoever asks second waits for
// the first and gets its result.
var testTable = func() []Experiment {
	var ran sync.Map // "id/seed" → func() *Result
	table := Table(testHosts)
	for i, e := range table {
		table[i].Run = func(p *Pool, seed int64) *Result {
			once, _ := ran.LoadOrStore(fmt.Sprintf("%s/%d", e.ID, seed),
				sync.OnceValue(func() *Result { return e.Run(p, seed) }))
			return once.(func() *Result)()
		}
	}
	return table
}()

// Each experiment runs as a test so the full evaluation is exercised by
// `go test`; the shape assertions inside the harness are the pass/fail
// criteria. The tests run in parallel: a cluster shares nothing with any
// other (DESIGN §8).
func runExp(t *testing.T, id string) {
	t.Helper()
	t.Parallel()
	e, ok := Lookup(testTable, id)
	if !ok {
		t.Fatalf("no experiment %q in the table", id)
	}
	r := e.Run(testPool, 1)
	t.Log("\n" + r.Format())
	if !r.Pass {
		t.Fatalf("%s failed shape assertions:\n%s", r.ID, r.Format())
	}
}

func TestE1RemoteExecCosts(t *testing.T)      { runExp(t, "remote-exec") }
func TestE2MigrationCopyCosts(t *testing.T)   { runExp(t, "copy-costs") }
func TestE3DirtyPageRates(t *testing.T)       { runExp(t, "dirty-rates") }
func TestE4PrecopyEffectiveness(t *testing.T) { runExp(t, "precopy") }
func TestE5ExecutionOverheads(t *testing.T)   { runExp(t, "overheads") }
func TestF21CommPaths(t *testing.T)           { runExp(t, "comm-paths") }
func TestE7CommDuringMigration(t *testing.T)  { runExp(t, "comm-migration") }
func TestF31VMPaging(t *testing.T)            { runExp(t, "vmpaging") }
func TestA1AblationFreeze(t *testing.T)       { runExp(t, "ablation-freeze") }
func TestA2AblationResidual(t *testing.T)     { runExp(t, "ablation-residual") }
func TestA3Usage(t *testing.T)                { runExp(t, "usage") }
func TestE8SelectionScaling(t *testing.T)     { runExp(t, "selection-scale") }
func TestE9SelectionPolicies(t *testing.T)    { runExp(t, "select-policy") }
func TestA4MigrationUnderLoss(t *testing.T)   { runExp(t, "migration-loss") }
func TestA5PrecopyRounds(t *testing.T)        { runExp(t, "precopy-rounds") }
func TestF1FaultSweep(t *testing.T)           { runExp(t, "fault-sweep") }
func TestF2GuestCrash(t *testing.T)           { runExp(t, "guest-crash") }
func TestF3HomeCrash(t *testing.T)            { runExp(t, "home-crash") }
func TestE11ClusterLoad(t *testing.T)         { runExp(t, "cluster-load") }

func TestE6SpaceCost(t *testing.T) {
	r := SpaceCost("../..") // repo root relative to this package
	t.Log("\n" + r.Format())
	if !r.Pass {
		t.Fatalf("E6 failed:\n%s", r.Format())
	}
}

// TestByNameAndNamesAgree: the table is the one list of experiments, so its
// ids must be usable as names — present, distinct, each found by Lookup and
// runnable — and nothing else may be found.
func TestByNameAndNamesAgree(t *testing.T) {
	table := Table(0)
	seen := map[string]bool{}
	for _, e := range table {
		if e.ID == "" || e.Run == nil {
			t.Errorf("table entry %+v is incomplete", e)
		}
		if seen[e.ID] {
			t.Errorf("table lists %q twice", e.ID)
		}
		seen[e.ID] = true
		if got, ok := Lookup(table, e.ID); !ok || got.ID != e.ID {
			t.Errorf("table lists %q but Lookup misses it", e.ID)
		}
	}
	if _, ok := Lookup(table, "bogus"); ok {
		t.Error("Lookup found a bogus experiment")
	}
}

// TestParallelEqualsSerial: the pool's width must not reach the output.
// Four cheap leaf experiments and the cheapest one whose cells fan out, run
// through a one-slot pool and a four-slot pool, marshal to the same JSON.
func TestParallelEqualsSerial(t *testing.T) {
	t.Parallel()
	var table []Experiment
	for _, id := range []string{"comm-paths", "copy-costs", "precopy", "vmpaging", "fault-sweep"} {
		e, ok := Lookup(Table(testHosts), id)
		if !ok {
			t.Fatalf("no experiment %q in the table", id)
		}
		table = append(table, e)
	}
	run := func(workers int) []byte {
		b, err := json.Marshal(newPool(workers).Run(table, 2))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial, wide := run(1), run(4)
	if string(serial) != string(wide) {
		t.Fatalf("1 worker and 4 workers disagree:\n%s\n%s", serial, wide)
	}
}
