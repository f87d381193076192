package experiments

import "testing"

// TestAllExperimentsAcrossSeeds guards the shape assertions against seed
// sensitivity: the benchmark harness reruns experiments with increasing
// seeds, so every experiment must pass for the first few. The seeds run
// side by side on the pool like everything else.
func TestAllExperimentsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep is slow")
	}
	t.Parallel()
	// The sweep covers E11 at testHosts (the >127-host regression region);
	// the 500-host default grid runs via vbench.
	table := testTable
	const seeds = 3
	results := make([][]*Result, seeds)
	fan(seeds, func(i int) { results[i] = testPool.Run(table, int64(i+1)) })
	for i, rs := range results {
		for j, r := range rs {
			if !r.Pass {
				t.Errorf("%s failed at seed %d:\n%s", table[j].ID, i+1, r.Format())
			}
		}
	}
}
