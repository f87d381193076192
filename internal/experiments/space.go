package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// SpaceCost regenerates the §4.2 space-cost accounting: the paper's
// migration support added 8 Kbytes to the kernel and 4 Kbytes to the
// permanently resident program manager. We report the size of the source
// files that exist *only* to support migration, grouped the same way.
// (Machine-code bytes on a 68010 and Go source bytes are not comparable;
// the shape claim is that migration support is a modest, bounded addition.)
func SpaceCost(root string) *Result {
	r := newResult("E6", "space cost of migration support (§4.2)")

	groups := []struct {
		label string
		paper string
		files []string
	}{
		{
			label: "kernel additions (freeze, state copy, LHID change)",
			paper: "8 KB of kernel code+data",
			files: []string{
				"internal/kernel/state.go",
			},
		},
		{
			label: "program manager additions (migration module) + migrateprog",
			paper: "4 KB resident program manager",
			files: []string{
				"internal/core/migrate.go",
				"internal/core/pager.go",
				"internal/core/policy.go",
				"internal/progmgr/pager.go",
			},
		},
	}

	total := 0
	for _, g := range groups {
		bytes, lines := 0, 0
		var missing []string
		for _, f := range g.files {
			b, err := os.ReadFile(filepath.Join(root, f))
			if err != nil {
				missing = append(missing, f)
				continue
			}
			bytes += len(b)
			lines += strings.Count(string(b), "\n")
		}
		note := strings.Join(g.files, ", ")
		if len(missing) > 0 {
			r.check(false, "missing sources: %v", missing)
		}
		r.row(g.label, g.paper, fmt.Sprintf("%.1f KB source (%d lines)", float64(bytes)/1024, lines), note)
		r.metric(g.label, float64(bytes))
		total += bytes
	}
	r.note("total migration-specific source: %.1f KB", float64(total)/1024)
	r.check(total > 0 && total < 128*1024, "migration code size out of plausible range")
	return r
}
