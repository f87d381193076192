// Command vbench regenerates the paper's tables and figures on the
// simulated cluster and prints paper-vs-measured comparisons.
//
// Usage:
//
//	vbench                  # run every experiment
//	vbench -e dirty-rates   # run one experiment
//	vbench -list            # list experiment ids
//	vbench -seed 7          # change the simulation seed
//	vbench -root .          # repo root, for the space-cost experiment
//	vbench -json            # emit machine-readable paper-vs-measured rows
//	vbench -hosts 100       # shrink the cluster-load grid (CI determinism)
//	vbench -cpuprofile p    # write a pprof CPU profile of the run
//	vbench -diff old.json new.json [-allow E11,E12]
//	                        # print what moved between two -json artifacts;
//	                        # exit 1 if an element not named by -allow moved
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"vsystem/internal/experiments"
)

func main() { os.Exit(realMain()) }

// realMain carries the program body so deferred profile writers run
// before the process exits with a status.
func realMain() int {
	var (
		exp    = flag.String("e", "", "run a single experiment id (see -list)")
		seed   = flag.Int64("seed", 1, "simulation seed")
		list   = flag.Bool("list", false, "list experiment ids")
		root   = flag.String("root", ".", "repository root (for the space experiment)")
		asJSON = flag.Bool("json", false, "emit results as JSON instead of formatted text")
		hosts  = flag.Int("hosts", 0, "override the cluster-load host grid (0 = default)")
		cpuPro = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memPro = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		diff   = flag.Bool("diff", false, "compare two -json artifacts given as arguments: old new")
		allow  = flag.String("allow", "", "with -diff, comma-separated element ids expected to move")
	)
	flag.Parse()
	if *diff {
		// Flags may follow the two files: parse what comes after each.
		var files []string
		for args := flag.Args(); len(args) > 0; args = flag.Args() {
			files = append(files, args[0])
			flag.CommandLine.Parse(args[1:])
		}
		if len(files) != 2 {
			fmt.Fprintln(os.Stderr, "vbench: -diff takes two artifacts: old.json new.json")
			return 2
		}
		var ids []string
		if *allow != "" {
			ids = strings.Split(*allow, ",")
		}
		return runDiff(os.Stdout, files[0], files[1], ids)
	}
	table := experiments.Table(*hosts)
	if *cpuPro != "" {
		f, err := os.Create(*cpuPro)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "vbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memPro != "" {
		defer func() {
			f, err := os.Create(*memPro)
			if err != nil {
				fmt.Fprintf(os.Stderr, "vbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			pprof.Lookup("allocs").WriteTo(f, 0)
		}()
	}

	if *list {
		for _, e := range table {
			fmt.Println(e.ID)
		}
		fmt.Println("space")
		return 0
	}

	// Experiments, and the independent cells inside them, run side by side
	// on one cluster per core (GOMAXPROCS=1 is the serial run); results come
	// back in table order whatever the width.
	pool := experiments.NewPool()
	fail := 0
	var results []*experiments.Result
	run := func(r *experiments.Result) {
		if *asJSON {
			results = append(results, r)
		} else {
			fmt.Println(r.Format())
		}
		if !r.Pass {
			fail++
		}
	}

	switch {
	case *exp == "space":
		run(experiments.SpaceCost(*root))
	case *exp != "":
		e, ok := experiments.Lookup(table, *exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "vbench: unknown experiment %q (try -list)\n", *exp)
			return 2
		}
		run(e.Run(pool, *seed))
	default:
		for _, r := range pool.Run(table, *seed) {
			run(r)
		}
		run(experiments.SpaceCost(*root))
	}
	if *asJSON {
		b, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "vbench: %v\n", err)
			return 1
		}
		fmt.Println(string(b))
	}
	if fail > 0 {
		fmt.Fprintf(os.Stderr, "vbench: %d experiment(s) failed shape assertions\n", fail)
		return 1
	}
	return 0
}
