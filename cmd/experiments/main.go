// Command experiments regenerates every table of the paper's evaluation
// section against this reproduction:
//
//	experiments              # all tables
//	experiments -table 3-2   # one table (3-1, 3-2, 3-3, 3-4, 3-5, dfs, scale, obs, sup, trace, crash, worldd, pool, resil)
//	experiments -runs 9      # timed rounds per row (paper used 9)
//	experiments -json        # also write BENCH_<date>.json (per-row median and quartiles)
//
// Every table comes from the registry in internal/experiments and goes
// through one runner: a discarded warm-up round of every row, then -runs
// interleaved rounds, reporting each row's median and quartiles.
//
// The obs table is this reproduction's observability addition: the make
// workload under the trace agent with telemetry enabled, printing where
// the time went per instance of the system interface (kernel vs each
// agent layer) and the per-syscall latency distribution.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"interpose/internal/experiments"
)

func main() {
	table := flag.String("table", "all", "comma-separated tables to run: 3-1, 3-2, 3-3, 3-4, 3-5, dfs, scale, obs, sup, trace, crash, worldd, pool, resil, all")
	runs := flag.Int("runs", 9, "timed rounds per row (after one discarded round)")
	programs := flag.Int("programs", 8, "program count for the make workload")
	benchJSON := flag.Bool("json", false, "write measured rows to BENCH_<date>.json")
	check := flag.String("check", "", "baseline BENCH json to compare against; exit 1 if a guarded row regresses >50%")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	all := experiments.Tables(*programs)
	tables, err := experiments.Select(all, *table)
	if err != nil {
		fail(err)
	}
	var entries []experiments.BenchEntry
	for _, t := range tables {
		res, err := experiments.Run(t, *runs)
		if err != nil {
			fail(err)
		}
		experiments.Print(os.Stdout, t, res)
		entries = append(entries, experiments.Entries(t, res)...)
	}

	if *benchJSON {
		name := "BENCH_" + time.Now().Format("2006-01-02") + ".json"
		if err := experiments.WriteBenchJSON(name, entries); err != nil {
			fail(err)
		}
		fmt.Println("wrote " + name)
	}

	if *check != "" {
		baseline, err := experiments.ReadBenchJSON(*check)
		if err != nil {
			fail(err)
		}
		report, err := experiments.CheckBaseline(baseline, entries,
			experiments.Guarded(all), experiments.MaxRegress)
		fmt.Printf("Baseline check against %s:\n%s", *check, report)
		if err != nil {
			fail(err)
		}
		relReport, err := experiments.CheckRelations(entries, experiments.Relations)
		if relReport != "" {
			fmt.Printf("Relation check:\n%s", relReport)
		}
		if err != nil {
			fail(err)
		}
	}
}
