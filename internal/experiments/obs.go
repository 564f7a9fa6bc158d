package experiments

import (
	"fmt"
	"io"
	"time"

	"interpose/internal/kernel"
	"interpose/internal/telemetry"
)

// obsTable is the observability table: the Table 3-3 make workload run
// under the trace agent with a telemetry registry installed. Its detail
// is the last round's snapshot: where the time went, per instance of the
// system interface (kernel vs each agent layer), and the per-syscall
// latency distribution.
func obsTable(programs int) *Table {
	var env stackEnv
	var snap telemetry.Snapshot
	return &Table{Name: "obs", Title: fmt.Sprintf("Observability: make %d programs under the trace agent", programs),
		Setup: func() (err error) {
			env, err = newStackEnv("trace", func(k *kernel.Kernel) error { return SetupMake(k, programs) })
			return err
		},
		Rows: []Row{{Name: "make-under-trace", Unit: Ns, Measure: func() (float64, error) {
			if err := CleanMake(env.k, programs); err != nil {
				return 0, err
			}
			reg := telemetry.NewRegistry()
			env.k.SetTelemetry(reg)
			defer env.k.SetTelemetry(nil)
			d, err := RunMake(env.k, env.agents)
			snap = reg.Snapshot()
			return float64(d), err
		}}},
		Detail: func(w io.Writer) { printObs(w, snap) },
	}
}

// printObs writes a snapshot's per-layer attribution of the run's wall
// time, then the busiest system calls with their latency distribution.
func printObs(w io.Writer, snap telemetry.Snapshot) {
	fmt.Fprintf(w, "  Per-layer attribution (self time, exclusive of lower instances)\n")
	var total time.Duration
	for _, l := range snap.Layers {
		total += l.Self
	}
	fmt.Fprintf(w, "  %-12s %12s %14s %10s\n", "Instance", "Calls", "Self", "% of self")
	for _, l := range snap.Layers {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(l.Self) / float64(total)
		}
		fmt.Fprintf(w, "  %-12s %12d %14s %9.1f%%\n", l.Name, l.Calls, fmtDur(l.Self), pct)
	}

	fmt.Fprintf(w, "\n  Busiest system calls (%d total, %d errors)\n", snap.Total, snap.Errs)
	fmt.Fprintf(w, "  %-16s %10s %8s %10s %10s %10s\n", "call", "count", "errs", "mean", "p99", "max")
	rows := snap.Syscalls
	if len(rows) > 12 {
		rows = rows[:12]
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s %10d %8d %10s %10s %10s\n",
			r.Name, r.Count, r.Errs, fmtDur(r.Mean), fmtDur(r.P99), fmtDur(r.Max))
	}
}
