package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The bench harness: every table of the evaluation is a Table in one
// registry, measured by one runner, printed by one printer and exported
// by one JSON writer. A cost comes with its spread — each row reports the
// median and quartiles of its rounds — so a single slow sample can
// neither make a row nor trip the -check gate.

// Unit is what a row's value counts.
type Unit string

const (
	Ns    Unit = "ns"
	Bytes Unit = "B"
	Count Unit = "count"
)

// Derive is the one derived column of a table, if any (the zero value
// is none): each row that names a base row is compared against that
// row's median.
type Derive int

const (
	Slowdown Derive = iota + 1 // percent over the base row
	Speedup                    // base row over this row
	Overhead                   // this row minus the base row
)

// Row is one measured line of a table.
type Row struct {
	Name    string
	Unit    Unit
	Guarded bool   // the -check gate compares the row against its baseline
	Base    string // row of the same table the derived column compares against
	// Measure takes one round's value of the row.
	Measure func() (float64, error)
}

// Table is one table of the evaluation: a name, a title and an ordered
// list of rows.
type Table struct {
	Name, Title string
	Derive      Derive
	Rows        []Row
	// Setup prepares what the rows measure (worlds, daemons) and Close
	// releases it; each runs once per Run, and either may be nil.
	Setup, Close func() error
	// Detail, when set, prints after the rows what one value per row
	// cannot hold (the obs table's per-syscall distribution).
	Detail func(io.Writer)
}

// Tables is the registry: every table in print order, declared for a make
// workload of the given program count. Declaring is cheap; a table's
// Setup boots its worlds.
func Tables(programs int) []*Table {
	return []*Table{
		table31(), table32(), table33(programs), table34(), table35(), dfsTable(),
		scaleTable(programs), obsTable(programs), supTable(), traceTable(),
		crashTable(), worlddTable(), poolTable(), resilTable(),
	}
}

// Select returns the tables named in a comma-separated list, in registry
// order; "all" names every table.
func Select(tables []*Table, names string) ([]*Table, error) {
	want := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		want[n] = true
	}
	var out []*Table
	for _, t := range tables {
		if want["all"] || want[t.Name] {
			out = append(out, t)
		}
		delete(want, t.Name)
	}
	delete(want, "all")
	for n := range want {
		return nil, fmt.Errorf("experiments: unknown table %q", n)
	}
	return out, nil
}

// Guarded returns the "table:row" keys of every guarded row.
func Guarded(tables []*Table) []string {
	var keys []string
	for _, t := range tables {
		for _, r := range t.Rows {
			if r.Guarded {
				keys = append(keys, t.Name+":"+r.Name)
			}
		}
	}
	return keys
}

// Result is one row's median and quartiles over the timed rounds.
type Result struct {
	Row
	Median, Q1, Q3 float64
}

// Run measures a table: one discarded warm-up round of every row, as the
// paper discards an initial run, then runs timed rounds. Rows interleave
// round-robin so process-wide drift (allocator growth, scheduler warmup)
// spreads evenly instead of penalizing whichever row went first, and the
// collector runs before each measurement.
func Run(t *Table, runs int) (res []Result, err error) {
	if runs < 1 {
		return nil, fmt.Errorf("experiments: table %s: %d runs", t.Name, runs)
	}
	if t.Setup != nil {
		if err := t.Setup(); err != nil {
			return nil, fmt.Errorf("experiments: table %s: setup: %w", t.Name, err)
		}
	}
	if t.Close != nil {
		defer func() {
			if cerr := t.Close(); cerr != nil && err == nil {
				res, err = nil, fmt.Errorf("experiments: table %s: close: %w", t.Name, cerr)
			}
		}()
	}
	samples := make([][]float64, len(t.Rows))
	for round := -1; round < runs; round++ {
		for i, r := range t.Rows {
			runtime.GC()
			v, err := r.Measure()
			if err != nil {
				return nil, fmt.Errorf("experiments: table %s: row %s: %w", t.Name, r.Name, err)
			}
			if round >= 0 {
				samples[i] = append(samples[i], v)
			}
		}
	}
	res = make([]Result, len(t.Rows))
	for i, s := range samples {
		sort.Float64s(s)
		res[i] = Result{Row: t.Rows[i], Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
	}
	return res, nil
}

// quantile interpolates linearly between the order statistics of the
// sorted, non-empty xs.
func quantile(xs []float64, p float64) float64 {
	pos := p * float64(len(xs)-1)
	i := int(pos)
	if i+1 == len(xs) {
		return xs[i]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// Print writes a measured table: each row's median, its quartiles, and
// the derived column for rows with a base.
func Print(w io.Writer, t *Table, res []Result) {
	line := func(name, median, quartiles, derived string) {
		fmt.Fprintln(w, strings.TrimRight(fmt.Sprintf("  %-32s %10s %22s  %s", name, median, quartiles, derived), " "))
	}
	fmt.Fprintf(w, "%s\n\n", t.Title)
	line("row", "median", "[q1, q3]", [...]string{"", "slowdown", "speedup", "overhead"}[t.Derive])
	medians := make(map[string]float64, len(res))
	for _, r := range res {
		medians[r.Name] = r.Median
	}
	for _, r := range res {
		derived := ""
		if base, ok := medians[r.Base]; ok && r.Base != r.Name {
			switch {
			case t.Derive == Slowdown && base != 0:
				derived = fmt.Sprintf("%+.1f%%", 100*(r.Median-base)/base)
			case t.Derive == Speedup && r.Median != 0:
				derived = fmt.Sprintf("%.2fx", base/r.Median)
			case t.Derive == Overhead:
				derived = fmtValue(r.Median-base, r.Unit)
			}
		}
		line(r.Name, fmtValue(r.Median, r.Unit), "["+fmtValue(r.Q1, r.Unit)+", "+fmtValue(r.Q3, r.Unit)+"]", derived)
	}
	if t.Detail != nil {
		fmt.Fprintln(w)
		t.Detail(w)
	}
	fmt.Fprintln(w)
}

// Entries converts a table's results to bench entries for the JSON file
// and the -check gate.
func Entries(t *Table, res []Result) []BenchEntry {
	es := make([]BenchEntry, len(res))
	for i, r := range res {
		es[i] = BenchEntry{Table: t.Name, Row: r.Name, Unit: r.Unit,
			NsPerOp: int64(math.Round(r.Median)), Q1: int64(math.Round(r.Q1)), Q3: int64(math.Round(r.Q3))}
	}
	return es
}

func fmtValue(v float64, u Unit) string {
	switch u {
	case Ns:
		return fmtDur(time.Duration(math.Round(v)))
	case Bytes:
		return fmt.Sprintf("%.0fB", v)
	}
	return fmt.Sprintf("%.0f", v)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}

// ns converts a timed unit of work to a row value.
func ns(d time.Duration, err error) (float64, error) { return float64(d), err }

// perCall times n calls of op and returns the cost of one in nanoseconds.
func perCall(n int, op func() error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(n), nil
}
