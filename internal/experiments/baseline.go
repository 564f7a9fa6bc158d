package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Baseline regression checking: the perf-smoke CI job runs the guarded
// tables and compares each guarded row's median (the rows declare
// Guarded: true in their tables) against the checked-in
// BENCH_BASELINE.json, failing on a large regression, and enforces the
// relations below between rows of the same run.

// BenchEntry is one measured row of a table, exported by the bench JSON
// mode so successive runs can be diffed mechanically. NsPerOp is the
// row's median in its Unit (the field name predates byte and count
// rows), and Q1/Q3 are its quartiles over the rounds. Files written
// before units were recorded hold only nanosecond rows.
type BenchEntry struct {
	Table   string `json:"table"`
	Row     string `json:"row"`
	NsPerOp int64  `json:"ns_per_op"`
	Unit    Unit   `json:"unit,omitempty"`
	Q1      int64  `json:"q1,omitempty"`
	Q3      int64  `json:"q3,omitempty"`
}

// byKey indexes entries by their "table:row" key.
func byKey(es []BenchEntry) map[string]BenchEntry {
	m := make(map[string]BenchEntry, len(es))
	for _, e := range es {
		m[e.Table+":"+e.Row] = e
	}
	return m
}

// unit is the entry's unit; an entry without one is in nanoseconds.
func (e BenchEntry) unit() Unit {
	if e.Unit == "" {
		return Ns
	}
	return e.Unit
}

// WriteBenchJSON writes the collected entries to path as indented JSON.
func WriteBenchJSON(path string, entries []BenchEntry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(entries); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// MaxRegress is the allowed slowdown factor before the check fails:
// 0.5 means a guarded row may be at most 50% slower than its baseline.
const MaxRegress = 0.5

// Relation is a relational guard between two rows measured in the same
// run: Left must cost at most Factor times Right. Unlike the absolute
// baseline guards, a relation compares two legs of the same noisy
// machine against each other, so it holds on any host.
type Relation struct {
	Left, Right string  // "table:row" keys
	Factor      float64 // Left <= Factor * Right
	Why         string
}

// Relations are the relational guards of the -check gate. A relation is
// skipped when neither side was measured (its table was not requested),
// but a half-measured relation fails — a vanished leg is not a pass.
var Relations = []Relation{
	{Left: "crash:make/on", Right: "crash:make/off", Factor: 1.15,
		Why: "journal-on write-path overhead must stay within 15% on the write-heavy make workload"},
	{Left: "crash:restore", Right: "crash:boot", Factor: 1.0,
		Why: "restoring a checkpoint must beat a full boot"},
	{Left: "pool:acquire-hit", Right: "pool:boot", Factor: 0.4,
		Why: "a pool-hit acquire must be far cheaper than the boot it replaces (the <50µs-vs-~113µs claim)"},
	{Left: "pool:fork", Right: "pool:boot", Factor: 1.0,
		Why: "a copy-on-write fork must beat the boot it replaces (worldd makes every tenant by forking its base world)"},
	{Left: "pool:fork/large", Right: "pool:fork", Factor: 2.0,
		Why: "COW fork cost must be O(#inodes): 256x the file bytes may not move the fork time"},
	{Left: "resil:recover/pool", Right: "resil:boot", Factor: 1.0,
		Why: "recovery through the warm pool must beat the cold boot it replaces"},
	{Left: "resil:session/admit", Right: "resil:session", Factor: 1.15,
		Why: "the admission gates must add no measurable cost to the admitted session fast path"},
}

// CheckRelations enforces Relations over the measured entries.
func CheckRelations(measured []BenchEntry, rels []Relation) (string, error) {
	got := byKey(measured)
	var report strings.Builder
	var failures []string
	for _, r := range rels {
		l, okL := got[r.Left]
		rv, okR := got[r.Right]
		switch {
		case !okL && !okR:
			continue
		case !okL || !okR:
			missing := r.Left
			if okL {
				missing = r.Right
			}
			failures = append(failures, fmt.Sprintf("%s vs %s: %s not measured", r.Left, r.Right, missing))
		case rv.NsPerOp <= 0:
			failures = append(failures, fmt.Sprintf("%s vs %s: degenerate measurement %d %s", r.Left, r.Right, rv.NsPerOp, rv.unit()))
		default:
			ratio := float64(l.NsPerOp) / float64(rv.NsPerOp)
			status := "ok"
			if ratio > r.Factor {
				status = "VIOLATED"
				failures = append(failures, fmt.Sprintf("%s: %d %s > %.2f x %s (%d %s) — %s",
					r.Left, l.NsPerOp, l.unit(), r.Factor, r.Right, rv.NsPerOp, rv.unit(), r.Why))
			}
			fmt.Fprintf(&report, "  %-24s %10d %-5s <= %.2f x %-24s %10d %-5s  (x%.2f)  %s\n",
				r.Left, l.NsPerOp, l.unit(), r.Factor, r.Right, rv.NsPerOp, rv.unit(), ratio, status)
		}
	}
	if len(failures) > 0 {
		return report.String(), fmt.Errorf("experiments: relation check failed:\n  %s",
			strings.Join(failures, "\n  "))
	}
	return report.String(), nil
}

// ReadBenchJSON loads a bench-entries file written by WriteBenchJSON.
func ReadBenchJSON(path string) ([]BenchEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: baseline: %w", err)
	}
	var entries []BenchEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("experiments: baseline %s: %w", path, err)
	}
	return entries, nil
}

// CheckBaseline compares measured entries against a baseline. Guarded
// rows missing from either side fail (a silently vanished benchmark is
// not a pass); a guarded row slower than baseline by more than maxRegress
// fails. The returned report lists every guarded comparison in the
// measured row's unit.
func CheckBaseline(baseline, measured []BenchEntry, guards []string, maxRegress float64) (string, error) {
	base, got := byKey(baseline), byKey(measured)
	var report strings.Builder
	var failures []string
	for _, g := range guards {
		b, okB := base[g]
		m, okM := got[g]
		switch {
		case !okB:
			failures = append(failures, fmt.Sprintf("%s: missing from baseline", g))
		case !okM:
			failures = append(failures, fmt.Sprintf("%s: not measured", g))
		case b.NsPerOp <= 0:
			failures = append(failures, fmt.Sprintf("%s: degenerate baseline %d %s", g, b.NsPerOp, m.unit()))
		default:
			ratio := float64(m.NsPerOp)/float64(b.NsPerOp) - 1
			status := "ok"
			if ratio > maxRegress {
				status = "REGRESSED"
				failures = append(failures,
					fmt.Sprintf("%s: %d %s vs baseline %d %s (%+.0f%%, limit +%.0f%%)",
						g, m.NsPerOp, m.unit(), b.NsPerOp, m.unit(), 100*ratio, 100*maxRegress))
			}
			fmt.Fprintf(&report, "  %-24s %10d %-5s baseline %10d %-5s  %+6.1f%%  %s\n",
				g, m.NsPerOp, m.unit(), b.NsPerOp, m.unit(), 100*ratio, status)
		}
	}
	if len(failures) > 0 {
		return report.String(), fmt.Errorf("experiments: baseline check failed:\n  %s",
			strings.Join(failures, "\n  "))
	}
	return report.String(), nil
}
