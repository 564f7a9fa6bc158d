package experiments

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// TestRunMedianOfInterleavedRounds drives the runner with fake rows: the
// warm-up round is discarded, rows interleave round-robin, and each
// row's median and quartiles are right for odd and even round counts.
func TestRunMedianOfInterleavedRounds(t *testing.T) {
	for _, tc := range []struct {
		vals        []float64 // the timed rounds' values, in call order
		q1, med, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{3, 1, 2}, 1.5, 2, 2.5},
		{[]float64{4, 1, 3, 2}, 1.75, 2.5, 3.25},
		{[]float64{5, 1, 4, 2, 3}, 2, 3, 4},
	} {
		var calls []string
		var setups, closes int
		row := func(name string, scale float64) Row {
			n := 0
			return Row{Name: name, Unit: Ns, Measure: func() (float64, error) {
				if setups != 1 {
					t.Fatalf("row %s measured before Setup", name)
				}
				calls = append(calls, name)
				n++
				if n == 1 {
					return 1e9, nil // the warm-up round: must not reach the result
				}
				return scale * tc.vals[n-2], nil
			}}
		}
		tb := &Table{Name: "fake", Rows: []Row{row("a", 1), row("b", 10)},
			Setup: func() error { setups++; return nil },
			Close: func() error { closes++; return nil }}
		res, err := Run(tb, len(tc.vals))
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Repeat("ab", len(tc.vals)+1)
		if got := strings.Join(calls, ""); got != want {
			t.Errorf("%d runs: call order %s, want %s", len(tc.vals), got, want)
		}
		if closes != 1 {
			t.Errorf("Close ran %d times", closes)
		}
		for i, scale := range []float64{1, 10} {
			r := res[i]
			if r.Q1 != scale*tc.q1 || r.Median != scale*tc.med || r.Q3 != scale*tc.q3 {
				t.Errorf("%d runs, row %s: q1/median/q3 = %v/%v/%v, want %v/%v/%v", len(tc.vals), r.Name,
					r.Q1, r.Median, r.Q3, scale*tc.q1, scale*tc.med, scale*tc.q3)
			}
		}
	}
}

// TestRunAbortsOnRowError: a failing row stops the run, names its table
// and row, and the table is still closed.
func TestRunAbortsOnRowError(t *testing.T) {
	boom := errors.New("boom")
	var closes int
	tb := &Table{Name: "fake", Close: func() error { closes++; return nil }, Rows: []Row{
		{Name: "ok", Measure: func() (float64, error) { return 1, nil }},
		{Name: "broken", Measure: func() (float64, error) { return 0, boom }},
	}}
	_, err := Run(tb, 3)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "table fake: row broken") {
		t.Fatalf("err = %v", err)
	}
	if closes != 1 {
		t.Fatalf("Close ran %d times", closes)
	}
	if _, err := Run(tb, 0); err == nil {
		t.Fatal("zero runs accepted")
	}
}

// tableNames are the -table names, in registry order.
var tableNames = []string{"3-1", "3-2", "3-3", "3-4", "3-5", "dfs", "scale", "obs", "sup", "trace", "crash", "worldd", "pool", "resil"}

func TestSelect(t *testing.T) {
	all := Tables(2)
	var names []string
	for _, tb := range all {
		names = append(names, tb.Name)
	}
	if !slices.Equal(names, tableNames) {
		t.Fatalf("registry = %v, want %v", names, tableNames)
	}
	for list, want := range map[string][]string{
		"all":             tableNames,
		"pool,3-5":        {"3-5", "pool"},
		"sup,all,trace":   tableNames,
		"worldd":          {"worldd"},
		"3-5,sup,trace":   {"3-5", "sup", "trace"},
		"crash,crash,obs": {"obs", "crash"},
	} {
		sel, err := Select(all, list)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, tb := range sel {
			got = append(got, tb.Name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("Select(%q) = %v, want %v", list, got, want)
		}
	}
	if _, err := Select(all, "3-5,bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown table: err = %v", err)
	}
}

// parentKeys are the table:row keys the bench JSON carried before the
// registry; every one must still be emitted under the same name.
var parentKeys = []string{
	"3-2:none", "3-2:timex", "3-2:trace", "3-2:union",
	"3-3:none", "3-3:timex", "3-3:trace", "3-3:union",
	"3-4:procedure-call", "3-4:interface-call", "3-4:intercept-return", "3-4:downcall",
	"3-5:getpid()/without", "3-5:getpid()/with", "3-5:gettimeofday()/without", "3-5:gettimeofday()/with",
	"3-5:fstat()/without", "3-5:fstat()/with", "3-5:read() 1K of data/without", "3-5:read() 1K of data/with",
	"3-5:stat()/without", "3-5:stat()/with", "3-5:fork(), wait(), _exit()/without",
	"3-5:fork(), wait(), _exit()/with", "3-5:execve()/without", "3-5:execve()/with",
	"dfs:untraced", "dfs:kernel-based", "dfs:dfstrace-agent",
	"scale:j1-none", "scale:j2-none", "scale:j4-none", "scale:j8-none", "scale:j4-trace",
	"scale:j4-stat",
	"obs:make-under-trace",
	"sup:getpid()/off", "sup:getpid()/idle", "sup:getpid()/layer", "sup:getpid()/strict", "sup:getpid()/deadline",
	"trace:getpid()/off", "trace:getpid()/sampled", "trace:getpid()/full",
	"crash:write4k/off", "crash:write4k/on", "crash:make/off", "crash:make/on",
	"crash:checkpoint", "crash:restore", "crash:boot",
	"worldd:boot", "worldd:session", "worldd:idle-mem/world",
	"pool:boot", "pool:fork", "pool:fork/large", "pool:acquire-hit",
	"resil:probe", "resil:boot", "resil:recover/pool", "resil:recover/journal", "resil:session", "resil:session/admit",
}

// TestEveryTableRuns runs every registered table for one round through
// the real runner, printer and JSON conversion.
func TestEveryTableRuns(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("the worldd table holds a 10k-world fleet of ~265 MB")
	}
	var out strings.Builder
	var entries []BenchEntry
	for _, tb := range Tables(2) {
		res, err := Run(tb, 1)
		if err != nil {
			t.Fatal(err)
		}
		Print(&out, tb, res)
		entries = append(entries, Entries(tb, res)...)
		if !strings.Contains(out.String(), tb.Title) {
			t.Errorf("table %s: title not printed", tb.Name)
		}
	}
	got := byKey(entries)
	for _, k := range parentKeys {
		if _, ok := got[k]; !ok {
			t.Errorf("%s no longer emitted", k)
		}
	}
	for k, e := range got {
		// Only the downcall, a difference of two timings, may read zero.
		if e.NsPerOp <= 0 && k != "3-4:downcall" || e.Q1 > e.NsPerOp || e.NsPerOp > e.Q3 {
			t.Errorf("%s: median %d [%d, %d] %s", k, e.NsPerOp, e.Q1, e.Q3, e.Unit)
		}
	}
	if got["worldd:idle-mem/world"].Unit != Bytes || got["3-1:union/total"].Unit != Count {
		t.Errorf("units: idle-mem %q, 3-1 %q", got["worldd:idle-mem/world"].Unit, got["3-1:union/total"].Unit)
	}
	for _, want := range []string{"Busiest system calls", "slowdown", "speedup", "overhead"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("printed tables lack %q", want)
		}
	}
}
