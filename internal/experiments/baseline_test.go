package experiments

import (
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// guardedRows are the rows the -check gate compares against the baseline.
var guardedRows = []string{
	"3-5:stat()/without", "3-5:getpid()/with",
	"sup:getpid()/idle", "sup:getpid()/strict",
	"trace:getpid()/off", "trace:getpid()/sampled",
	"worldd:session", "worldd:idle-mem/world",
	"pool:acquire-hit", "pool:fork",
	"resil:probe", "resil:session/admit",
}

func TestGuardedRows(t *testing.T) {
	got, want := Guarded(Tables(2)), slices.Clone(guardedRows)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("guarded rows = %v, want %v", got, want)
	}
}

func TestCheckBaseline(t *testing.T) {
	baseline := []BenchEntry{
		{Table: "a", Row: "x", NsPerOp: 100},
		{Table: "a", Row: "mem", NsPerOp: 1000},
		{Table: "a", Row: "zero", NsPerOp: 0},
	}
	measured := func(x int64) []BenchEntry {
		return []BenchEntry{
			{Table: "a", Row: "x", NsPerOp: x, Unit: Ns},
			{Table: "a", Row: "mem", NsPerOp: 1000, Unit: Bytes},
			{Table: "a", Row: "zero", NsPerOp: 5, Unit: Ns},
			{Table: "a", Row: "new", NsPerOp: 5, Unit: Ns},
		}
	}
	guards := []string{"a:x", "a:mem"}
	for _, tc := range []struct {
		name     string
		measured []BenchEntry
		guards   []string
		wantErr  string // "" means the check passes
	}{
		{"unchanged", measured(100), guards, ""},
		{"unchanged baseline file", baseline[:2], guards, ""},
		{"faster", measured(10), guards, ""},
		{"at the limit", measured(150), guards, ""},
		{"just over the limit", measured(151), guards, "a:x: 151 ns vs baseline 100 ns (+51%, limit +50%)"},
		{"twice the baseline", measured(200), guards, "a:x: 200 ns vs baseline 100 ns (+100%, limit +50%)"},
		{"missing from baseline", measured(100), []string{"a:x", "a:new"}, "a:new: missing from baseline"},
		{"not measured", measured(100)[1:], guards, "a:x: not measured"},
		{"zero baseline", measured(100), []string{"a:zero"}, "a:zero: degenerate baseline 0 ns"},
	} {
		report, err := CheckBaseline(baseline, tc.measured, tc.guards, MaxRegress)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
		if tc.wantErr == "" && strings.Count(report, "\n") != len(tc.guards) {
			t.Errorf("%s: report should list every guard:\n%s", tc.name, report)
		}
	}
}

// TestCheckReportUnits: a bytes row reads in bytes in every report and
// failure message, not in nanoseconds.
func TestCheckReportUnits(t *testing.T) {
	baseline := []BenchEntry{{Table: "worldd", Row: "idle-mem/world", NsPerOp: 28000}}
	mem := []BenchEntry{{Table: "worldd", Row: "idle-mem/world", NsPerOp: 26539, Unit: Bytes}}
	report, err := CheckBaseline(baseline, mem, []string{"worldd:idle-mem/world"}, MaxRegress)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "26539 B ") || !strings.Contains(report, "28000 B ") || strings.Contains(report, "ns") {
		t.Fatalf("bytes row mislabeled:\n%s", report)
	}
	mem[0].NsPerOp = 60000
	if _, err := CheckBaseline(baseline, mem, []string{"worldd:idle-mem/world"}, MaxRegress); err == nil ||
		!strings.Contains(err.Error(), "60000 B vs baseline 28000 B") {
		t.Fatalf("regression message: %v", err)
	}
	zero := []BenchEntry{{Table: "worldd", Row: "idle-mem/world", NsPerOp: 0}}
	mem[0].NsPerOp = 26539
	if _, err := CheckBaseline(zero, mem, []string{"worldd:idle-mem/world"}, MaxRegress); err == nil ||
		!strings.Contains(err.Error(), "degenerate baseline 0 B") {
		t.Fatalf("degenerate message: %v", err)
	}
	rel := []Relation{{Left: "a:big", Right: "a:small", Factor: 2}}
	report, err = CheckRelations([]BenchEntry{
		{Table: "a", Row: "big", NsPerOp: 300, Unit: Bytes},
		{Table: "a", Row: "small", NsPerOp: 200, Unit: Bytes},
	}, rel)
	if err != nil || !strings.Contains(report, "300 B ") || strings.Contains(report, "ns") {
		t.Fatalf("relation report: %v\n%s", err, report)
	}
}

func TestCheckRelations(t *testing.T) {
	rels := []Relation{{Left: "a:on", Right: "a:off", Factor: 1.15, Why: "journal overhead"}}
	entry := func(row string, v int64) BenchEntry { return BenchEntry{Table: "a", Row: row, NsPerOp: v, Unit: Ns} }
	for _, tc := range []struct {
		name     string
		measured []BenchEntry
		wantErr  string
		lines    int
	}{
		{"holds", []BenchEntry{entry("on", 110), entry("off", 100)}, "", 1},
		{"violated", []BenchEntry{entry("on", 120), entry("off", 100)}, "a:on: 120 ns > 1.15 x a:off (100 ns) — journal overhead", 1},
		{"left missing", []BenchEntry{entry("off", 100)}, "a:on vs a:off: a:on not measured", 0},
		{"right missing", []BenchEntry{entry("on", 100)}, "a:on vs a:off: a:off not measured", 0},
		{"unmeasured is skipped", []BenchEntry{entry("other", 1)}, "", 0},
		{"degenerate right", []BenchEntry{entry("on", 100), entry("off", 0)}, "degenerate measurement 0 ns", 0},
	} {
		report, err := CheckRelations(tc.measured, rels)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
		if n := strings.Count(report, "\n"); n != tc.lines {
			t.Errorf("%s: %d report lines, want %d:\n%s", tc.name, n, tc.lines, report)
		}
	}
}

// TestBenchJSONRoundTrip: what the writer emits (unit and quartiles
// included) reads back unchanged, and the checked-in baseline, written
// before units and quartiles existed, still parses and passes against
// itself.
func TestBenchJSONRoundTrip(t *testing.T) {
	entries := []BenchEntry{
		{Table: "3-5", Row: "stat()/without", NsPerOp: 480, Unit: Ns, Q1: 470, Q3: 500},
		{Table: "worldd", Row: "idle-mem/world", NsPerOp: 26539, Unit: Bytes, Q1: 26500, Q3: 26600},
		{Table: "3-1", Row: "timex/agent", NsPerOp: 26, Unit: Count, Q1: 26, Q3: 26},
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteBenchJSON(path, entries); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBenchJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, entries) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", back, entries)
	}

	baseline, err := ReadBenchJSON(filepath.Join("..", "..", "BENCH_BASELINE.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckBaseline(baseline, baseline, guardedRows, MaxRegress); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchJSON(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := WriteBenchJSON(path, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchJSON("baseline.go"); err == nil {
		t.Fatal("malformed file accepted")
	}
}
