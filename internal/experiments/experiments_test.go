package experiments

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"interpose/internal/kernel"
)

// mustWorld boots the test world, failing the test on error.
func mustWorld(t *testing.T) *kernel.Kernel {
	t.Helper()
	k, err := World()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestWorldBoots(t *testing.T) {
	k, err := World()
	if err != nil {
		t.Fatal(err)
	}
	// The bench fixtures exist.
	if _, err := k.ReadFile("/usr/lib/bench/data1k"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ReadFile("/usr/lib/bench/three/four/five/six"); err != nil {
		t.Fatal(err)
	}
}

func TestAgentStacks(t *testing.T) {
	k := mustWorld(t)
	for _, name := range append(MacroStacks, "null") {
		agents, err := AgentStack(k, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "none" && agents != nil {
			t.Fatal("none should be empty")
		}
		if name != "none" && len(agents) != 1 {
			t.Fatalf("%s: %d agents", name, len(agents))
		}
	}
	if _, err := AgentStack(k, "bogus"); err == nil {
		t.Fatal("bogus stack accepted")
	}
}

func TestScribeWorkloadRuns(t *testing.T) {
	k := mustWorld(t)
	manuscript, err := SetupScribe(k)
	if err != nil {
		t.Fatal(err)
	}
	// The manuscript has the advertised rough size.
	data, err := k.ReadFile(manuscript)
	if err != nil {
		t.Fatal(err)
	}
	total := len(data)
	for i := 1; i <= 8; i++ {
		ch, err := k.ReadFile("/doc/chapter0" + string(rune('0'+i)) + ".mss")
		if err != nil {
			t.Fatalf("chapter %d: %v", i, err)
		}
		total += len(ch)
	}
	if total < 60_000 || total > 400_000 {
		t.Fatalf("manuscript size %d out of the ~100KB ballpark", total)
	}
	for _, stack := range MacroStacks {
		agents, _ := AgentStack(k, stack)
		if _, err := RunScribe(k, agents, manuscript); err != nil {
			t.Fatalf("%s: %v", stack, err)
		}
	}
}

func TestMakeWorkloadRunsAndCleans(t *testing.T) {
	k := mustWorld(t)
	if err := SetupMake(k, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := RunMake(k, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ReadFile("/src/prog1"); err != nil {
		t.Fatal("build produced nothing")
	}
	if err := CleanMake(k, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ReadFile("/src/prog1"); err == nil {
		t.Fatal("clean left outputs")
	}
	// And it rebuilds.
	if _, err := RunMake(k, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunBenchOps(t *testing.T) {
	for _, op := range Table35Ops {
		k := mustWorld(t)
		if _, err := RunBench(k, nil, op.Op, 3); err != nil {
			t.Fatalf("%s: %v", op.Op, err)
		}
	}
}

// runTable runs one registered table for a single round and indexes its
// results by row name.
func runTable(t *testing.T, name string) map[string]Result {
	t.Helper()
	tables, err := Select(Tables(2), name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tables[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]Result, len(res))
	for _, r := range res {
		byName[r.Name] = r
	}
	return byName
}

func TestTable31Shape(t *testing.T) {
	rows := runTable(t, "3-1")
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, a := range []string{"timex", "trace", "union"} {
		toolkit, own, total := rows[a+"/toolkit"].Median, rows[a+"/agent"].Median, rows[a+"/total"].Median
		if toolkit <= 0 || own <= 0 || total != toolkit+own {
			t.Fatalf("%s: toolkit %v agent %v total %v", a, toolkit, own, total)
		}
	}
}

func TestCountStatements(t *testing.T) {
	n, err := CountStatements(SymbolicLevelFiles())
	if err != nil {
		t.Fatal(err)
	}
	if n < 100 {
		t.Fatalf("symbolic level suspiciously small: %d", n)
	}
	if _, err := CountStatements([]string{"/no/such/file.go"}); err == nil {
		t.Fatal("missing file accepted")
	}
	// A directory counts its non-test Go files: this package's count
	// exceeds any one of its files and ignores this test file.
	dir, err := CountStatements([]string{"."})
	if err != nil {
		t.Fatal(err)
	}
	one, err := CountStatements([]string{"harness.go"})
	if err != nil {
		t.Fatal(err)
	}
	withTests, err := CountStatements([]string{".", "experiments_test.go"})
	if err != nil {
		t.Fatal(err)
	}
	if dir <= one || withTests <= dir {
		t.Fatalf("dir %d, harness.go %d, dir+test %d", dir, one, withTests)
	}
}

func TestKernelTraceHookCount(t *testing.T) {
	hooks, err := CountKernelTraceHooks()
	if err != nil {
		t.Fatal(err)
	}
	if hooks < 10 {
		t.Fatalf("only %d kernel trace hooks found", hooks)
	}
}

func TestTable34Measures(t *testing.T) {
	rows := runTable(t, "3-4")
	if rows["intercept-return"].Median <= 0 {
		t.Fatal("intercept cost not measured")
	}
	if d := rows["procedure-call"].Median; d <= 0 || d > float64(time.Millisecond) {
		t.Fatalf("procedure call time implausible: %vns", d)
	}
}

func TestMeasureAdaptive(t *testing.T) {
	d := Measure(func() {})
	if d < 0 || d > time.Millisecond {
		t.Fatalf("empty op measured as %v", d)
	}
	// The call-cost benchmarks' operations compute what they claim.
	if PlainCall(1) != 2 || IfaceCaller().Call(1) != 2 {
		t.Fatal("call-cost operations miscompute")
	}
}

// TestPrintersProduceTables prints synthetic results through the one
// printer, once per derived column and unit.
func TestPrintersProduceTables(t *testing.T) {
	result := func(name, base string, u Unit, q1, med, q3 float64) Result {
		return Result{Row: Row{Name: name, Unit: u, Base: base}, Q1: q1, Median: med, Q3: q3}
	}
	var b strings.Builder
	Print(&b, &Table{Title: "Title", Derive: Slowdown}, []Result{
		result("none", "none", Ns, 9e8, 1e9, 1.1e9),
		result("trace", "none", Ns, 2e9, 2e9, 2e9),
	})
	Print(&b, &Table{Title: "Scale", Derive: Speedup}, []Result{
		result("j1-none", "", Ns, 4e6, 4e6, 4e6),
		result("j4-none", "j1-none", Ns, 1e6, 1e6, 1e6),
	})
	Print(&b, &Table{Title: "Table 3-5", Derive: Overhead}, []Result{
		result("getpid()/without", "", Ns, 40, 40, 40),
		result("getpid()/with", "getpid()/without", Ns, 51, 52, 53),
	})
	Print(&b, &Table{Title: "Table 3-1", Detail: func(w io.Writer) { fmt.Fprintln(w, "  detail") }}, []Result{
		result("timex/toolkit", "", Count, 643, 643, 643),
		result("idle-mem/world", "", Bytes, 26000, 26539, 27000),
	})
	out := b.String()
	for _, want := range []string{
		"Title", "slowdown", "+100.0%", "[900.00ms, 1.10s]",
		"speedup", "4.00x",
		"overhead", "getpid()/with", "12ns", "[51ns, 53ns]",
		"Table 3-1", "timex/toolkit", " 643 ", "26539B", "[26000B, 27000B]", "detail",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("printed tables missing %q:\n%s", want, out)
		}
	}
	// The base row itself carries no derived value.
	if strings.Contains(out, "+0.0%") {
		t.Fatalf("base row compared against itself:\n%s", out)
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[time.Duration]string{
		2 * time.Second:         "2.00s",
		1500 * time.Microsecond: "1.50ms",
		42 * time.Microsecond:   "42.00µs",
		900 * time.Nanosecond:   "900ns",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
}
