// Command perfbench is the repository's end-to-end benchmark. It runs
// one seeded workload against an in-process worldd serving a real unix
// socket, drives it with at most two net/http clients, checks every
// session's output against an oracle, and prints its metrics; the last
// line of standard output is one JSON object.
//
//	go run . --workload short-sessions|agent-build|tenant-churn \
//	    --seed N --seconds S --trace 0|1
//
// (from this directory; run.sh builds and runs it from the repository
// root). --trace 0 reports the end-to-end metrics; --trace 1 is the
// separate traced run that reports the per-layer metrics and the
// tracing overhead. See doc.go for the workloads and what each metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"interpose/internal/world"
)

// workload is one benchmark workload and every setting that differs
// between workloads.
type workload struct {
	name  string
	setup func(w *workload, dir string, seed int64, t *tally) (*env, error)
	run   func(w *workload, e *env, t *tally, rec *recorder, seed int64, dur time.Duration) phase
	// directOps is the workload's unit of work as direct sessions for
	// the traced run: the tenant spec, n ops, and the same ops as seen
	// without the agent stack.
	directOps func(e *env, seed int64, n int) (world.Spec, [][]session, [][]session)
	// reps is how many times a run sets up; setup_s is their median.
	reps int
	// warmOps is how many checked ops each set-up runs before timing,
	// so caches fill and lazy allocations happen outside the measured
	// stretch.
	warmOps int
	// scrapeEvery is how many ops client 0 runs between two scrapes of
	// GET /1.0/metrics.
	scrapeEvery int
	// directN is how many ops each direct measurement of the traced run
	// makes: enough for a median with minBeyond samples above it.
	directN int
	// leakCheck makes the run check that worlds, goroutines and
	// descriptors return to their post-set-up counts.
	leakCheck bool
	// opName and opUnit label the op figures in the report and rateName
	// the throughput; root is the op's root span.
	opName, rateName, root string
	opUnit                 time.Duration
}

var workloads = map[string]*workload{
	"short-sessions": {
		name: "short-sessions", setup: setupShort, run: runShort, directOps: shortDirectOps,
		reps: 21, warmOps: 200, scrapeEvery: 200, directN: 300,
		opName: "session", rateName: "sessions_per_s", root: "op.session", opUnit: time.Microsecond,
	},
	"agent-build": {
		name: "agent-build", setup: setupBuild, run: runBuild, directOps: buildDirectOps,
		reps: 21, warmOps: 2, scrapeEvery: 10, directN: 30,
		opName: "build", rateName: "builds_per_s", root: "op.build", opUnit: time.Millisecond,
	},
	"tenant-churn": {
		name: "tenant-churn", setup: setupChurn, run: runChurn, directOps: churnDirectOps,
		reps: 9, warmOps: 30, scrapeEvery: 25, directN: 300, leakCheck: true,
		opName: "create", rateName: "cycles_per_s", root: "op.cycle", opUnit: time.Microsecond,
	},
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: short-sessions, agent-build or tenant-churn")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "seconds of measured work")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// outDir is where runs keep their sockets and span logs: the build
// directory inside the checkout, as a path relative to it where
// possible, since a unix socket path must stay under ~100 bytes.
func outDir() string {
	d := os.Getenv("CARGO_TARGET_DIR")
	if d == "" {
		return ".bench_build"
	}
	if wd, err := os.Getwd(); err == nil && filepath.IsAbs(d) {
		if rel, err := filepath.Rel(wd, d); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
	}
	return d
}

// settledHeap is the live heap after two forced collections.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// run sets the workload up reps times (keeping the last), measures it,
// and reports. out receives the human-readable lines.
func run(w *workload, seed int64, dur time.Duration, traced bool, out io.Writer) (*result, error) {
	t := &tally{}
	dir := filepath.Join(outDir(), fmt.Sprintf("run-%d", os.Getpid()))
	var setups, heaps []float64
	var e *env
	for i := 0; i < w.reps; i++ {
		if e != nil {
			if err := e.d.stop(); err != nil {
				return nil, fmt.Errorf("stop set-up %d: %w", i, err)
			}
		}
		h0 := settledHeap()
		t0 := time.Now()
		var err error
		e, err = w.setup(w, dir, seed, t)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		heaps = append(heaps, (float64(settledHeap())-float64(h0))/1024/float64(e.worlds))
	}
	if w.leakCheck {
		e.base = e.quiesced(1200*time.Millisecond, nil)
	}
	fmt.Fprintf(out, "workload %s seed %d: %d resident worlds, set-up %.3fs median of %d\n",
		w.name, seed, e.worlds, median(setups), len(setups))

	res := &result{Metrics: map[string]metric{}}
	var err error
	if traced {
		err = tracedRun(w, e, t, seed, dur, out, res)
	} else {
		err = plainRun(w, e, t, seed, dur, setups, heaps, out, res)
	}
	if err != nil {
		e.d.stop()
		for _, r := range t.reasons {
			fmt.Fprintln(out, "  failure:", r)
		}
		return nil, err
	}
	if w.leakCheck {
		n, msg := e.leaks()
		fmt.Fprintf(out, "leak check (worlds, goroutines, fds back to post-set-up %+v):", e.base)
		if n == 0 {
			fmt.Fprintln(out, " clean")
		} else {
			fmt.Fprintln(out, msg)
			for i := 0; i < n; i++ {
				t.fail("leak:%s", msg)
			}
		}
	}
	if err := e.d.stop(); err != nil {
		return nil, fmt.Errorf("stop: %w", err)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "metric %s %.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	ratio := float64(t.failed) / float64(max(t.attempted, 1))
	fmt.Fprintf(out, "fail_ratio %.6f (%d failed of %d attempted)\n", ratio, t.failed, t.attempted)
	for _, r := range t.reasons {
		fmt.Fprintln(out, "  failure:", r)
	}
	return res, nil
}

// plainRun is the untraced end-to-end run.
func plainRun(w *workload, e *env, t *tally, seed int64, dur time.Duration, setups, heaps []float64, out io.Writer, res *result) error {
	p := w.run(w, e, t, nil, seed, dur)
	op, err := windowedTiming(w.opName, p.op, p.dur, time.Microsecond)
	if err != nil {
		return err
	}
	sc, ok := p.scrape.percentile(50)
	if !ok {
		return fmt.Errorf("scrape: %d samples are too few for a median", len(p.scrape))
	}
	add := func(name string, v float64, unit string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	add("op_p50_us", op.p50, "us")
	add("ops_per_s", p.opsPerSec(), "1/s")
	add("scrape_p50_us", sc/1e3, "us")
	add("heap_per_world_kb", median(heaps), "KiB")
	add("setup_s", median(setups), "s")

	// The same figures under the names each workload's report uses, and
	// the tail and open-loop figures, which vary too much between runs
	// to be gated (the traced run reports them as unresolved.*).
	u := float64(w.opUnit / time.Microsecond)
	unit := map[time.Duration]string{time.Microsecond: "us", time.Millisecond: "ms"}[w.opUnit]
	fmt.Fprintf(out, "%s_p50_%s %.3f %s (n=%d, median of %d windows, closed loop, 2 clients)\n", w.opName, unit, op.p50/u, unit, op.n, op.windows)
	fmt.Fprintf(out, "%s_p99_%s %.3f %s (n=%d, median of %d windows; not gated)\n", w.opName, unit, op.p99/u, unit, op.n, op.windows)
	fmt.Fprintf(out, "%s %.1f 1/s (%d in %.2fs, median of %.1fs windows, closed loop, 2 clients)\n", w.rateName, p.opsPerSec(), len(p.done), p.dur.Seconds(), window.Seconds())
	if len(p.open) > 0 {
		o, err := windowedTiming("open-loop "+w.opName, p.open, p.dur, time.Microsecond)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "open_%s_p50_us %.1f us, open_%s_p99_us %.1f us (n=%d, median of %d windows, Poisson arrivals at %d/s, from due time; not gated)\n",
			w.opName, o.p50, w.opName, o.p99, o.n, o.windows, openRate)
	}
	fmt.Fprintf(out, "scrape_p50_us %.1f us (n=%d)\n", sc/1e3, len(p.scrape))
	fmt.Fprintf(out, "heap_per_world_kb %.2f KiB (%d worlds, median of %d set-ups)\n", median(heaps), e.worlds, len(heaps))
	fmt.Fprintf(out, "setup_s %.4f s (median of %d)\n", median(setups), len(setups))
	if len(p.late) > 0 {
		l50, _ := p.late.percentile(50)
		l99, _ := p.late.percentile(99)
		fmt.Fprintf(out, "loadgen late p50 %.1f us, p99 %.1f us (n=%d)\n", l50/1e3, l99/1e3, len(p.late))
	}
	r50, _ := p.sessRTT.percentile(50)
	s50, _ := p.sessSelf.percentile(50)
	fmt.Fprintf(out, "session round trip p50 %.1f us, of which outside world.Exec %.1f us (n=%d)\n", r50/1e3, s50/1e3, len(p.sessRTT))
	return nil
}
