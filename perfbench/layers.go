package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"interpose/internal/apps"
	"interpose/internal/core"
	"interpose/internal/kernel"
	"interpose/internal/sys"
	"interpose/internal/telemetry"
	"interpose/internal/world"
	"interpose/internal/worldd"
)

// The traced run. It measures the workload twice over the socket —
// once untraced, once with a span around every client call — and then
// calls each layer's public functions directly from here, timing each
// call as a span: world.Boot/Fork/Close, world.Pool.Acquire,
// World.Exec, kernel.Fork and core.Run. Nothing inside the program is
// instrumented; counts come from the program's own published
// statistics (telemetry snapshots, FS.CacheStats, ExecCacheStats,
// journal Writer.Stats, the daemon's /1.0/metrics).

// sweepN is how many direct boots, forks, acquires and socket creates
// the lifecycle measurements make.
const sweepN = 60

// tracedRun runs the untraced and traced stretches, the direct layer
// calls, and reports every per-layer metric.
func tracedRun(w *workload, e *env, t *tally, seed int64, dur time.Duration, out io.Writer, res *result) error {
	heapMB := float64(settledHeap()) / (1 << 20)
	m0, _, err := e.d.metrics()
	if err != nil {
		return fmt.Errorf("scrape: %w", err)
	}
	// Untraced and traced pieces alternate, so drift in the host's speed
	// over the run lands on both sides of the overhead figure alike.
	const pieces = 3
	piece := dur * 2 / 5 / pieces
	rec := newRecorder()
	var u, tr phase
	var gcs uint32
	var pauses samples
	for i := 0; i < pieces; i++ {
		p := w.run(w, e, t, nil, seed, piece)
		u.appendShifted(&p, u.dur)
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		p = w.run(w, e, t, rec, seed, piece)
		runtime.ReadMemStats(&b)
		tr.appendShifted(&p, tr.dur)
		gcs += b.NumGC - a.NumGC
		pauses = append(pauses, gcPauses(&a, &b)...)
	}

	m1, _, err := e.d.metrics()
	if err != nil {
		return fmt.Errorf("scrape: %w", err)
	}
	dl, err := directLayers(w, e, t, rec, seed)
	if err != nil {
		return err
	}
	creates, err := socketCreates(e, t, rec)
	if err != nil {
		return err
	}

	units := len(tr.done) + len(tr.late)
	add := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	p50us := func(s samples) float64 {
		v, _ := s.percentile(50)
		return v / 1e3
	}
	// pct is a percentile of op latencies in µs, 0 when the samples are
	// too few for it.
	pct := func(ops []obs, p float64) float64 {
		var s samples
		for _, o := range ops {
			s = append(s, o.d)
		}
		v, _ := s.percentile(p)
		return v / 1e3
	}
	// The overhead compares medians over each side's pieces (too short
	// for a p99 per window on the slowest workload).
	uP50, tP50 := pct(u.op, 50), pct(tr.op, 50)

	// worldd and the load generator.
	add("worldd.session_self_us", p50us(tr.sessSelf), "us")
	add("worldd.create_self_us", p50us(creates)-dl.boot, "us")
	add("worldd.rejected", float64(t.rejected), "count")
	add("worldd.probes", float64(m1.Probes-m0.Probes), "count")
	add("worldd.scrape_bytes", float64(tr.scrapeB)/float64(max(len(tr.scrape), 1)), "bytes")
	late := 0.0
	if v, ok := u.late.percentile(99); ok {
		late = v / 1e3
	}
	add("loadgen.late_p99_us", late, "us")

	// End-to-end figures too unsteady between runs to be gated, from
	// the untraced stretch; 0 where the workload has no open loop.
	add("unresolved.op_p99_us", pct(u.op, 99), "us")
	add("unresolved.open_p50_us", pct(u.open, 50), "us")
	add("unresolved.open_p99_us", pct(u.open, 99), "us")

	// world.
	add("world.exec_us", p50us(tr.opExec), "us")
	add("world.boot_us", dl.boot, "us")
	add("world.fork_us", dl.fork, "us")
	add("world.acquire_us", dl.acquire, "us")
	add("world.close_us", dl.close, "us")
	add("world.pool_hit_ratio", poolHitRatio(m0, m1), "ratio")
	add("world.allocs_per_exec", dl.allocsPerExec, "count")
	add("world.alloc_bytes_per_exec", dl.bytesPerExec, "bytes")

	// kernel and core.
	add("kernel.run_us", dl.runP50, "us")
	add("kernel.fork_us", dl.kfork, "us")
	add("kernel.exec_cache_hit_ratio", dl.execHit, "ratio")
	add("kernel.syscalls_per_op", dl.syscallsPerOp, "count")
	add("kernel.forks_per_op", dl.forksPerOp, "count")
	add("kernel.self_us_per_op", dl.selfPerOp["kernel"], "us")

	// agents.
	add("agents.overhead_ratio", dl.overhead, "ratio")
	for _, a := range []string{"timex", "union"} {
		add("agents."+a+".self_us_per_op", dl.selfPerOp[a], "us")
	}

	// vfs and journal.
	add("vfs.dentry_hit_ratio", dl.dentryHit, "ratio")
	add("vfs.attr_hit_ratio", dl.attrHit, "ratio")
	add("vfs.inodes_per_world", float64(dl.inodes), "count")
	add("journal.records_per_op", dl.recordsPerOp, "count")
	add("journal.flushes_per_op", dl.flushesPerOp, "count")

	// runtime, over the traced stretch.
	add("runtime.gc_cycles_per_1k_ops", float64(gcs)*1000/float64(max(units, 1)), "count")
	pause, pauseLabel := gcPause(pauses)
	add("runtime.gc_pause_p99_us", pause, "us")
	add("runtime.heap_live_mb", heapMB, "MiB")

	// tracing itself.
	spans := rec.snapshot()
	add("trace.spans", float64(len(spans)), "count")
	add("trace.overhead_p50_us", tP50-uP50, "us")
	add("trace.overhead_ops_per_s", tr.opsPerSec()-u.opsPerSec(), "1/s")

	fmt.Fprintf(out, "untraced stretch: %s p50 %.1f us, %.1f ops/s (n=%d)\n", w.opName, uP50, u.opsPerSec(), len(u.op))
	fmt.Fprintf(out, "traced stretch:   %s p50 %.1f us, %.1f ops/s (n=%d, %d spans)\n", w.opName, tP50, tr.opsPerSec(), len(tr.op), len(spans))
	fmt.Fprintf(out, "tracing overhead: p50 %+.1f us, throughput %+.1f ops/s\n", tP50-uP50, tr.opsPerSec()-u.opsPerSec())
	fmt.Fprintf(out, "daemon counters over both stretches: shed %d, throttled %d, probes %d, probe fails %d, deaths %d\n",
		m1.Shed-m0.Shed, m1.Throttled-m0.Throttled, m1.Probes-m0.Probes, m1.ProbeFails-m0.ProbeFails, m1.Deaths-m0.Deaths)
	fmt.Fprintf(out, "gc pause %s\n", pauseLabel)
	printSpanTable(out, spans)
	residual := printBreakdown(out, w, spans, dl)
	add("trace.residual_us", residual, "us")

	path := filepath.Join(outDir(), fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := rec.writeSpans(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	return nil
}

// poolHitRatio is the warm-pool hit share of acquires between two
// scrapes (0 when nothing was acquired).
func poolHitRatio(m0, m1 worldd.Metrics) float64 {
	var hits, misses uint64
	for _, p := range m1.Pools {
		hits += p.Hits
		misses += p.Misses
	}
	for _, p := range m0.Pools {
		hits -= p.Hits
		misses -= p.Misses
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// gcPauses returns the collector's stop-the-world pauses between two
// MemStats reads (the runtime keeps the last 256).
func gcPauses(a, b *runtime.MemStats) samples {
	n := min(b.NumGC-a.NumGC, uint32(len(b.PauseNs)))
	var ps samples
	for i := uint32(0); i < n; i++ {
		ps = append(ps, int64(b.PauseNs[(b.NumGC-i+255)%256]))
	}
	return ps
}

// gcPause is the p99 of the pauses, or their maximum when there are too
// few for a p99 (the label says which).
func gcPause(ps samples) (float64, string) {
	if v, ok := ps.percentile(99); ok {
		return v / 1e3, fmt.Sprintf("p99 %.1f us over %d pauses", v/1e3, len(ps))
	}
	var hi int64
	for _, p := range ps {
		hi = max(hi, p)
	}
	return float64(hi) / 1e3, fmt.Sprintf("max %.1f us over %d pauses (too few for a p99)", float64(hi)/1e3, len(ps))
}

// layerCosts is what the direct calls measured. Times are µs.
type layerCosts struct {
	boot, bootJournal, fork, acquire, close, kfork float64 // p50 per call
	execPerOp, run                                 float64 // mean per op
	runP50                                         float64 // median per op
	overhead                                       float64
	allocsPerExec, bytesPerExec                    float64
	execHit, dentryHit, attrHit                    float64
	inodes                                         int
	syscallsPerOp, forksPerOp                      float64
	selfPerOp                                      map[string]float64 // telemetry layer self time
	recordsPerOp, flushesPerOp                     float64
}

// directSpec is the spec of a world booted directly with the daemon's
// fixtures.
func directSpec(e *env) world.Spec {
	return world.Spec{Name: "direct", Register: apps.Register, Setup: e.setup}
}

// shortDirectOps is n single sessions of the short mix.
func shortDirectOps(e *env, seed int64, n int) (world.Spec, [][]session, [][]session) {
	mix := newShortMix(seed, 7, e.fx)
	var ops [][]session
	for i := 0; i < n; i++ {
		ops = append(ops, []session{mix.next()})
	}
	return directSpec(e), ops, ops
}

// buildDirectOps is n builds under the tenant's agent stack and
// journal; without the stack the build runs in /src, not the union
// /view.
func buildDirectOps(e *env, _ int64, n int) (world.Spec, [][]session, [][]session) {
	spec := directSpec(e)
	spec.Agents = buildSpec["agents"].([]string)
	spec.JournalMem = true
	var ops, bare [][]session
	for i := 0; i < n; i++ {
		ops, bare = append(ops, buildSessions("/view")), append(bare, buildSessions("/src"))
	}
	return spec, ops, bare
}

// churnDirectOps is n of churn's checked echoes.
func churnDirectOps(e *env, seed int64, n int) (world.Spec, [][]session, [][]session) {
	mix := newChurnMix(seed, 7)
	var ops [][]session
	for i := 0; i < n; i++ {
		_, s := mix.next()
		ops = append(ops, []session{s})
	}
	return directSpec(e), ops, ops
}

// directLayers makes the direct calls into world, kernel and core.
func directLayers(w *workload, e *env, t *tally, rec *recorder, seed int64) (*layerCosts, error) {
	spec, ops, bare := w.directOps(e, seed, w.directN)
	lc := &layerCosts{selfPerOp: map[string]float64{}}
	if err := measureWorld(lc, spec, ops, bare, t, rec); err != nil {
		return nil, err
	}
	if err := measureTelemetry(lc, spec, ops, t, rec); err != nil {
		return nil, err
	}
	if err := measureLifecycle(lc, spec.Setup, rec); err != nil {
		return nil, err
	}
	return lc, nil
}

// firstOp is the first op on a fresh world: a build tree has nothing
// to remove yet, so its first build starts at make.
func firstOp(ops [][]session) []session {
	if len(ops[0]) > 1 && ops[0][0].argv[0] == "rm" {
		return ops[0][1:]
	}
	return ops[0]
}

// directExec runs one session through World.Exec and checks it.
func directExec(wd *world.World, s session, t *tally, rec *recorder, parent int64) time.Duration {
	var res world.ExecResult
	var err error
	d := rec.timed("direct.world.Exec", parent, func() {
		res, err = wd.Exec(world.ExecRequest{Argv: s.argv})
	})
	if err == nil {
		err = check(s, res)
	}
	if err != nil {
		t.fail("direct exec: %v", err)
	} else {
		t.ok()
	}
	return d
}

// directRun runs one session through core.Run on k under stack and
// checks it.
func directRun(k *kernel.Kernel, stack []core.Agent, s session, t *tally, rec *recorder, parent int64) time.Duration {
	var st sys.Word
	var outp string
	var err error
	path := s.argv[0]
	if !strings.HasPrefix(path, "/") {
		path = "/bin/" + path
	}
	d := rec.timed("direct.core.Run", parent, func() {
		st, outp, err = core.Run(k, stack, path, s.argv, []string{"PATH=/bin:/usr/bin"})
	})
	if err == nil {
		res := world.ExecResult{Output: outp}
		if sys.WIfExited(st) {
			res.Status = sys.WExitStatus(st)
		} else {
			res.Signal = sys.SignalName(sys.WTermSig(st))
		}
		err = check(s, res)
	}
	if err != nil {
		t.fail("direct run: %v", err)
	} else {
		t.ok()
	}
	return d
}

// measureWorld boots one world with the tenant's exact spec and times
// World.Exec and core.Run (with and without the agent stack) over the
// ops, reading allocations, cache and journal statistics around them.
func measureWorld(lc *layerCosts, spec world.Spec, ops, bare [][]session, t *tally, rec *recorder) error {
	wd, err := world.Boot(spec)
	if err != nil {
		return fmt.Errorf("direct boot: %w", err)
	}
	defer wd.Close()
	k := wd.Kernel()
	lc.inodes = k.FS().NumInodes()
	for _, s := range firstOp(ops) {
		directExec(wd, s, t, nil, 0)
	}

	cs0 := k.FS().CacheStats()
	eh0, em0 := k.ExecCacheStats()
	var jr0, jf0 uint64
	if jw := k.Journal(); jw != nil {
		jr0, jf0 = jw.Stats()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var execTotal time.Duration
	sessions := 0
	for _, op := range ops {
		h := rec.begin("direct.op", 0)
		for _, s := range op {
			execTotal += directExec(wd, s, t, rec, h.id())
			sessions++
		}
		h.end()
	}
	runtime.ReadMemStats(&ms1)
	cs1 := k.FS().CacheStats()
	eh1, em1 := k.ExecCacheStats()
	if jw := k.Journal(); jw != nil {
		jr1, jf1 := jw.Stats()
		lc.recordsPerOp = float64(jr1-jr0) / float64(len(ops))
		lc.flushesPerOp = float64(jf1-jf0) / float64(len(ops))
	}
	lc.execPerOp = float64(execTotal.Microseconds()) / float64(len(ops))
	lc.allocsPerExec = float64(ms1.Mallocs-ms0.Mallocs) / float64(sessions)
	lc.bytesPerExec = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(sessions)
	lc.execHit = ratio(eh1-eh0, em1-em0)
	hits := (cs1.Hits - cs0.Hits) + (cs1.NegHits - cs0.NegHits)
	lc.dentryHit = ratio(hits, cs1.Misses-cs0.Misses)
	lc.attrHit = ratio(cs1.AttrHit-cs0.AttrHit, cs1.AttrMis-cs0.AttrMis)

	// core.Run on the same kernel, with the world's agent stack and
	// without any, alternating which goes first so neither side always
	// runs on the other's leftovers.
	var with, without samples
	runOp := func(op []session, stack []core.Agent) time.Duration {
		var d time.Duration
		for _, s := range op {
			d += directRun(k, stack, s, t, rec, 0)
		}
		return d
	}
	for i := range ops {
		if i%2 == 0 {
			with.add(runOp(ops[i], wd.Stack()))
			without.add(runOp(bare[i], nil))
		} else {
			without.add(runOp(bare[i], nil))
			with.add(runOp(ops[i], wd.Stack()))
		}
	}
	lc.run = with.mean() / 1e3
	lc.runP50 = p50(with)
	lc.overhead = p50(with) / p50(without)
	return nil
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// blocking names the syscalls that wait for another process or a
// signal rather than doing kernel work.
var blocking = map[string]bool{"wait4": true, "sigpause": true}

// measureTelemetry boots the tenant's spec with telemetry and reads the
// per-op syscall and fork counts and each layer's self time from its
// registry.
func measureTelemetry(lc *layerCosts, spec world.Spec, ops [][]session, t *tally, rec *recorder) error {
	spec.Telemetry = true
	wd, err := world.Boot(spec)
	if err != nil {
		return fmt.Errorf("direct boot: %w", err)
	}
	defer wd.Close()
	for _, s := range firstOp(ops) {
		directExec(wd, s, t, nil, 0)
	}
	s0 := wd.Telemetry().Snapshot()
	for _, op := range ops {
		for _, s := range op {
			directExec(wd, s, t, rec, 0)
		}
	}
	s1 := wd.Telemetry().Snapshot()
	n := float64(len(ops))
	lc.syscallsPerOp = float64(s1.Total-s0.Total) / n
	forks := func(snap []telemetry.SyscallSnap) uint64 {
		var f uint64
		for _, r := range snap {
			if r.Name == "fork" || r.Name == "vfork" {
				f += r.Count
			}
		}
		return f
	}
	lc.forksPerOp = float64(forks(s1.Syscalls)-forks(s0.Syscalls)) / n
	// Agent layers' self time comes from the registry's attribution.
	// The kernel's is every syscall's latency except the calls that
	// block on another process (a wait spans its child's whole run, and
	// nested waits would count it again), minus the agents' share.
	self := map[string]time.Duration{}
	for _, l := range s1.Layers {
		self[l.Name] += l.Self
	}
	for _, l := range s0.Layers {
		self[l.Name] -= l.Self
	}
	delete(self, "kernel")
	var kern time.Duration
	for _, r := range s1.Syscalls {
		if !blocking[r.Name] {
			kern += r.Total
		}
	}
	for _, r := range s0.Syscalls {
		if !blocking[r.Name] {
			kern -= r.Total
		}
	}
	for _, d := range self {
		kern -= d
	}
	self["kernel"] = kern
	for name, d := range self {
		lc.selfPerOp[name] = float64(d.Microseconds()) / n
	}
	return nil
}

// measureLifecycle times world.Boot (plain and journaled), world.Fork,
// Pool.Acquire from a full pool, World.Close and kernel.Fork, each
// sweepN times.
func measureLifecycle(lc *layerCosts, setup []func(*kernel.Kernel) error, rec *recorder) error {
	plain := world.Spec{Name: "sweep", Register: apps.Register, Setup: setup}
	journaled := plain
	journaled.JournalMem = true
	var boot, bootJ, fork, acq, closeT, kfork samples
	closeW := func(wd *world.World) error {
		var err error
		closeT.add(rec.timed("direct.world.Close", 0, func() { err = wd.Close() }))
		return err
	}
	tmpl, err := world.Boot(plain)
	if err != nil {
		return fmt.Errorf("template boot: %w", err)
	}
	defer tmpl.Close()
	pool, err := world.NewPool(plain, churnPoolSize)
	if err != nil {
		return fmt.Errorf("pool: %w", err)
	}
	defer pool.Close()
	for i := 0; i < sweepN; i++ {
		for _, c := range []struct {
			s  *samples
			sp world.Spec
		}{{&boot, plain}, {&bootJ, journaled}} {
			var wd *world.World
			c.s.add(rec.timed("direct.world.Boot", 0, func() { wd, err = world.Boot(c.sp) }))
			if err != nil {
				return fmt.Errorf("boot: %w", err)
			}
			if err := closeW(wd); err != nil {
				return err
			}
		}
		var wd *world.World
		fork.add(rec.timed("direct.world.Fork", 0, func() { wd, err = world.Fork(tmpl, plain) }))
		if err != nil {
			return fmt.Errorf("fork: %w", err)
		}
		if err := closeW(wd); err != nil {
			return err
		}
		// Time only hits: wait for the refiller to restore the pool.
		for pool.Stats().Size < churnPoolSize {
			time.Sleep(100 * time.Microsecond)
		}
		acq.add(rec.timed("direct.world.Pool.Acquire", 0, func() { wd, err = pool.Acquire() }))
		if err != nil {
			return fmt.Errorf("acquire: %w", err)
		}
		if err := closeW(wd); err != nil {
			return err
		}
		var child *kernel.Kernel
		kfork.add(rec.timed("direct.kernel.Fork", 0, func() { child, err = kernel.Fork(tmpl.Kernel()) }))
		if err != nil {
			return fmt.Errorf("kernel fork: %w", err)
		}
		child.Shutdown()
	}
	lc.boot, lc.bootJournal = p50(boot), p50(bootJ)
	lc.fork, lc.acquire, lc.close, lc.kfork = p50(fork), p50(acq), p50(closeT), p50(kfork)
	return nil
}

// p50 is the median of s in µs (sweeps are too short for the
// ten-beyond rule to bite at the median).
func p50(s samples) float64 {
	v, _ := s.percentile(50)
	return v / 1e3
}

// socketCreates times sweepN plain creates over the socket (each
// deleted again), for the daemon's own share of a create.
func socketCreates(e *env, t *tally, rec *recorder) (samples, error) {
	var out samples
	for i := 0; i < sweepN; i++ {
		var id string
		var err error
		out.add(rec.timed("client.create", 0, func() { id, err = e.d.create(map[string]any{"name": "sweep"}) }))
		if err != nil {
			t.fail("sweep create: %v", err)
			continue
		}
		t.ok()
		if err := e.d.remove(id); err != nil {
			t.fail("sweep delete: %v", err)
			continue
		}
		t.ok()
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sweep create succeeded")
	}
	return out, nil
}

// printSpanTable prints, per span name, the count, mean duration and
// mean self time.
func printSpanTable(out io.Writer, spans []span) {
	fmt.Fprintf(out, "%-28s %9s %12s %12s\n", "span", "count", "mean_us", "self_us")
	for _, st := range selfTimes(spans) {
		fmt.Fprintf(out, "%-28s %9d %12.2f %12.2f\n", st.name, st.count,
			float64(st.total)/float64(st.count)/1e3, float64(st.self)/float64(st.count)/1e3)
	}
}

// printBreakdown attributes the traced op's mean time to layers and
// returns the residual: the mean op span minus every attributed part.
// The client-side parts come from the op's spans; the server-side parts
// from the direct calls and telemetry, each measured serially on its
// own, so the residual is what those costs do not explain: waiting for
// the world lock or a processor under load, tracing itself, and drift
// between the loaded and the serial measurements (it can be negative).
func printBreakdown(out io.Writer, w *workload, spans []span, lc *layerCosts) float64 {
	root := w.root
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var roots []span
	under := map[string][]span{}
	for _, s := range spans {
		if s.Name == root {
			roots = append(roots, s)
		} else if p, ok := byID[s.Parent]; ok && p.Name == root {
			under[s.Name] = append(under[s.Name], s)
		}
	}
	if len(roots) == 0 {
		fmt.Fprintln(out, "breakdown: no op spans")
		return 0
	}
	n := float64(len(roots))
	mean := func(ss []span) float64 {
		var sum int64
		for _, s := range ss {
			sum += s.End - s.Start
		}
		return float64(sum) / 1e3 / n
	}
	e2e := mean(roots)
	// An op's client calls run one after another, so its self time is
	// its duration minus theirs.
	self := e2e
	for _, ss := range under {
		self -= mean(ss)
	}
	execs := mean(under["client.exec"])
	var servers []span
	for _, s := range spans {
		if s.Name == "server.exec" {
			if p, ok := byID[s.Parent]; ok && p.Name == "client.exec" {
				if g, ok := byID[p.Parent]; ok && g.Name == root {
					servers = append(servers, s)
				}
			}
		}
	}
	serverMean := mean(servers)
	creates, deletes := mean(under["client.create"]), mean(under["client.delete"])
	createsPerOp := float64(len(under["client.create"])) / n
	deletesPerOp := float64(len(under["client.delete"])) / n
	// Churn's direct create cost, weighted by the deck's spec shares.
	var boot float64
	for _, k := range churnDeck {
		switch k {
		case churnCold:
			boot += lc.boot
		case churnPooled:
			boot += lc.acquire
		case churnJournal:
			boot += lc.bootJournal
		}
	}
	boot = boot / float64(len(churnDeck)) * createsPerOp
	closeCost := lc.close * deletesPerOp

	var agentSelf float64
	var agentNames []string
	for name, v := range lc.selfPerOp {
		if name != "kernel" {
			agentSelf += v
			agentNames = append(agentNames, name)
		}
	}
	sort.Strings(agentNames)
	type part struct {
		name string
		v    float64
	}
	parts := []part{
		{"bench (op self: generator wait, oracle checks)", self},
		{"worldd+http (exec round trip minus elapsed_ns)", execs - serverMean},
		{"worldd+http (create/delete minus direct cost)", creates + deletes - boot - closeCost},
		{"world create (direct Boot/Acquire, spec mix)", boot},
		{"world close (direct Close)", closeCost},
		{"world own (direct World.Exec minus core.Run)", lc.execPerOp - lc.run},
	}
	for _, name := range agentNames {
		parts = append(parts, part{"agents." + name + " (telemetry self)", lc.selfPerOp[name]})
	}
	parts = append(parts,
		part{"kernel (telemetry self)", lc.selfPerOp["kernel"]},
		part{"guest, process create, exec load (core.Run minus layer selves)", lc.run - lc.selfPerOp["kernel"] - agentSelf})
	fmt.Fprintf(out, "breakdown of the traced %s (mean per op, us; %0.f ops):\n", root, n)
	sum := 0.0
	for _, p := range parts {
		fmt.Fprintf(out, "  %-66s %12.2f\n", p.name, p.v)
		sum += p.v
	}
	residual := e2e - sum
	fmt.Fprintf(out, "  %-66s %12.2f\n", "residual (e2e minus parts: waits under load, tracing, drift)", residual)
	fmt.Fprintf(out, "  %-66s %12.2f\n", "end-to-end mean of "+root, e2e)
	return residual
}
