package main

// # Workloads
//
// Each workload runs against its own in-process worldd (worldd.New and
// Serve on a unix socket under the build directory), configured as
// cmd/worldd is by default: health watchdog on, default inflight cap, a
// state directory. Fixtures go in through Config.Setup. At most two
// clients and two connections drive it, one per processor of the 2-vCPU
// reference host. Every session's output is checked (exact echo and cat
// bytes, exact ls names, exit status, built programs against
// apps.ExpectedProgOutput); a miss, a non-2xx reply or a transport error
// is a failure, never dropped.
//
// short-sessions: two resident plain tenants run a seeded mix of true,
// echo <words>, cat <fixture> and ls /bin, each equally likely.
// One-second closed-loop stretches (one client per tenant; latency and
// throughput) alternate with one-second open-loop stretches (Poisson
// arrivals at openRate, latency from each request's due time). The
// guest work is ~10µs, so worldd's decode, admission, encode and HTTP
// plus World.Exec's process create and exec load dominate; agents,
// journal and VFS writes do almost nothing.
//
// agent-build: two resident tenants with the timex and union agents and
// an in-memory journal hold the make-8-programs tree (/src) and the
// dissertation (/doc). Each build removes the programs, runs mk all in
// the union /view and runs the eight programs; closed loop, two clients.
// Syscall-, fork- and exec-heavy (the paper's Table 3-3): kernel
// dispatch, the toolkit, the agents, VFS writes and the name cache, and
// journal appends dominate; the daemon's share is small.
//
// tenant-churn: an idle fleet of 1,000 worlds (one in ten with
// telemetry) stays resident; two closed-loop clients each create a
// tenant with a seeded spec (cold, pooled or journal_mem, one of each
// in every three cycles), run one
// checked echo, and delete it; client 0 also scrapes /1.0/metrics. At
// the end the world, goroutine and descriptor counts must be back at
// their post-set-up values; anything left over counts as failures.
// world.Boot/Fork/Pool.Acquire/Close, the COW fork and the scrape merge
// over the fleet dominate, and it writes worldd's world table where
// short-sessions only reads it.
//
// The mix shares (equal), the fixture sizes and the warm pool size are
// assumptions, not measured from any tenant traffic; see gen.go.
//
// # End-to-end metrics (--trace 0)
//
// Every workload reports the same five names; the op is the workload's
// unit of work (a closed-loop session, a build, a create):
//
//	op_p50_us          session_p50 | build_p50 | create_p50, closed loop
//	ops_per_s          sessions_per_s | builds_per_s | cycles_per_s
//	scrape_p50_us      GET /1.0/metrics, every scrapeEvery ops
//	heap_per_world_kb  GC-settled heap growth over set-up per resident world
//	setup_s            median of several set-ups in the run
//
// Latencies and throughput are medians over windows of the run (see
// windowedTiming); each line of the report gives its sample count.
// fail_ratio is printed and carried by the result's attempted and failed
// counts rather than as a metric, because on a correct tree it is 0.
//
// The op's p99 and short-sessions' open-loop p50 and p99 are printed
// but not gated: on the 2-vCPU reference host they moved by more than
// the largest allowed bound between runs of the same code (tails there
// follow the host's scheduling of the two processors, and the open
// loop's latency follows how fast an idle processor wakes). The traced
// run reports them as unresolved.*.
//
// # Per-layer metrics (--trace 1) and what each should move
//
//	worldd.session_self_us    round trip minus server elapsed_ns → op_p50 @ short-sessions; ~0 share @ agent-build
//	worldd.create_self_us     socket create minus direct world.Boot → op_p50 @ tenant-churn
//	worldd.rejected           429 and 503 replies → fail ratio @ all
//	worldd.probes             watchdog probes during the run → unresolved.op_p99 @ short-sessions, tenant-churn
//	worldd.scrape_bytes       metrics reply size → scrape_p50 @ tenant-churn
//	loadgen.late_p99_us       generator lateness: validity check on unresolved.open_p99 @ short-sessions
//	unresolved.op_p99_us, unresolved.open_p50_us, unresolved.open_p99_us
//	                          the ungated end-to-end figures, from the traced run's untraced stretch
//	world.exec_us             server elapsed_ns per op → op_p50 @ short-sessions, agent-build
//	world.boot_us, world.fork_us, world.acquire_us, world.close_us
//	                          direct calls → op_p50, ops_per_s @ tenant-churn
//	world.pool_hit_ratio      from /1.0/metrics pools → unresolved.op_p99 @ tenant-churn
//	world.allocs_per_exec, world.alloc_bytes_per_exec
//	                          MemStats around direct World.Exec → ops_per_s, unresolved.op_p99 @ short-sessions
//	kernel.run_us             direct core.Run per op; world.exec_us minus it is world's own time
//	kernel.fork_us            kernel.Fork, the COW clone → op_p50 @ tenant-churn
//	kernel.exec_cache_hit_ratio, kernel.syscalls_per_op, kernel.forks_per_op,
//	kernel.self_us_per_op     → op_p50 @ agent-build
//	agents.overhead_ratio     core.Run with the stack ÷ without → op_p50 @ agent-build (1 where there is no stack)
//	agents.timex.self_us_per_op, agents.union.self_us_per_op → op_p50 @ agent-build
//	vfs.dentry_hit_ratio, vfs.attr_hit_ratio → op_p50 @ agent-build
//	vfs.inodes_per_world      → heap_per_world_kb
//	journal.records_per_op, journal.flushes_per_op → op_p50 @ agent-build (0 @ short-sessions)
//	runtime.gc_cycles_per_1k_ops, runtime.gc_pause_p99_us → every unresolved p99
//	runtime.heap_live_mb      → heap_per_world_kb
//	trace.overhead_p50_us, trace.overhead_ops_per_s, trace.spans, trace.residual_us
//	                          the traced stretch minus the untraced one, and the breakdown's residual
//
// Counts come from a world booted directly with the tenant's spec (plus
// telemetry for the syscall, fork and layer figures), so the watchdog's
// probes and sibling tenants do not pollute them.
//
// # Predicted pairings
//
//   - A cut to the session path moves short-sessions; agent-build stays flat.
//   - A cut to dispatch or facility plumbing moves agent-build;
//     short-sessions stays nearly flat.
//   - Boot, pool or fork work moves tenant-churn; agent-build stays flat.
