// Benchmarks regenerating the paper's evaluation tables. One benchmark
// (family) per table or figure:
//
//	Table 3-2  BenchmarkTable32_FormatDissertation/{none,timex,trace,union}
//	Table 3-3  BenchmarkTable33_Make8Programs/{none,timex,trace,union}
//	Table 3-4  BenchmarkTable34_*
//	Table 3-5  BenchmarkTable35_*/{without,with}
//	§3.5.3     BenchmarkDFSTrace/{untraced,kernel,agent}
//
// plus ablations of the design choices DESIGN.md calls out. Table 3-1 is
// static analysis, regenerated by TestTable31AgentSizes below and by
// `experiments -table 3-1`. Absolute times are not comparable to the paper's 1990s
// hardware; the *shape* (who is slower, by roughly what factor) is what
// these reproduce — see EXPERIMENTS.md.
package interpose_test

import (
	"testing"

	"interpose/internal/agents/dfstrace"
	"interpose/internal/agents/nullagent"
	"interpose/internal/core"
	"interpose/internal/experiments"
	"interpose/internal/fault"
	"interpose/internal/kernel"
	"interpose/internal/sys"
	"interpose/internal/telemetry"
)

// mustWorld boots the benchmark world, failing the benchmark on error.
func mustWorld(tb testing.TB) *kernel.Kernel {
	tb.Helper()
	k, err := experiments.World()
	if err != nil {
		tb.Fatal(err)
	}
	return k
}

// benchStacks runs one sub-benchmark per paper agent configuration.
func benchStacks(b *testing.B, run func(b *testing.B, k *kernel.Kernel, agents []core.Agent)) {
	for _, name := range experiments.MacroStacks {
		b.Run(name, func(b *testing.B) {
			k := mustWorld(b)
			agents, err := experiments.AgentStack(k, name)
			if err != nil {
				b.Fatal(err)
			}
			run(b, k, agents)
		})
	}
}

// BenchmarkTable32_FormatDissertation is the paper's Table 3-2 workload:
// one iteration formats the generated dissertation with scribe.
func BenchmarkTable32_FormatDissertation(b *testing.B) {
	benchStacks(b, func(b *testing.B, k *kernel.Kernel, agents []core.Agent) {
		manuscript, err := experiments.SetupScribe(k)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunScribe(k, agents, manuscript); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable33_Make8Programs is the paper's Table 3-3 workload: one
// iteration builds eight two-source programs with make and the compiler
// pipeline (64 fork/exec pairs).
func BenchmarkTable33_Make8Programs(b *testing.B) {
	benchStacks(b, func(b *testing.B, k *kernel.Kernel, agents []core.Agent) {
		if err := experiments.SetupMake(k, 8); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := experiments.CleanMake(k, 8); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := experiments.RunMake(k, agents); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Table 3-4: low-level operation costs.

func BenchmarkTable34_ProcedureCall(b *testing.B) {
	x := 0
	for i := 0; i < b.N; i++ {
		x = experiments.PlainCall(x)
	}
	callSink = x
}

func BenchmarkTable34_InterfaceCall(b *testing.B) {
	c := experiments.IfaceCaller()
	x := 0
	for i := 0; i < b.N; i++ {
		x = c.Call(x)
	}
	callSink = x
}

// callSink defeats dead-code elimination.
var callSink int

func BenchmarkTable34_InterceptReturn(b *testing.B) {
	k := mustWorld(b)
	p := k.NewProc()
	layer := kernel.NewEmuLayer(interceptNop{})
	layer.Register(sys.SYS_getpagesize)
	p.PushEmulation(layer)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Syscall(sys.SYS_getpagesize, sys.Args{})
	}
}

// interceptNop handles a call at the agent layer without calling down.
type interceptNop struct{}

func (interceptNop) Syscall(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
	return sys.Retval{}, sys.OK
}

func BenchmarkTable34_SyscallDirect(b *testing.B) {
	k := mustWorld(b)
	p := k.NewProc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Syscall(sys.SYS_getpid, sys.Args{})
	}
}

// BenchmarkTable34_Downcall measures a call forwarded through one
// pass-through layer; subtracting SyscallDirect gives the downcall
// (htg_unix_syscall) overhead.
func BenchmarkTable34_Downcall(b *testing.B) {
	k := mustWorld(b)
	p := k.NewProc()
	layer := kernel.NewEmuLayer(downNop{})
	layer.RegisterAll()
	p.PushEmulation(layer)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Syscall(sys.SYS_getpid, sys.Args{})
	}
}

type downNop struct{}

func (downNop) Syscall(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
	return core.Down(c, num, a)
}

// Table 3-5: individual system call costs, without and with the
// measurement (null symbolic) agent. Each benchmark iteration is one
// system call performed by the in-simulation bench program.

func benchTable35(b *testing.B, op string) {
	for _, cfg := range []string{"without", "with"} {
		b.Run(cfg, func(b *testing.B) {
			k := mustWorld(b)
			var agents []core.Agent
			if cfg == "with" {
				agents = []core.Agent{nullagent.New()}
			}
			b.ResetTimer()
			if _, err := experiments.RunBench(k, agents, op, b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkTable35_Getpid(b *testing.B)       { benchTable35(b, "getpid") }
func BenchmarkTable35_Gettimeofday(b *testing.B) { benchTable35(b, "gettimeofday") }
func BenchmarkTable35_Fstat(b *testing.B)        { benchTable35(b, "fstat") }
func BenchmarkTable35_Read1K(b *testing.B)       { benchTable35(b, "read1k") }
func BenchmarkTable35_Stat(b *testing.B)         { benchTable35(b, "stat") }
func BenchmarkTable35_ForkWaitExit(b *testing.B) { benchTable35(b, "fork") }
func BenchmarkTable35_Execve(b *testing.B)       { benchTable35(b, "execve") }

// BenchmarkDFSTrace is the §3.5.3 comparison: the AFS-shaped workload
// untraced, under the compiled-in kernel tracer, and under the dfstrace
// agent.
func BenchmarkDFSTrace(b *testing.B) {
	for _, cfg := range []string{"untraced", "kernel", "agent"} {
		b.Run(cfg, func(b *testing.B) {
			k := mustWorld(b)
			if err := experiments.SetupMake(k, 2); err != nil {
				b.Fatal(err)
			}
			cl := dfstrace.NewCollector()
			var agents []core.Agent
			switch cfg {
			case "kernel":
				k.SetTracer(dfstrace.NewKernelTracer(cl))
			case "agent":
				agents = []core.Agent{dfstrace.New(cl)}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// One iteration is one traced workload; records do not
				// accumulate across iterations (DFSTrace drained its
				// buffers between runs too).
				b.StopTimer()
				cl.Reset()
				b.StartTimer()
				if _, err := experiments.DFSTraceWorkload(k, agents); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblation_PayPerUse quantifies design choice 1: a call number
// the agent did NOT register interest in skips the agent entirely.
func BenchmarkAblation_PayPerUse(b *testing.B) {
	for _, cfg := range []string{"uninstrumented-call", "instrumented-call"} {
		b.Run(cfg, func(b *testing.B) {
			k := mustWorld(b)
			p := k.NewProc()
			layer := kernel.NewEmuLayer(downNop{})
			if cfg == "instrumented-call" {
				layer.Register(sys.SYS_getpid)
			} else {
				layer.Register(sys.SYS_getpagesize) // interest elsewhere
			}
			p.PushEmulation(layer)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Syscall(sys.SYS_getpid, sys.Args{})
			}
		})
	}
}

// BenchmarkAblation_NumericVsSymbolic quantifies design choice 2: the
// symbolic layer's per-call argument decode versus a raw numeric
// pass-through.
func BenchmarkAblation_NumericVsSymbolic(b *testing.B) {
	mk := func(symbolic bool) []core.Agent {
		if symbolic {
			return []core.Agent{nullagent.New()}
		}
		n := &numericNull{}
		n.RegisterAll()
		return []core.Agent{n}
	}
	for _, cfg := range []string{"numeric", "symbolic"} {
		b.Run(cfg, func(b *testing.B) {
			k := mustWorld(b)
			b.ResetTimer()
			if _, err := experiments.RunBench(k, mk(cfg == "symbolic"), "stat", b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// numericNull is a numeric-layer agent with blanket interest and the
// default pass-down behaviour.
type numericNull struct{ core.Numeric }

// BenchmarkAblation_StackDepth measures the cost of each added layer.
func BenchmarkAblation_StackDepth(b *testing.B) {
	for _, depth := range []int{0, 1, 2, 4} {
		b.Run(itoa(depth)+"-layers", func(b *testing.B) {
			k := mustWorld(b)
			p := k.NewProc()
			for i := 0; i < depth; i++ {
				layer := kernel.NewEmuLayer(downNop{})
				layer.RegisterAll()
				p.PushEmulation(layer)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Syscall(sys.SYS_getpid, sys.Args{})
			}
		})
	}
}

func itoa(n int) string { return string(rune('0' + n)) }

// Telemetry benches: the flight-recorder substrate must itself obey the
// pay-per-use principle. With no registry installed (Disabled) the only
// cost added to the system call path is one atomic pointer load, so the
// getpid-under-nullagent figure must stay within noise of the same bench
// before telemetry existed (compare BenchmarkAblation_StackDepth/1-layers).
// Enabled shows the full recording cost: two time samples plus atomic
// histogram, attribution, and flight-ring updates per call.
func benchTelemetry(b *testing.B, enabled bool) {
	k := mustWorld(b)
	if enabled {
		k.SetTelemetry(telemetry.NewRegistry())
	}
	p := k.NewProc()
	core.Install(p, nullagent.New())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Syscall(sys.SYS_getpid, sys.Args{})
	}
}

func BenchmarkTelemetry_Disabled(b *testing.B) { benchTelemetry(b, false) }
func BenchmarkTelemetry_Enabled(b *testing.B)  { benchTelemetry(b, true) }

// benchFaultInjector is the pay-per-use guard for the kernel-side fault
// hook: with no injector installed the cost per system call is one atomic
// load (compare Disabled to Telemetry_Disabled); Enabled measures a
// non-firing plan consulted on every call.
func benchFaultInjector(b *testing.B, enabled bool) {
	k := mustWorld(b)
	if enabled {
		plan, err := fault.ParsePlan("seed=1,open=EIO@0.001")
		if err != nil {
			b.Fatal(err)
		}
		k.SetInjector(fault.NewInjector(plan))
	}
	p := k.NewProc()
	core.Install(p, nullagent.New())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Syscall(sys.SYS_getpid, sys.Args{})
	}
}

func BenchmarkFaultInjector_Disabled(b *testing.B) { benchFaultInjector(b, false) }
func BenchmarkFaultInjector_Enabled(b *testing.B)  { benchFaultInjector(b, true) }

// TestTable31AgentSizes regenerates Table 3-1 and checks its shape: a tiny
// agent's code is dwarfed by the toolkit's; trace's agent-specific code is
// proportional to the interface size; union reuses the larger layer set.
func TestTable31AgentSizes(t *testing.T) {
	tables, err := experiments.Select(experiments.Tables(1), "3-1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.Run(tables[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	size := map[string]float64{}
	for _, r := range res {
		size[r.Name] = r.Median
	}
	if size["timex/agent"] >= size["timex/toolkit"]/10 {
		t.Errorf("timex agent code (%v) should be a small fraction of toolkit code (%v)",
			size["timex/agent"], size["timex/toolkit"])
	}
	if size["trace/agent"] <= 5*size["timex/agent"] {
		t.Errorf("trace agent code (%v) should dwarf timex's (%v): it is proportional to the interface",
			size["trace/agent"], size["timex/agent"])
	}
	if size["union/toolkit"] <= size["trace/toolkit"] {
		t.Errorf("union should reuse more toolkit layers (%v) than trace (%v)",
			size["union/toolkit"], size["trace/toolkit"])
	}
}
