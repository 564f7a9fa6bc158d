package experiments

import (
	"interpose/internal/kernel"
	spantrace "interpose/internal/trace"
)

// The tracing cost table ("trace"): what the causal span tracer costs on
// the system call fast path. The contract under test is pay-per-use —
// with no tracer installed the only cost is one atomic pointer load
// (off), an installed tracer sampling at 1% costs one xorshift draw on
// the unsampled majority (sampled), and only fully sampled calls pay for
// clock reads and span recording (full). The off and sampled rows are
// guarded.

func traceTable() *Table {
	tracer := func(sample float64) func(*kernel.Kernel, *kernel.Proc) {
		return func(k *kernel.Kernel, _ *kernel.Proc) {
			k.SetSpanTracer(spantrace.NewTracer(spantrace.Config{Sample: sample, TailErrors: sample < 1}))
		}
	}
	return getpidTable("trace", "Tracing cost (getpid, host-driven)", []getpidCfg{
		{name: "getpid()/off", guarded: true},
		{name: "getpid()/sampled", guarded: true, install: tracer(0.01)},
		{name: "getpid()/full", install: tracer(1)},
	})
}
