package experiments

import (
	"time"

	"interpose/internal/core"
	"interpose/internal/kernel"
	"interpose/internal/sys"
)

// Low-level measurements behind Table 3-4: the primitive costs that bound
// every interposition agent's overhead.

//go:noinline
func plainCall(x int) int { return x + 1 }

// caller is the interface used for the virtual-call measurement.
type caller interface {
	Call(x int) int
}

type callee struct{ v int }

//go:noinline
func (c *callee) Call(x int) int { return x + c.v }

// Measure times one operation by running it in a calibrated loop.
func Measure(op func()) time.Duration {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		elapsed := time.Since(start)
		if elapsed > 20*time.Millisecond || n >= 1<<24 {
			return elapsed / time.Duration(n)
		}
		n *= 4
	}
}

// sink defeats dead-code elimination in the measurement loops.
var sink int

// PlainCall is the non-inlined procedure used by the call-cost benches.
func PlainCall(x int) int { return plainCall(x) }

// IfaceCaller returns an interface value whose Call dispatches
// dynamically, for the virtual-call benches.
func IfaceCaller() interface{ Call(int) int } { return &callee{v: 1} }

// interceptOnly is an emulation layer that handles a call entirely at the
// agent level, immediately returning. Dispatching to it and back is the
// floor cost of interception — the paper's "intercept and return from
// system call".
type interceptOnly struct{}

func (interceptOnly) Syscall(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
	return sys.Retval{a[0]}, sys.OK
}

// passThrough is an emulation layer that forwards every call downward; the
// difference between a call through it and a direct call is the downcall
// (htg_unix_syscall) overhead.
type passThrough struct{}

func (passThrough) Syscall(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
	type downer interface {
		Down(num int, a sys.Args) (sys.Retval, sys.Errno)
	}
	return c.(downer).Down(num, a)
}

// measureProc makes a process for host-driven call measurements.
func measureProc(k *kernel.Kernel) *kernel.Proc {
	p := k.NewProc()
	p.OpenConsole()
	return p
}

// pushPassThrough interposes a pass-through layer on every call of p.
func pushPassThrough(p *kernel.Proc) {
	layer := kernel.NewEmuLayer(passThrough{})
	layer.RegisterAll()
	p.PushEmulation(layer)
}

// getpidCost times one host-driven getpid on p.
func getpidCost(p *kernel.Proc) float64 {
	return float64(Measure(func() { p.Syscall(sys.SYS_getpid, sys.Args{}) }))
}

// table34 is the low-level operations table: the primitive costs that
// bound every interposition agent's overhead — a plain (non-inlined)
// procedure call, a dynamic-dispatch call, a system call an agent layer
// handles without calling down (interception machinery only), and the
// downcall (htg_unix_syscall) overhead: a trivial call through a
// pass-through layer less the same call with no agents installed.
func table34() *Table {
	var direct, through, intercept *kernel.Proc
	var c caller = &callee{v: 1}
	return &Table{Name: "3-4", Title: "Table 3-4: Performance of low-level operations",
		Setup: func() error {
			k, err := World()
			if err != nil {
				return err
			}
			direct, through, intercept = measureProc(k), measureProc(k), measureProc(k)
			pushPassThrough(through)
			layer := kernel.NewEmuLayer(interceptOnly{})
			layer.Register(sys.SYS_getpagesize)
			intercept.PushEmulation(layer)
			return nil
		},
		Rows: []Row{
			{Name: "procedure-call", Unit: Ns, Measure: func() (float64, error) {
				return float64(Measure(func() { sink = plainCall(sink) })), nil
			}},
			{Name: "interface-call", Unit: Ns, Measure: func() (float64, error) {
				return float64(Measure(func() { sink = c.Call(sink) })), nil
			}},
			{Name: "intercept-return", Unit: Ns, Measure: func() (float64, error) {
				return float64(Measure(func() { intercept.Syscall(sys.SYS_getpagesize, sys.Args{}) })), nil
			}},
			{Name: "downcall", Unit: Ns, Measure: func() (float64, error) {
				return max(getpidCost(through)-getpidCost(direct), 0), nil
			}},
		},
	}
}

// Table35Ops lists the system call patterns of Table 3-5 with the
// repetition counts used by the harness.
var Table35Ops = []struct {
	Name string
	Op   string
	N    int
}{
	{"getpid()", "getpid", 20000},
	{"gettimeofday()", "gettimeofday", 20000},
	{"fstat()", "fstat", 10000},
	{"read() 1K of data", "read1k", 5000},
	{"stat()", "stat", 5000},
	{"fork(), wait(), _exit()", "fork", 400},
	{"execve()", "execve", 400},
}

// table35 is the per-system-call table: each call's cost without and
// with the measurement (null) agent, one world per call. Two rows are
// guarded, the two hot paths this repository optimizes: the
// uninterposed stat (pathname + attribute cache; a fall back to the
// pre-cache walk costs ~1.8x) and the intercepted getpid
// (interest-vector dispatch).
func table35() *Table {
	guarded := map[string]bool{"stat()/without": true, "getpid()/with": true}
	envs := make([]stackEnv, len(Table35Ops))
	t := &Table{Name: "3-5", Title: "Table 3-5: Performance of individual system calls (with = under the null agent)",
		Derive: Overhead, Setup: func() (err error) {
			for i := range envs {
				if envs[i], err = newStackEnv("null", func(*kernel.Kernel) error { return nil }); err != nil {
					return err
				}
			}
			return nil
		}}
	for i, op := range Table35Ops {
		bench := func(interposed bool) func() (float64, error) {
			return func() (float64, error) {
				var agents []core.Agent
				if interposed {
					agents = envs[i].agents
				}
				d, err := RunBench(envs[i].k, agents, op.Op, op.N)
				return float64(d) / float64(op.N), err
			}
		}
		without, with := op.Name+"/without", op.Name+"/with"
		t.Rows = append(t.Rows,
			Row{Name: without, Unit: Ns, Guarded: guarded[without], Measure: bench(false)},
			Row{Name: with, Unit: Ns, Guarded: guarded[with], Base: without, Measure: bench(true)})
	}
	return t
}

// getpidCfg is one row of a host-driven getpid cost table: install
// attaches the configuration under test to a fresh world and process.
type getpidCfg struct {
	name    string
	guarded bool
	install func(*kernel.Kernel, *kernel.Proc)
}

// getpidTable declares a table of host-driven getpid costs, each row in
// a fresh world so caches, plans and sampling state cannot leak across
// configurations.
func getpidTable(name, title string, cfgs []getpidCfg) *Table {
	procs := make([]*kernel.Proc, len(cfgs))
	t := &Table{Name: name, Title: title, Setup: func() error {
		for i, c := range cfgs {
			k, err := World()
			if err != nil {
				return err
			}
			procs[i] = measureProc(k)
			if c.install != nil {
				c.install(k, procs[i])
			}
		}
		return nil
	}}
	for i, c := range cfgs {
		t.Rows = append(t.Rows, Row{Name: c.name, Unit: Ns, Guarded: c.guarded,
			Measure: func() (float64, error) { return getpidCost(procs[i]), nil }})
	}
	return t
}
