package experiments

import (
	"fmt"
	"path/filepath"
	"time"

	"interpose/internal/agents/dfstrace"
	"interpose/internal/core"
	"interpose/internal/kernel"
)

// MacroStacks is the agent order of Tables 3-2 and 3-3.
var MacroStacks = []string{"none", "timex", "trace", "union"}

// stackEnv is a world of its own with an agent stack built in it.
type stackEnv struct {
	k      *kernel.Kernel
	agents []core.Agent
}

// newStackEnv boots a world, prepares it and builds the named stack.
func newStackEnv(stack string, prepare func(*kernel.Kernel) error) (stackEnv, error) {
	k, err := World()
	if err != nil {
		return stackEnv{}, err
	}
	if err := prepare(k); err != nil {
		return stackEnv{}, err
	}
	agents, err := AgentStack(k, stack)
	return stackEnv{k, agents}, err
}

// macroTable declares a Table 3-2/3-3 style table: one row per agent
// stack, each timing work in a world of its own prepared by prepare, with
// the slowdown over the uninterposed row.
func macroTable(name, title string, prepare func(*kernel.Kernel) error, work func(stackEnv) (time.Duration, error)) *Table {
	envs := make([]stackEnv, len(MacroStacks))
	t := &Table{Name: name, Title: title, Derive: Slowdown, Setup: func() (err error) {
		for i, s := range MacroStacks {
			if envs[i], err = newStackEnv(s, prepare); err != nil {
				return err
			}
		}
		return nil
	}}
	for i, s := range MacroStacks {
		t.Rows = append(t.Rows, Row{Name: s, Unit: Ns, Base: "none",
			Measure: func() (float64, error) { return ns(work(envs[i])) }})
	}
	return t
}

// table32 is "format my dissertation" under each agent stack.
func table32() *Table {
	var manuscript string
	return macroTable("3-2", "Table 3-2: Time to format the dissertation",
		func(k *kernel.Kernel) (err error) {
			manuscript, err = SetupScribe(k)
			return err
		},
		func(e stackEnv) (time.Duration, error) { return RunScribe(e.k, e.agents, manuscript) })
}

// table33 is "make N programs" under each agent stack.
func table33(programs int) *Table {
	return macroTable("3-3", fmt.Sprintf("Table 3-3: Time to make %d programs", programs),
		func(k *kernel.Kernel) error { return SetupMake(k, programs) },
		func(e stackEnv) (time.Duration, error) {
			if err := CleanMake(e.k, programs); err != nil {
				return 0, err
			}
			return RunMake(e.k, e.agents)
		})
}

// dfsTable is the §3.5.3 comparison: the DFSTrace workload untraced,
// under kernel tracing and under the dfstrace agent, with the records
// each tracer collected in its last round and the statement counts of
// the two implementations.
func dfsTable() *Table {
	var k *kernel.Kernel
	kcl, acl := dfstrace.NewCollector(), dfstrace.NewCollector()
	agent := []core.Agent{dfstrace.New(acl)}
	t := &Table{Name: "dfs", Title: "DFSTrace comparison (paper §3.5.3)", Derive: Slowdown,
		Setup: func() (err error) {
			if k, err = World(); err != nil {
				return err
			}
			return SetupMake(k, 2)
		}}
	t.Rows = []Row{
		{Name: "untraced", Unit: Ns, Measure: func() (float64, error) { return ns(DFSTraceWorkload(k, nil)) }},
		{Name: "kernel-based", Unit: Ns, Base: "untraced", Measure: func() (float64, error) {
			kcl.Reset()
			k.SetTracer(dfstrace.NewKernelTracer(kcl))
			defer k.SetTracer(nil)
			return ns(DFSTraceWorkload(k, nil))
		}},
		{Name: "dfstrace-agent", Unit: Ns, Base: "untraced", Measure: func() (float64, error) {
			acl.Reset()
			return ns(DFSTraceWorkload(k, agent))
		}},
		{Name: "kernel-based/records", Unit: Count, Measure: func() (float64, error) { return float64(kcl.Len()), nil }},
		{Name: "dfstrace-agent/records", Unit: Count, Measure: func() (float64, error) { return float64(acl.Len()), nil }},
		{Name: "kernel-based/statements", Unit: Count, Measure: kernelTraceStatements},
		{Name: "dfstrace-agent/statements", Unit: Count,
			Measure: count(filepath.Join(repoRoot(), "internal", "agents", "dfstrace"))},
	}
	return t
}
