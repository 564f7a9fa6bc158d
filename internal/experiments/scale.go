package experiments

import (
	"fmt"
	"runtime"
	"time"

	"interpose/internal/core"
	"interpose/internal/kernel"
)

// The scalability table: the Table 3-3 make workload run with mk -j N for
// increasing N, on a kernel whose big lock has been split into per-object
// locks. Each parallel job is a separate interposed process hammering
// fork/exec/open/stat against shared directories, so the speedup from -j
// is a direct measurement of how much true concurrency the fine-grained
// kernel and per-inode VFS locking admit. On a single-CPU host the table
// still validates correctness (elapsed times stay flat rather than
// degrading); the speedup column only becomes meaningful with multiple
// scheduler threads available.

// ScaleJobs is the job-count ladder of the scale table.
var ScaleJobs = []int{1, 2, 4, 8}

// StatHeavyJobs is the parallelism of the stat-heavy workload rows.
const StatHeavyJobs = 4

// StatHeavyOps is the number of stat calls each parallel job performs.
const StatHeavyOps = 20000

// scaleTable measures mk -j N over the job ladder, for the bare kernel
// and under the trace agent stack (showing interposition composes with
// concurrency), each configuration in a world of its own; the speedup is
// over the serial row. The pathname-cache rows run a stat-heavy parallel
// workload (StatHeavyJobs guests each performing StatHeavyOps stat calls
// on the same path) with the VFS name/attribute cache on and off; the
// cache-on row's speedup over cache-off is the cache's speedup factor.
func scaleTable(programs int) *Table {
	t := &Table{Name: "scale", Derive: Speedup, Title: fmt.Sprintf(
		"Scale: parallel make of %d programs (mk -j N), GOMAXPROCS=%d; stat-cache rows: %d jobs x %d stats",
		programs, runtime.GOMAXPROCS(0), StatHeavyJobs, StatHeavyOps)}
	type cfg struct {
		jobs  int
		stack string
	}
	var cfgs []cfg
	for _, j := range ScaleJobs {
		cfgs = append(cfgs, cfg{j, "none"})
	}
	cfgs = append(cfgs, cfg{4, "trace"})
	envs := make([]stackEnv, len(cfgs))
	var statWorlds [2]*kernel.Kernel // cache on, off
	t.Setup = func() (err error) {
		for i, c := range cfgs {
			if envs[i], err = newStackEnv(c.stack, func(k *kernel.Kernel) error { return SetupMake(k, programs) }); err != nil {
				return err
			}
		}
		for i := range statWorlds {
			if statWorlds[i], err = World(); err != nil {
				return err
			}
			statWorlds[i].FS().SetNameCache(i == 0)
		}
		return nil
	}
	serial := fmt.Sprintf("j%d-none", ScaleJobs[0])
	for i, c := range cfgs {
		t.Rows = append(t.Rows, Row{Name: fmt.Sprintf("j%d-%s", c.jobs, c.stack), Unit: Ns, Base: serial,
			Measure: func() (float64, error) {
				if err := CleanMake(envs[i].k, programs); err != nil {
					return 0, err
				}
				return ns(RunMakeJ(envs[i].k, envs[i].agents, c.jobs))
			}})
	}
	off := fmt.Sprintf("j%d-stat-cache-off", StatHeavyJobs)
	for i, name := range []string{fmt.Sprintf("j%d-stat-cache-on", StatHeavyJobs), off} {
		t.Rows = append(t.Rows, Row{Name: name, Unit: Ns, Base: off,
			Measure: func() (float64, error) { return ns(statHeavy(statWorlds[i])) }})
	}
	return t
}

// statHeavy runs StatHeavyJobs concurrent stat-heavy guests on k and
// returns the elapsed time until the last one exits.
func statHeavy(k *kernel.Kernel) (time.Duration, error) {
	start := time.Now()
	procs := make([]*kernel.Proc, 0, StatHeavyJobs)
	argv := []string{"bench", "stat", fmt.Sprint(StatHeavyOps)}
	for j := 0; j < StatHeavyJobs; j++ {
		p, err := core.Launch(k, nil, "/bin/bench", argv, nil)
		if err != nil {
			return 0, err
		}
		procs = append(procs, p)
	}
	for _, p := range procs {
		k.WaitExit(p)
	}
	return time.Since(start), nil
}
