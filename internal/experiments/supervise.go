package experiments

import (
	"time"

	"interpose/internal/kernel"
)

// The supervision cost table ("sup"): what the agent supervisor costs at
// each point of the dispatch path. The contract under test is
// pay-per-use — installing a supervisor must not slow the uninterposed
// fast path (idle vs off), and the supervised interposed leg should add
// only the containment bookkeeping (strict vs layer). The deadline row
// shows the price of the goroutine-per-upcall variant, which is why
// deadlines default to off. The idle row (one atomic plan load over off)
// and the strict row (the fully supervised interposed leg) are guarded.

func supTable() *Table {
	supervise := func(layer bool, deadline time.Duration) func(*kernel.Kernel, *kernel.Proc) {
		return func(k *kernel.Kernel, p *kernel.Proc) {
			if layer {
				pushPassThrough(p)
			}
			k.SetSupervisor(kernel.NewSupervisor(k, kernel.SupervisorConfig{
				Mode:     kernel.SuperviseStrict,
				Deadline: deadline,
			}))
		}
	}
	return getpidTable("sup", "Supervision cost (getpid, host-driven)", []getpidCfg{
		{name: "getpid()/off"},
		{name: "getpid()/idle", guarded: true, install: supervise(false, 0)},
		{name: "getpid()/layer", install: func(_ *kernel.Kernel, p *kernel.Proc) { pushPassThrough(p) }},
		{name: "getpid()/strict", guarded: true, install: supervise(true, 0)},
		{name: "getpid()/deadline", install: supervise(true, time.Second)},
	})
}
