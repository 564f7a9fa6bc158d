package kernel

import (
	"math/bits"

	"interpose/internal/sys"
)

// MaxLayers bounds a process's emulation stack: the per-syscall interest
// bitmaps have one bit per layer. PushEmulation refuses a deeper stack,
// and world.Attach refuses a spec with more agents.
const MaxLayers = 32

// dispatchPlan is the compiled form of a process's emulation stack: an
// immutable snapshot of the layers, their preboxed call contexts, and a
// per-syscall-number bitmap of which layers intercept each call. It is
// recompiled whenever the stack changes (attach, detach, fork) and
// published with one atomic store, so the dispatch fast path is a single
// atomic load followed by an array index: a call no layer registered
// interest in goes straight to the kernel without consulting any layer.
//
// In-flight calls keep using the plan they started under (each LayerCtx
// carries its plan), so a detach during a call cannot renumber the layers
// under a Down in progress.
type dispatchPlan struct {
	layers []*EmuLayer
	ctxs   []sys.Ctx // preboxed LayerCtx per layer; allocation-free dispatch

	// interest[num] has bit i set when layers[i] intercepts call num;
	// allMask covers out-of-range numbers (blanket-interest layers only).
	interest [sys.MaxSyscall]uint32
	allMask  uint32
}

// emptyPlan is the shared plan of every process with no emulation layers.
var emptyPlan = &dispatchPlan{}

// interestBelow returns the interested-layer bitmap for num restricted to
// layers strictly below index `below`.
func (pl *dispatchPlan) interestBelow(below, num int) uint32 {
	var m uint32
	if num >= 0 && num < sys.MaxSyscall {
		m = pl.interest[num]
	} else {
		m = pl.allMask
	}
	if below < MaxLayers {
		m &= 1<<uint(below) - 1
	}
	return m
}

// topInterested returns the index of the highest interested layer in mask.
func topInterested(mask uint32) int { return bits.Len32(mask) - 1 }

// compilePlan builds the dispatch plan for the given stack, bound to p.
// Caller holds p.mu (or p is not yet shared).
func compilePlan(p *Proc, layers []*EmuLayer) *dispatchPlan {
	if len(layers) == 0 {
		return emptyPlan
	}
	pl := &dispatchPlan{layers: layers}
	pl.ctxs = make([]sys.Ctx, len(layers))
	for i := range layers {
		pl.ctxs[i] = LayerCtx{Proc: p, plan: pl, layer: i}
	}
	sup := p.k.fac.Load().sup
	for i, l := range layers {
		if sup != nil && sup.quarantined(l) {
			// A quarantined layer stays in the stack (indices and Down
			// targets are stable) but gets no interest bits: dispatch
			// routes past it without entering the supervisor at all.
			// Re-admission republishes the plan with the bits restored.
			continue
		}
		bit := uint32(1) << uint(i)
		if l.interestAll {
			pl.allMask |= bit
		}
		for num := 0; num < sys.MaxSyscall; num++ {
			if l.Wants(num) {
				pl.interest[num] |= bit
			}
		}
	}
	return pl
}

// currentPlan returns the process's live dispatch plan (never nil).
func (p *Proc) currentPlan() *dispatchPlan { return p.plan.Load() }

// recompilePlan rebuilds and publishes the plan from p.emu. Caller holds
// p.mu.
func (p *Proc) recompilePlanLocked() {
	layers := append([]*EmuLayer(nil), p.emu...)
	p.plan.Store(compilePlan(p, layers))
}

// InterestMask reports, for tests and tooling, the bitmap of layers that
// would intercept call num (bit i = layer i, bottom = 0).
func (p *Proc) InterestMask(num int) uint32 {
	pl := p.currentPlan()
	return pl.interestBelow(len(pl.layers), num)
}
