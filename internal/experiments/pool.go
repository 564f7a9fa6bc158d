package experiments

import (
	"errors"
	"fmt"
	"time"

	"interpose/internal/apps"
	"interpose/internal/kernel"
	"interpose/internal/world"
)

// The pooling table ("pool"): what copy-on-write forking and the warm
// pool buy over booting a world per session. Four claims are measured:
//
//   - boot: booting one world from the full application image set — the
//     cost the session path pays without a pool (the worldd table's
//     boot row, re-measured here so the relations below compare two
//     legs of the same run);
//   - fork: world.Fork from a live template whose filesystem carries a
//     small bench tree — the COW clone cost, O(#inodes);
//   - fork/large: the same fork against a template with an identical
//     inode count but ~256x the file bytes. If the fork were copying
//     data this row would be two orders of magnitude slower; the
//     relation gate holds it within 2x of the small fork;
//   - acquire-hit: Pool.Acquire with a warm stack — the cost a pooled
//     worldd tenant actually pays on the request path, a mutex-guarded
//     stack pop plus gauge wiring. One pop is a few hundred ns, so a
//     round drains fresh pools until at least poolAcquireSpan of pops
//     is timed; a round of a single 64-deep pool (~20 µs) was dominated
//     by scheduling.
//
// The acquire-hit and fork rows are guarded absolutely against
// BENCH_BASELINE.json; the byte-size independence and the
// acquire-beats-boot claims are relation-guarded (baseline.go) so they
// hold on any host.

const (
	// poolBoots is the world count of the boot row.
	poolBoots = 200
	// poolForks is the per-round fork count of the fork rows.
	poolForks = 200
	// poolAcquires is the warm-stack depth of the acquire-hit row: each
	// fresh pool pre-warmed to this depth is drained exactly once, so
	// every timed acquire is a hit.
	poolAcquires = 64
	// poolAcquireSpan is the least acquire time one acquire-hit round
	// times; rounds repeat fresh pools until they reach it.
	poolAcquireSpan = time.Millisecond
	// poolTreeFiles is the bench-tree inode count of both fork
	// templates; only the per-file byte size differs between them.
	poolTreeFiles = 64
	// poolSmallFile / poolLargeFile are the per-file sizes: 256x apart,
	// so a fork that copied data could not stay inside the 2x relation.
	poolSmallFile = 64
	poolLargeFile = 16 * 1024
)

// poolTree returns a Setup hook writing poolTreeFiles files of size
// bytes each under /data.
func poolTree(size int) func(*kernel.Kernel) error {
	return func(k *kernel.Kernel) error {
		if err := k.MkdirAll("/data", 0o755); err != nil {
			return err
		}
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = byte(i)
		}
		for i := 0; i < poolTreeFiles; i++ {
			if err := k.WriteFile(fmt.Sprintf("/data/f%03d", i), buf, 0o644); err != nil {
				return err
			}
		}
		return nil
	}
}

// poolTemplate boots a fork template carrying a bench tree of the given
// per-file size.
func poolTemplate(fileSize int) (*world.World, error) {
	spec := apps.Spec()
	spec.Setup = []func(*kernel.Kernel) error{poolTree(fileSize)}
	return world.Boot(spec)
}

// forkClose forks one member from tmpl and closes it.
func forkClose(tmpl *world.World) func() error {
	return func() error {
		w, err := world.Fork(tmpl, apps.Spec())
		if err != nil {
			return err
		}
		return w.Close()
	}
}

// acquireHit times Pool.Acquire on warm stacks and returns the cost of
// one acquire. Fresh pools of poolAcquires members, forked from base,
// are each drained exactly once until at least poolAcquireSpan of
// acquires is timed; pool construction and teardown stay outside the
// timer. Acquires only pop the warm stack, so every timed acquire is a
// hit regardless of how far the background refiller gets.
func acquireHit(base *world.World) (float64, error) {
	var timed time.Duration
	n := 0
	worlds := make([]*world.World, 0, poolAcquires)
	for timed < poolAcquireSpan {
		p, err := world.NewPoolFrom(base, apps.Spec(), poolAcquires)
		if err != nil {
			return 0, err
		}
		worlds = worlds[:0]
		start := time.Now()
		for i := 0; i < poolAcquires && err == nil; i++ {
			var w *world.World
			if w, err = p.Acquire(); err == nil {
				worlds = append(worlds, w)
			}
		}
		timed += time.Since(start)
		n += len(worlds)
		if s := p.Stats(); err == nil && s.Misses > 0 {
			err = fmt.Errorf("%d misses on a pre-warmed pool", s.Misses)
		}
		for _, w := range worlds {
			err = errors.Join(err, w.Close())
		}
		if err = errors.Join(err, p.Close()); err != nil {
			return 0, err
		}
	}
	return float64(timed) / float64(n), nil
}

// poolTable measures the pool table.
func poolTable() *Table {
	var bare, small, large *world.World
	return &Table{Name: "pool",
		Title: fmt.Sprintf("Warm pools and COW forking (%d-file bench tree, %dB vs %dB files)",
			poolTreeFiles, poolSmallFile, poolLargeFile),
		Setup: func() (err error) {
			if bare, err = world.Boot(apps.Spec()); err != nil {
				return err
			}
			if small, err = poolTemplate(poolSmallFile); err != nil {
				return err
			}
			large, err = poolTemplate(poolLargeFile)
			return err
		},
		Close: func() error { return errors.Join(small.Close(), large.Close(), bare.Close()) },
		Rows: []Row{
			{Name: "boot", Unit: Ns, Measure: func() (float64, error) { return perCall(poolBoots, bootClose) }},
			{Name: "fork", Unit: Ns, Guarded: true, Measure: func() (float64, error) {
				return perCall(poolForks, forkClose(small))
			}},
			{Name: "fork/large", Unit: Ns, Measure: func() (float64, error) {
				return perCall(poolForks, forkClose(large))
			}},
			{Name: "acquire-hit", Unit: Ns, Guarded: true, Measure: func() (float64, error) {
				return acquireHit(bare)
			}},
		},
	}
}
