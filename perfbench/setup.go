package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"interpose/internal/kernel"
)

// fleetSize is tenant-churn's resident idle fleet.
const fleetSize = 1000

// setupShort starts a daemon whose worlds carry the seeded fixtures and
// creates two resident plain tenants.
func setupShort(w *workload, dir string, seed int64, t *tally) (*env, error) {
	fx := genFixtures(seed)
	e, err := setupResident(dir, []func(*kernel.Kernel) error{installFixtures(fx)}, map[string]any{}, "short")
	if err != nil {
		return nil, err
	}
	e.fx = fx
	mix := newShortMix(seed, 99, fx)
	for i := 0; i < w.warmOps; i++ {
		e.warmExec(t, e.tenants[i%len(e.tenants)], mix.next())
	}
	return e, nil
}

// setupBuild starts a daemon whose worlds carry the make tree and the
// dissertation and creates two resident agent-build tenants. Each warms
// with full builds; the first has no outputs to remove, so it makes
// first.
func setupBuild(w *workload, dir string, seed int64, t *tally) (*env, error) {
	e, err := setupResident(dir, []func(*kernel.Kernel) error{buildFixtures}, buildSpec, "build")
	if err != nil {
		return nil, err
	}
	sessions := buildSessions("/view")
	for _, id := range e.tenants {
		for _, s := range sessions[1:] {
			e.warmExec(t, id, s)
		}
		for i := 1; i < w.warmOps; i++ {
			for _, s := range sessions {
				e.warmExec(t, id, s)
			}
		}
	}
	return e, nil
}

// setupResident starts a daemon and creates maxConns resident tenants
// from spec.
func setupResident(dir string, setup []func(*kernel.Kernel) error, spec map[string]any, prefix string) (*env, error) {
	d, err := startDaemon(dir, setup)
	if err != nil {
		return nil, err
	}
	e := &env{d: d, setup: setup, worlds: maxConns}
	for i := 0; i < maxConns; i++ {
		s := map[string]any{"name": fmt.Sprintf("%s-%d", prefix, i)}
		for k, v := range spec {
			s[k] = v
		}
		id, err := d.create(s)
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("create resident tenant: %w", err)
		}
		e.tenants = append(e.tenants, id)
	}
	return e, nil
}

// setupChurn starts a bare daemon, creates the idle fleet (one world in
// ten with telemetry) over the socket from maxConns clients, builds the
// warm pool, and runs warm-up cycles.
func setupChurn(w *workload, dir string, seed int64, t *tally) (*env, error) {
	d, err := startDaemon(dir, nil)
	if err != nil {
		return nil, err
	}
	e := &env{d: d, worlds: fleetSize}
	var wg sync.WaitGroup
	errs := make([]error, maxConns)
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < fleetSize; i += maxConns {
				spec := map[string]any{"name": fmt.Sprintf("fleet-%d", i)}
				if i%10 == 0 {
					spec["telemetry"] = true
				}
				if _, err := d.create(spec); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("create fleet: %w", err)
		}
	}
	mix := newChurnMix(seed, 99)
	for i := 0; i < w.warmOps; i++ {
		kind, s := mix.next()
		id, err := d.create(kind.wireSpec("warm"))
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up create: %w", err)
		}
		e.warmExec(t, id, s)
		if err := d.remove(id); err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up delete: %w", err)
		}
	}
	return e, nil
}

// warmExec runs one set-up session; a wrong result counts as a failure
// like any other.
func (e *env) warmExec(t *tally, id string, s session) {
	res, err := e.d.exec(id, s.argv)
	if err == nil {
		err = check(s, res)
	}
	if err != nil {
		t.fail("set-up %v", err)
		return
	}
	t.ok()
}

// leakBaseline is what tenant-churn must return to after its cycles.
type leakBaseline struct {
	worlds, goroutines, fds int
}

// countFDs counts this process's open descriptors.
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// quiesced samples the world table, goroutines and descriptors every
// 20ms for up to window, keeping each figure's minimum: the watchdog's
// probes and a pool's refiller come and go, so only a count that never
// drops back is held. It returns early once every minimum is at or
// below target (when given).
func (e *env) quiesced(window time.Duration, target *leakBaseline) leakBaseline {
	e.d.tr.CloseIdleConnections()
	lo := leakBaseline{worlds: 1 << 30, goroutines: 1 << 30, fds: 1 << 30}
	for start := time.Now(); ; {
		lo.worlds = min(lo.worlds, e.d.srv.Worlds())
		lo.goroutines = min(lo.goroutines, runtime.NumGoroutine())
		lo.fds = min(lo.fds, countFDs())
		if target != nil && lo.worlds <= target.worlds && lo.goroutines <= target.goroutines && lo.fds <= target.fds {
			return lo
		}
		if time.Since(start) >= window {
			return lo
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// leaks reports what did not return to the baseline, one count per
// leaked world, goroutine and descriptor.
func (e *env) leaks() (int, string) {
	end := e.quiesced(3*time.Second, &e.base)
	n, msg := 0, ""
	for _, x := range []struct {
		what      string
		got, want int
	}{
		{"worlds", end.worlds, e.base.worlds},
		{"goroutines", end.goroutines, e.base.goroutines},
		{"fds", end.fds, e.base.fds},
	} {
		if x.got > x.want {
			n += x.got - x.want
			msg += fmt.Sprintf(" %s %d>%d", x.what, x.got, x.want)
		}
	}
	return n, msg
}
