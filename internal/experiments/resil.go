package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"interpose/internal/apps"
	"interpose/internal/world"
	"interpose/internal/worldd"
)

// The resilience table ("resil"): what self-healing worldd costs and
// what it buys. Five claims are measured:
//
//   - probe: one liveness probe (an exec of /bin/true straight through
//     the world, exactly what the watchdog runs on an idle tenant) — the
//     recurring cost of health monitoring;
//   - boot: a cold world boot + close — the recovery cost floor without
//     a warm pool, and the comparator for the recovery rows;
//   - recover/pool and recover/journal: the daemon's measured rebuild
//     time (teardown + replacement, excluding detection and backoff, as
//     reported by the world's rebuild_ns gauge) after an injected
//     kernel crash, for a pooled and a journaled tenant;
//   - session and session/admit: the daemon exec round trip without and
//     with the admission machinery engaged (global inflight gate, health
//     gate, per-tenant session cap + token bucket, none rejecting) —
//     the pair that prices the admit fast path.
//
// The probe and session/admit rows are guarded against the baseline;
// the relations pin recovery-from-pool under cold boot and the admit
// path within 15% of the bare session on any host.

// resilProbes is the per-round probe count of the probe row.
const resilProbes = 200

// resilBoots is the world count of the boot row.
const resilBoots = 200

// resilKills is the injected-crash count behind each recovery row.
const resilKills = 30

// resilSessions is the per-round session count of the session rows.
const resilSessions = 200

// measureRecovery boots a crashy tenant in a throwaway daemon (with a
// state directory of its own when journaled), kills it resilKills times
// by injected crash, waits out each recovery, and returns the daemon's
// mean rebuild time.
func measureRecovery(spec string, journaled bool) (float64, error) {
	stateDir := ""
	if journaled {
		dir, err := os.MkdirTemp("", "resil-journal-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		stateDir = dir
	}
	srv, err := worldd.New(worldd.Config{
		Register: apps.Register,
		StateDir: stateDir,
		Health: worldd.HealthConfig{
			// Detection is the crash hook (push), not the sweep, so the
			// interval only paces background probes; the tiny backoff
			// keeps the measured cycle close to pure rebuild.
			ProbeInterval:   50 * time.Millisecond,
			SessionDeadline: time.Minute,
			RestartBudget:   resilKills * 2,
			RestartWindow:   time.Hour,
			BackoffBase:     time.Millisecond,
			BackoffMax:      2 * time.Millisecond,
			Seed:            1,
		},
	})
	if err != nil {
		return 0, err
	}
	defer srv.Shutdown(context.Background())
	h := srv.Handler()

	var info worldd.Info
	if err := apiCall(h, "POST", "/1.0/worlds", []byte(spec), &info); err != nil {
		return 0, err
	}
	poison := []byte(`{"argv":["cat","/boom"]}`)
	for i := 0; i < resilKills; i++ {
		// The poison session dies with its world: 503 is the expected
		// answer, so the call goes out raw and only transport-level
		// trouble matters.
		apiCall(h, "POST", "/1.0/worlds/"+info.ID+"/exec", poison, nil)
		deadline := time.Now().Add(30 * time.Second)
		for {
			var in worldd.Info
			if err := apiCall(h, "GET", "/1.0/worlds/"+info.ID, nil, &in); err != nil {
				return 0, err
			}
			if in.Health == "healthy" && in.Restarts >= uint64(i+1) {
				info = in
				break
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("tenant never recovered from kill %d (%+v)", i, in)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	if info.RebuildNs <= 0 {
		return 0, fmt.Errorf("no rebuild time recorded (%+v)", info)
	}
	return float64(info.RebuildNs), nil
}

// resilTable measures the resilience table.
func resilTable() *Table {
	var probe *world.World
	var bare, gated *tenant
	probeReq := world.ExecRequest{Argv: []string{"true"}}
	return &Table{Name: "resil",
		Title: fmt.Sprintf("Self-healing worldd (%d injected crashes per recover row; recover = teardown + rebuild, detection excluded)", resilKills),
		Setup: func() (err error) {
			if probe, err = world.Boot(apps.Spec()); err != nil {
				return err
			}
			// The admitted fast path, bare vs fully gated.
			if bare, err = openTenant(worldd.Config{Register: apps.Register, Health: worldd.HealthConfig{Disabled: true}},
				`{"name":"bare"}`); err != nil {
				return err
			}
			gated, err = openTenant(worldd.Config{Register: apps.Register},
				`{"name":"gated","admission":{"max_sessions":1024,"rate":1e9}}`)
			return err
		},
		Close: func() error { return errors.Join(probe.Close(), bare.close(), gated.close()) },
		Rows: []Row{
			{Name: "probe", Unit: Ns, Guarded: true, Measure: func() (float64, error) {
				return perCall(resilProbes, func() error {
					res, err := probe.Exec(probeReq)
					if err == nil && res.Status != 0 {
						err = fmt.Errorf("probe exited %d", res.Status)
					}
					return err
				})
			}},
			{Name: "boot", Unit: Ns, Measure: func() (float64, error) { return perCall(resilBoots, bootClose) }},
			{Name: "recover/pool", Unit: Ns, Measure: func() (float64, error) {
				return measureRecovery(`{"name":"rp","pool":2,"inject":"seed=1,open:/boom=crash@1"}`, false)
			}},
			{Name: "recover/journal", Unit: Ns, Measure: func() (float64, error) {
				return measureRecovery(`{"name":"rj","journal":"rj","inject":"seed=1,open:/boom=crash@1"}`, true)
			}},
			{Name: "session", Unit: Ns, Measure: func() (float64, error) { return perCall(resilSessions, bare.session) }},
			{Name: "session/admit", Unit: Ns, Guarded: true, Measure: func() (float64, error) {
				return perCall(resilSessions, gated.session)
			}},
		},
	}
}
