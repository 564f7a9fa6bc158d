package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"

	"interpose/internal/apps"
	"interpose/internal/world"
	"interpose/internal/worldd"
)

// The multi-tenancy table ("worldd"): what the world lifecycle layer and
// the daemon on top of it cost. Three claims are measured:
//
//   - boot: booting one world (full application set, no optional
//     facilities) — the unit of tenant creation;
//   - session: one exec round trip through the daemon's HTTP handler —
//     request decode, world lock, process launch, wait, response encode
//     — which inverts to the daemon's sessions/sec on one core;
//   - idle-mem/world: the per-world heap floor with a 10,000-world idle
//     fleet resident in one process, measured as the GC-settled heap
//     delta divided by the fleet size. This is the number that says
//     whether "thousands of tenants per process" is real, and it is why
//     telemetry registries (latency histograms, flight rings — ~150 KB
//     a world) are opt-in per tenant rather than always-on.
//
// The session and idle-mem rows are guarded against BENCH_BASELINE.json
// by the -check gate; the boot row rides along unguarded (it is noisy on
// shared runners and the crash table already relation-guards boot cost).

// worlddFleet is the idle-fleet size of the idle-mem row.
const worlddFleet = 10000

// worlddSessions is the per-round session count of the session row.
const worlddSessions = 200

// worlddBoots is the world count of the boot row.
const worlddBoots = 500

// heapAlloc returns the GC-settled live heap.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// apiCall drives one request through the daemon handler, decoding the
// JSON response into out when non-nil.
func apiCall(h http.Handler, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code >= 300 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
	}
	if out != nil {
		return json.Unmarshal(rec.Body.Bytes(), out)
	}
	return nil
}

// tenant is one world of a daemon, driven through the daemon's HTTP
// handler.
type tenant struct {
	srv  *worldd.Server
	h    http.Handler
	exec string // the tenant's exec path
}

// openTenant starts a daemon with cfg and creates one tenant from spec.
func openTenant(cfg worldd.Config, spec string) (*tenant, error) {
	srv, err := worldd.New(cfg)
	if err != nil {
		return nil, err
	}
	var info worldd.Info
	if err := apiCall(srv.Handler(), "POST", "/1.0/worlds", []byte(spec), &info); err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	return &tenant{srv: srv, h: srv.Handler(), exec: "/1.0/worlds/" + info.ID + "/exec"}, nil
}

var execTrue = []byte(`{"argv":["true"]}`)

// session is one exec round trip of /bin/true through the daemon.
func (t *tenant) session() error {
	var res world.ExecResult
	if err := apiCall(t.h, "POST", t.exec, execTrue, &res); err != nil {
		return err
	}
	if res.Status != 0 {
		return fmt.Errorf("session exited %d", res.Status)
	}
	return nil
}

// close drains the tenant's daemon.
func (t *tenant) close() error { return t.srv.Shutdown(context.Background()) }

// bootClose boots one full application world and closes it.
func bootClose() error {
	w, err := world.Boot(apps.Spec())
	if err != nil {
		return err
	}
	return w.Close()
}

// worlddTable measures the worldd table. Health is disabled on its
// daemons: a watchdog probing a 10,000-world idle fleet would measure the
// probes, not the daemon (the resil table prices the watchdog on its own).
func worlddTable() *Table {
	noHealth := worldd.Config{Register: apps.Register, Health: worldd.HealthConfig{Disabled: true}}
	var bench *tenant
	t := &Table{Name: "worldd",
		Title: fmt.Sprintf("Multi-tenant worlds (lifecycle layer + worldd, %d-world idle fleet)", worlddFleet),
		Setup: func() (err error) {
			bench, err = openTenant(noHealth, `{"name":"bench"}`)
			return err
		},
		Close: func() error { return bench.close() }}
	t.Rows = []Row{
		// Boot: the world-layer creation cost, no daemon in the way; the
		// worlds close after the clock stops.
		{Name: "boot", Unit: Ns, Measure: func() (float64, error) {
			worlds := make([]*world.World, 0, worlddBoots)
			per, err := perCall(worlddBoots, func() error {
				w, err := world.Boot(apps.Spec())
				if err == nil {
					worlds = append(worlds, w)
				}
				return err
			})
			for _, w := range worlds {
				err = errors.Join(err, w.Close())
			}
			return per, err
		}},
		{Name: "session", Unit: Ns, Guarded: true, Measure: func() (float64, error) {
			return perCall(worlddSessions, bench.session)
		}},
		// Idle fleet: the per-world heap floor at 10k worlds, created and
		// drained through a daemon of its own so the table and teardown
		// paths are the ones a deployment pays.
		{Name: "idle-mem/world", Unit: Bytes, Guarded: true, Measure: func() (float64, error) {
			srv, err := worldd.New(noHealth)
			if err != nil {
				return 0, err
			}
			h, spec, base := srv.Handler(), []byte(`{"name":"idle"}`), heapAlloc()
			for i := 0; i < worlddFleet && err == nil; i++ {
				err = apiCall(h, "POST", "/1.0/worlds", spec, nil)
			}
			perWorld := float64(heapAlloc()-base) / worlddFleet
			return perWorld, errors.Join(err, srv.Shutdown(context.Background()))
		}},
	}
	return t
}
