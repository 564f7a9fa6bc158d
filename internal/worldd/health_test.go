package worldd_test

// Health watchdog, admission control, and request-hardening tests.
// The multi-tenant chaos soak lives in resilience_test.go; here each
// facility is exercised in isolation with deterministic seeds.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interpose/internal/apps"
	"interpose/internal/world"
	"interpose/internal/worldd"
)

// fastHealth is a watchdog config scaled for tests: millisecond sweeps
// and backoffs so a kill/recover cycle completes in tens of
// milliseconds instead of seconds.
func fastHealth() worldd.HealthConfig {
	return worldd.HealthConfig{
		ProbeInterval:   2 * time.Millisecond,
		ProbeTimeout:    250 * time.Millisecond,
		SessionDeadline: 20 * time.Millisecond,
		RestartBudget:   1 << 20,
		RestartWindow:   time.Hour,
		BackoffBase:     time.Millisecond,
		BackoffMax:      10 * time.Millisecond,
		Seed:            42,
	}
}

// testServerCfg boots a server with an explicit config over httptest.
func testServerCfg(t *testing.T, cfg worldd.Config) *client {
	t.Helper()
	if cfg.Register == nil {
		cfg.Register = apps.Register
	}
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	srv, err := worldd.New(cfg)
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return &client{t: t, base: hs.URL, hc: hs.Client(), srv: srv}
}

// rawPost sends a body without the typed client, returning the full
// response (headers matter for Retry-After assertions).
func rawPost(t *testing.T, c *client, path string, body []byte) *http.Response {
	t.Helper()
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// execStatus runs a session and returns only the HTTP status.
func execStatus(c *client, id string, argv ...string) int {
	return c.do("POST", "/1.0/worlds/"+id+"/exec", world.ExecRequest{Argv: argv}, nil)
}

// waitHealthy polls a world until it reports healthy with at least
// minRestarts recoveries, failing after the deadline. Returns the Info.
func waitHealthy(t *testing.T, c *client, id string, minRestarts uint64, deadline time.Duration) worldd.Info {
	t.Helper()
	var last worldd.Info
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		// Fresh struct per poll: omitempty fields (crashed, restarts)
		// would otherwise carry stale values across decodes.
		var info worldd.Info
		if st := c.do("GET", "/1.0/worlds/"+id, nil, &info); st != http.StatusOK {
			t.Fatalf("get %s: status %d", id, st)
		}
		if info.Health == "healthy" && info.Restarts >= minRestarts {
			return info
		}
		last = info
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s did not recover: %+v", id, last)
	return last
}

// TestWatchdogRecoversCrashedWorld: an injected crash-freeze is
// detected (via the kernel crash hook, not just the sweep), the dead
// world is torn down, and a replacement boots — with the journal
// replayed, so state written before the poison survives.
func TestWatchdogRecoversCrashedWorld(t *testing.T) {
	c := testServerCfg(t, worldd.Config{Health: fastHealth()})
	id := c.create(world.Spec{
		Name:        "crashy",
		Telemetry:   true,
		JournalPath: "crashy",
		Inject:      "seed=3,open:/boom=crash@1",
	})

	// Durable state before the poison: must survive the recovery.
	if res := c.exec(id, "sh", "-c", "echo kept > /kept"); res.Status != 0 {
		t.Fatalf("write: %+v", res)
	}

	// Poison: opening /boom crashes the machine. The session dies with
	// the world; the handler must answer retryable 503, not 200.
	if st := execStatus(c, id, "cat", "/boom"); st != http.StatusServiceUnavailable {
		t.Fatalf("poison session: status %d, want 503", st)
	}

	info := waitHealthy(t, c, id, 1, 5*time.Second)
	if info.Crashed {
		t.Fatalf("recovered world still crashed: %+v", info)
	}
	if res := c.exec(id, "cat", "/kept"); res.Status != 0 {
		t.Fatalf("journal state lost across recovery: %+v", res)
	}
	// Another poison round: recovery is repeatable.
	execStatus(c, id, "cat", "/boom")
	waitHealthy(t, c, id, 2, 5*time.Second)

	var m worldd.Metrics
	c.do("GET", "/1.0/metrics", nil, &m)
	if m.Deaths < 2 || m.Recoveries < 2 {
		t.Fatalf("metrics: deaths=%d recoveries=%d, want >= 2 each", m.Deaths, m.Recoveries)
	}
	if m.Health["healthy"] != 1 {
		t.Fatalf("health map %v, want 1 healthy", m.Health)
	}
}

// TestWatchdogRecoversWedgedWorld: a session hung by a misbehaving
// agent trips the session deadline, the world is killed loose, and a
// fresh one replaces it. The wedged session itself fails retryable.
func TestWatchdogRecoversWedgedWorld(t *testing.T) {
	c := testServerCfg(t, worldd.Config{Health: fastHealth()})
	id := c.create(world.Spec{
		Name:   "wedgy",
		Agents: []string{"faulty=seed=9,open:/wedge=hang:200ms@1"},
	})
	if res := c.exec(id, "echo", "ok"); res.Output != "ok\n" {
		t.Fatalf("pre-wedge echo: %+v", res)
	}
	start := time.Now()
	if st := execStatus(c, id, "cat", "/wedge"); st != http.StatusServiceUnavailable {
		t.Fatalf("wedged session: status %d, want 503", st)
	}
	waitHealthy(t, c, id, 1, 5*time.Second)
	if ttr := time.Since(start); ttr > 3*time.Second {
		t.Fatalf("time to recovery %v, want bounded", ttr)
	}
	if res := c.exec(id, "echo", "back"); res.Output != "back\n" {
		t.Fatalf("post-recovery echo: %+v", res)
	}
}

// TestPooledRecoveryUsesPool: a pooled tenant's replacement comes from
// the warm pool (a fork, not a boot) — observable as pool hits/misses
// moving while the world recovers.
func TestPooledRecoveryUsesPool(t *testing.T) {
	c := testServerCfg(t, worldd.Config{Health: fastHealth()})
	id := c.create(world.Spec{
		Name:   "pooled",
		Pool:   2,
		Inject: "seed=11,open:/boom=crash@1",
	})
	var before worldd.Metrics
	c.do("GET", "/1.0/metrics", nil, &before)
	execStatus(c, id, "cat", "/boom")
	info := waitHealthy(t, c, id, 1, 5*time.Second)
	var after worldd.Metrics
	c.do("GET", "/1.0/metrics", nil, &after)
	if len(after.Pools) != 1 {
		t.Fatalf("pools section: %+v", after.Pools)
	}
	handed := after.Pools[0].Hits + after.Pools[0].Misses
	if handedBefore := before.Pools[0].Hits + before.Pools[0].Misses; handed <= handedBefore {
		t.Fatalf("recovery did not draw from the pool: %d -> %d", handedBefore, handed)
	}
	if res := c.exec(id, "echo", "pooled"); res.Output != "pooled\n" {
		t.Fatalf("post-recovery: %+v", res)
	}
	if info.RebuildNs <= 0 {
		t.Fatalf("rebuild time not recorded: %+v", info)
	}
}

// TestQuarantineMarksSuspect: a supervisor quarantine makes the world
// suspect (advisory — it keeps serving sessions).
func TestQuarantineMarksSuspect(t *testing.T) {
	c := testServerCfg(t, worldd.Config{Health: fastHealth()})
	id := c.create(world.Spec{
		Name:      "panicky",
		Agents:    []string{"faulty=seed=5,open:/q=panic@1"},
		Supervise: &world.SuperviseSpec{Mode: "strict", TripThreshold: 1, Cooldown: -1},
	})
	// Trip the breaker: the panic is contained, the layer quarantined.
	c.exec(id, "cat", "/q")

	var info worldd.Info
	end := time.Now().Add(5 * time.Second)
	for time.Now().Before(end) {
		info = worldd.Info{}
		c.do("GET", "/1.0/worlds/"+id, nil, &info)
		if info.Health == "suspect" {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if info.Health != "suspect" || !strings.Contains(info.Reason, "quarantined") {
		t.Fatalf("after quarantine: %+v", info)
	}
	// Suspect is advisory: sessions still run.
	if res := c.exec(id, "echo", "still-on"); res.Output != "still-on\n" {
		t.Fatalf("suspect world refused session: %+v", res)
	}
}

// TestRestartBudgetParksTenant: a crash-looping tenant consumes its
// restart budget and is parked — 503 with Retry-After, terminal until
// DELETE — without taking the daemon or its siblings down.
func TestRestartBudgetParksTenant(t *testing.T) {
	h := fastHealth()
	h.RestartBudget = 2
	c := testServerCfg(t, worldd.Config{Health: h})
	id := c.create(world.Spec{Name: "looper", Telemetry: true, Inject: "seed=13,open:/boom=crash@1"})
	sibling := c.create(world.Spec{Name: "sibling"})

	var info worldd.Info
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		info = worldd.Info{}
		c.do("GET", "/1.0/worlds/"+id, nil, &info)
		if info.Health == "parked" {
			break
		}
		if info.Health == "healthy" {
			execStatus(c, id, "cat", "/boom") // next poison round
		}
		time.Sleep(time.Millisecond)
	}
	if info.Health != "parked" {
		t.Fatalf("tenant not parked: %+v", info)
	}

	// Parked: 503, Retry-After set, not retryable.
	body, _ := json.Marshal(world.ExecRequest{Argv: []string{"echo", "hi"}})
	resp := rawPost(t, c, "/1.0/worlds/"+id+"/exec", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("parked exec: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("parked 503 has no Retry-After")
	}
	var errBody struct {
		Error     string `json:"error"`
		Retryable bool   `json:"retryable"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatalf("decode parked body: %v", err)
	}
	if errBody.Retryable || !strings.Contains(errBody.Error, "parked") {
		t.Fatalf("parked body %+v", errBody)
	}

	var m worldd.Metrics
	c.do("GET", "/1.0/metrics", nil, &m)
	if m.Parks < 1 || m.Health["parked"] != 1 {
		t.Fatalf("metrics after park: parks=%d health=%v", m.Parks, m.Health)
	}

	// Siblings unperturbed; DELETE reclaims the parked tenant.
	if res := c.exec(sibling, "echo", "fine"); res.Output != "fine\n" {
		t.Fatalf("sibling: %+v", res)
	}
	if st := c.do("DELETE", "/1.0/worlds/"+id, nil, nil); st != http.StatusOK {
		t.Fatalf("delete parked: status %d", st)
	}
}

// TestAdmissionSessionCap: max_sessions=1 sheds the second concurrent
// session with 429 while the first still runs.
func TestAdmissionSessionCap(t *testing.T) {
	c := testServerCfg(t, worldd.Config{Health: worldd.HealthConfig{Disabled: true}})
	id := c.create(world.Spec{
		Name:      "capped",
		Admission: &world.AdmissionSpec{MaxSessions: 1},
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.exec(id, "sleep", "1")
	}()
	// Wait until the long session is inside the handler, then collide.
	time.Sleep(200 * time.Millisecond)
	st := execStatus(c, id, "echo", "nope")
	wg.Wait()
	if st != http.StatusTooManyRequests {
		t.Fatalf("second concurrent session: status %d, want 429", st)
	}
	var m worldd.Metrics
	c.do("GET", "/1.0/metrics", nil, &m)
	if m.Throttled < 1 {
		t.Fatalf("throttled=%d, want >= 1", m.Throttled)
	}
	// The slot frees when the session ends.
	if res := c.exec(id, "echo", "ok"); res.Output != "ok\n" {
		t.Fatalf("after release: %+v", res)
	}
}

// TestAdmissionRateLimit: a one-token bucket admits the first session
// and throttles the immediate second.
func TestAdmissionRateLimit(t *testing.T) {
	c := testServerCfg(t, worldd.Config{Health: worldd.HealthConfig{Disabled: true}})
	id := c.create(world.Spec{
		Name:      "limited",
		Admission: &world.AdmissionSpec{Rate: 0.001, Burst: 1},
	})
	if res := c.exec(id, "echo", "one"); res.Status != 0 {
		t.Fatalf("first session: %+v", res)
	}
	body, _ := json.Marshal(world.ExecRequest{Argv: []string{"echo", "two"}})
	resp := rawPost(t, c, "/1.0/worlds/"+id+"/exec", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second session: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("throttled 429 has no Retry-After")
	}
}

// TestGlobalShed: the queue-depth limiter rejects excess concurrent
// execs across tenants with 429 and counts them as shed.
func TestGlobalShed(t *testing.T) {
	c := testServerCfg(t, worldd.Config{
		Health:      worldd.HealthConfig{Disabled: true},
		MaxInflight: 1,
	})
	a := c.create(world.Spec{Name: "a"})
	b := c.create(world.Spec{Name: "b"})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.exec(a, "sleep", "1")
	}()
	time.Sleep(200 * time.Millisecond)
	var shed atomic.Uint64
	for i := 0; i < 5; i++ {
		if execStatus(c, b, "echo", "x") == http.StatusTooManyRequests {
			shed.Add(1)
		}
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatal("no request shed at MaxInflight=1")
	}
	var m worldd.Metrics
	c.do("GET", "/1.0/metrics", nil, &m)
	if m.Shed == 0 {
		t.Fatalf("shed counter: %+v", m.Shed)
	}
	// Capacity returns once the long session drains.
	if res := c.exec(b, "echo", "ok"); res.Output != "ok\n" {
		t.Fatalf("after drain: %+v", res)
	}
}

// TestStrictDecoding: unknown fields and oversized bodies are 400s, on
// both the create and exec paths.
func TestStrictDecoding(t *testing.T) {
	c := testServer(t)
	id := c.create(world.Spec{Name: "strict"})

	cases := []struct {
		path string
		body []byte
	}{
		{"/1.0/worlds", []byte(`{"name":"x","bogus_field":1}`)},
		{"/1.0/worlds", []byte(`{"name":"x","setup":"nope"}`)}, // json:"-" field is unknown on the wire
		{"/1.0/worlds/" + id + "/exec", []byte(`{"argv":["true"],"extra":true}`)},
		{"/1.0/worlds", []byte(fmt.Sprintf(`{"name":%q}`, strings.Repeat("x", 2<<20)))},
		{"/1.0/worlds/" + id + "/exec", []byte(fmt.Sprintf(`{"feed":%q,"argv":["cat"]}`, strings.Repeat("y", 2<<20)))},
	}
	for _, tc := range cases {
		resp := rawPost(t, c, tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s (%d bytes): status %d, want 400",
				tc.path, len(tc.body), resp.StatusCode)
		}
	}
	// The world is untouched by the rejected requests.
	if res := c.exec(id, "echo", "intact"); res.Output != "intact\n" {
		t.Fatalf("world after bad requests: %+v", res)
	}
}

// TestMetricsUnderStorm: GET /1.0/metrics stays coherent while worlds
// are created, exercised, and deleted underneath it — every response
// decodes, closed never exceeds created, and the health and pools
// sections are present. Run with -race: the scrape reads the telemetry
// tenants' registries in place while their sessions record.
func TestMetricsUnderStorm(t *testing.T) {
	c := testServerCfg(t, worldd.Config{Health: fastHealth()})

	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	var polls atomic.Uint64
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var m worldd.Metrics
			if st := c.do("GET", "/1.0/metrics", nil, &m); st != http.StatusOK {
				t.Errorf("metrics: status %d", st)
				return
			}
			if m.Closed > m.Created {
				t.Errorf("torn aggregation: closed %d > created %d", m.Closed, m.Created)
				return
			}
			if m.Health == nil {
				t.Error("metrics missing health section")
				return
			}
			polls.Add(1)
		}
	}()

	const tenants, cycles = 4, 12
	var wg sync.WaitGroup
	for tn := 0; tn < tenants; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				// Half the storm is pooled (the pools section must show up)
				// and half carries telemetry, one of each kind, so the
				// scrape reads live registries while sessions record.
				spec := world.Spec{Name: fmt.Sprintf("storm%d", tn), Telemetry: tn < tenants/2}
				if tn%2 == 0 {
					spec.Pool = 2
				}
				var info worldd.Info
				if st := c.do("POST", "/1.0/worlds", spec, &info); st != http.StatusCreated {
					t.Errorf("create: status %d", st)
					return
				}
				c.exec(info.ID, "echo", "x")
				if st := c.do("DELETE", "/1.0/worlds/"+info.ID, nil, nil); st != http.StatusOK {
					t.Errorf("delete: status %d", st)
					return
				}
			}
		}(tn)
	}
	wg.Wait()
	close(stop)
	pollWG.Wait()

	if polls.Load() == 0 {
		t.Fatal("metrics poller never completed a poll")
	}
	var m worldd.Metrics
	c.do("GET", "/1.0/metrics", nil, &m)
	if len(m.Pools) == 0 {
		t.Fatalf("pools section empty after pooled storm: %+v", m.Pools)
	}
	if m.Created != m.Closed || m.Worlds != 0 {
		t.Fatalf("storm did not settle: %+v", m)
	}
	want := uint64(tenants * cycles)
	if m.Sessions != want {
		t.Fatalf("sessions %d, want %d (probes must not count)", m.Sessions, want)
	}
}
