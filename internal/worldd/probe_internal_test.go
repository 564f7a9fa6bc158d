package worldd

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"interpose/internal/apps"
)

// TestProbeRacingDeleteIsNoDeath: a sweep snapshots the world table,
// launches an idle liveness probe, and DELETE closes the world before
// the probe's Exec takes the world lock. The probe then fails with
// "exec on closed world". That is the tenant leaving, not the world
// dying: the deaths counter must not move and no recovery may start.
// The test replays that order directly — delete first, then run the
// probe the sweep had already decided on — so it does not depend on
// goroutine scheduling.
func TestProbeRacingDeleteIsNoDeath(t *testing.T) {
	// An hour-long sweep period keeps the watchdog's own probes out of
	// the way; the test drives the one probe it needs.
	s, err := New(Config{
		Register: apps.Register,
		StateDir: t.TempDir(),
		Health:   HealthConfig{ProbeInterval: time.Hour},
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	t.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	h := s.Handler()
	serve := func(method, path, body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code
	}
	if st := serve("POST", "/1.0/worlds", `{"name":"probed"}`); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	s.mu.Lock()
	var e *entry
	for _, v := range s.worlds {
		e = v
	}
	s.mu.Unlock()
	w := e.w.Load()

	if st := serve("DELETE", "/1.0/worlds/"+e.ID, ""); st != http.StatusOK {
		t.Fatalf("delete: status %d", st)
	}
	s.probe(e, w)
	for end := time.Now().Add(5 * time.Second); s.probes.Load() == 0; {
		if time.Now().After(end) {
			t.Fatal("probe never finished")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.probeFails.Load(); got != 1 {
		t.Fatalf("probe fails = %d, want 1: the probe must have hit the closed world", got)
	}
	if got := s.deaths.Load(); got != 0 {
		t.Fatalf("deaths = %d after a probe raced DELETE, want 0", got)
	}
	if e.recovering.Load() {
		t.Fatal("a recovery loop started for a deleted tenant")
	}
}
