package worldd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"interpose/internal/apps"
)

// scrapeFleet is a server hosting an idle fleet, some of it with
// telemetry, driven through its handler without a socket.
type scrapeFleet struct {
	s   *Server
	h   http.Handler
	tel []string // ids of the telemetry worlds
}

// newScrapeFleet boots n worlds with the watchdog off (its probes would
// allocate and record under the measurement), every telEvery-th world
// with telemetry.
func newScrapeFleet(tb testing.TB, n, telEvery int) *scrapeFleet {
	tb.Helper()
	s, err := New(Config{Register: apps.Register, StateDir: tb.TempDir(), Health: HealthConfig{Disabled: true}})
	if err != nil {
		tb.Fatalf("new server: %v", err)
	}
	tb.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			tb.Errorf("shutdown: %v", err)
		}
	})
	f := &scrapeFleet{s: s, h: s.Handler()}
	for i := 0; i < n; i++ {
		telemetry := i%telEvery == 0
		rec := f.serve("POST", "/1.0/worlds", fmt.Sprintf(`{"name":"w%d","telemetry":%t}`, i, telemetry))
		if rec.Code != http.StatusCreated {
			tb.Fatalf("create: status %d: %s", rec.Code, rec.Body)
		}
		if telemetry {
			var info Info
			if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
				tb.Fatalf("create reply: %v", err)
			}
			f.tel = append(f.tel, info.ID)
		}
	}
	return f
}

func (f *scrapeFleet) serve(method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	f.h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// scrape serves one GET /1.0/metrics.
func (f *scrapeFleet) scrape() int { return f.serve("GET", "/1.0/metrics", "").Code }

// fillRings runs sessions in every telemetry world until its flight
// ring stops growing, so a scrape that copied the rings would pay for
// full ones.
func (f *scrapeFleet) fillRings(tb testing.TB) {
	tb.Helper()
	for _, id := range f.tel {
		f.s.mu.Lock()
		reg := f.s.worlds[id].w.Load().Telemetry()
		f.s.mu.Unlock()
		for prev := -1; ; {
			if rec := f.serve("POST", "/1.0/worlds/"+id+"/exec", `{"argv":["echo","x"]}`); rec.Code != http.StatusOK {
				tb.Fatalf("exec: status %d: %s", rec.Code, rec.Body)
			}
			n := len(reg.FlightEvents())
			if n == prev {
				break
			}
			prev = n
		}
	}
}

// TestScrapeAllocsFlatWithRingFill: the fleet scrape reads registries in
// place, so its allocations follow the number of merged rows, not how
// much each world's flight ring holds. The same fleet is measured with
// empty rings and again with every ring full.
func TestScrapeAllocsFlatWithRingFill(t *testing.T) {
	f := newScrapeFleet(t, 40, 4)
	measure := func() float64 {
		return testing.AllocsPerRun(20, func() {
			if st := f.scrape(); st != http.StatusOK {
				t.Fatalf("metrics: status %d", st)
			}
		})
	}
	empty := measure()
	f.fillRings(t)
	full := measure()
	// The slack covers the merged rows themselves (a few dozen syscall,
	// layer and counter rows appear once the worlds have run) and the
	// larger reply buffer.
	const slack = 32
	if full > empty+slack {
		t.Fatalf("scrape allocations grew from %.0f to %.0f with full flight rings (slack %d)", empty, full, slack)
	}
	t.Logf("scrape allocations: %.0f with empty rings, %.0f with full", empty, full)
}

// BenchmarkWorlddMetricsScrape measures one GET /1.0/metrics over a
// 1,000-world fleet, one world in ten with telemetry and every flight
// ring full.
func BenchmarkWorlddMetricsScrape(b *testing.B) {
	f := newScrapeFleet(b, 1000, 10)
	f.fillRings(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := f.scrape(); st != http.StatusOK {
			b.Fatalf("metrics: status %d", st)
		}
	}
}
