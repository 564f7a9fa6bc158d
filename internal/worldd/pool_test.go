package worldd_test

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"interpose/internal/world"
	"interpose/internal/worldd"
)

// TestPooledTenantIsolation: tenants served from the same warm pool are
// full worlds — divergent writes stay private, and the standard
// lifecycle (exec, info, delete) works unchanged.
func TestPooledTenantIsolation(t *testing.T) {
	c := testServer(t)

	idA := c.create(world.Spec{Name: "pooled-a", Pool: 2})
	idB := c.create(world.Spec{Name: "pooled-b", Pool: 2})
	if idA == idB {
		t.Fatal("two pooled creates returned one world")
	}

	res := c.exec(idA, "sh", "-c", "echo alpha > /state")
	if res.Status != 0 {
		t.Fatalf("write a: status %d: %s", res.Status, res.Output)
	}
	res = c.exec(idB, "sh", "-c", "echo beta > /state")
	if res.Status != 0 {
		t.Fatalf("write b: status %d: %s", res.Status, res.Output)
	}
	res = c.exec(idA, "cat", "/state")
	if res.Status != 0 || res.Output != "alpha\n" {
		t.Fatalf("tenant a state: status %d output %q", res.Status, res.Output)
	}
	res = c.exec(idB, "cat", "/state")
	if res.Status != 0 || res.Output != "beta\n" {
		t.Fatalf("tenant b state: status %d output %q", res.Status, res.Output)
	}

	// A third create sees a fresh world, not either tenant's state.
	idC := c.create(world.Spec{Name: "pooled-c", Pool: 2})
	res = c.exec(idC, "cat", "/state")
	if res.Status == 0 {
		t.Fatalf("fresh pooled tenant inherited /state: %q", res.Output)
	}

	if st := c.do("DELETE", "/1.0/worlds/"+idA, nil, nil); st != http.StatusOK {
		t.Fatalf("delete pooled tenant: status %d", st)
	}
}

// TestPooledMetrics: the fleet metrics view carries each pool's gauges,
// and pooled tenants with telemetry contribute to the merged snapshot
// like any other tenant.
func TestPooledMetrics(t *testing.T) {
	c := testServer(t)

	id := c.create(world.Spec{Name: "pooled", Pool: 2, Telemetry: true})
	res := c.exec(id, "echo", "hi")
	if res.Status != 0 || res.Output != "hi\n" {
		t.Fatalf("echo: status %d output %q", res.Status, res.Output)
	}

	var m worldd.Metrics
	if st := c.do("GET", "/1.0/metrics", nil, &m); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	if len(m.Pools) != 1 {
		t.Fatalf("pools in metrics: %d, want 1", len(m.Pools))
	}
	p := m.Pools[0]
	if p.Name != "pooled" {
		t.Fatalf("pool label %q", p.Name)
	}
	if p.Hits+p.Misses != 1 {
		t.Fatalf("pool acquires %d, want 1 (%+v)", p.Hits+p.Misses, p)
	}
	if p.Target != 2 {
		t.Fatalf("pool target %d, want 2 (%+v)", p.Target, p)
	}
	if m.Telemetry.Total == 0 {
		t.Fatalf("pooled tenant missing from merged telemetry: %+v", m.Telemetry)
	}

	// Two pooled tenants with the same spec share one pool; a different
	// spec gets its own.
	c.create(world.Spec{Name: "pooled2", Pool: 2, Telemetry: true})
	c.create(world.Spec{Name: "other", Pool: 2})
	if st := c.do("GET", "/1.0/metrics", nil, &m); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	if len(m.Pools) != 2 {
		t.Fatalf("pools after three tenants: %d, want 2", len(m.Pools))
	}
}

// TestFleetMetricsDropsSharedGauges: every member of a pool carries its
// pool's gauges, and every adopted world a health enum, in its own
// telemetry. Summed across the fleet they would count one pool three
// times and add enums, so the fleet view drops those rows (its pools and
// health fields carry them once) while each tenant's /dev/metrics keeps
// them.
func TestFleetMetricsDropsSharedGauges(t *testing.T) {
	c := testServer(t)
	var ids []string
	for i := 0; i < 3; i++ {
		id := c.create(world.Spec{Name: fmt.Sprintf("member%d", i), Pool: 2, Telemetry: true})
		if res := c.exec(id, "echo", "hi"); res.Status != 0 {
			t.Fatalf("echo in %s: status %d", id, res.Status)
		}
		ids = append(ids, id)
	}
	// A sampled-traced tenant reports its sample rate, and a supervised
	// tenant whose layer panics reports that layer's breaker state: a
	// setting and an enum, neither of which adds across worlds.
	traced := c.create(world.Spec{Name: "traced", Telemetry: true, Trace: &world.TraceSpec{Sample: 0.5}})
	if res := c.exec(traced, "echo", "hi"); res.Status != 0 {
		t.Fatalf("echo in traced: status %d", res.Status)
	}
	supervised := c.create(world.Spec{
		Name:      "supervised",
		Agents:    []string{"faulty=seed=1,write=panic@1"},
		Telemetry: true,
		Supervise: &world.SuperviseSpec{Mode: "strict", TripThreshold: 2},
	})
	for i := 0; i < 3; i++ {
		if res := c.exec(supervised, "echo", "doomed"); !res.Exited() {
			t.Fatalf("supervised session killed: %+v", res)
		}
	}

	var m worldd.Metrics
	if st := c.do("GET", "/1.0/metrics", nil, &m); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	if len(m.Pools) != 1 || m.Pools[0].Hits+m.Pools[0].Misses != 3 {
		t.Fatalf("pools = %+v, want one pool with 3 acquires", m.Pools)
	}
	var dentryHits, layerPanics bool
	for _, row := range m.Telemetry.Counters {
		if strings.HasPrefix(row.Name, "pool.") || strings.HasPrefix(row.Name, "health.") ||
			row.Name == "trace.sample_ppm" ||
			strings.HasPrefix(row.Name, "supervise.layer.") && strings.HasSuffix(row.Name, ".state") {
			t.Errorf("fleet telemetry sums per-world copy of %s = %d", row.Name, row.Value)
		}
		dentryHits = dentryHits || row.Name == "vfs.dentry.hit"
		layerPanics = layerPanics || strings.HasPrefix(row.Name, "supervise.layer.") &&
			strings.HasSuffix(row.Name, ".panics") && row.Value > 0
	}
	if !dentryHits || !layerPanics {
		t.Fatalf("fleet telemetry lost the additive gauge rows: %+v", m.Telemetry.Counters)
	}
	if out := c.exec(traced, "cat", "/dev/metrics").Output; !strings.Contains(out, "trace.sample_ppm") {
		t.Errorf("tenant /dev/metrics lacks trace.sample_ppm:\n%s", out)
	}

	out := c.exec(ids[0], "cat", "/dev/metrics").Output
	for _, want := range []string{"pool.hit", "pool.size", "health.state"} {
		if !strings.Contains(out, want) {
			t.Errorf("tenant /dev/metrics lacks %s:\n%s", want, out)
		}
	}
}

// TestPooledRejectsFileJournal: a file journal cannot back N identical
// pool members; the server must refuse at create time, not fail later.
func TestPooledRejectsFileJournal(t *testing.T) {
	c := testServer(t)
	spec := world.Spec{Name: "bad", Pool: 2, JournalPath: "key"}
	if st := c.do("POST", "/1.0/worlds", spec, nil); st != http.StatusBadRequest {
		t.Fatalf("pooled file journal: status %d, want 400", st)
	}
	// JournalMem is the supported pooled journaling mode.
	id := c.create(world.Spec{Name: "memj", Pool: 1, JournalMem: true})
	res := c.exec(id, "sh", "-c", "echo ok > /state")
	if res.Status != 0 {
		t.Fatalf("journaled pooled write: status %d", res.Status)
	}
}

// TestPooledBreakerIsolation re-runs the breaker isolation scenario on
// pooled tenants: two tenants served from one warm pool get their own
// supervisors, so one tenant's contained failures and quarantine never
// perturb the sibling.
func TestPooledBreakerIsolation(t *testing.T) {
	c := testServer(t)
	spec := world.Spec{
		Name:      "pooled-victim",
		Pool:      2,
		Agents:    []string{"faulty=seed=1,write=panic@1"},
		Telemetry: true,
		Supervise: &world.SuperviseSpec{Mode: "strict", TripThreshold: 2},
	}
	victim := c.create(spec)
	spec.Name = "pooled-sibling"
	sibling := c.create(spec)

	for i := 0; i < 4; i++ {
		// The victim's writes panic and are contained; its sessions must
		// not kill the world. The sibling shares the victim's pool but
		// not its supervisor state: reads are uninterposed there, and
		// echo's own write panics are its own breaker's business.
		vres := c.exec(victim, "echo", "doomed")
		if !vres.Exited() {
			t.Fatalf("victim session killed: %+v", vres)
		}
	}
	// The sibling's world still runs sessions and its filesystem is its
	// own — the victim's containment did not leak across the pool.
	sres := c.exec(sibling, "cat", "/bin/echo")
	if !sres.Exited() {
		t.Fatalf("sibling session killed: %+v", sres)
	}

	var m worldd.Metrics
	c.do("GET", "/1.0/metrics", nil, &m)
	var contained uint64
	for _, ctr := range m.Telemetry.Counters {
		if ctr.Name == "supervise.contained" {
			contained = ctr.Value
		}
	}
	if contained == 0 {
		t.Fatalf("no containment recorded fleet-wide: %+v", m.Telemetry.Counters)
	}
}
