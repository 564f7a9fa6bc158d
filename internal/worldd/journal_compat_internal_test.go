package worldd

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"interpose/internal/apps"
	"interpose/internal/journal"
	"interpose/internal/world"
)

// TestJournalFromBootedWorldReplaysOntoFork: a file journal recorded
// by a world made with world.Boot — a write, a rename and an unlink —
// opens as a tenant of a server whose creates fork its base world. The
// fork keeps the base's inode numbers, so every record applies, fsck is
// clean, and the tenant's filesystem is the one a Boot plus the same
// replay yields.
func TestJournalFromBootedWorldReplaysOntoFork(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "compat.journal")

	rec, err := world.Boot(world.Spec{Register: apps.Register, JournalPath: jpath})
	if err != nil {
		t.Fatal(err)
	}
	script := "echo kept > /tmp/a; echo gone > /tmp/b; mv /tmp/a /tmp/c; rm /tmp/b"
	if res, err := rec.Exec(world.ExecRequest{Argv: []string{"sh", "-c", script}}); err != nil || res.Status != 0 {
		t.Fatalf("record: %v status %d %q", err, res.Status, res.Output)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	recs, torn := journal.Scan(data)
	if torn != nil || len(recs) == 0 {
		t.Fatalf("recorded journal: %d records, torn %v", len(recs), torn)
	}

	// The reference replays a copy onto a fresh Boot.
	refPath := filepath.Join(t.TempDir(), "ref.journal")
	if err := os.WriteFile(refPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ref, err := world.Boot(world.Spec{Register: apps.Register, JournalPath: refPath})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	s, err := New(Config{Register: apps.Register, StateDir: dir, Health: HealthConfig{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	req := httptest.NewRequest("POST", "/1.0/worlds", strings.NewReader(`{"name":"compat","journal":"compat"}`))
	resp := httptest.NewRecorder()
	s.Handler().ServeHTTP(resp, req)
	if resp.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.Code, resp.Body)
	}
	s.mu.Lock()
	var e *entry
	for _, x := range s.worlds {
		e = x
	}
	s.mu.Unlock()
	tenant := e.w.Load()

	if tenant.Applied != len(recs) || tenant.Skipped != 0 {
		t.Fatalf("tenant replay: applied %d skipped %d, want %d and 0", tenant.Applied, tenant.Skipped, len(recs))
	}
	if ref.Applied != len(recs) {
		t.Fatalf("reference replay applied %d of %d", ref.Applied, len(recs))
	}
	if bad := tenant.Kernel().FS().Check(); len(bad) != 0 {
		t.Fatalf("tenant fails fsck: %v", bad)
	}
	if tenant.Kernel().FS().StateHash() != ref.Kernel().FS().StateHash() {
		t.Fatal("tenant state differs from Boot + replay of the same journal")
	}
	res, err := tenant.Exec(world.ExecRequest{Argv: []string{"cat", "/tmp/c"}})
	if err != nil || res.Output != "kept\n" {
		t.Fatalf("cat /tmp/c: %v %q", err, res.Output)
	}
}
