package worldd_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"interpose/internal/apps"
	"interpose/internal/kernel"
	"interpose/internal/world"
	"interpose/internal/worldd"
)

// TestBaseWorldFixtures: Config.Setup runs once, on the base world, and
// every kind of tenant — plain, journal_mem, file journal, pooled —
// starts from its result.
func TestBaseWorldFixtures(t *testing.T) {
	runs := 0
	srv, err := worldd.New(worldd.Config{
		Register: apps.Register,
		StateDir: t.TempDir(),
		Setup: []func(*kernel.Kernel) error{func(k *kernel.Kernel) error {
			runs++
			return k.WriteFile("/fixture", []byte("from base\n"), 0o644)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	c := &client{t: t, base: hs.URL, hc: hs.Client(), srv: srv}
	defer func() {
		hs.Close()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	for _, spec := range []world.Spec{
		{Name: "plain"},
		{Name: "mem", JournalMem: true},
		{Name: "file", JournalPath: "file"},
		{Name: "pooled", Pool: 2},
	} {
		id := c.create(spec)
		if res := c.exec(id, "cat", "/fixture"); res.Status != 0 || res.Output != "from base\n" {
			t.Errorf("%s: cat /fixture = %q (status %d)", spec.Name, res.Output, res.Status)
		}
	}
	if runs != 1 {
		t.Fatalf("Setup ran %d times, want once", runs)
	}
}

// TestFailingSetupFailsNew: a Setup hook that fails makes New fail,
// since no tenant could ever be forked from the base.
func TestFailingSetupFailsNew(t *testing.T) {
	_, err := worldd.New(worldd.Config{
		Register: apps.Register,
		Setup:    []func(*kernel.Kernel) error{func(*kernel.Kernel) error { return errors.New("no fixture") }},
	})
	if err == nil || !strings.Contains(err.Error(), "no fixture") {
		t.Fatalf("New with a failing Setup: %v", err)
	}
}
