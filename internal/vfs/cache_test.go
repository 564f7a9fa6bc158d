package vfs

import (
	"fmt"
	"sync"
	"testing"

	"interpose/internal/sys"
)

// warm resolves path once so its components are in the dentry cache.
func warm(t *testing.T, fs *FS, path string) *Inode {
	t.Helper()
	ip, err := fs.Lookup(nil, fs.Root(), path, root0, true)
	if err != sys.OK {
		t.Fatalf("warm %s: %v", path, err)
	}
	return ip
}

func TestCacheHitCounters(t *testing.T) {
	fs := build(t)
	warm(t, fs, "/a/b/c.txt")
	before := fs.CacheStats()
	for i := 0; i < 10; i++ {
		warm(t, fs, "/a/b/c.txt")
	}
	after := fs.CacheStats()
	if after.Hits-before.Hits < 10 {
		t.Fatalf("expected ≥10 new hits, got %d→%d", before.Hits, after.Hits)
	}
}

func TestCacheNegativeEntryInvalidatedByCreate(t *testing.T) {
	fs := build(t)
	b := warm(t, fs, "/a/b")

	// Two misses on the same absent name: the second should be a cached
	// negative hit.
	for i := 0; i < 2; i++ {
		if _, err := fs.Lookup(nil, fs.Root(), "/a/b/new.txt", root0, true); err != sys.ENOENT {
			t.Fatalf("lookup %d: %v, want ENOENT", i, err)
		}
	}
	if st := fs.CacheStats(); st.NegHits == 0 {
		t.Fatalf("no negative hits recorded: %+v", st)
	}

	// Creating the file must invalidate the negative entry immediately.
	created, err := fs.Create(b, "new.txt", 0o644, root0)
	if err != sys.OK {
		t.Fatalf("create: %v", err)
	}
	got, err := fs.Lookup(nil, fs.Root(), "/a/b/new.txt", root0, true)
	if err != sys.OK {
		t.Fatalf("lookup after create: %v", err)
	}
	if got != created {
		t.Fatalf("lookup found wrong inode after create")
	}
}

func TestCacheUnlinkInvalidates(t *testing.T) {
	fs := build(t)
	b := warm(t, fs, "/a/b")
	warm(t, fs, "/a/b/c.txt")
	if err := fs.Unlink(b, "c.txt", root0); err != sys.OK {
		t.Fatalf("unlink: %v", err)
	}
	if _, err := fs.Lookup(nil, fs.Root(), "/a/b/c.txt", root0, true); err != sys.ENOENT {
		t.Fatalf("lookup after unlink: %v, want ENOENT", err)
	}
}

func TestCacheRenameInvalidates(t *testing.T) {
	fs := build(t)
	b := warm(t, fs, "/a/b")
	old := warm(t, fs, "/a/b/c.txt")
	if err := fs.Rename(b, "c.txt", b, "d.txt", root0); err != sys.OK {
		t.Fatalf("rename: %v", err)
	}
	if _, err := fs.Lookup(nil, fs.Root(), "/a/b/c.txt", root0, true); err != sys.ENOENT {
		t.Fatalf("old name after rename: %v, want ENOENT", err)
	}
	got, err := fs.Lookup(nil, fs.Root(), "/a/b/d.txt", root0, true)
	if err != sys.OK || got != old {
		t.Fatalf("new name after rename: %v (same inode: %v)", err, got == old)
	}
}

func TestCacheChmodVisibleOnFastPath(t *testing.T) {
	fs := build(t)
	b := warm(t, fs, "/a/b")
	warm(t, fs, "/a/b/c.txt")
	// Remove search permission from /a/b for others; the fast path's
	// lock-free access check must see the change at once.
	if err := fs.Chmod(b, 0o700, root0); err != sys.OK {
		t.Fatalf("chmod: %v", err)
	}
	if _, err := fs.Lookup(nil, fs.Root(), "/a/b/c.txt", alice, true); err != sys.EACCES {
		t.Fatalf("lookup after chmod: %v, want EACCES", err)
	}
	if err := fs.Chmod(b, 0o755, root0); err != sys.OK {
		t.Fatalf("chmod back: %v", err)
	}
	if _, err := fs.Lookup(nil, fs.Root(), "/a/b/c.txt", alice, true); err != sys.OK {
		t.Fatalf("lookup after restore: %v", err)
	}
}

func TestCacheStatGenerationInvalidation(t *testing.T) {
	fs := build(t)
	ip := warm(t, fs, "/a/b/c.txt")
	st1 := ip.Stat()
	st2 := ip.Stat() // should come from the generation-checked cache
	if st1.Size != st2.Size || st1.Mode != st2.Mode {
		t.Fatalf("cached stat differs: %+v vs %+v", st1, st2)
	}
	if s := fs.CacheStats(); s.AttrHit == 0 {
		t.Fatalf("no attribute-cache hits recorded: %+v", s)
	}
	if _, err := ip.WriteAt([]byte("longer contents"), 0, 0); err != sys.OK {
		t.Fatalf("write: %v", err)
	}
	if st := ip.Stat(); st.Size != 15 {
		t.Fatalf("stat after write: size %d, want 15", st.Size)
	}
	if err := fs.Chmod(ip, 0o600, root0); err != sys.OK {
		t.Fatalf("chmod: %v", err)
	}
	if st := ip.Stat(); st.Mode&0o777 != 0o600 {
		t.Fatalf("stat after chmod: mode %o, want 600", st.Mode&0o777)
	}
}

// TestCacheRaceMutationsVsLookups churns rename/unlink/create/chmod in
// one set of goroutines while others resolve the same paths through the
// cache. Run under -race this checks the fill/invalidate locking; the
// invariant checked here is that a lookup never returns a wrong inode —
// ENOENT or the current file are both acceptable during churn.
func TestCacheRaceMutationsVsLookups(t *testing.T) {
	fs := build(t)
	b := warm(t, fs, "/a/b")

	const iters = 400
	var mutators, lookers sync.WaitGroup
	stop := make(chan struct{})

	// Mutators: rename c.txt <-> r.txt, create/unlink n.txt, chmod flapping.
	mutators.Add(1)
	go func() {
		defer mutators.Done()
		names := [2]string{"c.txt", "r.txt"}
		for i := 0; i < iters; i++ {
			fs.Rename(b, names[i%2], b, names[(i+1)%2], root0)
		}
	}()
	mutators.Add(1)
	go func() {
		defer mutators.Done()
		for i := 0; i < iters; i++ {
			if i%2 == 0 {
				fs.Create(b, "n.txt", 0o644, root0)
			} else {
				fs.Unlink(b, "n.txt", root0)
			}
		}
	}()
	mutators.Add(1)
	go func() {
		defer mutators.Done()
		for i := 0; i < iters; i++ {
			if i%2 == 0 {
				fs.Chmod(b, 0o700, root0)
			} else {
				fs.Chmod(b, 0o755, root0)
			}
		}
	}()

	// Lookers: resolve through the cache until the mutators finish.
	for g := 0; g < 4; g++ {
		lookers.Add(1)
		go func(g int) {
			defer lookers.Done()
			paths := []string{"/a/b/c.txt", "/a/b/r.txt", "/a/b/n.txt", "/a/b"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := paths[(i+g)%len(paths)]
				ip, err := fs.Lookup(nil, fs.Root(), p, root0, true)
				switch err {
				case sys.OK:
					if ip == nil {
						t.Errorf("lookup %s: OK with nil inode", p)
						return
					}
				case sys.ENOENT, sys.EACCES:
					// Acceptable mid-churn.
				default:
					t.Errorf("lookup %s: unexpected %v", p, err)
					return
				}
			}
		}(g)
	}

	mutators.Wait()
	close(stop)
	lookers.Wait()

	// Post-churn: the directory must be consistent. Exactly one of
	// c.txt/r.txt exists (renames preserve the file), and lookups agree
	// with a locked walk.
	fs.Chmod(b, 0o755, root0)
	found := 0
	for _, n := range []string{"c.txt", "r.txt"} {
		if _, err := fs.Lookup(nil, fs.Root(), "/a/b/"+n, root0, true); err == sys.OK {
			found++
		} else if err != sys.ENOENT {
			t.Fatalf("final lookup %s: %v", n, err)
		}
	}
	if found != 1 {
		t.Fatalf("after rename churn: %d of {c.txt,r.txt} exist, want 1", found)
	}
}

// TestCacheManyDirectories exercises shard distribution and the per-shard
// cap with more entries than one shard holds.
func TestCacheManyDirectories(t *testing.T) {
	fs := New(nil)
	dir, err := fs.Mkdir(fs.Root(), "big", 0o755, root0)
	if err != sys.OK {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := fs.Create(dir, fmt.Sprintf("f%03d", i), 0o644, root0); err != sys.OK {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			p := fmt.Sprintf("/big/f%03d", i)
			if _, err := fs.Lookup(nil, fs.Root(), p, root0, true); err != sys.OK {
				t.Fatalf("round %d lookup %s: %v", round, p, err)
			}
		}
	}
	st := fs.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("no hits across %d lookups: %+v", 2*n, st)
	}
}
