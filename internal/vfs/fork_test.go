package vfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"interpose/internal/sys"
)

// forkFixture builds a tree with stormFiles regular files under /data,
// each holding pattern(0), plus the usual /a tree from build.
const stormFiles = 16

func pattern(tag, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(tag*31 + i)
	}
	return p
}

func buildForkFS(t *testing.T) *FS {
	t.Helper()
	fs := build(t)
	data, err := fs.Mkdir(fs.Root(), "data", 0o755, root0)
	if err != sys.OK {
		t.Fatal(err)
	}
	for i := 0; i < stormFiles; i++ {
		f, err := fs.Create(data, fmt.Sprintf("f%02d", i), 0o644, root0)
		if err != sys.OK {
			t.Fatal(err)
		}
		if _, werr := f.WriteAt(pattern(0, 512), 0, 0); werr != sys.OK {
			t.Fatal(werr)
		}
	}
	return fs
}

func mustLookup(t *testing.T, fs *FS, path string) *Inode {
	t.Helper()
	ip, err := fs.Lookup(nil, fs.Root(), path, root0, true)
	if err != sys.OK {
		t.Fatalf("lookup %s: %v", path, err)
	}
	return ip
}

func mustClean(t *testing.T, label string, fs *FS) {
	t.Helper()
	if bad := fs.Check(); len(bad) != 0 {
		t.Fatalf("%s: fsck: %v", label, bad)
	}
}

// TestForkSharesUntilWrite pins the COW contract: after a fork the file
// data array is shared (same backing array, refcount 2); the first
// write on either side copies out just that side; the survivor reclaims
// exclusive ownership and writes in place again.
func TestForkSharesUntilWrite(t *testing.T) {
	fs := buildForkFS(t)
	child, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	pf := mustLookup(t, fs, "/data/f00")
	cf := mustLookup(t, child, "/data/f00")
	if &pf.data[0] != &cf.data[0] {
		t.Fatal("fork did not share the data array")
	}
	refs := pf.dataRefs.Load()
	if refs == nil || refs != cf.dataRefs.Load() {
		t.Fatal("parent and child do not share one refcount")
	}
	if n := refs.Load(); n != 2 {
		t.Fatalf("shared refcount = %d, want 2", n)
	}

	// Child's first write copies out: arrays diverge, child drops its
	// reference, parent becomes the sole holder.
	if _, werr := cf.WriteAt([]byte("child"), 0, 0); werr != sys.OK {
		t.Fatal(werr)
	}
	if &pf.data[0] == &cf.data[0] {
		t.Fatal("child write did not copy out of the shared array")
	}
	if cf.dataRefs.Load() != nil {
		t.Fatal("child still marked shared after copy-out")
	}
	if n := refs.Load(); n != 1 {
		t.Fatalf("refcount after child copy-out = %d, want 1", n)
	}

	// Parent's next write reclaims the array (sole holder): no copy.
	before := &pf.data[0]
	if _, werr := pf.WriteAt([]byte("parent"), 0, 0); werr != sys.OK {
		t.Fatal(werr)
	}
	if &pf.data[0] != before {
		t.Fatal("sole holder copied instead of reclaiming")
	}
	if pf.dataRefs.Load() != nil {
		t.Fatal("parent still marked shared after reclaim")
	}

	if got := pf.Bytes()[:6]; !bytes.Equal(got, []byte("parent")) {
		t.Fatalf("parent bytes = %q", got)
	}
	if got := cf.Bytes()[:5]; !bytes.Equal(got, []byte("child")) {
		t.Fatalf("child bytes = %q", got)
	}
}

// TestForkTruncate pins the truncate half of the contract: a shrink is
// a reslice and keeps sharing (the surviving bytes never change); a
// growing truncate reallocates and drops the share.
func TestForkTruncate(t *testing.T) {
	fs := buildForkFS(t)
	child, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pf := mustLookup(t, fs, "/data/f00")
	cf := mustLookup(t, child, "/data/f00")
	refs := pf.dataRefs.Load()

	if serr := cf.Truncate(64); serr != sys.OK {
		t.Fatal(serr)
	}
	if &pf.data[0] != &cf.data[0] {
		t.Fatal("shrink truncate broke the share")
	}
	if n := refs.Load(); n != 2 {
		t.Fatalf("refcount after shrink = %d, want 2", n)
	}

	if serr := cf.Truncate(1024); serr != sys.OK {
		t.Fatal(serr)
	}
	if &pf.data[0] == &cf.data[0] {
		t.Fatal("growing truncate kept the shared array")
	}
	if n := refs.Load(); n != 1 {
		t.Fatalf("refcount after grow = %d, want 1", n)
	}
	// Parent bytes must be untouched; child's surviving prefix matches,
	// and its grown tail is zero.
	if !bytes.Equal(pf.Bytes(), pattern(0, 512)) {
		t.Fatal("parent bytes changed under child truncate")
	}
	cb := cf.Bytes()
	if !bytes.Equal(cb[:64], pattern(0, 512)[:64]) {
		t.Fatal("child prefix diverged without a write")
	}
	for i := 64; i < 1024; i++ {
		if cb[i] != 0 {
			t.Fatalf("child grown tail not zeroed at %d", i)
		}
	}
}

// TestForkFsckClean runs the recovery fsck on parent and child after a
// fork and again after divergent mutations on both sides: structure,
// link counts, caches, and the inode census must all hold in each world
// independently.
func TestForkFsckClean(t *testing.T) {
	fs := buildForkFS(t)
	child, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustClean(t, "parent after fork", fs)
	mustClean(t, "child after fork", child)

	// Diverge: new file + unlink in the child, write + rename in the
	// parent.
	cdata := mustLookup(t, child, "/data")
	if _, cerr := child.Create(cdata, "new", 0o644, root0); cerr != sys.OK {
		t.Fatal(cerr)
	}
	if cerr := child.Unlink(cdata, "f01", root0); cerr != sys.OK {
		t.Fatal(cerr)
	}
	pf := mustLookup(t, fs, "/data/f02")
	if _, werr := pf.WriteAt(pattern(7, 2048), 0, 0); werr != sys.OK {
		t.Fatal(werr)
	}
	pdata := mustLookup(t, fs, "/data")
	if rerr := fs.Rename(pdata, "f03", pdata, "renamed", root0); rerr != sys.OK {
		t.Fatal(rerr)
	}

	mustClean(t, "parent after divergence", fs)
	mustClean(t, "child after divergence", child)

	// The child never saw the parent's divergence and vice versa.
	if _, lerr := child.Lookup(nil, child.Root(), "/data/renamed", root0, true); lerr != sys.ENOENT {
		t.Fatalf("parent rename leaked into child: %v", lerr)
	}
	if _, lerr := fs.Lookup(nil, fs.Root(), "/data/new", root0, true); lerr != sys.ENOENT {
		t.Fatalf("child create leaked into parent: %v", lerr)
	}
}

// TestForkDeviceNodes: device inodes must resolve against the child's
// driver table, and a fork with no resolver for a device tree fails
// rather than aliasing the parent's drivers.
func TestForkDeviceNodes(t *testing.T) {
	fs := build(t)
	devdir, err := fs.Mkdir(fs.Root(), "dev", 0o755, root0)
	if err != sys.OK {
		t.Fatal(err)
	}
	parentDev := &nullDevice{}
	if _, err := fs.MkDev(devdir, "null", 0o666, 0x0103, parentDev, root0); err != sys.OK {
		t.Fatal(err)
	}

	if _, ferr := fs.Fork(nil, nil); ferr == nil {
		t.Fatal("fork with unresolvable device nodes succeeded")
	}

	childDev := &nullDevice{}
	child, ferr := fs.Fork(nil, func(rdev uint32) (Device, bool) {
		if rdev == 0x0103 {
			return childDev, true
		}
		return nil, false
	})
	if ferr != nil {
		t.Fatal(ferr)
	}
	got := mustLookup(t, child, "/dev/null")
	if got.dev != Device(childDev) {
		t.Fatal("child device inode kept the parent's driver")
	}
	mustClean(t, "child with devices", child)
}

type nullDevice struct{}

func (*nullDevice) Read(p []byte, off int64) (int, sys.Errno)             { return 0, sys.OK }
func (*nullDevice) Write(p []byte, off int64) (int, sys.Errno)            { return len(p), sys.OK }
func (*nullDevice) Ioctl(req sys.Word, arg sys.Word, c sys.Ctx) sys.Errno { return sys.ENOTTY }

// TestForkStorm is the -race storm: many goroutines fork the same
// parent concurrently, each writes its own byte pattern into every file
// of its fork, and each then verifies its fork holds exactly its
// pattern — while a parent-side writer keeps mutating one file the
// whole time. Byte-level isolation between siblings and the parent must
// hold, and every world must end fsck-clean.
func TestForkStorm(t *testing.T) {
	const forks = 8
	fs := buildForkFS(t)

	// Parent-side writer: hammers f00 so fork share-installs race with
	// copy-outs on a live inode.
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		pf := mustLookup(t, fs, "/data/f00")
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, werr := pf.WriteAt(pattern(i%250, 512), 0, 0); werr != sys.OK {
				return
			}
		}
	}()

	var wg sync.WaitGroup
	children := make([]*FS, forks)
	for g := 0; g < forks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			child, err := fs.Fork(nil, nil)
			if err != nil {
				t.Errorf("fork %d: %v", g, err)
				return
			}
			children[g] = child
			want := pattern(g+1, 512)
			for i := 0; i < stormFiles; i++ {
				f := mustLookup(t, child, fmt.Sprintf("/data/f%02d", i))
				if _, werr := f.WriteAt(want, 0, 0); werr != sys.OK {
					t.Errorf("fork %d: write f%02d: %v", g, i, werr)
					return
				}
			}
			for i := 0; i < stormFiles; i++ {
				f := mustLookup(t, child, fmt.Sprintf("/data/f%02d", i))
				if !bytes.Equal(f.Bytes(), want) {
					t.Errorf("fork %d: f%02d bytes diverged from own pattern", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	writer.Wait()

	// The parent's untouched files still hold the original pattern
	// (f00 belongs to the writer goroutine and is checked for
	// consistency, not content).
	for i := 1; i < stormFiles; i++ {
		f := mustLookup(t, fs, fmt.Sprintf("/data/f%02d", i))
		if !bytes.Equal(f.Bytes(), pattern(0, 512)) {
			t.Fatalf("parent f%02d mutated by a fork", i)
		}
	}
	mustClean(t, "parent after storm", fs)
	for g, child := range children {
		if child == nil {
			continue
		}
		mustClean(t, fmt.Sprintf("fork %d after storm", g), child)
		// And siblings still differ from each other byte-for-byte.
		f := mustLookup(t, child, "/data/f01")
		if !bytes.Equal(f.Bytes(), pattern(g+1, 512)) {
			t.Fatalf("fork %d: sibling pattern bled through", g)
		}
	}
}

// TestForkChainRefcounts: forking a fork extends the same refcount, and
// each world's copy-out decrements it exactly once.
func TestForkChainRefcounts(t *testing.T) {
	fs := buildForkFS(t)
	c1, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := c1.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pf := mustLookup(t, fs, "/data/f05")
	refs := pf.dataRefs.Load()
	if refs == nil {
		t.Fatal("no shared refcount on parent")
	}
	if n := refs.Load(); n != 3 {
		t.Fatalf("three-world refcount = %d, want 3", n)
	}
	for i, w := range []*FS{c2, c1} {
		f := mustLookup(t, w, "/data/f05")
		if _, werr := f.WriteAt([]byte{1}, 0, 0); werr != sys.OK {
			t.Fatal(werr)
		}
		if n := refs.Load(); n != int32(2-i) {
			t.Fatalf("refcount after %d copy-outs = %d, want %d", i+1, n, 2-i)
		}
	}
	// Parent is now the sole holder; its bytes never moved.
	if !bytes.Equal(pf.Bytes(), pattern(0, 512)) {
		t.Fatal("parent bytes changed under descendant writes")
	}
}

// TestForkHardLinkOneInode: a file reachable under two names is one
// inode in the child, with its link count kept. A write through one
// name shows through the other in the child and never in the parent.
func TestForkHardLinkOneInode(t *testing.T) {
	fs := buildForkFS(t)
	orig := mustLookup(t, fs, "/data/f00")
	a := mustLookup(t, fs, "/a")
	if err := fs.Link(a, "alias", orig, root0); err != sys.OK {
		t.Fatal(err)
	}
	child, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c1 := mustLookup(t, child, "/data/f00")
	c2 := mustLookup(t, child, "/a/alias")
	if c1 != c2 {
		t.Fatal("hard link cloned into two inodes")
	}
	if c1.Nlink != 2 || c1.Ino != orig.Ino {
		t.Fatalf("child link: nlink %d ino %d, want 2 and %d", c1.Nlink, c1.Ino, orig.Ino)
	}
	if _, werr := c1.WriteAt([]byte("CHILD"), 0, 0); werr != sys.OK {
		t.Fatal(werr)
	}
	if got := c2.Bytes(); !bytes.HasPrefix(got, []byte("CHILD")) {
		t.Fatalf("write through one name not seen through the other: %q", got[:8])
	}
	if got := mustLookup(t, fs, "/a/alias").Bytes(); !bytes.Equal(got, pattern(0, 512)) {
		t.Fatal("child write through a hard link reached the parent")
	}
	mustClean(t, "child", child)
	mustClean(t, "parent", fs)
}

// TestForkKeepsReaddirOrder: a directory's iteration order is insertion
// order, not sorted order, and the child lists it exactly as the
// parent does.
func TestForkKeepsReaddirOrder(t *testing.T) {
	fs := New(nil)
	d, err := fs.Mkdir(fs.Root(), "d", 0o755, root0)
	if err != sys.OK {
		t.Fatal(err)
	}
	for _, name := range []string{"zeta", "alpha", "mid", "beta", "omega"} {
		if _, err := fs.Create(d, name, 0o644, root0); err != sys.OK {
			t.Fatal(err)
		}
	}
	// A removal in the middle leaves an order no sort reproduces.
	if err := fs.Unlink(d, "mid", root0); err != sys.OK {
		t.Fatal(err)
	}
	child, ferr := fs.Fork(nil, nil)
	if ferr != nil {
		t.Fatal(ferr)
	}
	want, _ := d.Dirents()
	got, _ := mustLookup(t, child, "/d").Dirents()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("child readdir %v, parent %v", got, want)
	}
	if want[2].Name != "zeta" {
		t.Fatalf("fixture is sorted: %v", want)
	}
}

// TestForkCensusMatches: right after a fork the child's inode count and
// fsck verdict agree with the parent's, as does its state hash.
func TestForkCensusMatches(t *testing.T) {
	fs := buildForkFS(t)
	if err := fs.Link(mustLookup(t, fs, "/a"), "alias", mustLookup(t, fs, "/data/f03"), root0); err != sys.OK {
		t.Fatal(err)
	}
	child, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if child.NumInodes() != fs.NumInodes() {
		t.Fatalf("child has %d inodes, parent %d", child.NumInodes(), fs.NumInodes())
	}
	if pb, cb := fs.Check(), child.Check(); fmt.Sprint(pb) != fmt.Sprint(cb) || len(cb) != 0 {
		t.Fatalf("fsck: parent %v, child %v", pb, cb)
	}
	if child.StateHash() != fs.StateHash() {
		t.Fatal("child state hash differs from the parent's")
	}
}
