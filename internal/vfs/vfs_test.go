package vfs

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"interpose/internal/sys"
)

var root0 = Cred{UID: 0, GID: 0}
var alice = Cred{UID: 100, GID: 100}
var bob = Cred{UID: 200, GID: 200, Groups: []uint32{100}}

// build creates a small tree: /a/b/c.txt, /a/link -> b, /a/abs -> /a/b.
func build(t *testing.T) *FS {
	t.Helper()
	fs := New(nil)
	a, err := fs.Mkdir(fs.Root(), "a", 0o755, root0)
	if err != sys.OK {
		t.Fatal(err)
	}
	b, err := fs.Mkdir(a, "b", 0o755, root0)
	if err != sys.OK {
		t.Fatal(err)
	}
	f, err := fs.Create(b, "c.txt", 0o644, root0)
	if err != sys.OK {
		t.Fatal(err)
	}
	f.WriteAt([]byte("contents"), 0, 0)
	if _, err := fs.Symlink(a, "link", "b", root0); err != sys.OK {
		t.Fatal(err)
	}
	if _, err := fs.Symlink(a, "abs", "/a/b", root0); err != sys.OK {
		t.Fatal(err)
	}
	return fs
}

func TestLookupBasics(t *testing.T) {
	fs := build(t)
	for _, path := range []string{
		"/a/b/c.txt", "a/b/c.txt", "/a/./b/../b/c.txt", "//a//b//c.txt",
		"/a/link/c.txt", "/a/abs/c.txt",
	} {
		ip, err := fs.Lookup(nil, fs.Root(), path, root0, true)
		if err != sys.OK {
			t.Fatalf("%s: %v", path, err)
		}
		if string(ip.Bytes()) != "contents" {
			t.Fatalf("%s: wrong file", path)
		}
	}
}

func TestLookupErrors(t *testing.T) {
	fs := build(t)
	cases := map[string]sys.Errno{
		"":                sys.ENOENT,
		"/nope":           sys.ENOENT,
		"/a/b/c.txt/deep": sys.ENOTDIR,
		"/a/b/c.txt/":     sys.ENOTDIR,
		"/a/nope/c":       sys.ENOENT,
	}
	for path, want := range cases {
		if _, err := fs.Lookup(nil, fs.Root(), path, root0, true); err != want {
			t.Errorf("Lookup(%q) = %v, want %v", path, err, want)
		}
	}
}

func TestDotDotAtRoot(t *testing.T) {
	fs := build(t)
	ip, err := fs.Lookup(nil, fs.Root(), "/../../a/b/c.txt", root0, true)
	if err != sys.OK || string(ip.Bytes()) != "contents" {
		t.Fatalf("%v", err)
	}
}

func TestSymlinkNoFollow(t *testing.T) {
	fs := build(t)
	ip, err := fs.Lookup(nil, fs.Root(), "/a/link", root0, false)
	if err != sys.OK || !ip.IsSymlink() {
		t.Fatalf("lstat of link: %v, symlink=%v", err, ip.IsSymlink())
	}
	target, err := ip.Readlink()
	if err != sys.OK || target != "b" {
		t.Fatalf("readlink: %v %q", err, target)
	}
	ip, err = fs.Lookup(nil, fs.Root(), "/a/link", root0, true)
	if err != sys.OK || !ip.IsDir() {
		t.Fatalf("stat of link: %v", err)
	}
}

func TestSymlinkLoop(t *testing.T) {
	fs := New(nil)
	fs.Symlink(fs.Root(), "x", "y", root0)
	fs.Symlink(fs.Root(), "y", "x", root0)
	if _, err := fs.Lookup(nil, fs.Root(), "/x", root0, true); err != sys.ELOOP {
		t.Fatalf("loop = %v, want ELOOP", err)
	}
	// A chain under the limit resolves.
	fs.Create(fs.Root(), "real", 0o644, root0)
	prev := "real"
	for i := 0; i < MaxSymlinks; i++ {
		name := fmt.Sprintf("l%d", i)
		fs.Symlink(fs.Root(), name, prev, root0)
		prev = name
	}
	if _, err := fs.Lookup(nil, fs.Root(), "/"+prev, root0, true); err != sys.OK {
		t.Fatalf("chain of %d = %v", MaxSymlinks, err)
	}
}

func TestNameTooLong(t *testing.T) {
	fs := build(t)
	long := make([]byte, sys.NameMax+1)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := fs.Lookup(nil, fs.Root(), "/"+string(long), root0, true); err != sys.ENAMETOOLONG {
		t.Fatalf("long name = %v", err)
	}
	if _, _, _, err := fs.LookupParent(nil, fs.Root(), "/a/"+string(long), root0); err != sys.ENAMETOOLONG {
		t.Fatalf("long leaf = %v", err)
	}
}

func TestPermissionChecks(t *testing.T) {
	fs := New(nil)
	private, err := fs.Mkdir(fs.Root(), "private", 0o700, root0)
	if err != sys.OK {
		t.Fatal(err)
	}
	fs.Chown(private, 100, 100, root0)
	if _, err := fs.Create(private, "f", 0o644, alice); err != sys.OK {
		t.Fatal(err)
	}

	// Owner traverses; stranger does not.
	if _, err := fs.Lookup(nil, fs.Root(), "/private/f", alice, true); err != sys.OK {
		t.Fatalf("owner: %v", err)
	}
	stranger := Cred{UID: 999, GID: 999}
	if _, err := fs.Lookup(nil, fs.Root(), "/private/f", stranger, true); err != sys.EACCES {
		t.Fatalf("stranger: %v", err)
	}
	// Root always traverses.
	if _, err := fs.Lookup(nil, fs.Root(), "/private/f", root0, true); err != sys.OK {
		t.Fatalf("root: %v", err)
	}
}

func TestCheckAccessGroups(t *testing.T) {
	// bob's supplementary group 100 grants the group bits.
	if e := CheckAccess(bob, 0o040, 1, 100, sys.R_OK); e != sys.OK {
		t.Fatalf("group read: %v", e)
	}
	// When the group matches, the group class applies even if "other"
	// grants more (classic Unix semantics).
	if e := CheckAccess(bob, 0o004, 1, 100, sys.R_OK); e != sys.EACCES {
		t.Fatalf("group class should shadow other: %v", e)
	}
}

func TestCheckAccessOwnerBeatsGroup(t *testing.T) {
	// The owner class applies even when it grants LESS than group/other.
	cred := Cred{UID: 5, GID: 5}
	if e := CheckAccess(cred, 0o077, 5, 5, sys.R_OK); e != sys.EACCES {
		t.Fatalf("owner with 0o077: %v, want EACCES", e)
	}
}

func TestRootNeedsExecuteBit(t *testing.T) {
	if e := CheckAccess(root0, sys.S_IFREG|0o644, 1, 1, sys.X_OK); e != sys.EACCES {
		t.Fatalf("root X on non-executable file: %v", e)
	}
	if e := CheckAccess(root0, sys.S_IFREG|0o100, 1, 1, sys.X_OK); e != sys.OK {
		t.Fatalf("root X with owner-x: %v", e)
	}
}

func TestLinkUnlinkCounts(t *testing.T) {
	fs := build(t)
	b, _ := fs.Lookup(nil, fs.Root(), "/a/b", root0, true)
	f, _ := fs.Lookup(nil, fs.Root(), "/a/b/c.txt", root0, true)
	if f.Stat().Nlink != 1 {
		t.Fatal("initial nlink")
	}
	if err := fs.Link(b, "hard", f, root0); err != sys.OK {
		t.Fatal(err)
	}
	if f.Stat().Nlink != 2 {
		t.Fatal("nlink after link")
	}
	// Contents shared through both names.
	ip2, _ := fs.Lookup(nil, fs.Root(), "/a/b/hard", root0, true)
	if ip2 != f {
		t.Fatal("hard link resolves to different inode")
	}
	if err := fs.Unlink(b, "c.txt", root0); err != sys.OK {
		t.Fatal(err)
	}
	if f.Stat().Nlink != 1 {
		t.Fatal("nlink after unlink")
	}
	if _, err := fs.Lookup(nil, fs.Root(), "/a/b/c.txt", root0, true); err != sys.ENOENT {
		t.Fatal("unlinked name still resolves")
	}
}

func TestLinkRestrictions(t *testing.T) {
	fs := build(t)
	b, _ := fs.Lookup(nil, fs.Root(), "/a/b", root0, true)
	a, _ := fs.Lookup(nil, fs.Root(), "/a", root0, true)
	if err := fs.Link(b, "dirlink", a, root0); err != sys.EPERM {
		t.Fatalf("link to directory = %v", err)
	}
	f, _ := fs.Lookup(nil, fs.Root(), "/a/b/c.txt", root0, true)
	if err := fs.Link(b, "c.txt", f, root0); err != sys.EEXIST {
		t.Fatalf("link over existing = %v", err)
	}
}

func TestUnlinkDirectoryRefused(t *testing.T) {
	fs := build(t)
	a, _ := fs.Lookup(nil, fs.Root(), "/a", root0, true)
	if err := fs.Unlink(a, "b", root0); err != sys.EPERM {
		t.Fatalf("unlink dir = %v", err)
	}
}

func TestRmdirSemantics(t *testing.T) {
	fs := build(t)
	a, _ := fs.Lookup(nil, fs.Root(), "/a", root0, true)
	if err := fs.Rmdir(a, "b", root0); err != sys.ENOTEMPTY {
		t.Fatalf("rmdir non-empty = %v", err)
	}
	b, _ := fs.Lookup(nil, fs.Root(), "/a/b", root0, true)
	fs.Unlink(b, "c.txt", root0)
	before := a.Stat().Nlink
	if err := fs.Rmdir(a, "b", root0); err != sys.OK {
		t.Fatal(err)
	}
	if a.Stat().Nlink != before-1 {
		t.Fatal("parent nlink not decremented")
	}
	if err := fs.Rmdir(a, "link", root0); err != sys.ENOTDIR {
		t.Fatalf("rmdir of symlink = %v", err)
	}
}

func TestRenameFile(t *testing.T) {
	fs := build(t)
	b, _ := fs.Lookup(nil, fs.Root(), "/a/b", root0, true)
	a, _ := fs.Lookup(nil, fs.Root(), "/a", root0, true)
	if err := fs.Rename(b, "c.txt", a, "moved.txt", root0); err != sys.OK {
		t.Fatal(err)
	}
	ip, err := fs.Lookup(nil, fs.Root(), "/a/moved.txt", root0, true)
	if err != sys.OK || string(ip.Bytes()) != "contents" {
		t.Fatalf("move lost data: %v", err)
	}
	if _, err := fs.Lookup(nil, fs.Root(), "/a/b/c.txt", root0, true); err != sys.ENOENT {
		t.Fatal("old name survives")
	}
}

func TestRenameOverExisting(t *testing.T) {
	fs := build(t)
	b, _ := fs.Lookup(nil, fs.Root(), "/a/b", root0, true)
	victim, _ := fs.Create(b, "victim", 0o644, root0)
	victim.WriteAt([]byte("old"), 0, 0)
	if err := fs.Rename(b, "c.txt", b, "victim", root0); err != sys.OK {
		t.Fatal(err)
	}
	ip, _ := fs.Lookup(nil, fs.Root(), "/a/b/victim", root0, true)
	if string(ip.Bytes()) != "contents" {
		t.Fatal("replaced file has wrong contents")
	}
	if victim.Nlink != 0 {
		t.Fatal("victim inode leaked")
	}
}

func TestRenameDirIntoOwnSubtree(t *testing.T) {
	fs := build(t)
	root := fs.Root()
	a, _ := fs.Lookup(nil, root, "/a", root0, true)
	b, _ := fs.Lookup(nil, root, "/a/b", root0, true)
	if err := fs.Rename(root, "a", b, "evil", root0); err != sys.EINVAL {
		t.Fatalf("rename into own subtree = %v", err)
	}
	_ = a
}

func TestRenameDirUpdatesDotDot(t *testing.T) {
	fs := build(t)
	root := fs.Root()
	a, _ := fs.Lookup(nil, root, "/a", root0, true)
	// Move /a/b to /b2.
	if err := fs.Rename(a, "b", root, "b2", root0); err != sys.OK {
		t.Fatal(err)
	}
	// The moved directory's ".." now names the root.
	ip, err := fs.Lookup(nil, root, "/b2/..", root0, true)
	if err != sys.OK || ip != root {
		t.Fatalf("..: %v", err)
	}
}

func TestRenameTypeMismatches(t *testing.T) {
	fs := build(t)
	b, _ := fs.Lookup(nil, fs.Root(), "/a/b", root0, true)
	fs.Mkdir(b, "subdir", 0o755, root0)
	if err := fs.Rename(b, "c.txt", b, "subdir", root0); err != sys.EISDIR {
		t.Fatalf("file over dir = %v", err)
	}
	if err := fs.Rename(b, "subdir", b, "c.txt", root0); err != sys.ENOTDIR {
		t.Fatalf("dir over file = %v", err)
	}
}

func TestStickyBit(t *testing.T) {
	fs := New(nil)
	tmp, _ := fs.Mkdir(fs.Root(), "tmp", 0o777, root0)
	fs.Chmod(tmp, 0o1777, root0)
	fs.Create(tmp, "alices", 0o666, alice)
	stranger := Cred{UID: 999, GID: 999}
	if err := fs.Unlink(tmp, "alices", stranger); err != sys.EPERM {
		t.Fatalf("sticky unlink by stranger = %v", err)
	}
	if err := fs.Unlink(tmp, "alices", alice); err != sys.OK {
		t.Fatalf("sticky unlink by owner = %v", err)
	}
}

func TestChmodChown(t *testing.T) {
	fs := build(t)
	f, _ := fs.Lookup(nil, fs.Root(), "/a/b/c.txt", root0, true)
	if err := fs.Chmod(f, 0o600, alice); err != sys.EPERM {
		t.Fatalf("chmod by non-owner = %v", err)
	}
	if err := fs.Chmod(f, 0o4755, root0); err != sys.OK {
		t.Fatal(err)
	}
	if f.Stat().Mode != sys.S_IFREG|0o4755 {
		t.Fatalf("mode = %o", f.Stat().Mode)
	}
	if err := fs.Chown(f, 100, 100, alice); err != sys.EPERM {
		t.Fatalf("chown by non-owner = %v", err)
	}
	if err := fs.Chown(f, 100, 100, root0); err != sys.OK {
		t.Fatal(err)
	}
	// Owner may change group to one they belong to.
	if err := fs.Chown(f, 0xffffffff, 100, alice); err != sys.OK {
		t.Fatalf("owner chgrp: %v", err)
	}
	if err := fs.Chown(f, 0xffffffff, 12345, alice); err != sys.EPERM {
		t.Fatalf("owner chgrp to foreign group = %v", err)
	}
}

func TestFileIO(t *testing.T) {
	fs := New(nil)
	f, _ := fs.Create(fs.Root(), "f", 0o644, root0)
	// Write with a hole.
	if _, e := f.WriteAt([]byte("end"), 10, 0); e != sys.OK {
		t.Fatal(e)
	}
	if f.Size() != 13 {
		t.Fatalf("size = %d", f.Size())
	}
	buf := make([]byte, 13)
	n, e := f.ReadAt(buf, 0)
	if e != sys.OK || n != 13 {
		t.Fatal(e)
	}
	for i := 0; i < 10; i++ {
		if buf[i] != 0 {
			t.Fatal("hole not zero-filled")
		}
	}
	if string(buf[10:]) != "end" {
		t.Fatal("data wrong")
	}
	// Read past EOF.
	if n, _ := f.ReadAt(buf, 100); n != 0 {
		t.Fatal("read past EOF returned data")
	}
	// Truncate down and up.
	f.Truncate(5)
	if f.Size() != 5 {
		t.Fatal("truncate down")
	}
	f.Truncate(8)
	n, _ = f.ReadAt(buf[:8], 0)
	if n != 8 || buf[7] != 0 {
		t.Fatal("truncate up not zero-filled")
	}
}

func TestWriteMaxSize(t *testing.T) {
	fs := New(nil)
	f, _ := fs.Create(fs.Root(), "f", 0o644, root0)
	n, e := f.WriteAt(make([]byte, 100), 0, 60)
	if e != sys.OK || n != 60 {
		t.Fatalf("capped write: n=%d e=%v", n, e)
	}
	if _, e := f.WriteAt([]byte("x"), 60, 60); e != sys.EFBIG {
		t.Fatalf("write at cap = %v", e)
	}
}

func TestDirents(t *testing.T) {
	fs := build(t)
	b, _ := fs.Lookup(nil, fs.Root(), "/a/b", root0, true)
	ents, err := b.Dirents()
	if err != sys.OK {
		t.Fatal(err)
	}
	if ents[0].Name != "." || ents[1].Name != ".." || ents[2].Name != "c.txt" {
		t.Fatalf("entries: %+v", ents)
	}
	a, _ := fs.Lookup(nil, fs.Root(), "/a", root0, true)
	if ents[1].Ino != a.Stat().Ino {
		t.Fatal(".. has wrong inode")
	}
}

func TestCreateInheritsDirGroup(t *testing.T) {
	fs := New(nil)
	d, _ := fs.Mkdir(fs.Root(), "d", 0o777, root0)
	fs.Chown(d, 0, 555, root0)
	f, err := fs.Create(d, "f", 0o644, alice)
	if err != sys.OK {
		t.Fatal(err)
	}
	if f.Stat().GID != 555 {
		t.Fatalf("gid = %d, want the directory's 555", f.Stat().GID)
	}
}

func TestUtimes(t *testing.T) {
	fs := build(t)
	f, _ := fs.Lookup(nil, fs.Root(), "/a/b/c.txt", root0, true)
	when := time.Unix(1000, 2000)
	if err := fs.Utimes(f, when, when, root0); err != sys.OK {
		t.Fatal(err)
	}
	st := f.Stat()
	if st.Atime.Sec != 1000 || st.Mtime.Sec != 1000 {
		t.Fatalf("times: %+v", st)
	}
	stranger := Cred{UID: 999}
	if err := fs.Utimes(f, when, when, stranger); err != sys.EPERM {
		t.Fatalf("stranger utimes = %v", err)
	}
}

// TestRandomOpsInvariants drives random namespace operations and checks
// structural invariants: the live-inode count matches a full walk, every
// directory's ".." names its parent, and link counts equal the number of
// referencing directory entries.
func TestRandomOpsInvariants(t *testing.T) {
	fs := New(nil)
	rng := rand.New(rand.NewSource(42))
	dirs := []*Inode{fs.Root()}
	names := []string{"a", "b", "c", "d", "e"}

	for step := 0; step < 3000; step++ {
		d := dirs[rng.Intn(len(dirs))]
		name := names[rng.Intn(len(names))]
		switch rng.Intn(7) {
		case 0:
			if ip, err := fs.Mkdir(d, name, 0o755, root0); err == sys.OK {
				dirs = append(dirs, ip)
			}
		case 1:
			fs.Create(d, name, 0o644, root0)
		case 2:
			fs.Symlink(d, name, "/"+names[rng.Intn(len(names))], root0)
		case 3:
			fs.Unlink(d, name, root0)
		case 4:
			if err := fs.Rmdir(d, name, root0); err == sys.OK {
				dirs = pruneDead(fs, dirs)
			}
		case 5:
			d2 := dirs[rng.Intn(len(dirs))]
			fs.Rename(d, name, d2, names[rng.Intn(len(names))], root0)
			dirs = pruneDead(fs, dirs)
		case 6:
			if target, err := fs.Lookup(nil, d, name, root0, false); err == sys.OK && !target.IsDir() {
				fs.Link(d, name+"l", target, root0)
			}
		}
	}
	checkInvariants(t, fs)
}

// pruneDead drops directories no longer reachable (nlink 0).
func pruneDead(fs *FS, dirs []*Inode) []*Inode {
	out := dirs[:0]
	for _, d := range dirs {
		if d == fs.Root() || d.Stat().Nlink > 0 {
			out = append(out, d)
		}
	}
	return out
}

// checkInvariants walks the tree verifying structural consistency.
func checkInvariants(t *testing.T, fs *FS) {
	t.Helper()
	counted := map[*Inode]uint32{}
	dirCount := 0
	var walk func(dir *Inode)
	walk = func(dir *Inode) {
		dirCount++
		counted[dir]++ // the entry in the parent (root counts itself below)
		ents, err := dir.Dirents()
		if err != sys.OK {
			t.Fatalf("dirents: %v", err)
		}
		for _, e := range ents[2:] {
			dir.mu.RLock()
			child := dir.entries[e.Name]
			dir.mu.RUnlock()
			if child == nil {
				t.Fatalf("listed entry %q missing from map", e.Name)
			}
			if child.IsDir() {
				if child.parentPtr() != dir {
					t.Fatalf("directory %q parent pointer wrong", e.Name)
				}
				walk(child)
			} else {
				counted[child]++
			}
		}
	}
	walk(fs.Root())
	for ip, refs := range counted {
		want := refs
		if ip.IsDir() {
			// "." plus one ".." per subdirectory.
			want = refs + 1
			ents, _ := ip.Dirents()
			for _, e := range ents[2:] {
				ip.mu.RLock()
				child := ip.entries[e.Name]
				ip.mu.RUnlock()
				if child.IsDir() {
					want++
				}
			}
		}
		if got := ip.Stat().Nlink; got != want {
			t.Fatalf("inode %d nlink = %d, want %d", ip.Ino, got, want)
		}
	}
	// The FS's live-inode count matches the walk (every counted inode once).
	if got, want := fs.NumInodes(), len(counted); got != want {
		t.Fatalf("NumInodes = %d, reachable = %d", got, want)
	}
}
