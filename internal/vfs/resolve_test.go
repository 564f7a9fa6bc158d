package vfs

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"interpose/internal/sys"
)

// refSplitPath and refResolve are the reference walker: the component
// splitting, hand-over-hand locked walk that resolve replaced, kept here
// verbatim (no dentry cache, no in-place parsing) as the oracle the
// differential and fuzz tests hold resolve to.

func refSplitPath(path string) (parts []string, absolute, wantDir bool) {
	absolute = strings.HasPrefix(path, "/")
	wantDir = strings.HasSuffix(path, "/") && len(path) > 1
	for _, p := range strings.Split(path, "/") {
		if p != "" {
			parts = append(parts, p)
		}
	}
	return parts, absolute, wantDir
}

func (fs *FS) refResolve(root, start *Inode, path string, cred Cred, follow, wantParent bool) (*Inode, *Inode, string, sys.Errno) {
	if root == nil {
		root = fs.root
	}
	if path == "" {
		return nil, nil, "", sys.ENOENT
	}
	if len(path) >= sys.PathMax {
		return nil, nil, "", sys.ENAMETOOLONG
	}
	parts, absolute, wantDir := refSplitPath(path)
	cur := start
	if absolute || cur == nil {
		cur = root
	}
	nlinks := 0
	var parent *Inode
	var leaf string

	for i := 0; i < len(parts); i++ {
		name := parts[i]
		if len(name) > sys.NameMax {
			return nil, nil, "", sys.ENAMETOOLONG
		}
		if !cur.IsDir() {
			return nil, nil, "", sys.ENOTDIR
		}
		cur.mu.RLock()
		e := CheckAccess(cred, cur.Mode, cur.UID, cur.GID, sys.X_OK)
		var next *Inode
		if e == sys.OK {
			if name == ".." && cur == root {
				next = cur // ".." at the (possibly chroot) root stays put
			} else {
				next = cur.lookupLocked(name)
			}
		}
		cur.mu.RUnlock()
		if e != sys.OK {
			return nil, nil, "", e
		}
		last := i == len(parts)-1
		if last && wantParent {
			if name == "." || name == ".." {
				return next, nil, "", sys.EINVAL
			}
			parent, leaf = cur, name
		}
		if next == nil {
			if last {
				return nil, parent, leaf, sys.ENOENT
			}
			return nil, nil, "", sys.ENOENT
		}
		if next.IsSymlink() && (!last || follow) {
			nlinks++
			if nlinks > MaxSymlinks {
				return nil, nil, "", sys.ELOOP
			}
			target := next.link
			tparts, tabs, twd := refSplitPath(target)
			if target == "" {
				return nil, nil, "", sys.ENOENT
			}
			if twd {
				wantDir = true
			}
			if tabs {
				cur = root
			}
			// Splice the link target in place of this component.
			rest := append(append([]string{}, tparts...), parts[i+1:]...)
			parts = rest
			i = -1
			continue
		}
		cur = next
	}
	if wantDir && !cur.IsDir() {
		return nil, nil, "", sys.ENOTDIR
	}
	if len(parts) == 0 && wantParent {
		// Path was "/" or "." — it has no parent component.
		return cur, nil, "", sys.EINVAL
	}
	return cur, parent, leaf, sys.OK
}

// walk is one resolve outcome.
type walk struct {
	ip, parent *Inode
	leaf       string
	err        sys.Errno
}

func (w walk) String() string {
	return fmt.Sprintf("%v ip=%v parent=%v leaf=%q", w.err, inoOf(w.ip), inoOf(w.parent), w.leaf)
}

// diffResolve runs resolve (cold, then warm) and the reference walker on
// one input and reports the first disagreement.
func diffResolve(t testing.TB, fs *FS, root, start *Inode, path string, cred Cred, follow, wantParent bool) {
	t.Helper()
	want := walk{}
	want.ip, want.parent, want.leaf, want.err = fs.refResolve(root, start, path, cred, follow, wantParent)
	for _, pass := range []string{"cold", "warm"} {
		got := walk{}
		got.ip, got.parent, got.leaf, got.err = fs.resolve(root, start, path, cred, follow, wantParent)
		if got != want {
			t.Fatalf("%s resolve(root=%v, start=%v, %q, uid=%d, follow=%v, parent=%v) = %v, reference %v",
				pass, inoOf(root), inoOf(start), path, cred.UID, follow, wantParent, got, want)
		}
	}
}

var stranger = Cred{UID: 300, GID: 300}

// walkCreds are the identities the differential tests resolve as.
var walkCreds = []Cred{root0, alice, bob, stranger}

// fixedTree builds the tree FuzzResolve walks: ordinary, private and
// unsearchable directories, a chroot-style jail, and symbolic links that
// are absolute, relative, "..", looping, dangling, empty, chained and
// carry trailing slashes. It returns the candidate roots and starting
// directories (a regular file among the starts).
func fixedTree(t testing.TB) (fs *FS, roots, starts []*Inode) {
	t.Helper()
	fs = New(nil)
	must := func(ip *Inode, err sys.Errno) *Inode {
		t.Helper()
		if err != sys.OK {
			t.Fatal(err)
		}
		return ip
	}
	r := fs.Root()
	a := must(fs.Mkdir(r, "a", 0o755, root0))
	b := must(fs.Mkdir(a, "b", 0o755, root0))
	c := must(fs.Create(b, "c.txt", 0o644, root0))
	for name, target := range map[string]string{
		"link": "b", "abs": "/a/b", "up": "..", "dot": ".", "slash": "b/",
		"fslash": "b/c.txt/", "loop": "loop", "ping": "pong", "pong": "ping",
		"empty": "", "root": "/", "dangling": "nowhere", "deep": "link/../up/a/b",
		"c0": "c1", "c1": "c2", "c2": "c3", "c3": "c4", "c4": "c5", "c5": "c6",
		"c6": "c7", "c7": "b", "d0": "c0", "flink": "b/c.txt",
	} {
		must(fs.Symlink(a, name, target, root0))
	}
	priv := must(fs.Mkdir(r, "priv", 0o700, root0))
	must(fs.Create(priv, "f", 0o600, root0))
	must(fs.Symlink(priv, "out", "../a", root0))
	if e := fs.Chown(priv, alice.UID, alice.GID, root0); e != sys.OK {
		t.Fatal(e)
	}
	noexec := must(fs.Mkdir(r, "noexec", 0o644, root0))
	must(fs.Create(noexec, "f", 0o644, root0))
	grp := must(fs.Mkdir(r, "grp", 0o710, root0))
	if e := fs.Chown(grp, 0xffffffff, 100, root0); e != sys.OK {
		t.Fatal(e)
	}
	must(fs.Create(grp, "f", 0o644, root0))
	jail := must(fs.Mkdir(r, "jail", 0o755, root0))
	etc := must(fs.Mkdir(jail, "etc", 0o755, root0))
	must(fs.Create(etc, "passwd", 0o644, root0))
	must(fs.Symlink(jail, "out", "../../a", root0))
	must(fs.Symlink(jail, "abs", "/etc", root0))
	must(fs.Create(r, "f", 0o644, root0))
	return fs, []*Inode{r, jail, b}, []*Inode{nil, r, a, jail, priv, c}
}

// fuzzSeeds are FuzzResolve's in-code seed paths; the checked-in corpus
// under testdata/fuzz/FuzzResolve adds more, with varied roots, starts,
// identities and flags.
var fuzzSeeds = []string{
	"/a/b/c.txt", "a/link/c.txt", "/a/abs/", "/a/up/a/b", "/a/slash/c.txt",
	"/a/fslash", "/a/loop", "/a/ping/x", "/a/empty", "/a/root/a", "/a/d0/c.txt",
	"/a/c0/c.txt", "/priv/f", "/priv/out/b", "/noexec/f", "/grp/f", "/jail/out/b",
	"/jail/abs/passwd", "..//..", "/", "//", ".", "./", "/a/b/missing", "/a/missing/x",
	"/f/", "/a/flink/", "/a/deep/c.txt", "/a/b/c.txt/..",
}

// FuzzResolve holds resolve to the reference walker on one fixed tree:
// for any path bytes, root, start, credentials and follow/parent flags
// both must return the same inode, parent, leaf and errno, from a cold
// dentry cache and again from a warm one. The follow+parent combination
// is folded into parent-only: no caller passes both.
func FuzzResolve(f *testing.F) {
	for i, p := range fuzzSeeds {
		f.Add(p, uint8(i), uint8(i/2), uint8(i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, path string, rootSel, startSel, credSel, flags uint8) {
		fs, roots, starts := fixedTree(t)
		root := roots[int(rootSel)%len(roots)]
		start := starts[int(startSel)%len(starts)]
		cred := walkCreds[int(credSel)%len(walkCreds)]
		wantParent := flags&2 != 0
		follow := flags&1 != 0 && !wantParent
		diffResolve(t, fs, root, start, path, cred, follow, wantParent)
	})
}

// randTree grows a random tree of directories (with varied owners and
// search permissions), files and symbolic links whose targets are drawn
// from absolute, relative, "..", self-referencing, empty and
// trailing-slash forms. It returns every directory and every inode.
func randTree(rng *rand.Rand) (fs *FS, dirs, all []*Inode) {
	fs = New(nil)
	dirs = []*Inode{fs.Root()}
	all = []*Inode{fs.Root()}
	perms := []uint32{0o755, 0o755, 0o700, 0o711, 0o644, 0o750}
	for n := 8 + rng.Intn(24); n > 0; n-- {
		d := dirs[rng.Intn(len(dirs))]
		name := walkNames[rng.Intn(len(walkNames))]
		var ip *Inode
		var err sys.Errno
		switch rng.Intn(3) {
		case 0:
			if ip, err = fs.Mkdir(d, name, perms[rng.Intn(len(perms))], root0); err == sys.OK {
				owner := walkCreds[rng.Intn(3)]
				fs.Chown(ip, owner.UID, owner.GID, root0)
				dirs = append(dirs, ip)
			}
		case 1:
			ip, err = fs.Create(d, name, 0o644, root0)
		case 2:
			ip, err = fs.Symlink(d, name, randPath(rng, 3), root0)
		}
		if err == sys.OK {
			all = append(all, ip)
		}
	}
	return fs, dirs, all
}

var walkNames = []string{"a", "b", "c", "d"}

// randPath draws a path of up to n components mixing names, ".", "..",
// empty components, an over-long name, and optional leading and trailing
// slashes.
func randPath(rng *rand.Rand, n int) string {
	if rng.Intn(20) == 0 {
		return ""
	}
	var b strings.Builder
	if rng.Intn(2) == 0 {
		b.WriteByte('/')
	}
	for i := rng.Intn(n + 1); i >= 0; i-- {
		switch r := rng.Intn(12); {
		case r < 7:
			b.WriteString(walkNames[rng.Intn(len(walkNames))])
		case r < 9:
			b.WriteString("..")
		case r < 10:
			b.WriteString(".")
		case r < 11:
			// empty component: a doubled slash
		default:
			if rng.Intn(8) == 0 {
				b.WriteString(strings.Repeat("n", sys.NameMax+1))
			} else {
				b.WriteString("x")
			}
		}
		if i > 0 || rng.Intn(4) == 0 {
			b.WriteByte('/')
		}
	}
	return b.String()
}

// TestResolveMatchesReference is the seeded differential test. Every
// fuzz seed path is walked on the fixed tree under every root, start,
// identity and flag combination; then random paths on random trees,
// from random roots (including chroot-style subdirectories), starts,
// identities and flags. Each walk runs cold and warm against the
// reference walker.
func TestResolveMatchesReference(t *testing.T) {
	fs, roots, starts := fixedTree(t)
	for _, p := range fuzzSeeds {
		for _, root := range roots {
			for _, start := range starts {
				for _, cred := range walkCreds {
					for flags := 0; flags < 3; flags++ {
						diffResolve(t, fs, root, start, p, cred, flags == 1, flags == 2)
					}
				}
			}
		}
	}

	trees, paths := 400, 200
	if testing.Short() {
		trees = 50
	}
	rng := rand.New(rand.NewSource(1))
	for tree := 0; tree < trees; tree++ {
		fs, dirs, all := randTree(rng)
		for i := 0; i < paths; i++ {
			root := fs.Root()
			if rng.Intn(4) == 0 {
				root = dirs[rng.Intn(len(dirs))]
			}
			var start *Inode
			if rng.Intn(5) != 0 {
				start = all[rng.Intn(len(all))]
			}
			wantParent := rng.Intn(3) == 0
			follow := !wantParent && rng.Intn(2) == 0
			diffResolve(t, fs, root, start, randPath(rng, 6),
				walkCreds[rng.Intn(len(walkCreds))], follow, wantParent)
		}
	}
}

// TestResolveAllocs pins the walker's allocation profile: a cached
// lookup and a cached parent lookup allocate nothing, and a path through
// one symbolic link allocates at most the one spliced string.
func TestResolveAllocs(t *testing.T) {
	fs := build(t)
	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"lookup", 0, func() { fs.Lookup(nil, nil, "/a/b/c.txt", root0, true) }},
		{"lookup-parent", 0, func() { fs.LookupParent(nil, nil, "/a/b/c.txt", root0) }},
		{"lookup-parent-missing", 0, func() { fs.LookupParent(nil, nil, "/a/b/new.txt", root0) }},
		{"one-symlink", 1, func() { fs.Lookup(nil, nil, "/a/link/c.txt", root0, true) }},
	} {
		c.run() // warm the dentry snapshots
		if got := testing.AllocsPerRun(100, c.run); got > c.max {
			t.Errorf("%s: %.1f allocations per walk, want ≤ %.0f", c.name, got, c.max)
		}
	}
}

// TestLookupParentLeavesLeafUnfilled checks that a parent walk probes
// its leaf without filling it: the next Lookup of a missing leaf is a
// miss, not a negative hit, so the create that usually follows finds no
// snapshot entry to invalidate.
func TestLookupParentLeavesLeafUnfilled(t *testing.T) {
	fs := build(t)
	warm(t, fs, "/a/b")
	if _, name, existing, err := fs.LookupParent(nil, nil, "/a/b/new.txt", root0); err != sys.OK || name != "new.txt" || existing != nil {
		t.Fatalf("LookupParent = %q %v %v", name, existing, err)
	}
	before := fs.CacheStats()
	if _, err := fs.Lookup(nil, nil, "/a/b/new.txt", root0, true); err != sys.ENOENT {
		t.Fatalf("lookup: %v, want ENOENT", err)
	}
	after := fs.CacheStats()
	if after.NegHits != before.NegHits || after.Misses != before.Misses+1 {
		t.Fatalf("leaf probe after LookupParent: neg hits %d→%d, misses %d→%d; want a miss",
			before.NegHits, after.NegHits, before.Misses, after.Misses)
	}
}

// BenchmarkLookup times cached walks: a plain hit, a parent walk, and a
// path through one symbolic link.
func BenchmarkLookup(b *testing.B) {
	fs, _, _ := fixedTree(b)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"hit", func() { fs.Lookup(nil, nil, "/a/b/c.txt", root0, true) }},
		{"parent", func() { fs.LookupParent(nil, nil, "/a/b/c.txt", root0) }},
		{"symlink", func() { fs.Lookup(nil, nil, "/a/link/c.txt", root0, true) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			c.run()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.run()
			}
		})
	}
}
