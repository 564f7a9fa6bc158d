package vfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"interpose/internal/journal"
	"interpose/internal/sys"
)

// journaled attaches a fresh journal (committing every record) to a new
// FS and returns both plus the backing store.
func journaled(t *testing.T) (*FS, *journal.Writer, *journal.MemStore) {
	t.Helper()
	fs := New(nil)
	st := journal.NewMemStore(0)
	w := journal.NewWriter(st, 1)
	fs.SetJournal(w)
	return fs, w, st
}

// mustOK fails the test on any non-OK errno.
func mustOK(t *testing.T, e sys.Errno) {
	t.Helper()
	if e != sys.OK {
		t.Fatalf("unexpected errno %v", e)
	}
}

// replayOnto scans the journal store and replays it onto a fresh FS,
// failing on a torn tail.
func replayOnto(t *testing.T, st *journal.MemStore) *FS {
	t.Helper()
	recs, torn := journal.Scan(st.Bytes())
	if torn != nil {
		t.Fatalf("torn journal: %v", torn)
	}
	fresh := New(nil)
	rp := NewReplayer(fresh, nil)
	if err := rp.ReplayAll(recs); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return fresh
}

func TestFsckCleanOnBuiltTree(t *testing.T) {
	fs := build(t)
	if bad := fs.Check(); len(bad) != 0 {
		t.Fatalf("violations on a healthy tree: %v", bad)
	}
}

func TestFsckCatchesCorruption(t *testing.T) {
	fs := build(t)
	a, _ := fs.Lookup(nil, fs.Root(), "/a", root0, true)
	a.mu.Lock()
	a.Nlink = 7 // deliberately wrong
	a.mu.Unlock()
	if bad := fs.Check(); len(bad) == 0 {
		t.Fatal("fsck missed a corrupted directory link count")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	fs := build(t)
	// Add a hard link and a second regular file so the snapshot carries
	// Nlink > 1 and multiple data payloads.
	b, _ := fs.Lookup(nil, fs.Root(), "/a/b", root0, true)
	c, _ := fs.Lookup(nil, fs.Root(), "/a/b/c.txt", root0, true)
	mustOK(t, fs.Link(b, "hard", c, root0))
	f, e := fs.Create(b, "second", 0o640, root0)
	mustOK(t, e)
	f.WriteAt(bytes.Repeat([]byte("xy"), 700), 3, 0)

	var buf bytes.Buffer
	if err := fs.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bad := got.Check(); len(bad) != 0 {
		t.Fatalf("restored world fails fsck: %v", bad)
	}
	if fs.StateHash() != got.StateHash() {
		t.Fatal("restored world differs from original")
	}
	if fs.NumInodes() != got.NumInodes() {
		t.Fatalf("inode counts differ: %d vs %d", fs.NumInodes(), got.NumInodes())
	}
	// The hard link must be the same inode, not a copy.
	h1, _ := got.Lookup(nil, got.Root(), "/a/b/hard", root0, true)
	h2, _ := got.Lookup(nil, got.Root(), "/a/b/c.txt", root0, true)
	if h1 != h2 {
		t.Fatal("hard link restored as a distinct inode")
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	fs := build(t)
	var buf bytes.Buffer
	if err := fs.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] ^= 0xff
	if _, err := ReadSnapshot(bytes.NewReader(data), nil, nil); err == nil {
		t.Fatal("corrupted snapshot accepted")
	}
}

// TestJournalReplayRebuildsWorld drives a mixed mutation workload under a
// journal, replays it onto a fresh world and demands an identical tree.
func TestJournalReplayRebuildsWorld(t *testing.T) {
	fs, w, st := journaled(t)
	root := fs.Root()

	d1, e := fs.Mkdir(root, "work", 0o755, root0)
	mustOK(t, e)
	d2, e := fs.Mkdir(d1, "sub", 0o700, root0)
	mustOK(t, e)
	f, e := fs.Create(d1, "notes.txt", 0o644, root0)
	mustOK(t, e)
	f.WriteAt([]byte("hello journal"), 0, 0)
	f.WriteAt([]byte("JOURNAL"), 6, 0)
	mustOK(t, f.Truncate(10))
	mustOK(t, fs.Link(d2, "alias", f, root0))
	mustOK(t, fs.Chmod(f, 0o600, root0))
	mustOK(t, fs.Chown(f, alice.UID, alice.GID, root0))
	_, e = fs.Symlink(d1, "ln", "notes.txt", root0)
	mustOK(t, e)
	mustOK(t, fs.Rename(d1, "notes.txt", d2, "moved.txt", root0))
	mustOK(t, fs.Unlink(d2, "alias", root0))
	_, e = fs.Mkdir(d1, "doomed", 0o755, root0)
	mustOK(t, e)
	mustOK(t, fs.Rmdir(d1, "doomed", root0))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	got := replayOnto(t, st)
	if bad := got.Check(); len(bad) != 0 {
		t.Fatalf("replayed world fails fsck: %v", bad)
	}
	if got.StateHash() != fs.StateHash() {
		t.Fatal("replayed world differs from the journaled one")
	}
	ip, e := got.Lookup(nil, got.Root(), "/work/sub/moved.txt", root0, true)
	mustOK(t, e)
	if string(ip.Bytes()) != "hello JOUR" {
		t.Fatalf("replayed content %q", ip.Bytes())
	}
}

// TestRenameHeavyDoubleReplay is the issue's convergence requirement: a
// rename-heavy journal replayed twice (the second pass over the already
// recovered world) must land byte-identical, proving every record is
// idempotent.
func TestRenameHeavyDoubleReplay(t *testing.T) {
	fs, w, st := journaled(t)
	root := fs.Root()
	rng := rand.New(rand.NewSource(7))

	var dirs []*Inode
	for i := 0; i < 4; i++ {
		d, e := fs.Mkdir(root, fmt.Sprintf("d%d", i), 0o755, root0)
		mustOK(t, e)
		dirs = append(dirs, d)
	}
	names := make([]string, 0, 12)
	homes := map[string]*Inode{}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("f%02d", i)
		d := dirs[rng.Intn(len(dirs))]
		f, e := fs.Create(d, name, 0o644, root0)
		mustOK(t, e)
		f.WriteAt([]byte(name), 0, 0)
		names = append(names, name)
		homes[name] = d
	}
	// Shuffle files between directories; some renames replace an
	// existing target (same name created in the destination first).
	for step := 0; step < 200; step++ {
		name := names[rng.Intn(len(names))]
		from, to := homes[name], dirs[rng.Intn(len(dirs))]
		if rng.Intn(4) == 0 && from != to {
			if f, e := fs.Create(to, name, 0o600, root0); e == sys.OK {
				f.WriteAt([]byte("replaced"), 0, 0)
			}
		}
		if e := fs.Rename(from, name, to, name, root0); e != sys.OK {
			t.Fatalf("step %d: rename %s: %v", step, name, e)
		}
		homes[name] = to
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	recs, torn := journal.Scan(st.Bytes())
	if torn != nil {
		t.Fatal(torn)
	}
	once := New(nil)
	if err := NewReplayer(once, nil).ReplayAll(recs); err != nil {
		t.Fatal(err)
	}
	if once.StateHash() != fs.StateHash() {
		t.Fatal("single replay diverged from the live world")
	}
	// Second full pass over the already-recovered world: every record
	// must recognize itself as applied.
	rp := NewReplayer(once, nil)
	if err := rp.ReplayAll(recs); err != nil {
		t.Fatal(err)
	}
	if applied, _ := rp.Stats(); applied != 0 {
		t.Fatalf("second replay re-applied %d records; journal is not idempotent", applied)
	}
	if once.StateHash() != fs.StateHash() {
		t.Fatal("double replay diverged")
	}
	if bad := once.Check(); len(bad) != 0 {
		t.Fatalf("recovered world fails fsck: %v", bad)
	}
}

// TestReplayOverMidJournalSnapshot replays a full journal over a world
// restored from a snapshot taken halfway: the prefix must self-skip, the
// suffix must apply.
func TestReplayOverMidJournalSnapshot(t *testing.T) {
	fs, w, st := journaled(t)
	root := fs.Root()
	d, e := fs.Mkdir(root, "dir", 0o755, root0)
	mustOK(t, e)
	f, e := fs.Create(d, "a", 0o644, root0)
	mustOK(t, e)
	f.WriteAt([]byte("first half"), 0, 0)
	mustOKW(t, w)

	// Checkpoint here.
	var snap bytes.Buffer
	if err := fs.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	// Second half: more mutations after the checkpoint.
	mustOK(t, fs.Rename(d, "a", root, "b", root0))
	g, e := fs.Create(d, "c", 0o600, root0)
	mustOK(t, e)
	g.WriteAt([]byte("second half"), 0, 0)
	mustOKW(t, w)

	restored, err := ReadSnapshot(bytes.NewReader(snap.Bytes()), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, torn := journal.Scan(st.Bytes())
	if torn != nil {
		t.Fatal(torn)
	}
	rp := NewReplayer(restored, nil)
	if err := rp.ReplayAll(recs); err != nil {
		t.Fatal(err)
	}
	if restored.StateHash() != fs.StateHash() {
		t.Fatal("snapshot + journal suffix diverged from the live world")
	}
	if bad := restored.Check(); len(bad) != 0 {
		t.Fatalf("recovered world fails fsck: %v", bad)
	}
}

// TestJournalFullDegradesReadOnly drives the filesystem into a full
// journal device and demands EROFS on every mutation path afterwards,
// with the world frozen at its pre-failure state.
func TestJournalFullDegradesReadOnly(t *testing.T) {
	fs := New(nil)
	st := journal.NewMemStore(256)
	fs.SetJournal(journal.NewWriter(st, 1))
	root := fs.Root()

	var filled bool
	for i := 0; i < 1000; i++ {
		if _, e := fs.Create(root, fmt.Sprintf("f%d", i), 0o644, root0); e == sys.EROFS {
			filled = true
			break
		}
	}
	if !filled {
		t.Fatal("256-byte journal never filled")
	}
	pre := fs.StateHash()
	if _, e := fs.Mkdir(root, "x", 0o755, root0); e != sys.EROFS {
		t.Fatalf("mkdir on degraded journal: %v", e)
	}
	if e := fs.Chmod(root, 0o700, root0); e != sys.EROFS {
		t.Fatalf("chmod on degraded journal: %v", e)
	}
	f, _ := fs.Lookup(nil, root, "f0", root0, true)
	if _, e := f.WriteAt([]byte("z"), 0, 0); e != sys.EROFS {
		t.Fatalf("write on degraded journal: %v", e)
	}
	if e := f.Truncate(0); e != sys.EROFS {
		t.Fatalf("truncate on degraded journal: %v", e)
	}
	if fs.StateHash() != pre {
		t.Fatal("degraded filesystem still mutated")
	}
	if bad := fs.Check(); len(bad) != 0 {
		t.Fatalf("degraded world fails fsck: %v", bad)
	}
	// The journal prefix that did make it out must still be coherent.
	if _, torn := journal.Scan(st.Bytes()); torn != nil {
		t.Fatalf("journal prefix torn after ENOSPC: %v", torn)
	}
}

// TestTornTailRecovery crashes with a torn final sector and recovers:
// the surviving prefix must replay onto a world that passes fsck.
func TestTornTailRecovery(t *testing.T) {
	fs, _, st := journaled(t)
	root := fs.Root()
	d, e := fs.Mkdir(root, "d", 0o755, root0)
	mustOK(t, e)
	for i := 0; i < 20; i++ {
		f, e := fs.Create(d, fmt.Sprintf("f%d", i), 0o644, root0)
		mustOK(t, e)
		f.WriteAt([]byte("payload payload payload"), 0, 0)
	}
	// No sync barrier: the group-committed records reached the store but
	// were never fsynced, so the final sector may legitimately tear.
	st.Freeze(13) // crash with a half-written tail

	recs, torn := journal.Scan(st.Bytes())
	if torn == nil {
		t.Fatal("torn tail went undetected")
	}
	fresh := New(nil)
	if err := NewReplayer(fresh, nil).ReplayAll(recs); err != nil {
		t.Fatal(err)
	}
	if bad := fresh.Check(); len(bad) != 0 {
		t.Fatalf("recovered world fails fsck: %v", bad)
	}
	// Everything before the torn frame survived.
	if len(recs) == 0 {
		t.Fatal("no records survived the torn tail")
	}
}

func mustOKW(t *testing.T, w *journal.Writer) {
	t.Helper()
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}
