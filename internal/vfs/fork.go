package vfs

import (
	"fmt"
	"sync/atomic"
	"time"

	"interpose/internal/sys"
)

// Copy-on-write forking: Fork clones a filesystem in O(#inodes) pointer
// work, not O(bytes). Regular-file data arrays are not copied — parent
// and child share each array behind a reference count (Inode.dataRefs)
// and whichever side mutates a file first copies just that inode's bytes
// out (Inode.unshareData). This generalizes the atomic-pointer COW
// discipline of the dentry/attribute caches (cache.go): immutable value
// published behind an atomic pointer, replaced wholesale on write.
//
// What is shared and what is copied:
//
//   - file data arrays: shared behind dataRefs until either side's first
//     in-place write or growing write/truncate (shrink is a reslice and
//     keeps sharing — the underlying bytes never change);
//   - attribute snapshots (attrs): the *attrSnap pointer is shared; it is
//     an immutable value that chmod/chown replace wholesale, so sharing
//     is free and always safe;
//   - inode structs, directory entry tables, order slices: copied (they
//     are mutable under each side's own locks);
//   - dentry snapshots (dmap) and the pathname cache: NOT shared — they
//     map names to the parent's *Inode pointers, which would resolve into
//     the wrong world. The child starts cold and refills lazily;
//   - stat snapshots (statc): dropped; recomputed on first stat.
//
// Lock ordering: Fork takes each inode's read lock one at a time, never
// two at once, so it composes with every mutation path (which hold at
// most parent dir + one child, exclusively). A writer cannot observe or
// break a share mid-install because installing the refcount happens
// under the inode's read lock while all data mutations hold the write
// lock. Consistency ACROSS inodes is the caller's responsibility, as
// with WriteSnapshot: fork a quiesced world.
//
// Journaling: the child carries the parent's applied-sequence watermark
// (jnlSeq) but no journal writer. The caller seals the parent's journal
// epoch (commit) before forking; replaying the parent's journal onto the
// child then applies zero records — everything is at or below the
// watermark. Replay paths unshare before mutating (replay.go), so even a
// divergent replay cannot scribble on a shared array.

// Fork clones the filesystem copy-on-write. clock supplies the child's
// timestamps (the parent's clock when nil); resolve maps a device
// inode's rdev to the child world's driver vector — device inodes must
// not keep the parent's drivers, or guest I/O would cross worlds — and
// may be nil only when the tree holds no device nodes. The parent must
// be quiesced (no running mutators) for cross-inode consistency.
//
// The clone is one recursive pass from the root: each directory's
// entries are wired to their clones and each child's parent pointer to
// the directory's clone as the pass descends, and every directory keeps
// the parent's iteration order exactly. No path strings are built and
// nothing is sorted. Only an inode reachable under more than one name —
// a hard-linked file — goes through the clones map, so it clones once.
func (fs *FS) Fork(clock func() time.Time, resolve func(rdev uint32) (Device, bool)) (*FS, error) {
	if clock == nil {
		clock = fs.clock
	}
	child := &FS{dev: fs.dev, clock: clock}
	f := forker{child: child, resolve: resolve}
	root, err := f.clone(fs.root, nil)
	if err != nil {
		return nil, err
	}
	child.root = root
	child.nextIno.Store(fs.nextIno.Load())
	child.ninodes.Store(f.n)
	child.jnlSeq.Store(fs.jnlSeq.Load())
	return child, nil
}

// forker carries one Fork's state through the recursive clone.
type forker struct {
	child   *FS
	resolve func(rdev uint32) (Device, bool)
	n       int64             // inodes cloned
	linked  map[*Inode]*Inode // original → clone, for hard-linked files only
}

// clone copies ip into the child and, for a directory, recurses into
// its entries. parent is the clone of the directory ip was reached
// from (nil for the root, whose ".." is itself). Each inode's read lock
// is held only while its own fields are copied — never across the
// recursion — so Fork never holds two inode locks at once.
func (f *forker) clone(ip, parent *Inode) (*Inode, error) {
	ip.mu.RLock()
	// A non-directory with more than one link is a hard-linked file:
	// the first name reached clones it, every later name reuses that.
	linked := ip.typ != sys.S_IFDIR && ip.Nlink > 1
	if linked {
		if c := f.linked[ip]; c != nil {
			ip.mu.RUnlock()
			return c, nil
		}
	}
	c := &Inode{
		fs:    f.child,
		Ino:   ip.Ino,
		typ:   ip.typ,
		Mode:  ip.Mode,
		Nlink: ip.Nlink,
		UID:   ip.UID,
		GID:   ip.GID,
		Rdev:  ip.Rdev,
		Atime: ip.Atime,
		Mtime: ip.Mtime,
		Ctime: ip.Ctime,
		link:  ip.link,
	}
	var kids []*Inode // a directory's original children, in order
	switch ip.typ {
	case sys.S_IFREG:
		c.data = ip.data
		if len(ip.data) > 0 {
			refs := ip.dataRefs.Load()
			if refs == nil {
				nr := &atomic.Int32{}
				nr.Store(1)
				// CAS arbitrates concurrent forks; a mutator cannot
				// intervene (it needs the write lock we read-hold).
				if !ip.dataRefs.CompareAndSwap(nil, nr) {
					refs = ip.dataRefs.Load()
				} else {
					refs = nr
				}
			}
			refs.Add(1)
			c.dataRefs.Store(refs)
		}
	case sys.S_IFDIR:
		c.order = append(make([]string, 0, len(ip.order)), ip.order...)
		kids = make([]*Inode, len(ip.order))
		for i, name := range ip.order {
			kids[i] = ip.entries[name]
		}
	case sys.S_IFCHR:
		if f.resolve != nil {
			if dev, ok := f.resolve(ip.Rdev); ok {
				c.dev = dev
			}
		}
	}
	// Share the immutable attribute snapshot; chmod/chown republish a
	// fresh one, never mutate it in place.
	c.attrs.Store(ip.attrs.Load())
	ip.mu.RUnlock()
	if c.typ == sys.S_IFCHR && c.dev == nil {
		return nil, fmt.Errorf("vfs: fork: device %d:%d (inode %d) has no driver in the child",
			ip.Rdev>>8, ip.Rdev&0xff, ip.Ino)
	}
	if c.attrs.Load() == nil {
		c.publishAttrs()
	}
	f.n++
	if linked {
		if f.linked == nil {
			f.linked = make(map[*Inode]*Inode)
		}
		f.linked[ip] = c
	}

	if c.typ != sys.S_IFDIR {
		return c, nil
	}
	if parent == nil {
		parent = c
	}
	c.setParent(parent)
	c.entries = make(map[string]*Inode, len(kids))
	for i, kid := range kids {
		kc, err := f.clone(kid, c)
		if err != nil {
			return nil, err
		}
		c.entries[c.order[i]] = kc
	}
	return c, nil
}
