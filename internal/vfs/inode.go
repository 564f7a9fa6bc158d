package vfs

import (
	"sync"
	"sync/atomic"
	"time"

	"interpose/internal/journal"
	"interpose/internal/sys"
)

// Device is the operations vector of a character device. Device inodes
// dispatch read, write and ioctl to it. Implementations live in the kernel
// (tty, null, zero, ...).
type Device interface {
	Read(p []byte, off int64) (int, sys.Errno)
	Write(p []byte, off int64) (int, sys.Errno)
	Ioctl(req sys.Word, arg sys.Word, c sys.Ctx) sys.Errno
}

// Inode is one filesystem object, protected by its own read-write lock.
// Immutable-after-creation fields (the type bits, the device vector, the
// symlink target, the inode number) are read without it; everything else
// is accessed under mu. The parent pointer is additionally readable
// lock-free (it is atomic) so ancestry walks need no lock at all.
type Inode struct {
	mu sync.RWMutex

	fs    *FS
	Ino   uint32
	typ   uint32 // file-type bits of Mode; immutable
	Mode  uint32 // file type | permission bits
	Nlink uint32
	UID   uint32
	GID   uint32
	Rdev  uint32

	Atime time.Time
	Mtime time.Time
	Ctime time.Time

	data []byte // regular files
	link string // symlink target; immutable

	// dataRefs, when non-nil, marks data as a copy-on-write array shared
	// with forked filesystems (fork.go). The counter holds the number of
	// inodes referencing the array; while it exceeds one the array is
	// immutable and the first in-place mutation on either side copies out
	// (unshareData). Installed by Fork under this inode's read lock via
	// CAS, cleared by mutators under the write lock — so a writer never
	// races a fork of the same inode, and unrelated inodes never contend.
	dataRefs atomic.Pointer[atomic.Int32]

	// Directories: lookup map plus stable insertion order for iteration.
	entries map[string]*Inode
	order   []string
	parent  atomic.Pointer[Inode] // ".." for directories

	dev Device // character devices; immutable

	// gen counts stat-visible mutations (data, times, ownership, link
	// count, entry table). It is bumped only while mu is held exclusively
	// and read lock-free: a cached attribute snapshot tagged with the
	// current generation is still valid.
	gen atomic.Uint64

	// attrs is the lock-free access-check snapshot (mode, uid, gid),
	// republished on chmod/chown. resolve evaluates directory execute
	// permission against it without taking mu.
	attrs atomic.Pointer[attrSnap]

	// statc caches the last computed Stat together with the generation it
	// was computed at; stat/fstat serve from it while the generation is
	// unchanged.
	statc atomic.Pointer[statSnap]

	// dmap is this directory's dentry snapshot (see cache.go): an
	// immutable name→child map resolve probes without taking mu. Nil
	// until the first fill; always nil for non-dirs.
	dmap atomic.Pointer[dirCache]

	// Advisory flock state. These fields belong to the kernel's global
	// flock lock, not to mu: they are read and written together with the
	// descriptor-layer lock bookkeeping.
	LockEx     bool
	LockShared int
}

// attrSnap is the atomically published permission snapshot of an inode.
type attrSnap struct {
	mode, uid, gid uint32
}

// statSnap is a Stat computed at a known generation.
type statSnap struct {
	gen uint64
	st  sys.Stat
}

// bump invalidates cached attribute state. Callers hold mu exclusively
// (or the inode is not yet published).
func (ip *Inode) bump() { ip.gen.Add(1) }

// publishAttrs refreshes the lock-free permission snapshot from the
// current mode/owner. Callers hold mu exclusively (or the inode is not
// yet published).
func (ip *Inode) publishAttrs() {
	ip.attrs.Store(&attrSnap{mode: ip.Mode, uid: ip.UID, gid: ip.GID})
}

// Gen returns the current attribute generation (lock-free). Consumers
// cache derived state keyed by inode + generation — the exec loader keeps
// parsed images this way.
func (ip *Inode) Gen() uint64 { return ip.gen.Load() }

// Type returns the file-type bits of the mode.
func (ip *Inode) Type() uint32 { return ip.typ }

// IsDir reports whether the inode is a directory.
func (ip *Inode) IsDir() bool { return ip.typ == sys.S_IFDIR }

// IsSymlink reports whether the inode is a symbolic link.
func (ip *Inode) IsSymlink() bool { return ip.typ == sys.S_IFLNK }

// IsDevice reports whether the inode is a character device.
func (ip *Inode) IsDevice() bool { return ip.typ == sys.S_IFCHR }

// Device returns the operations vector of a device inode (nil otherwise).
func (ip *Inode) Device() Device { return ip.dev }

func (ip *Inode) parentPtr() *Inode   { return ip.parent.Load() }
func (ip *Inode) setParent(pp *Inode) { ip.parent.Store(pp) }

// size returns the logical size; directories report their entry count
// encoded as dirent records, symlinks their target length. Caller holds mu.
func (ip *Inode) size() uint32 {
	switch ip.typ {
	case sys.S_IFREG:
		return uint32(len(ip.data))
	case sys.S_IFLNK:
		return uint32(len(ip.link))
	case sys.S_IFDIR:
		n := sys.DirentRecLen(".") + sys.DirentRecLen("..")
		for _, name := range ip.order {
			n += sys.DirentRecLen(name)
		}
		return uint32(n)
	}
	return 0
}

// Stat fills a sys.Stat from the inode. While the attribute generation is
// unchanged it is served from a cached snapshot without taking the inode
// lock; the generation check makes a stale snapshot impossible to serve
// (every stat-visible mutation bumps the generation under the write lock).
func (ip *Inode) Stat() sys.Stat {
	if sc := ip.statc.Load(); sc != nil && sc.gen == ip.gen.Load() {
		ip.fs.cstats.attrHit.Add(1)
		return sc.st
	}
	ip.mu.RLock()
	st := ip.statLocked()
	// gen is stable under the read lock (bumps require the write lock), so
	// the snapshot is tagged with exactly the generation it reflects.
	g := ip.gen.Load()
	ip.mu.RUnlock()
	ip.fs.cstats.attrMis.Add(1)
	ip.statc.Store(&statSnap{gen: g, st: st})
	return st
}

func (ip *Inode) statLocked() sys.Stat {
	return sys.Stat{
		Dev:     ip.fs.dev,
		Ino:     ip.Ino,
		Mode:    ip.Mode,
		Nlink:   ip.Nlink,
		UID:     ip.UID,
		GID:     ip.GID,
		Rdev:    ip.Rdev,
		Size:    ip.size(),
		Atime:   toTimeval(ip.Atime),
		Mtime:   toTimeval(ip.Mtime),
		Ctime:   toTimeval(ip.Ctime),
		Blksize: sys.PageSize,
		Blocks:  (ip.size() + 511) / 512,
	}
}

func toTimeval(t time.Time) sys.Timeval {
	return sys.Timeval{Sec: uint32(t.Unix()), Usec: uint32(t.Nanosecond() / 1000)}
}

// unshareData makes ip the sole owner of its data array before an
// in-place mutation. Shared arrays (dataRefs non-nil) are immutable:
// with other holders remaining the bytes are copied out and this side's
// reference dropped; as the last holder the array is simply reclaimed.
// Caller holds ip.mu exclusively, which excludes a concurrent Fork of
// this inode (Fork reads under ip.mu.RLock).
func (ip *Inode) unshareData() {
	refs := ip.dataRefs.Load()
	if refs == nil {
		return
	}
	if refs.Load() > 1 {
		nd := make([]byte, len(ip.data))
		copy(nd, ip.data)
		ip.data = nd
		ip.dataRefs.Store(nil)
		refs.Add(-1)
		return
	}
	// Sole holder: every sibling already copied out (their decrements
	// happened under their own locks before ours could observe 1), so the
	// array is exclusively ours again.
	ip.dataRefs.Store(nil)
}

// releaseDataRef drops ip's share of a COW array when a mutation is
// about to replace ip.data wholesale (the growth paths allocate a fresh
// array anyway, so copying out first would be wasted work). Caller holds
// ip.mu exclusively and must reassign ip.data before unlocking.
func (ip *Inode) releaseDataRef() {
	if refs := ip.dataRefs.Load(); refs != nil {
		ip.dataRefs.Store(nil)
		refs.Add(-1)
	}
}

// ReadAt copies file data at offset off into p, returning the byte count.
// Reading at or past EOF returns 0. Device inodes dispatch to their driver.
func (ip *Inode) ReadAt(p []byte, off int64) (int, sys.Errno) {
	if ip.dev != nil {
		return ip.dev.Read(p, off)
	}
	if ip.IsDir() {
		return 0, sys.EISDIR
	}
	ip.mu.Lock() // write lock: reads update the access time
	defer ip.mu.Unlock()
	ip.Atime = ip.fs.now()
	ip.bump()
	if off >= int64(len(ip.data)) {
		return 0, sys.OK
	}
	n := copy(p, ip.data[off:])
	return n, sys.OK
}

// WriteAt copies p into the file at offset off, growing (and
// zero-filling any hole) as needed. maxSize, when nonzero, caps the
// resulting file size (RLIMIT_FSIZE).
func (ip *Inode) WriteAt(p []byte, off int64, maxSize int64) (int, sys.Errno) {
	if ip.dev != nil {
		return ip.dev.Write(p, off)
	}
	if ip.IsDir() {
		return 0, sys.EISDIR
	}
	ip.mu.Lock()
	defer ip.mu.Unlock()
	end := off + int64(len(p))
	if maxSize > 0 && end > maxSize {
		if off >= maxSize {
			return 0, sys.EFBIG
		}
		p = p[:maxSize-off]
		end = maxSize
	}
	if e := ip.fs.jlog(&journal.Record{Op: journal.OpWrite, Ino: ip.Ino,
		Off: off, Data: p}); e != sys.OK {
		return 0, e
	}
	if end > int64(len(ip.data)) {
		grown := make([]byte, end)
		copy(grown, ip.data)
		ip.releaseDataRef()
		ip.data = grown
	} else {
		ip.unshareData()
	}
	copy(ip.data[off:], p)
	now := ip.fs.now()
	ip.Mtime, ip.Ctime = now, now
	ip.bump()
	return len(p), sys.OK
}

// Truncate sets the file length, zero-filling growth.
func (ip *Inode) Truncate(length int64) sys.Errno {
	if ip.IsDir() {
		return sys.EISDIR
	}
	if ip.dev != nil {
		return sys.OK
	}
	if length < 0 {
		return sys.EINVAL
	}
	ip.mu.Lock()
	defer ip.mu.Unlock()
	if e := ip.fs.jlog(&journal.Record{Op: journal.OpTruncate, Ino: ip.Ino,
		Size: length}); e != sys.OK {
		return e
	}
	switch {
	case int64(len(ip.data)) > length:
		// Shrink is a reslice: the shared array's bytes are untouched, so
		// COW sharing (dataRefs) survives a truncate-down.
		ip.data = ip.data[:length]
	case int64(len(ip.data)) < length:
		grown := make([]byte, length)
		copy(grown, ip.data)
		ip.releaseDataRef()
		ip.data = grown
	}
	now := ip.fs.now()
	ip.Mtime, ip.Ctime = now, now
	ip.bump()
	return sys.OK
}

// Bytes returns a copy of a regular file's contents.
func (ip *Inode) Bytes() []byte {
	ip.mu.RLock()
	defer ip.mu.RUnlock()
	out := make([]byte, len(ip.data))
	copy(out, ip.data)
	return out
}

// Size returns the logical size of the inode.
func (ip *Inode) Size() int64 {
	ip.mu.RLock()
	defer ip.mu.RUnlock()
	return int64(ip.size())
}

// Readlink returns the target of a symbolic link.
func (ip *Inode) Readlink() (string, sys.Errno) {
	if !ip.IsSymlink() {
		return "", sys.EINVAL
	}
	return ip.link, sys.OK
}

// Dirents returns the directory's entries in iteration order, with "." and
// ".." synthesized first, as getdirentries presents them.
func (ip *Inode) Dirents() ([]sys.Dirent, sys.Errno) {
	if !ip.IsDir() {
		return nil, sys.ENOTDIR
	}
	ip.mu.RLock()
	defer ip.mu.RUnlock()
	out := make([]sys.Dirent, 0, len(ip.order)+2)
	out = append(out, sys.Dirent{Ino: ip.Ino, Name: "."})
	pp := ip.parentPtr()
	if pp == nil {
		pp = ip
	}
	out = append(out, sys.Dirent{Ino: pp.Ino, Name: ".."})
	for _, name := range ip.order {
		out = append(out, sys.Dirent{Ino: ip.entries[name].Ino, Name: name})
	}
	return out, sys.OK
}

// EntryCount returns the number of real (non-dot) directory entries.
func (ip *Inode) EntryCount() (int, sys.Errno) {
	if !ip.IsDir() {
		return 0, sys.ENOTDIR
	}
	ip.mu.RLock()
	defer ip.mu.RUnlock()
	return len(ip.order), sys.OK
}

// directory-entry helpers; callers hold the directory's lock.

func (ip *Inode) lookupLocked(name string) *Inode {
	switch name {
	case ".":
		return ip
	case "..":
		if pp := ip.parentPtr(); pp != nil {
			return pp
		}
		return ip
	}
	return ip.entries[name]
}

func (ip *Inode) insertLocked(name string, child *Inode) {
	ip.entries[name] = child
	ip.order = append(ip.order, name)
	now := ip.fs.now()
	ip.Mtime, ip.Ctime = now, now
	ip.bump()
	// Discard any negative dentry for the name just created. Running
	// under the directory's write lock orders this against concurrent
	// fills, which hold the read lock.
	ip.invalidate(name)
}

func (ip *Inode) removeLocked(name string) {
	delete(ip.entries, name)
	for i, n := range ip.order {
		if n == name {
			ip.order = append(ip.order[:i], ip.order[i+1:]...)
			break
		}
	}
	now := ip.fs.now()
	ip.Mtime, ip.Ctime = now, now
	ip.bump()
	ip.invalidate(name)
}
