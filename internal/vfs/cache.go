package vfs

import (
	"sync/atomic"
)

// The dentry cache hangs an immutable name→inode snapshot off every
// directory inode, published through an atomic pointer. resolve probes
// each component with one atomic load plus one map read — no locks, no
// shared-cache hashing — and fills the snapshot under the directory's
// read lock on a miss. Negative entries (names known to be absent) are
// cached as nil values.
//
// Consistency protocol: the snapshot maps are never mutated in place.
// Fills run under the directory's read lock and publish a cloned map
// with compare-and-swap (two racing fills: one wins, the other's result
// is simply dropped). Invalidations run in insertLocked/removeLocked
// under the directory's write lock, which excludes fills entirely, so a
// plain clone-and-store suffices there. A probe therefore either sees
// the pre-mutation snapshot (the same answer a locked lookup would have
// given before the mutation completed) or the post-mutation one — never
// a torn map. Inodes are never freed, so a cached pointer is always
// safe to dereference.

// dirCacheMax bounds one directory's snapshot; a fill into a full
// snapshot starts a fresh one so recently hot names cycle back in.
const dirCacheMax = 1024

// dirCache is an immutable lookup snapshot for one directory. A nil
// *Inode value is a negative entry.
type dirCache struct {
	m map[string]*Inode
}

// CacheStats is a snapshot of the pathname/attribute cache counters.
type CacheStats struct {
	Hits    uint64 // component probes served by a dentry snapshot (positive)
	Misses  uint64 // probes that fell through to a locked lookup
	NegHits uint64 // probes served by a negative entry
	Invals  uint64 // entries discarded by directory mutations
	AttrHit uint64 // stat served from the generation-checked cache
	AttrMis uint64 // stat recomputed under the inode lock
}

// cacheCounters holds the FS-wide cache counters. resolve adds to them
// in bulk (once per walk, not per component) to keep hot-path atomic
// traffic low.
type cacheCounters struct {
	hits    atomic.Uint64
	misses  atomic.Uint64
	negHits atomic.Uint64
	invals  atomic.Uint64
	attrHit atomic.Uint64
	attrMis atomic.Uint64
}

// addWalk publishes one walk's probe counts.
func (c *cacheCounters) addWalk(hits, misses, negs uint64) {
	if hits > 0 {
		c.hits.Add(hits)
	}
	if misses > 0 {
		c.misses.Add(misses)
	}
	if negs > 0 {
		c.negHits.Add(negs)
	}
}

// probe returns dir's cached entry for name: found reports whether the
// snapshot holds one, and a found nil child is a negative entry.
func (dir *Inode) probe(name string) (child *Inode, found bool) {
	if dc := dir.dmap.Load(); dc != nil {
		child, found = dc.m[name]
	}
	return child, found
}

// fill publishes (name → child) in dir's snapshot, child == nil caching
// a negative entry. The caller must hold dir's read lock: that excludes
// the invalidators (which hold the write lock), leaving only racing
// fills, which the compare-and-swap arbitrates.
func (dir *Inode) fill(name string, child *Inode) {
	old := dir.dmap.Load()
	var m map[string]*Inode
	if old != nil && len(old.m) < dirCacheMax {
		m = make(map[string]*Inode, len(old.m)+1)
		for k, v := range old.m {
			m[k] = v
		}
	} else {
		m = make(map[string]*Inode, 8)
	}
	m[name] = child
	dir.dmap.CompareAndSwap(old, &dirCache{m: m})
}

// invalidate discards dir's entry for name, counting it if one existed.
// Callers hold dir's write lock, so no fill can race and a plain store
// publishes the shrunken snapshot.
func (dir *Inode) invalidate(name string) {
	old := dir.dmap.Load()
	if old == nil {
		return
	}
	if _, had := old.m[name]; !had {
		return
	}
	m := make(map[string]*Inode, len(old.m)-1)
	for k, v := range old.m {
		if k != name {
			m[k] = v
		}
	}
	dir.dmap.Store(&dirCache{m: m})
	dir.fs.cstats.invals.Add(1)
}

// CacheStats returns the cache counter snapshot.
func (fs *FS) CacheStats() CacheStats {
	return CacheStats{
		Hits:    fs.cstats.hits.Load(),
		Misses:  fs.cstats.misses.Load(),
		NegHits: fs.cstats.negHits.Load(),
		Invals:  fs.cstats.invals.Load(),
		AttrHit: fs.cstats.attrHit.Load(),
		AttrMis: fs.cstats.attrMis.Load(),
	}
}
