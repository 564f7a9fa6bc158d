// Package ring is the sharded overwrite-oldest record buffer behind the
// telemetry flight recorder and the causal span tracer. Both need the
// same discipline: recording is a fixed-size struct copy under a brief
// per-shard lock, a global sequence number round-robins records over
// the shards so a snapshot can restore total order, and an idle buffer
// costs only its shard headers.
package ring

import (
	"sync"
	"sync/atomic"
)

// shards spreads slots across locks so concurrent recorders rarely
// contend on the same one.
const shards = 8

// Ring is a sharded overwrite-oldest buffer of T. Shard slot arrays are
// allocated on a shard's first record, not at Init: an idle ring costs
// eight empty headers, so a pooled idle world with telemetry enabled
// does not carry tens of kilobytes of empty slots.
type Ring[T any] struct {
	seq    atomic.Uint64
	per    int              // slots per shard, fixed at Init
	seqOf  func(*T) *uint64 // the record's sequence-number field
	shards [shards]shard[T]
}

type shard[T any] struct {
	mu    sync.Mutex
	slots []T    // nil until the shard's first record
	n     uint64 // records written to this shard since the last Clear
}

// Init sizes the ring to hold about size records in total. seqOf names
// the field of T that Record stamps with the global sequence number.
func (r *Ring[T]) Init(size int, seqOf func(*T) *uint64) {
	r.per = max(size/shards, 1)
	r.seqOf = seqOf
}

// Record stamps v with the next sequence number and stores it,
// overwriting its shard's oldest slot. The shard lock covers one struct
// copy (plus, once ever, the shard's slot allocation).
func (r *Ring[T]) Record(v T) {
	seq := r.seq.Add(1) - 1
	s := &r.shards[seq%shards]
	s.mu.Lock()
	if s.slots == nil {
		s.slots = make([]T, r.per)
	}
	// Stamp the slot, not v: handing &v to seqOf would move v to the heap.
	slot := &s.slots[s.n%uint64(len(s.slots))]
	*slot = v
	*r.seqOf(slot) = seq
	s.n++
	s.mu.Unlock()
}

// Recorded returns the number of records ever made, Clear included.
func (r *Ring[T]) Recorded() uint64 { return r.seq.Load() }

// Dropped returns the number of records lost to overwrite since the
// last Clear.
func (r *Ring[T]) Dropped() uint64 {
	var dropped uint64
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		if s.n > uint64(r.per) {
			dropped += s.n - uint64(r.per)
		}
		s.mu.Unlock()
	}
	return dropped
}

// Clear drops every buffered record. The sequence counter keeps
// running, so records made before and after a clear still order
// globally.
func (r *Ring[T]) Clear() {
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		s.n = 0
		s.mu.Unlock()
	}
}

// Snapshot returns the surviving records merged into one totally
// ordered history: ordered by sequence number, then trimmed to the
// longest gap-free suffix. Shards overwrite independently, so a
// recorder preempted between taking its sequence number and filling its
// slot can leave a stale record surviving in one shard while the others
// have moved on; everything before the resulting gap is dropped, so the
// result reads as one contiguous recent history rather than reordered
// fragments. In steady state the per-shard windows line up exactly and
// nothing is trimmed.
//
// Sequence numbers are unique, so no sort is needed: of n survivors,
// only those within n of the newest can belong to the suffix, and each
// goes straight to its offset from the newest.
func (r *Ring[T]) Snapshot() []T {
	var all []T
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		all = append(all, s.slots[:min(s.n, uint64(len(s.slots)))]...)
		s.mu.Unlock()
	}
	var newest uint64
	for i := range all {
		newest = max(newest, *r.seqOf(&all[i]))
	}
	n := uint64(len(all))
	out := make([]T, n)
	filled := make([]bool, n)
	for i := range all {
		if back := newest - *r.seqOf(&all[i]); back < n {
			out[n-1-back] = all[i]
			filled[n-1-back] = true
		}
	}
	start := n
	for start > 0 && filled[start-1] {
		start--
	}
	return out[start:]
}
