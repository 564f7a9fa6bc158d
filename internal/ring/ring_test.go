package ring

import "testing"

type rec struct {
	Seq uint64
	V   int
}

func newRing(size int) *Ring[rec] {
	r := new(Ring[rec])
	r.Init(size, func(x *rec) *uint64 { return &x.Seq })
	return r
}

// TestTrimsStaleSurvivor forces the hazard the gap-free trim exists
// for: a recorder preempted between drawing its sequence number and
// filling its slot leaves one shard holding a stale old record while the
// others wrap far past it. The snapshot must drop everything at or
// before the resulting gap rather than splice ancient records into the
// middle of recent history.
func TestTrimsStaleSurvivor(t *testing.T) {
	r := newRing(64)
	const writes = 200
	for i := 0; i < writes; i++ {
		r.Record(rec{V: i})
	}
	s := &r.shards[3]
	s.mu.Lock()
	s.slots[0] = rec{Seq: 3, V: 3}
	s.mu.Unlock()

	out := r.Snapshot()
	if len(out) == 0 {
		t.Fatal("empty snapshot")
	}
	for i, x := range out {
		if x.Seq == 3 {
			t.Fatalf("stale record survived the trim at index %d", i)
		}
		if i > 0 && x.Seq != out[i-1].Seq+1 {
			t.Fatalf("gap in snapshot: seq %d follows %d", x.Seq, out[i-1].Seq)
		}
	}
	if last := out[len(out)-1].Seq; last != writes-1 {
		t.Fatalf("newest surviving seq = %d, want %d", last, writes-1)
	}
}

// TestLazyShards: shard slots allocate on the shard's first record, so
// an idle ring holds no slots at all.
func TestLazyShards(t *testing.T) {
	r := newRing(1024)
	for i := range r.shards {
		if r.shards[i].slots != nil {
			t.Fatalf("shard %d has slots before any record", i)
		}
	}
	if out := r.Snapshot(); len(out) != 0 {
		t.Fatalf("idle snapshot = %+v", out)
	}
	r.Record(rec{})
	allocated := 0
	for i := range r.shards {
		if sl := r.shards[i].slots; sl != nil {
			allocated++
			if len(sl) != 1024/shards {
				t.Fatalf("shard %d sized %d", i, len(sl))
			}
		}
	}
	if allocated != 1 {
		t.Fatalf("%d shards allocated after one record", allocated)
	}
}

// TestRecordAllocatesOncePerShard: after a shard's first record,
// recording is a struct copy with no allocation.
func TestRecordAllocatesOncePerShard(t *testing.T) {
	r := newRing(64)
	for i := 0; i < shards; i++ {
		r.Record(rec{})
	}
	if n := testing.AllocsPerRun(100, func() { r.Record(rec{V: 1}) }); n != 0 {
		t.Fatalf("Record allocates %.1f times per call", n)
	}
}
