package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call recorded from the benchmark's own side of a
// layer boundary: a client request to the daemon, or a direct call into
// a layer's public function. Times are nanoseconds since the recorder's
// epoch; Parent 0 marks a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log; spans past it are counted,
// not kept, so a long traced run cannot exhaust memory.
const maxSpans = 1 << 20

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	epoch   time.Time
	next    atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// handle is an open span; end closes and records it.
type handle struct {
	r *recorder
	s span
}

// begin opens a span now under parent.
func (r *recorder) begin(name string, parent int64) handle {
	if r == nil {
		return handle{}
	}
	return r.beginAt(name, parent, time.Now())
}

// beginAt opens a span that started at t (an open-loop request's due
// time, before it was sent).
func (r *recorder) beginAt(name string, parent int64, t time.Time) handle {
	if r == nil {
		return handle{}
	}
	return handle{r: r, s: span{ID: r.next.Add(1), Parent: parent, Name: name, Start: int64(t.Sub(r.epoch))}}
}

// id is the span's id, 0 for an untraced handle (which makes children
// of an untraced span roots, and is never recorded anyway).
func (h handle) id() int64 { return h.s.ID }

// end closes the span and returns its end time (0 when untraced).
func (h handle) end() int64 {
	if h.r == nil {
		return 0
	}
	h.s.End = int64(time.Since(h.r.epoch))
	h.r.add(h.s)
	return h.s.End
}

// record adds a span with known bounds (the server-side part of an
// exec, placed by its reported elapsed time at the end of the round
// trip).
func (r *recorder) record(name string, parent, start, end int64) {
	if r == nil {
		return
	}
	r.add(span{ID: r.next.Add(1), Parent: parent, Name: name, Start: start, End: end})
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// timed records a direct call into a layer as a span and returns its
// duration.
func (r *recorder) timed(name string, parent int64, fn func()) time.Duration {
	h := r.begin(name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	h.end()
	return d
}

// selfStat aggregates spans of one name.
type selfStat struct {
	name  string
	count int
	total int64 // sum of durations
	self  int64 // sum of durations minus time covered by children
}

// selfTimes computes each span's self time — its duration minus the
// union of its children's intervals clipped to it — and sums both by
// span name, sorted by descending self time.
func selfTimes(spans []span) []selfStat {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	by := make(map[string]*selfStat)
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &selfStat{name: s.Name}
			by[s.Name] = st
		}
		d := s.End - s.Start
		st.count++
		st.total += d
		st.self += d - covered(s.Start, s.End, children[s.ID])
	}
	out := make([]selfStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// writeSpans writes the span log as JSON lines.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *recorder) encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if r.dropped > 0 {
		fmt.Fprintf(bw, "{\"dropped\":%d}\n", r.dropped)
	}
	return bw.Flush()
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}
