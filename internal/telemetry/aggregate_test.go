package telemetry

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"interpose/internal/sys"
)

// foldSnapshots is the reference fleet merge: it folds each registry's
// exported Snapshot rows with maps, the way a reader of the per-world
// JSON would. Merge reads the registries in place and must agree with it
// on every row, sort order included.
func foldSnapshots(snaps []Snapshot) Snapshot {
	var out Snapshot
	sysByNum := make(map[int]*SyscallSnap)
	layerByName := make(map[string]*LayerSnap)
	var layerOrder []string
	counterByName := make(map[string]uint64)
	var counterOrder []string
	for _, s := range snaps {
		out.Uptime = max(out.Uptime, s.Uptime)
		out.Total += s.Total
		out.Errs += s.Errs
		for _, row := range s.Syscalls {
			agg, ok := sysByNum[row.Num]
			if !ok {
				agg = &SyscallSnap{Num: row.Num, Name: row.Name}
				sysByNum[row.Num] = agg
			}
			agg.Count += row.Count
			agg.Errs += row.Errs
			agg.Total += row.Total
			agg.Timed += row.Timed
			agg.Max = max(agg.Max, row.Max)
		}
		for _, l := range s.Layers {
			agg, ok := layerByName[l.Name]
			if !ok {
				agg = &LayerSnap{Layer: l.Layer, Name: l.Name}
				layerByName[l.Name] = agg
				layerOrder = append(layerOrder, l.Name)
			}
			agg.Calls += l.Calls
			agg.Self += l.Self
		}
		for _, c := range s.Counters {
			if _, ok := counterByName[c.Name]; !ok {
				counterOrder = append(counterOrder, c.Name)
			}
			counterByName[c.Name] += c.Value
		}
	}
	for _, agg := range sysByNum {
		if agg.Timed > 0 {
			agg.Mean = agg.Total / time.Duration(agg.Timed)
		}
		out.Syscalls = append(out.Syscalls, *agg)
	}
	sort.Slice(out.Syscalls, func(i, j int) bool {
		if out.Syscalls[i].Count != out.Syscalls[j].Count {
			return out.Syscalls[i].Count > out.Syscalls[j].Count
		}
		return out.Syscalls[i].Num < out.Syscalls[j].Num
	})
	for _, name := range layerOrder {
		out.Layers = append(out.Layers, *layerByName[name])
	}
	sort.Slice(out.Layers, func(i, j int) bool {
		if out.Layers[i].Layer != out.Layers[j].Layer {
			return out.Layers[i].Layer < out.Layers[j].Layer
		}
		return out.Layers[i].Name < out.Layers[j].Name
	})
	for _, name := range counterOrder {
		out.Counters = append(out.Counters, NamedCounter{Name: name, Value: counterByName[name]})
	}
	return out
}

// seededRegistry records a seeded mix of activity: timed and count-only
// syscall rows over a small shared set of numbers (so rows collide
// across registries), failures, layer rows, named counters, and flight
// events that the merge must not carry.
func seededRegistry(rng *rand.Rand, layers []string) *Registry {
	r := NewRegistry()
	nums := []int{sys.SYS_getpid, sys.SYS_open, sys.SYS_read, sys.SYS_write, sys.SYS_stat, sys.SYS_close}
	for i := 0; i < 200+rng.Intn(200); i++ {
		num := nums[rng.Intn(len(nums))]
		d := time.Duration(rng.Intn(50000)) * time.Nanosecond
		failed := rng.Intn(7) == 0
		switch rng.Intn(4) {
		case 0: // a counting instrument: counted, never timed
			r.IncSyscall(num)
			if failed {
				r.IncSyscallErr(num)
			}
		default:
			r.RecordSyscall(num, d, failed)
		}
		r.RecordEvent(1+rng.Intn(4), num, 0, d)
	}
	// Latency observed for a number counted elsewhere (the monitor
	// agent's split), so a row's Timed and Count differ.
	r.ObserveLatency(sys.SYS_read, 3*time.Microsecond)
	r.RecordLayer(0, "kernel", time.Duration(rng.Intn(1e6)))
	for i, name := range layers {
		for n := rng.Intn(20) + 1; n > 0; n-- {
			r.RecordLayer(1+i, name, time.Duration(rng.Intn(10000)))
		}
	}
	r.Counter("sessions").Add(uint64(rng.Intn(100)))
	return r
}

func TestMergeMatchesSnapshotFold(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := seededRegistry(rng, []string{"trace", "union"})
	b := seededRegistry(rng, []string{"union", "timex", "trace"}) // same names, other indices
	c := seededRegistry(rng, nil)
	c.Counter("only.c").Add(5)
	c.Counter("sessions").Add(1)
	c.SetGaugeSource(func() []NamedCounter {
		return []NamedCounter{{Name: "vfs.dentry.hit", Value: 11}, {Name: "sessions", Value: 2}}
	})
	b.SetGaugeSource(func() []NamedCounter {
		return []NamedCounter{{Name: "vfs.dentry.hit", Value: 4}}
	})
	// Errors without a call count: Snapshot skips such a slot, so the
	// merge must too.
	b.IncSyscallErr(sys.SYS_chdir)
	// Two rows with equal counts: the order falls to the call number.
	for i := 0; i < 3; i++ {
		c.IncSyscall(sys.SYS_chown)
		a.IncSyscall(sys.SYS_chmod)
	}
	idle := NewRegistry()
	regs := []*Registry{a, idle, b, c}

	var snaps []Snapshot
	quantiles := false
	for _, r := range regs {
		s := r.Snapshot()
		for _, row := range s.Syscalls {
			quantiles = quantiles || row.P50 != 0
		}
		snaps = append(snaps, s)
	}
	if !quantiles || len(snaps[0].Flight) == 0 {
		t.Fatal("fixture too thin: the snapshots carry no quantiles or flight events")
	}
	want := foldSnapshots(snaps)
	got := Merge(regs)
	if got.Uptime < want.Uptime || got.Uptime > time.Since(a.start) {
		t.Fatalf("uptime %v, want the longest input (>= %v)", got.Uptime, want.Uptime)
	}
	got.Uptime, want.Uptime = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Merge differs from the snapshot fold:\n got %+v\nwant %+v", got, want)
	}
	for _, row := range got.Syscalls {
		if row.P50 != 0 || row.P90 != 0 || row.P99 != 0 {
			t.Fatalf("merged row %s carries quantiles: %+v", row.Name, row)
		}
	}
	if got.Flight != nil {
		t.Fatalf("merged snapshot carries %d flight events", len(got.Flight))
	}
	// The fixture must exercise what it claims: a count-only share, a
	// layer name seen at two indices, a gauge row summed with a counter.
	var countOnly bool
	for _, row := range got.Syscalls {
		countOnly = countOnly || row.Timed < row.Count
	}
	if !countOnly || len(got.Layers) != 4 {
		t.Fatalf("fixture coverage: count-only rows %v, layers %+v", countOnly, got.Layers)
	}
}

func TestMergeEmptyAndIdle(t *testing.T) {
	if got := Merge(nil); !reflect.DeepEqual(got, Snapshot{}) {
		t.Fatalf("Merge(nil) = %+v, want the zero snapshot", got)
	}
	r := NewRegistry()
	got := Merge([]*Registry{r, NewRegistry()})
	if got.Uptime <= 0 {
		t.Fatalf("idle uptime %v", got.Uptime)
	}
	got.Uptime = 0
	if !reflect.DeepEqual(got, Snapshot{}) {
		t.Fatalf("idle registries merged to %+v, want no rows", got)
	}
}

// TestMergeWhileRecording reads registries in place while other
// goroutines record into them; run with -race.
func TestMergeWhileRecording(t *testing.T) {
	regs := []*Registry{NewRegistry(), NewRegistry(), NewRegistry()}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, r := range regs {
		wg.Add(1)
		go func(i int, r *Registry) {
			defer wg.Done()
			c := r.Counter("n")
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				r.RecordSyscall(n%8, time.Duration(n), n%5 == 0)
				r.RecordLayer(n%3, "l"+string(rune('a'+n%3)), time.Duration(n))
				r.RecordEvent(i, n%8, 0, time.Duration(n))
				c.Add(1)
				if n%64 == 0 {
					r.Counter("late")
				}
			}
		}(i, r)
	}
	var last uint64
	for k := 0; k < 200; k++ {
		s := Merge(regs)
		if s.Total < last {
			t.Errorf("merged total went backwards: %d after %d", s.Total, last)
		}
		last = s.Total
	}
	close(stop)
	wg.Wait()
}
