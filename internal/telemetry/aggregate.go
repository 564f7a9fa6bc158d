package telemetry

import (
	"sort"
	"time"

	"interpose/internal/sys"
)

// Fleet aggregation: a multi-tenant server exports one fleet-wide view
// over many per-world registries. Counts, errors, and total times sum
// exactly; means are re-derived from the sums; quantiles and flight
// events are per-world artifacts that do not merge (a p99 of p99s is
// not a p99), so the merged rows carry zeros there and callers wanting
// distribution detail read the per-world snapshots.

// Merge folds live registries into one aggregate snapshot, reading each
// in place: no per-registry Snapshot is built, no quantile is estimated
// and the flight ring is never copied, so the cost is one pass over
// each registry's counters, syscall slots and layer rows. Syscall rows
// merge by call number, layer rows by layer name (keeping the first
// index seen), counters by name in first-seen order. Uptime is the
// longest of the inputs. The result equals a fold of each registry's
// Snapshot rows taken at the same instant, with zero quantiles and no
// Flight.
func Merge(regs []*Registry) Snapshot {
	var out Snapshot
	// rowAt[num] is 1 + the index of num's row in out.Syscalls, 0 while
	// num has none. A small index, not MaxSyscall rows: a 16 KB frame
	// makes the serving goroutine regrow its stack on every scrape.
	var rowAt [sys.MaxSyscall]int32
	counterAt := make(map[string]int)
	addCounter := func(name string, v uint64) {
		i, ok := counterAt[name]
		if !ok {
			i = len(out.Counters)
			counterAt[name] = i
			out.Counters = append(out.Counters, NamedCounter{Name: name})
		}
		out.Counters[i].Value += v
	}

	for _, r := range regs {
		out.Uptime = max(out.Uptime, time.Since(r.start))

		r.mu.Lock()
		for _, name := range r.order {
			addCounter(name, r.named[name].Load())
		}
		r.mu.Unlock()
		if fp := r.gauges.Load(); fp != nil {
			for _, c := range (*fp)() {
				addCounter(c.Name, c.Value)
			}
		}

		for num := range r.syscalls {
			st := r.syscalls[num].Load()
			if st == nil {
				continue
			}
			n := st.calls.Load()
			if n == 0 {
				continue
			}
			if rowAt[num] == 0 {
				out.Syscalls = append(out.Syscalls, SyscallSnap{Num: num, Name: sys.SyscallName(num)})
				rowAt[num] = int32(len(out.Syscalls))
			}
			row := &out.Syscalls[rowAt[num]-1]
			errs := st.errs.Load()
			row.Count += n
			row.Errs += errs
			if timed := st.hist.Count(); timed > 0 {
				row.Timed += timed
				row.Total += st.hist.Sum()
				row.Max = max(row.Max, st.hist.Max())
			}
			out.Total += n
			out.Errs += errs
		}

		for i := range r.layers {
			st := &r.layers[i]
			calls := st.calls.Load()
			if calls == 0 {
				continue
			}
			name := ""
			if p := st.name.Load(); p != nil {
				name = *p
			}
			j := 0
			for j < len(out.Layers) && out.Layers[j].Name != name {
				j++
			}
			if j == len(out.Layers) {
				out.Layers = append(out.Layers, LayerSnap{Layer: i, Name: name})
			}
			out.Layers[j].Calls += calls
			out.Layers[j].Self += time.Duration(st.self.Load())
		}
	}

	for i := range out.Syscalls {
		if row := &out.Syscalls[i]; row.Timed > 0 {
			row.Mean = row.Total / time.Duration(row.Timed)
		}
	}
	sort.Slice(out.Syscalls, func(i, j int) bool {
		if out.Syscalls[i].Count != out.Syscalls[j].Count {
			return out.Syscalls[i].Count > out.Syscalls[j].Count
		}
		return out.Syscalls[i].Num < out.Syscalls[j].Num
	})
	sort.Slice(out.Layers, func(i, j int) bool {
		if out.Layers[i].Layer != out.Layers[j].Layer {
			return out.Layers[i].Layer < out.Layers[j].Layer
		}
		return out.Layers[i].Name < out.Layers[j].Name
	})
	return out
}
