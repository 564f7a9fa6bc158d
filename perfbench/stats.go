package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the fewest samples that must lie beyond a percentile for
// it to be reported: with fewer, one outlier moves the figure.
const minBeyond = 10

// samples is a set of durations in nanoseconds.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

// percentile returns the p-th percentile (0 < p < 100) by the
// nearest-rank rule. It refuses (ok=false) when fewer than minBeyond
// samples lie above the rank, so a tail figure is never one outlier.
func (s samples) percentile(p float64) (v float64, ok bool) {
	n := len(s)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if n-rank < minBeyond {
		return 0, false
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return float64(sorted[rank-1]), true
}

// mean returns the arithmetic mean, 0 for no samples.
func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	return sum / float64(len(s))
}

// median of a float slice (0 for none); the input is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// timing is one reported latency figure: p50 and p99 in a unit, with
// the sample count behind them. p99 is 0 when no window holds enough
// samples for one.
type timing struct {
	p50, p99 float64
	n        int // samples
	windows  int // windows the figures are medians over
}

// obs is one timed op: when it completed, in nanoseconds since its
// stretch began, and how long it took.
type obs struct{ at, d int64 }

// window is the length of one throughput window.
const window = 500 * time.Millisecond

// perP99Window is the fewest samples a window needs for a p99 with
// minBeyond samples above it.
const perP99Window = 100 * minBeyond

// windowedTiming splits ops into equal windows of the stretch by
// completion time — as many as the samples allow a p99 in each, at most
// one per `window`, at least one — and reports the median over windows
// of each window's p50 and p99, in unit. A stall confined to one window
// moves one figure of many, not the result. It fails only when there
// are too few samples for a median.
func windowedTiming(name string, ops []obs, stretch, unit time.Duration) (timing, error) {
	nw := max(min(len(ops)/perP99Window, int(stretch/window)), 1)
	wins := make([]samples, nw)
	for _, o := range ops {
		i := min(max(int(o.at*int64(nw)/int64(stretch)), 0), nw-1)
		wins[i] = append(wins[i], o.d)
	}
	var p50s, p99s []float64
	for _, w := range wins {
		if p50, ok := w.percentile(50); ok {
			p50s = append(p50s, p50/float64(unit))
		}
		if p99, ok := w.percentile(99); ok {
			p99s = append(p99s, p99/float64(unit))
		}
	}
	if len(p50s) == 0 {
		return timing{}, fmt.Errorf("%s: %d samples are too few for a median", name, len(ops))
	}
	return timing{p50: median(p50s), p99: median(p99s), n: len(ops), windows: len(p50s)}, nil
}

// windowedRate is the median over whole windows of the stretch of the
// ops completed per second.
func windowedRate(done []int64, stretch time.Duration) float64 {
	nw := int(stretch / window)
	if nw < 1 {
		return float64(len(done)) / stretch.Seconds()
	}
	counts := make([]float64, nw)
	for _, at := range done {
		if i := int(at / int64(window)); i < nw {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= window.Seconds()
	}
	return median(counts)
}
