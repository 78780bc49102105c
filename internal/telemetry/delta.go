package telemetry

import (
	"cmp"
	"math"
	"slices"
	"strings"
)

// Windowed views over snapshots. The continuous observability plane
// (internal/obs) scrapes a registry periodically and derives per-window
// statistics by diffing successive snapshots: counter deltas become
// rates, histogram-count deltas become windowed distributions whose
// quantiles are estimated by linear interpolation over the fixed
// buckets. All of this is cold-path arithmetic over already-frozen
// snapshots; the live registry is never touched.

// Window is the change from Prev to Cur, read metric by metric (matched
// by name) without building a delta snapshot or any index:
//
//   - Counters and vector slots subtract; a counter that went backwards
//     (a registry reset) clamps to its current value, as a Prometheus
//     rate window would.
//   - Histograms subtract bucket counts, total count and sum. Min and
//     Max are zeroed: extrema are not derivable for a window from
//     cumulative extrema, and Quantile must not trust them on a delta.
//   - A metric absent from Prev passes through unchanged (it was
//     registered inside the window).
//   - Gauges are levels, not differences: read them from Cur.
//
// Both snapshots must be Registry snapshots, whose sections strictly
// ascend by name (and index): every lookup is a binary search. The
// observability plane's /metrics reads its windowed values from one.
type Window struct {
	Cur, Prev Snapshot
}

// Counter returns the change of the counter called name in Cur; ok is
// false when Cur has none.
func (w *Window) Counter(name string) (delta uint64, ok bool) {
	i := find(w.Cur.Counters, CounterSnap{Name: name}, cmpCounter)
	if i < 0 {
		return 0, false
	}
	return w.counter(w.Cur.Counters[i]), true
}

// Family returns the summed change of every vector slot called name: the
// counter family's windowed total.
func (w *Window) Family(name string) (sum uint64) {
	lo, _ := slices.BinarySearchFunc(w.Cur.Vectors, VecSnap{Name: name, Index: math.MinInt}, cmpVec)
	for _, v := range w.Cur.Vectors[lo:] {
		if v.Name != name {
			break
		}
		sum += w.vector(v)
	}
	return sum
}

// Histogram returns the change of the histogram called name in Cur,
// with its bucket counts written into counts' backing array when it is
// large enough; ok is false when Cur has none.
func (w *Window) Histogram(name string, counts []uint64) (delta HistogramSnap, ok bool) {
	i := find(w.Cur.Histograms, HistogramSnap{Name: name}, cmpHist)
	if i < 0 {
		return HistogramSnap{}, false
	}
	return w.histogram(w.Cur.Histograms[i], counts), true
}

// counter is c's change against Prev.
func (w *Window) counter(c CounterSnap) uint64 {
	if i := find(w.Prev.Counters, c, cmpCounter); i >= 0 && w.Prev.Counters[i].Value <= c.Value {
		return c.Value - w.Prev.Counters[i].Value
	}
	return c.Value
}

// vector is slot v's change against Prev.
func (w *Window) vector(v VecSnap) uint64 {
	if i := find(w.Prev.Vectors, v, cmpVec); i >= 0 && w.Prev.Vectors[i].Value <= v.Value {
		return v.Value - w.Prev.Vectors[i].Value
	}
	return v.Value
}

// histogram is h's change against Prev, its counts appended to counts[:0].
func (w *Window) histogram(h HistogramSnap, counts []uint64) HistogramSnap {
	d := HistogramSnap{
		Name:   h.Name,
		Unit:   h.Unit,
		Count:  h.Count,
		Sum:    h.Sum,
		Bounds: h.Bounds,
		Counts: append(counts[:0], h.Counts...),
	}
	i := find(w.Prev.Histograms, h, cmpHist)
	if i < 0 {
		return d
	}
	if old := w.Prev.Histograms[i]; old.Count <= h.Count && len(old.Counts) == len(h.Counts) {
		d.Count -= old.Count
		d.Sum -= old.Sum
		for j := range d.Counts {
			if old.Counts[j] <= d.Counts[j] {
				d.Counts[j] -= old.Counts[j]
			}
		}
	}
	return d
}

// find returns the index of the entry of the ascending s that compares
// equal to x, or -1.
func find[T any](s []T, x T, cmp func(a, b T) int) int {
	if i, ok := slices.BinarySearchFunc(s, x, cmp); ok {
		return i
	}
	return -1
}

// The orders of the snapshot sections: by name, vector slots then by index.
func cmpCounter(a, b CounterSnap) int { return strings.Compare(a.Name, b.Name) }
func cmpHist(a, b HistogramSnap) int  { return strings.Compare(a.Name, b.Name) }
func cmpVec(a, b VecSnap) int {
	return cmp.Or(strings.Compare(a.Name, b.Name), cmp.Compare(a.Index, b.Index))
}

// Quantile estimates the q-quantile (0 < q <= 1) of the histogram by
// linear interpolation inside the bucket holding the target rank: the
// first bucket interpolates from zero (all observed quantities in this
// repository are non-negative), interior buckets between their bounds,
// and the overflow bucket between the last bound and Max when Max is
// trustworthy (cumulative snapshots), or collapses to the last bound on
// windowed deltas where Max is zeroed. An empty histogram estimates 0.
// This is the same estimator Prometheus's histogram_quantile applies to
// fixed-bucket data; its error is bounded by the bucket width.
func (h HistogramSnap) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := 0.0
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank > next {
			cum = next
			continue
		}
		frac := (rank - cum) / float64(c)
		if frac < 0 {
			frac = 0
		}
		lo, hi := 0.0, 0.0
		switch {
		case i < len(h.Bounds):
			hi = float64(h.Bounds[i])
			if i > 0 {
				lo = float64(h.Bounds[i-1])
			}
		default: // overflow bucket
			lo = float64(h.Bounds[len(h.Bounds)-1])
			hi = lo
			if m := float64(h.Max); m > lo {
				hi = m
			}
		}
		return lo + frac*(hi-lo)
	}
	// Rank beyond the last non-empty bucket (rounding): the maximum
	// known edge.
	if m := float64(h.Max); m > 0 {
		return m
	}
	if len(h.Bounds) > 0 {
		return float64(h.Bounds[len(h.Bounds)-1])
	}
	return 0
}
