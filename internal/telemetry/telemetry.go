// Package telemetry is the observability layer of the simulator: a small
// metrics registry — counters, gauges, indexed counter vectors and
// fixed-bucket histograms — engineered so that *observing* a metric on a
// simulation hot path never allocates and costs a handful of instructions,
// while *registering* and *snapshotting* metrics (cold paths) may allocate
// freely.
//
// Two properties make the registry safe to wire into the packet paths:
//
//   - Every observation method is nil-receiver safe: a disabled subsystem
//     simply holds nil metric pointers and the calls collapse to a nil
//     check. Telemetry is therefore strictly opt-in and costs (almost)
//     nothing when off.
//
//   - Observations never allocate. Counters and gauges are plain integer
//     fields, vectors are pre-sized slices indexed by small integers
//     (link index, virtual channel), and histograms bucket into pre-sized
//     count arrays by linear scan over their bounds.
//
// Like the simulation engine itself, a Registry is confined to one
// simulation run and is not safe for concurrent use; parallel sweeps give
// each run its own Registry and aggregate the snapshots afterwards.
package telemetry

import (
	"fmt"
	"slices"
	"strings"
)

// Registry holds the metrics of one simulation run, keyed by name.
// Metric constructors get-or-create: asking twice for the same name
// returns the same metric, so independent subsystems can share one
// registry without coordination. A nil *Registry is a valid "telemetry
// off" registry: every constructor returns a nil metric, and nil metrics
// ignore observations.
type Registry struct {
	// Each kind's metrics in name order: constructors binary-search them
	// and a snapshot walks them without sorting.
	counters []*Counter
	gauges   []*Gauge
	vecs     []*CounterVec
	hists    []*Histogram
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// lookup finds the metric called name in the name-ordered ms: its index,
// or the index it would be inserted at, and whether it is there.
func lookup[M interface{ metricName() string }](ms []M, name string) (int, bool) {
	return slices.BinarySearchFunc(ms, name, func(m M, name string) int { return strings.Compare(m.metricName(), name) })
}

func (c *Counter) metricName() string    { return c.name }
func (g *Gauge) metricName() string      { return g.name }
func (v *CounterVec) metricName() string { return v.name }
func (h *Histogram) metricName() string  { return h.name }

// Counter returns the named counter, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	i, ok := lookup(r.counters, name)
	if !ok {
		r.counters = slices.Insert(r.counters, i, &Counter{name: name})
	}
	return r.counters[i]
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	i, ok := lookup(r.gauges, name)
	if !ok {
		r.gauges = slices.Insert(r.gauges, i, &Gauge{name: name})
	}
	return r.gauges[i]
}

// CounterVec returns the named indexed counter family of n slots,
// creating it on first use. Asking again with a larger n grows the
// family (existing counts are kept). Returns nil on a nil registry.
func (r *Registry) CounterVec(name string, n int) *CounterVec {
	if r == nil {
		return nil
	}
	i, ok := lookup(r.vecs, name)
	if !ok {
		r.vecs = slices.Insert(r.vecs, i, &CounterVec{name: name, vals: make([]uint64, n)})
	} else if v := r.vecs[i]; len(v.vals) < n {
		grown := make([]uint64, n)
		copy(grown, v.vals)
		v.vals = grown
	}
	return r.vecs[i]
}

// Histogram returns the named fixed-bucket histogram, creating it on
// first use with the given inclusive upper bounds (which must be sorted
// ascending; a final +inf bucket is implicit). unit documents the
// observed quantity for report consumers, e.g. "ps". Returns nil on a
// nil registry. Bounds are ignored when the histogram already exists.
func (r *Registry) Histogram(name, unit string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	i, ok := lookup(r.hists, name)
	if !ok {
		for j := 1; j < len(bounds); j++ {
			if bounds[j] <= bounds[j-1] {
				panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending at %d", name, j))
			}
		}
		r.hists = slices.Insert(r.hists, i, &Histogram{
			name:   name,
			unit:   unit,
			bounds: append([]int64(nil), bounds...),
			counts: make([]uint64, len(bounds)+1),
		})
	}
	return r.hists[i]
}

// Reset zeroes every registered metric, keeping registrations. A no-op on
// a nil registry.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	for _, c := range r.counters {
		c.v = 0
	}
	for _, g := range r.gauges {
		g.v = 0
	}
	for _, v := range r.vecs {
		for i := range v.vals {
			v.vals[i] = 0
		}
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Counter is a monotonically increasing event count. The zero value of a
// nil *Counter ignores every operation, which is how disabled telemetry
// stays free on hot paths.
type Counter struct {
	name string
	v    uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count, 0 on nil.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// SetTotal overwrites the count with an externally-accumulated total.
// Publishers that already keep their own cumulative tally (the engine's
// Processed count) republish it on every scrape with SetTotal, so
// repeated publication does not double-count the way Add would. The
// counter stays semantically monotonic as long as the source total is.
func (c *Counter) SetTotal(v uint64) {
	if c != nil {
		c.v = v
	}
}

// Gauge is an instantaneous level, e.g. a queue depth high-water mark.
// Nil gauges ignore every operation.
type Gauge struct {
	name string
	v    int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// SetMax stores v if it exceeds the current value — the one-line
// high-water-mark update hot paths use for queue depths.
func (g *Gauge) SetMax(v int64) {
	if g != nil && v > g.v {
		g.v = v
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v += delta
	}
}

// Value returns the current level, 0 on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// CounterVec is a family of counters indexed by a small dense integer —
// topology link index, virtual channel — so per-entity accounting on the
// packet path is one bounds check and an increment, with no map lookups
// or label formatting. Labels materialize only at snapshot time.
type CounterVec struct {
	name string
	vals []uint64
}

// Inc adds one to slot i. Out-of-range indices are ignored (the fabric
// never produces them; dropping beats panicking on a metrics path).
func (v *CounterVec) Inc(i int) {
	if v != nil && i >= 0 && i < len(v.vals) {
		v.vals[i]++
	}
}

// Add adds n to slot i.
func (v *CounterVec) Add(i int, n uint64) {
	if v != nil && i >= 0 && i < len(v.vals) {
		v.vals[i] += n
	}
}

// Set overwrites slot i with an externally-accumulated total; see
// Counter.SetTotal.
func (v *CounterVec) Set(i int, n uint64) {
	if v != nil && i >= 0 && i < len(v.vals) {
		v.vals[i] = n
	}
}

// Value returns slot i's count, 0 on nil or out-of-range.
func (v *CounterVec) Value(i int) uint64 {
	if v == nil || i < 0 || i >= len(v.vals) {
		return 0
	}
	return v.vals[i]
}

// Len returns the number of slots, 0 on nil.
func (v *CounterVec) Len() int {
	if v == nil {
		return 0
	}
	return len(v.vals)
}

// Histogram is a fixed-bucket distribution of int64 observations (in this
// repository: picosecond durations). Bucket i counts observations <=
// bounds[i]; the final bucket counts everything above the last bound.
// Sum, count, min and max are tracked exactly, so means survive even a
// poor bucket choice.
type Histogram struct {
	name     string
	unit     string
	bounds   []int64
	counts   []uint64
	count    uint64
	sum      int64
	min, max int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of observations, 0 on nil.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the total of all observations, 0 on nil.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

func (h *Histogram) reset() {
	h.count, h.sum, h.min, h.max = 0, 0, 0, 0
	for i := range h.counts {
		h.counts[i] = 0
	}
}
