package telemetry

// Snapshot is the serializable view of a registry at one instant, in
// deterministic (name-sorted) order so snapshots diff and golden-test
// cleanly. Building a snapshot is a cold-path operation and allocates;
// the live metrics keep counting undisturbed.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters,omitempty"`
	Gauges     []GaugeSnap     `json:"gauges,omitempty"`
	Vectors    []VecSnap       `json:"vectors,omitempty"`
	Histograms []HistogramSnap `json:"histograms,omitempty"`
}

// CounterSnap is one counter's value.
type CounterSnap struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSnap is one gauge's level.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// VecSnap is one non-zero slot of an indexed counter family. Zero slots
// are omitted: a 200-link fabric with management traffic on 30 links
// reports 30 entries, not 200.
type VecSnap struct {
	Name  string `json:"name"`
	Index int    `json:"index"`
	Value uint64 `json:"value"`
}

// HistogramSnap is one histogram's full distribution. Bounds are the
// inclusive upper bucket bounds; Counts has one more entry than Bounds
// (the overflow bucket).
type HistogramSnap struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit,omitempty"`
	Count  uint64   `json:"count"`
	Sum    int64    `json:"sum"`
	Min    int64    `json:"min"`
	Max    int64    `json:"max"`
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"`
}

// Snapshot captures every registered metric. A nil registry snapshots to
// the zero Snapshot. Each non-empty section is allocated once at its final
// size, and each histogram copies its counts; a histogram's Bounds are
// shared with the registry, which never changes them.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	s.Counters = sized[CounterSnap](len(r.counters))
	for _, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: c.name, Value: c.v})
	}
	s.Gauges = sized[GaugeSnap](len(r.gauges))
	for _, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: g.name, Value: g.v})
	}
	nonzero := 0
	for _, v := range r.vecs {
		for _, val := range v.vals {
			if val != 0 {
				nonzero++
			}
		}
	}
	s.Vectors = sized[VecSnap](nonzero)
	for _, v := range r.vecs {
		for i, val := range v.vals {
			if val != 0 {
				s.Vectors = append(s.Vectors, VecSnap{Name: v.name, Index: i, Value: val})
			}
		}
	}
	s.Histograms = sized[HistogramSnap](len(r.hists))
	for _, h := range r.hists {
		s.Histograms = append(s.Histograms, HistogramSnap{
			Name:   h.name,
			Unit:   h.unit,
			Count:  h.count,
			Sum:    h.sum,
			Min:    h.min,
			Max:    h.max,
			Bounds: h.bounds,
			Counts: append([]uint64(nil), h.counts...),
		})
	}
	return s
}

// sized returns an empty slice with room for n entries, nil when n is 0
// so an empty section stays absent.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// Counter returns the named counter's snapshot value and whether it was
// recorded.
func (s Snapshot) Counter(name string) (uint64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge returns the named gauge's snapshot value and whether it was
// recorded.
func (s Snapshot) Gauge(name string) (int64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// Histogram returns the named histogram's snapshot and whether it was
// recorded.
func (s Snapshot) Histogram(name string) (HistogramSnap, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramSnap{}, false
}
