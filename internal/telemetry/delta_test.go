package telemetry

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestSnapshotDelta(t *testing.T) {
	r := New()
	c := r.Counter("c")
	v := r.CounterVec("v", 4)
	h := r.Histogram("h", "ps", []int64{10, 100})

	c.Add(5)
	v.Add(1, 3)
	h.Observe(4)
	h.Observe(40)
	prev := r.Snapshot()

	c.Add(10)
	v.Add(1, 1)
	v.Inc(3)
	h.Observe(50)
	h.Observe(400)
	w := NewWindow(r.Snapshot(), prev)

	if got, _ := w.Counter("c"); got != 10 {
		t.Errorf("counter delta %d, want 10", got)
	}
	if got := w.Family("v"); got != 2 {
		t.Errorf("vector family delta %d, want 2 (slots 1 and 3, one each)", got)
	}
	dh, ok := w.Histogram("h", nil)
	if !ok || dh.Count != 2 || dh.Sum != 450 {
		t.Errorf("histogram delta count %d sum %d", dh.Count, dh.Sum)
	}
	if dh.Min != 0 || dh.Max != 0 {
		t.Errorf("windowed histogram extrema not zeroed: min %d max %d", dh.Min, dh.Max)
	}
	want := []uint64{0, 1, 1}
	for i, c := range dh.Counts {
		if c != want[i] {
			t.Errorf("bucket %d delta %d, want %d", i, c, want[i])
		}
	}
}

func TestSnapshotDeltaResetClamps(t *testing.T) {
	r := New()
	r.Counter("c").Add(100)
	prev := r.Snapshot()
	r.Reset()
	r.Counter("c").Add(3)
	w := NewWindow(r.Snapshot(), prev)
	if got, _ := w.Counter("c"); got != 3 {
		t.Errorf("reset counter delta %d, want clamp to 3", got)
	}
}

func TestSnapshotDeltaNewMetricPassesThrough(t *testing.T) {
	r := New()
	prev := r.Snapshot()
	r.Counter("fresh").Add(9)
	w := NewWindow(r.Snapshot(), prev)
	if got, ok := w.Counter("fresh"); !ok || got != 9 {
		t.Errorf("fresh counter delta %d ok=%v, want 9", got, ok)
	}
}

func TestHistogramQuantile(t *testing.T) {
	// 100 observations uniform in one bucket (10,100]: interpolation
	// should land proportionally between the bounds.
	h := HistogramSnap{
		Count:  100,
		Bounds: []int64{10, 100},
		Counts: []uint64{0, 100, 0},
	}
	if got := h.Quantile(0.5); math.Abs(got-55) > 1e-9 {
		t.Errorf("p50 %v, want 55", got)
	}
	if got := h.Quantile(1); math.Abs(got-100) > 1e-9 {
		t.Errorf("p100 %v, want 100", got)
	}

	// First bucket interpolates from zero.
	h = HistogramSnap{Count: 10, Bounds: []int64{8}, Counts: []uint64{10, 0}}
	if got := h.Quantile(0.5); math.Abs(got-4) > 1e-9 {
		t.Errorf("first-bucket p50 %v, want 4", got)
	}

	// Overflow bucket with a trustworthy Max interpolates toward it;
	// without one (windowed delta) it collapses to the last bound.
	h = HistogramSnap{Count: 4, Max: 300, Bounds: []int64{100}, Counts: []uint64{0, 4}}
	if got := h.Quantile(0.5); math.Abs(got-200) > 1e-9 {
		t.Errorf("overflow p50 with max %v, want 200", got)
	}
	h.Max = 0
	if got := h.Quantile(0.99); math.Abs(got-100) > 1e-9 {
		t.Errorf("overflow p99 without max %v, want 100", got)
	}

	// Empty and degenerate cases stay finite.
	if got := (HistogramSnap{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile %v", got)
	}
	mixed := HistogramSnap{Count: 3, Bounds: []int64{10, 20}, Counts: []uint64{1, 1, 1}, Max: 25}
	for _, q := range []float64{-1, 0, 0.25, 0.5, 0.75, 0.99, 1, 2} {
		got := mixed.Quantile(q)
		if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 || got > 25 {
			t.Errorf("q=%v -> %v out of range", q, got)
		}
	}
}

func TestCounterSetTotal(t *testing.T) {
	c := New().Counter("c")
	c.SetTotal(42)
	c.SetTotal(50)
	if c.Value() != 50 {
		t.Errorf("SetTotal value %d, want 50", c.Value())
	}
	var nilC *Counter
	nilC.SetTotal(1)
}

// deltaRef is the map-based delta the Window replaced, kept as the
// referee: every Window lookup must agree with it on any pair of
// snapshots, sorted or not, with repeated names or not.
func deltaRef(s, prev Snapshot) Snapshot {
	var d Snapshot
	prevC := make(map[string]uint64, len(prev.Counters))
	for _, c := range prev.Counters {
		prevC[c.Name] = c.Value
	}
	for _, c := range s.Counters {
		v := c.Value
		if old, ok := prevC[c.Name]; ok && old <= v {
			v -= old
		}
		d.Counters = append(d.Counters, CounterSnap{Name: c.Name, Value: v})
	}
	d.Gauges = append(d.Gauges, s.Gauges...)
	type slot struct {
		name string
		idx  int
	}
	prevV := make(map[slot]uint64, len(prev.Vectors))
	for _, v := range prev.Vectors {
		prevV[slot{v.Name, v.Index}] = v.Value
	}
	for _, v := range s.Vectors {
		val := v.Value
		if old, ok := prevV[slot{v.Name, v.Index}]; ok && old <= val {
			val -= old
		}
		if val != 0 {
			d.Vectors = append(d.Vectors, VecSnap{Name: v.Name, Index: v.Index, Value: val})
		}
	}
	prevH := make(map[string]HistogramSnap, len(prev.Histograms))
	for _, h := range prev.Histograms {
		prevH[h.Name] = h
	}
	for _, h := range s.Histograms {
		dh := HistogramSnap{
			Name:   h.Name,
			Unit:   h.Unit,
			Count:  h.Count,
			Sum:    h.Sum,
			Bounds: h.Bounds,
			Counts: append([]uint64(nil), h.Counts...),
		}
		if old, ok := prevH[h.Name]; ok && old.Count <= h.Count && len(old.Counts) == len(h.Counts) {
			dh.Count -= old.Count
			dh.Sum -= old.Sum
			for i := range dh.Counts {
				if old.Counts[i] <= dh.Counts[i] {
					dh.Counts[i] -= old.Counts[i]
				}
			}
		}
		d.Histograms = append(d.Histograms, dh)
	}
	return d
}

// randomSnapshot draws a snapshot over a small name pool: name-sorted
// like a registry's, or shuffled, or with repeated names and slots.
func randomSnapshot(rng *rand.Rand, shape int) Snapshot {
	names := []string{"", "a", "a.b", "b", "c", "zz"}
	name := func() string { return names[rng.Intn(len(names))] }
	var s Snapshot
	if shape == 0 { // a registry's: sorted, each name once per kind
		r := New()
		for i := rng.Intn(6); i > 0; i-- {
			r.Counter(name()).Add(uint64(rng.Intn(20)))
		}
		for i := rng.Intn(3); i > 0; i-- {
			r.Gauge(name()).Set(rng.Int63n(10) - 5)
		}
		for i := rng.Intn(6); i > 0; i-- {
			r.CounterVec(name(), 4).Add(rng.Intn(4), uint64(rng.Intn(20)))
		}
		for i := rng.Intn(4); i > 0; i-- {
			h := r.Histogram(name(), "ps", []int64{5, 50})
			for j := rng.Intn(8); j > 0; j-- {
				h.Observe(rng.Int63n(100))
			}
		}
		return r.Snapshot()
	}
	for i := rng.Intn(8); i > 0; i-- {
		s.Counters = append(s.Counters, CounterSnap{Name: name(), Value: uint64(rng.Intn(20))})
	}
	for i := rng.Intn(8); i > 0; i-- {
		s.Vectors = append(s.Vectors, VecSnap{Name: name(), Index: rng.Intn(3), Value: uint64(rng.Intn(20))})
	}
	for i := rng.Intn(5); i > 0; i-- {
		n := 1 + rng.Intn(3)
		h := HistogramSnap{Name: name(), Bounds: make([]int64, n-1), Counts: make([]uint64, n)}
		for j := range h.Counts {
			h.Counts[j] = uint64(rng.Intn(9))
			h.Count += h.Counts[j]
		}
		h.Sum = int64(rng.Intn(1000))
		s.Histograms = append(s.Histograms, h)
	}
	if shape == 1 { // sorted, but names may repeat
		slices.SortStableFunc(s.Counters, cmpCounter)
		slices.SortStableFunc(s.Vectors, cmpVec)
		slices.SortStableFunc(s.Histograms, cmpHist)
	}
	return s
}

// TestDeltaAndWindowMatchReference checks the by-name reads both views
// of the observability plane make.
func TestDeltaAndWindowMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		cur, prev := randomSnapshot(rng, rng.Intn(3)), randomSnapshot(rng, rng.Intn(3))
		want := deltaRef(cur, prev)
		// The exposition's by-name reads: the last entry of a name wins,
		// a family sums every slot of its name.
		lastC, family, lastH := map[string]uint64{}, map[string]uint64{}, map[string]HistogramSnap{}
		for _, c := range want.Counters {
			lastC[c.Name] = c.Value
		}
		for _, v := range want.Vectors {
			family[v.Name] += v.Value
		}
		for _, h := range want.Histograms {
			lastH[h.Name] = h
		}
		w := NewWindow(cur, prev)
		var buf []uint64
		for _, name := range []string{"", "a", "a.b", "b", "c", "zz", "absent"} {
			c, ok := w.Counter(name)
			if wc, wok := lastC[name]; c != wc || ok != wok {
				t.Fatalf("trial %d: Counter(%q) = %d, %v; want %d, %v", trial, name, c, ok, wc, wok)
			}
			if got := w.Family(name); got != family[name] {
				t.Fatalf("trial %d: Family(%q) = %d, want %d", trial, name, got, family[name])
			}
			h, ok := w.Histogram(name, buf)
			buf = h.Counts
			if len(h.Counts) == 0 {
				h.Counts = nil // written into buf: empty, not nil
			}
			if wh, wok := lastH[name]; ok != wok || !reflect.DeepEqual(h, wh) {
				t.Fatalf("trial %d: Histogram(%q) = %+v, %v; want %+v, %v", trial, name, h, ok, wh, wok)
			}
		}
	}
}
