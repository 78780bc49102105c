package telemetry

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := New()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("x") != c {
		t.Error("Counter did not get-or-create")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := New()
	g := r.Gauge("depth")
	g.Set(3)
	g.SetMax(2) // below: ignored
	if g.Value() != 3 {
		t.Errorf("gauge = %d after SetMax(2), want 3", g.Value())
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Errorf("gauge = %d, want 9", g.Value())
	}
	g.Add(-4)
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}
}

func TestCounterVec(t *testing.T) {
	r := New()
	v := r.CounterVec("link.tx", 4)
	v.Inc(0)
	v.Inc(3)
	v.Add(3, 9)
	v.Inc(-1) // ignored
	v.Inc(4)  // ignored
	if v.Value(0) != 1 || v.Value(3) != 10 || v.Value(1) != 0 {
		t.Errorf("vec values = %d,%d,%d", v.Value(0), v.Value(3), v.Value(1))
	}
	// Re-registration with a larger size grows, keeping counts.
	v2 := r.CounterVec("link.tx", 8)
	if v2 != v || v.Len() != 8 || v.Value(3) != 10 {
		t.Errorf("grow lost state: len=%d v[3]=%d", v.Len(), v.Value(3))
	}
}

func TestHistogramBucketsAndStats(t *testing.T) {
	r := New()
	h := r.Histogram("svc", "ps", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 99, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 5125 {
		t.Errorf("count=%d sum=%d", h.Count(), h.Sum())
	}
	snap, ok := r.Snapshot().Histogram("svc")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if want := []uint64{2, 2, 0, 1}; !reflect.DeepEqual(snap.Counts, want) {
		t.Errorf("bucket counts = %v, want %v", snap.Counts, want)
	}
	if snap.Min != 5 || snap.Max != 5000 {
		t.Errorf("min=%d max=%d", snap.Min, snap.Max)
	}
	if snap.Sum != 5125 || snap.Count != 5 {
		t.Errorf("sum=%d count=%d", snap.Sum, snap.Count)
	}
}

func TestHistogramUnsortedBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted bounds accepted")
		}
	}()
	New().Histogram("bad", "", []int64{10, 10})
}

func TestNilRegistryAndNilMetricsAreInert(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	g := r.Gauge("b")
	v := r.CounterVec("c", 4)
	h := r.Histogram("d", "ps", []int64{1})
	if c != nil || g != nil || v != nil || h != nil {
		t.Fatal("nil registry returned non-nil metrics")
	}
	// All observations must be safe no-ops.
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.SetMax(1)
	g.Add(1)
	v.Inc(0)
	v.Add(0, 1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || v.Value(0) != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics reported non-zero values")
	}
	if v.Len() != 0 {
		t.Error("nil vec has length")
	}
	r.Reset()
	if snap := r.Snapshot(); len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

func TestSnapshotDeterministicOrderAndLookups(t *testing.T) {
	r := New()
	r.Counter("zeta").Inc()
	r.Counter("alpha").Add(2)
	r.Gauge("mid").Set(7)
	v := r.CounterVec("vec", 3)
	v.Inc(2)
	s := r.Snapshot()
	if s.Counters[0].Name != "alpha" || s.Counters[1].Name != "zeta" {
		t.Errorf("counters not name-sorted: %+v", s.Counters)
	}
	if got, ok := s.Counter("alpha"); !ok || got != 2 {
		t.Errorf("Counter lookup = %d,%v", got, ok)
	}
	if _, ok := s.Counter("missing"); ok {
		t.Error("missing counter found")
	}
	if got, ok := s.Gauge("mid"); !ok || got != 7 {
		t.Errorf("Gauge lookup = %d,%v", got, ok)
	}
	if _, ok := s.Gauge("missing"); ok {
		t.Error("missing gauge found")
	}
	// Only the non-zero vec slot appears.
	if len(s.Vectors) != 1 || s.Vectors[0].Index != 2 || s.Vectors[0].Value != 1 {
		t.Errorf("vectors = %+v", s.Vectors)
	}
}

func TestResetKeepsRegistrations(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Add(5)
	g := r.Gauge("g")
	g.Set(5)
	v := r.CounterVec("v", 2)
	v.Inc(1)
	h := r.Histogram("h", "ps", []int64{10})
	h.Observe(3)
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || v.Value(1) != 0 || h.Count() != 0 {
		t.Error("reset did not zero metrics")
	}
	if r.Counter("c") != c || r.Histogram("h", "", nil) != h {
		t.Error("reset lost registrations")
	}
	h.Observe(99)
	if snap, _ := r.Snapshot().Histogram("h"); snap.Counts[1] != 1 {
		t.Errorf("post-reset observe landed wrong: %+v", snap)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("fm.retries").Add(3)
	r.Gauge("fm.queue.depth.max").Set(11)
	r.Histogram("fm.service.completion", "ps", []int64{1000, 10000}).Observe(500)
	before := r.Snapshot()
	data, err := json.Marshal(before)
	if err != nil {
		t.Fatal(err)
	}
	var after Snapshot
	if err := json.Unmarshal(data, &after); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("round trip changed snapshot:\nbefore %+v\nafter  %+v", before, after)
	}
}
