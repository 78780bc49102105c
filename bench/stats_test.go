package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it; below 40 samples none of the candidates qualifies.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestTailMetricsCarryTheSampleCount(t *testing.T) {
	m := map[string]float64{}
	tailMetrics(m, seq(250))
	want := map[string]float64{"op_wall_n": 250, "op_wall_ms_p95": 238, "op_wall_tail_pct": 95, "op_wall_ms_tail": 238}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

// A failed or timed-out operation is recorded at the timeout, so it
// misses every latency percentile however quickly it failed.
func TestFailedOperationCountsAtTheTimeout(t *testing.T) {
	var l opLatencies
	for i := 0; i < 9; i++ {
		l.add(time.Millisecond, true)
	}
	l.add(10*time.Microsecond, false)
	if l.failed != 1 || len(l.ms) != 10 {
		t.Fatalf("failed %d of %d, want 1 of 10", l.failed, len(l.ms))
	}
	if got, want := quantile(l.ms, 1), ms(opTimeout); got != want {
		t.Errorf("slowest recorded latency %v ms, want the timeout %v ms", got, want)
	}
	if got := median(l.ms); got != 1 {
		t.Errorf("median %v ms, want 1", got)
	}
}
