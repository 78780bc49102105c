package main

import (
	"math"
	"strings"
	"testing"
)

// quartiles must read as Python's statistics.quantiles(v, n=4) does.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 20, 40, 80, 160})
	if q1 != 15 || q2 != 40 || q3 != 120 {
		t.Errorf("quartiles = %v %v %v, want 15 40 120", q1, q2, q3)
	}
	if got := spread([]float64{10, 20, 40, 80, 160}); math.Abs(got-105.0/40) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
	if spread([]float64{3}) != 0 {
		t.Error("one value has no spread")
	}
}

func synthetic(workload string, metric string, values ...float64) runSet {
	var rs runSet
	for i, v := range values {
		line := resultLine{Correct: true, Attempted: 10, Metrics: map[string]reportedMetric{metric: {Value: v}}}
		rs.Runs = append(rs.Runs, runRecord{Workload: workload, Seed: uint64(i + 1), Result: line})
	}
	return rs
}

func TestCompareVerdicts(t *testing.T) {
	cases := []struct {
		name, metric, want string
		a, b               []float64
		bad                bool
	}{
		// ops_per_s: higher is better, bound 0.25.
		{"steady", "ops_per_s", verdictOK, []float64{100, 101, 99, 100, 100}, []float64{99, 100, 101, 100, 98}, false},
		{"slower within the bound", "ops_per_s", verdictOK, []float64{100, 101, 99, 100, 100}, []float64{80, 81, 79, 80, 82}, false},
		{"faster", "ops_per_s", verdictOK, []float64{100, 101, 99, 100, 100}, []float64{150, 151, 149, 150, 152}, false},
		{"slower", "ops_per_s", verdictRegressed, []float64{100, 101, 99, 100, 100}, []float64{60, 61, 59, 60, 62}, true},
		{"noisy", "ops_per_s", verdictUnresolved, []float64{100, 130, 70, 120, 85}, []float64{95, 125, 75, 110, 90}, false},
		// A spread wider than the bound still resolves when every run of
		// one side beats every run of the other.
		{"noisy but apart", "ops_per_s", verdictRegressed, []float64{100, 130, 90, 120, 95}, []float64{40, 60, 45, 55, 50}, true},
		// op_wall_ms_p50: lower is better.
		{"latency up", "op_wall_ms_p50", verdictRegressed, []float64{10, 10.1, 9.9, 10, 10}, []float64{14, 14.1, 13.9, 14, 14}, true},
		{"latency down", "op_wall_ms_p50", verdictOK, []float64{10, 10.1, 9.9, 10, 10}, []float64{8, 8.1, 7.9, 8, 8}, false},
		// A simulated result must repeat exactly for a seed both sides ran.
		{"sim drift", "sim_ms_per_op", verdictMismatch, []float64{5, 5.1, 5.2}, []float64{5, 5.1, 5.2000001}, true},
		{"sim same", "sim_ms_per_op", verdictOK, []float64{5, 5.1, 5.2}, []float64{5, 5.1, 5.2}, false},
	}
	for _, c := range cases {
		var sb strings.Builder
		bad := compareSets(&sb, synthetic("w", c.metric, c.a...), synthetic("w", c.metric, c.b...))
		if bad != c.bad {
			t.Errorf("%s: bad = %v, want %v\n%s", c.name, bad, c.bad, sb.String())
		}
		rows := strings.Split(strings.TrimSpace(sb.String()), "\n")
		last := strings.Fields(rows[len(rows)-1])
		if got := last[len(last)-1]; got != c.want {
			t.Errorf("%s: verdict %q, want %q\n%s", c.name, got, c.want, sb.String())
		}
	}
}

func TestCompareFlagsIncorrectRuns(t *testing.T) {
	a := synthetic("w", "ops_per_s", 100, 100)
	b := synthetic("w", "ops_per_s", 100, 100)
	b.Runs[1].Result.Failed = 1
	var sb strings.Builder
	if !compareSets(&sb, a, b) {
		t.Errorf("a run with failed operations must fail the comparison\n%s", sb.String())
	}
}
