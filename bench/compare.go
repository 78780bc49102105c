package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// runRecord is one run in a run-set file.
type runRecord struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Trace    bool       `json:"trace"`
	Env      runEnv     `json:"env"`
	Result   resultLine `json:"result"`
}

// runSet is what -all -out writes and -compare reads.
type runSet struct {
	Runs []runRecord `json:"runs"`
}

func loadRunSet(path string) (runSet, error) {
	var rs runSet
	b, err := os.ReadFile(path)
	if err != nil {
		return rs, err
	}
	if err := json.Unmarshal(b, &rs); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// quartiles returns the three cut points of v as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), so spreads
// read the same here and in the driver. v needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the median;
// 0 for fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictMismatch   = "exact-mismatch"
)

// exactPerSeed names the end-to-end metrics that are simulated results:
// for one seed they repeat exactly, so two sides that ran the same seed
// must agree to the last digit.
var exactPerSeed = map[string]bool{"sim_ms_per_op": true}

// judge compares two sides' values of one end-to-end metric. by[seed] is
// only consulted for exactPerSeed metrics.
func judge(d metricDef, a, b []float64, aBySeed, bBySeed map[uint64]float64) string {
	if exactPerSeed[d.Name] {
		for seed, av := range aBySeed {
			if bv, ok := bBySeed[seed]; ok && av != bv {
				return verdictMismatch
			}
		}
	}
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma // relative worsening of B against A
	if d.Better == higher {
		worse = (ma - mb) / ma
	}
	if max(spread(a), spread(b)) > d.Bound && !separated(a, b) {
		return verdictUnresolved
	}
	if worse > d.Bound {
		return verdictRegressed
	}
	return verdictOK
}

// separated reports whether every value of one side lies beyond every
// value of the other.
func separated(a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	return sa[len(sa)-1] < sb[0] || sb[len(sb)-1] < sa[0]
}

// compareFiles prints one row per (workload, metric) and reports whether
// any end-to-end metric regressed or mismatched.
func compareFiles(w io.Writer, pathA, pathB string) (bad bool, err error) {
	a, err := loadRunSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRunSet(pathB)
	if err != nil {
		return false, err
	}
	return compareSets(w, a, b), nil
}

type sideValues struct {
	all    []float64
	bySeed map[uint64]float64
}

func collect(rs runSet, workload string, trace bool, metric string) sideValues {
	sv := sideValues{bySeed: map[uint64]float64{}}
	for _, r := range rs.Runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			sv.all = append(sv.all, m.Value)
			sv.bySeed[r.Seed] = m.Value
		}
	}
	return sv
}

func compareSets(w io.Writer, a, b runSet) (bad bool) {
	names := map[string]bool{}
	for _, r := range append(append([]runRecord(nil), a.Runs...), b.Runs...) {
		names[r.Workload] = true
		if !r.Result.Correct || r.Result.Failed > 0 {
			fmt.Fprintf(w, "%-15s seed %d: run incorrect or with failed operations\n", r.Workload, r.Seed)
			bad = true
		}
	}
	var order []string
	for n := range names {
		order = append(order, n)
	}
	sort.Strings(order)
	fmt.Fprintf(w, "%-15s %-32s %-10s %14s %14s %8s %8s %8s  %s\n",
		"workload", "metric", "unit", "median A", "median B", "change", "spreadA", "spreadB", "verdict")
	for _, wl := range order {
		for _, trace := range []bool{false, true} {
			for _, d := range metricSet(trace) {
				va, vb := collect(a, wl, trace, d.Name), collect(b, wl, trace, d.Name)
				if len(va.all) == 0 || len(vb.all) == 0 {
					continue
				}
				ma, mb := median(va.all), median(vb.all)
				change := 0.0
				if ma != 0 {
					change = (mb - ma) / ma
				}
				verdict := "-" // per-layer metrics carry no bound
				if !trace {
					verdict = judge(d, va.all, vb.all, va.bySeed, vb.bySeed)
					if verdict == verdictRegressed || verdict == verdictMismatch {
						bad = true
					}
				}
				fmt.Fprintf(w, "%-15s %-32s %-10s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%%  %s\n",
					wl, d.Name, d.Unit, ma, mb, change*100, spread(va.all)*100, spread(vb.all)*100, verdict)
			}
		}
	}
	return bad
}
