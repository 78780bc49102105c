// Command benchjson converts `go test -bench` text output into a JSON
// document suitable for machine comparison, while preserving the raw
// benchstat-compatible lines verbatim.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -o BENCH_sim.json
//	benchjson -baseline results/bench_baseline.txt -o BENCH_sim.json < bench.txt
//	go test -run '^$' -bench . -benchmem ./... | benchjson -diff BENCH_sim.json
//
// The -baseline flag parses a second benchmark text file (typically the
// pre-optimization run committed under results/) into a "baseline"
// section of the same shape, so BENCH_sim.json carries before/after
// numbers side by side. With -tee the input text is echoed to stderr as
// it streams, keeping interactive `make bench` output visible.
//
// The -diff flag turns benchjson into a regression gate: the fresh run on
// stdin is compared against the "current" section of a committed
// benchjson document, and the process exits non-zero when any benchmark
// allocates more per op than the committed run — beyond max(2, 0.1%)
// slack for go test's integer rounding and GC-timing artifacts like
// sync.Pool refills; a real hot-path regression allocates per event or
// per packet and lands orders of magnitude past that — or more bytes per
// op, beyond 1% (map growth and size-class rounding move a run's bytes a
// little between repeats; an object that got bigger or a buffer that is
// no longer reused moves them a lot). Both sides fold `-count N` repeats
// by minimum. ns/op is printed next to the committed value and never
// gated: on a shared host it moves more between two runs of one binary
// than any change this gate is meant to catch.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units (sim-s/run, pkts/run,
	// events/s, fm-us/pkt, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Suite is a parsed benchmark run: context lines plus results.
type Suite struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Packages   []string    `json:"packages,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Raw preserves the exact input lines; feeding them back to
	// benchstat reproduces its analysis.
	Raw []string `json:"raw"`
}

// Output is the document benchjson writes.
type Output struct {
	Current  Suite  `json:"current"`
	Baseline *Suite `json:"baseline,omitempty"`
}

func main() {
	baseline := flag.String("baseline", "", "benchmark text file to embed as the before/baseline section")
	out := flag.String("o", "", "output file (default stdout)")
	tee := flag.Bool("tee", false, "echo input lines to stderr while parsing")
	diff := flag.String("diff", "", "committed benchjson document to gate the fresh run on stdin against")
	flag.Parse()

	var echo io.Writer
	if *tee {
		echo = os.Stderr
	}
	cur, err := parse(os.Stdin, echo)
	if err != nil {
		fatal(err)
	}
	if *diff != "" {
		if err := diffAgainst(os.Stdout, cur, *diff); err != nil {
			fatal(err)
		}
		return
	}
	doc := Output{Current: cur}
	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			fatal(err)
		}
		base, err := parse(f, nil)
		f.Close()
		if err != nil {
			fatal(err)
		}
		doc.Baseline = &base
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// allocSlack is the allowed allocs/op increase before the gate fails:
// go test rounds to an integer at tiny b.N, and GC timing perturbs
// sync.Pool refills by a handful of allocations in the macro
// benchmarks. Real hot-path regressions allocate per event or per
// packet and exceed 0.1% of the baseline by orders of magnitude.
func allocSlack(baseline float64) float64 {
	if s := 0.001 * baseline; s > 2 {
		return s
	}
	return 2
}

// bytesSlack is the allowed B/op increase before the gate fails: 1% of
// the baseline, and never less than 64 bytes so a benchmark that
// allocates almost nothing is not failed on one size-class step. Bytes
// are as deterministic as allocation counts, and they are what an
// allocation-lean change buys.
func bytesSlack(baseline float64) float64 {
	if s := 0.01 * baseline; s > 64 {
		return s
	}
	return 64
}

// diffAgainst gates a fresh run against the "current" section of a
// committed benchjson document. An allocs/op increase beyond
// allocSlack or a B/op increase beyond bytesSlack fails (both are
// otherwise deterministic); ns/op is shown, not judged. Benchmarks
// present on only one side are reported but never fail the gate — new
// benchmarks land before their baseline is regenerated. Both sides are
// aggregated by min over repeated results (`go test -count N`) first.
// The per-benchmark table goes to w.
func diffAgainst(w io.Writer, cur Suite, path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc Output
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	base, _ := aggregate(doc.Current.Benchmarks)
	freshByName, order := aggregate(cur.Benchmarks)
	regressions := 0
	compared := 0
	for _, name := range order {
		fresh := freshByName[name]
		prev, ok := base[name]
		if !ok {
			fmt.Fprintf(w, "NEW   %-55s %12.0f ns/op %10.0f B/op %8.0f allocs/op (no committed baseline)\n",
				name, fresh.NsPerOp, fresh.BytesPerOp, fresh.AllocsPerOp)
			continue
		}
		delete(base, name)
		compared++
		status := "ok"
		if fresh.AllocsPerOp > prev.AllocsPerOp+allocSlack(prev.AllocsPerOp) {
			status = fmt.Sprintf("FAIL allocs/op %0.f -> %0.f", prev.AllocsPerOp, fresh.AllocsPerOp)
			regressions++
		} else if fresh.BytesPerOp > prev.BytesPerOp+bytesSlack(prev.BytesPerOp) {
			status = fmt.Sprintf("FAIL B/op %0.f -> %0.f (%+.1f%%)", prev.BytesPerOp, fresh.BytesPerOp,
				100*(fresh.BytesPerOp/prev.BytesPerOp-1))
			regressions++
		}
		fmt.Fprintf(w, "%-5s %-55s %12.0f ns/op (was %12.0f) %10.0f B/op (was %10.0f) %6.0f allocs/op (was %6.0f)\n",
			strings.Fields(status)[0], name, fresh.NsPerOp, prev.NsPerOp,
			fresh.BytesPerOp, prev.BytesPerOp, fresh.AllocsPerOp, prev.AllocsPerOp)
		if strings.HasPrefix(status, "FAIL") {
			fmt.Fprintf(w, "      ^ %s\n", status)
		}
	}
	for name := range base {
		fmt.Fprintf(w, "GONE  %-55s (in %s but not in this run)\n", name, path)
	}
	if regressions > 0 {
		return fmt.Errorf("%d of %d benchmarks regressed vs %s", regressions, compared, path)
	}
	fmt.Fprintf(w, "bench-diff: %d benchmarks within gate (allocs/op +max(2, 0.1%%), B/op +max(64, 1%%); ns/op not gated)\n", compared)
	return nil
}

// aggregate folds repeated results for the same (normalized) benchmark
// name into one entry holding the minimum ns/op, B/op and allocs/op
// observed, returning the fold and first-seen name order for stable
// output.
func aggregate(benchmarks []Benchmark) (map[string]Benchmark, []string) {
	agg := make(map[string]Benchmark, len(benchmarks))
	var order []string
	for _, bm := range benchmarks {
		name := normalizeName(bm.Name)
		prev, seen := agg[name]
		if !seen {
			order = append(order, name)
			agg[name] = bm
			continue
		}
		if bm.NsPerOp < prev.NsPerOp {
			prev.NsPerOp = bm.NsPerOp
		}
		if bm.AllocsPerOp < prev.AllocsPerOp {
			prev.AllocsPerOp = bm.AllocsPerOp
		}
		if bm.BytesPerOp < prev.BytesPerOp {
			prev.BytesPerOp = bm.BytesPerOp
		}
		agg[name] = prev
	}
	return agg, order
}

// normalizeName strips the -GOMAXPROCS suffix so runs from machines with
// different core counts compare by benchmark identity.
func normalizeName(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// parse reads `go test -bench` output. Unrecognized lines (PASS, ok,
// FAIL, test logs) are kept in Raw but produce no Benchmark entry.
func parse(r io.Reader, echo io.Writer) (Suite, error) {
	var s Suite
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		s.Raw = append(s.Raw, line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			s.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			s.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			s.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			s.Packages = append(s.Packages, strings.TrimSpace(strings.TrimPrefix(line, "pkg:")))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseResult(line); ok {
				s.Benchmarks = append(s.Benchmarks, b)
			}
		}
	}
	return s, sc.Err()
}

// parseResult decodes one result line:
//
//	BenchmarkName-8   100   123 ns/op   45 B/op   6 allocs/op   7.8 sim-s/run
func parseResult(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Runs: runs}
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}
