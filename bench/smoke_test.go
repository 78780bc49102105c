package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// Every workload, at the tests' small sizes, untraced and traced: every
// named metric is present, finite and carries its unit; every output
// check passes; no operation fails; and the golden section of the same
// seed is byte-identical between the two runs.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var golden [][]byte
			for _, trace := range []bool{false, true} {
				o := options{workload: w.name, seed: 3, seconds: 0.2, trace: trace, tiny: true, outDir: t.TempDir()}
				out, err := run(o)
				if err != nil {
					t.Fatal(err)
				}
				line := report(out, trace)
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Fatalf("trace=%v: correct %v, %d of %d operations failed: %v", trace, line.Correct, line.Failed, line.Attempted, out.problems)
				}
				defs := metricSet(trace)
				if len(line.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics reported, %d defined", trace, len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := line.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s missing", trace, d.Name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("trace=%v: metric %s = %v", trace, d.Name, m.Value)
					case m.Unit != d.Unit || m.Unit == "":
						t.Errorf("trace=%v: metric %s has unit %q, want %q", trace, d.Name, m.Unit, d.Unit)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want positive", d.Name, m.Value)
					}
				}
				if trace {
					if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+w.name+".json")); err != nil {
						t.Errorf("traced run wrote no span file: %v", err)
					}
					for _, name := range []string{"op_wall_n", "sim.ns_per_event", "sim.events_per_op", "runtime.peak_rss_mb"} {
						if line.Metrics[name].Value <= 0 {
							t.Errorf("per-layer metric %s = %v on every workload should be positive", name, line.Metrics[name].Value)
						}
					}
				}
				if _, err := json.Marshal(line); err != nil {
					t.Errorf("result line does not encode: %v", err)
				}
				golden = append(golden, out.golden.encode())
			}
			if !bytes.Equal(golden[0], golden[1]) {
				t.Errorf("golden section differs between two runs of one seed:\n%s\n%s", golden[0], golden[1])
			}
			if out := golden[0]; bytes.Contains(out, []byte(`"ops":0`)) {
				t.Errorf("golden section is empty: %s", out)
			}
		})
	}
}

// BENCHMARK.json is the contract the driver reads; the tables in
// metrics.go and workloads.go are what the program reports. The file is
// generated from them (bench -contract) and must not drift.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, contract()) {
		t.Errorf("BENCHMARK.json differs from `bench -contract`; regenerate it")
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the contract", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s is used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s missing")
	}
}
