package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDiffGatesAllocationsNotTime: against a committed run, more
// allocations or more bytes per op fail the gate beyond their slack; any
// amount of extra time per op, and a benchmark on one side only, do not.
func TestDiffGatesAllocationsNotTime(t *testing.T) {
	committed := `BenchmarkA-2  3  1000 ns/op  4096 B/op  100 allocs/op
BenchmarkA-2  3  1500 ns/op  4096 B/op  100 allocs/op
BenchmarkGone-2  3  10 ns/op  0 B/op  0 allocs/op
`
	base, err := parse(strings.NewReader(committed), nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(Output{Current: base})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, fresh, fails string
	}{
		{"a thousand times slower", "BenchmarkA-8  3  1000000 ns/op  4096 B/op  100 allocs/op\n", ""},
		{"within the slack", "BenchmarkA-8  3  900 ns/op  4130 B/op  102 allocs/op\n", ""},
		// The fold takes each column's minimum over the repeats.
		{"one noisy repeat", "BenchmarkA-8  3  900 ns/op  9000 B/op  300 allocs/op\n" +
			"BenchmarkA-8  3  900 ns/op  4096 B/op  100 allocs/op\n", ""},
		{"new benchmark", "BenchmarkNew-8  3  5 ns/op  1 B/op  1 allocs/op\n", ""},
		{"three more allocations", "BenchmarkA-8  3  900 ns/op  4096 B/op  103 allocs/op\n", "1 of 1 benchmarks regressed"},
		{"two percent more bytes", "BenchmarkA-8  3  900 ns/op  4180 B/op  100 allocs/op\n", "1 of 1 benchmarks regressed"},
	} {
		fresh, err := parse(strings.NewReader(c.fresh), nil)
		if err != nil {
			t.Fatal(err)
		}
		err = diffAgainst(io.Discard, fresh, path)
		if c.fails == "" && err != nil {
			t.Errorf("%s: gate failed: %v", c.name, err)
		}
		if c.fails != "" && (err == nil || !strings.Contains(err.Error(), c.fails)) {
			t.Errorf("%s: gate returned %v, want %q", c.name, err, c.fails)
		}
	}
}
