package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-execute the test binary as asidisc itself.
func TestMain(m *testing.M) {
	if os.Getenv("ASIDISC_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// asidisc runs the command with the given flags and returns its output.
func asidisc(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ASIDISC_RUN_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("asidisc %q: %v", args, err)
	}
	return string(out)
}

// traceLines returns the lines after the "fabric trace:" heading.
func traceLines(t *testing.T, out string) []string {
	t.Helper()
	_, trace, ok := strings.Cut(out, "\nfabric trace:\n")
	if !ok {
		t.Fatalf("no fabric trace in output:\n%s", out)
	}
	return strings.Split(strings.TrimSuffix(trace, "\n"), "\n")
}

// TestTraceView pins -trace, the packet view over the span log, to the
// output of the packet recorder it replaced: the per-kind counts of a
// whole removal run, and the first 20 lines and the truncation notice of
// a capped one (testdata/trace-remove-head20.txt).
func TestTraceView(t *testing.T) {
	counts := map[string]int{}
	for _, l := range traceLines(t, asidisc(t, "-topo", "3x3 mesh", "-change", "remove", "-trace", "100000")) {
		counts[strings.Fields(l)[1]]++
	}
	want := map[string]int{"inject": 343, "tx": 2170, "deliver": 687, "drop": 2}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("%s events = %d, want %d (all counts %v)", k, counts[k], n, counts)
		}
	}
	if len(counts) != len(want) {
		t.Errorf("event kinds %v, want %v", counts, want)
	}

	lines := traceLines(t, asidisc(t, "-topo", "3x3 mesh", "-change", "remove", "-trace", "40"))
	golden, err := os.ReadFile("testdata/trace-remove-head20.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(lines[:20], "\n") + "\n"; got != string(golden) {
		t.Errorf("first 20 trace lines:\n%s\nwant:\n%s", got, golden)
	}
	tail := lines[len(lines)-2:]
	if len(lines) != 42 ||
		tail[0] != "... 3162 further events not recorded (buffer cap 40)" ||
		tail[1] != "trace truncated: 3162 events dropped (raise -trace beyond 40)" {
		t.Errorf("%d trace lines ending %q", len(lines), tail)
	}
}
