package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestMain lets a test re-execute the test binary as asibench itself.
func TestMain(m *testing.M) {
	if os.Getenv("ASIBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// asibench runs the command with the given flags and returns its stdout.
func asibench(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ASIBENCH_RUN_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("asibench %q: %v", args, err)
	}
	return string(out)
}

// TestSeedsBelowOneExits2: -seeds below 1 would print empty tables; it
// is refused with exit 2 naming the flag, before any experiment runs.
func TestSeedsBelowOneExits2(t *testing.T) {
	for _, seeds := range []string{"0", "-3"} {
		cmd := exec.Command(os.Args[0], "-exp", "fig6", "-seeds", seeds)
		cmd.Env = append(os.Environ(), "ASIBENCH_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-seeds") {
			t.Errorf("asibench -seeds %s: %v, output %q; want exit 2 naming -seeds", seeds, err, out)
		}
	}
}

// TestList: -list prints one line per registered experiment, in order,
// each led by its id.
func TestList(t *testing.T) {
	lines := strings.Split(strings.TrimSuffix(asibench(t, "-list"), "\n"), "\n")
	runners := experiment.Runners()
	if len(lines) != len(runners) {
		t.Fatalf("-list printed %d lines for %d experiments:\n%s", len(lines), len(runners), strings.Join(lines, "\n"))
	}
	for i, r := range runners {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != r.ID {
			t.Errorf("-list line %d is %q, want experiment %s", i+1, lines[i], r.ID)
		}
	}
}

// TestJSONReportDecodes: -exp fig7a -json is one run-report envelope that
// decodes strictly and carries the fig7a table.
func TestJSONReportDecodes(t *testing.T) {
	out := asibench(t, "-exp", "fig7a", "-json")
	rr, err := experiment.DecodeRunReport(strings.NewReader(out))
	if err != nil {
		t.Fatalf("run report does not decode: %v\n%s", err, out)
	}
	if len(rr.Reports) != 1 || rr.Reports[0].ID != "fig7a" || len(rr.Reports[0].Rows) == 0 {
		t.Fatalf("reports %+v, want the one fig7a table", rr.Reports)
	}
}

// TestJSONRepeatsByteForByte: the -json envelope is a function of the
// seeds alone, so two runs print the same bytes; host wall time goes to
// stderr only.
func TestJSONRepeatsByteForByte(t *testing.T) {
	first := asibench(t, "-exp", "fig7a", "-json")
	if second := asibench(t, "-exp", "fig7a", "-json"); second != first {
		a, b := strings.Split(first, "\n"), strings.Split(second, "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("two runs of asibench -exp fig7a -json differ at line %d:\n%s\n%s", i+1, a[i], b[i])
			}
		}
		t.Errorf("two runs of asibench -exp fig7a -json differ in length: %d and %d lines", len(a), len(b))
	}
}
