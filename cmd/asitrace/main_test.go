package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/span"
)

// TestMain lets a test re-execute the test binary as asitrace itself.
func TestMain(m *testing.M) {
	if os.Getenv("ASITRACE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// asitrace runs the command with the given arguments and returns its
// stdout and exit code.
func asitrace(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ASITRACE_RUN_MAIN=1")
	out, err := cmd.Output()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	case err != nil:
		t.Fatalf("asitrace %q: %v", args, err)
	}
	return string(out), 0
}

// TestReportMatchesAnalysis: on the Chrome trace of a traced run,
// asitrace prints exactly the span analysis of that run's log — Gantt
// chart, critical path and per-kind breakdown.
func TestReportMatchesAnalysis(t *testing.T) {
	out := experiment.RunConfig(experiment.Config{Topology: "3x3 mesh", Algorithm: core.Parallel, Spans: true})
	if out.Err != nil || out.Spans == nil {
		t.Fatalf("traced run: err %v, spans %v", out.Err, out.Spans)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := span.WriteChrome(fh, *out.Spans); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := span.Analyze(*out.Spans)
	if err != nil {
		t.Fatal(err)
	}
	got, code := asitrace(t, path)
	if want := a.String(); code != 0 || got != want {
		t.Errorf("asitrace exited %d printing\n%s\nwant exit 0 printing\n%s", code, got, want)
	}
}

// TestUsageErrors: no trace file is a usage error (exit 2), a trace file
// that does not exist a run failure (exit 1).
func TestUsageErrors(t *testing.T) {
	if _, code := asitrace(t); code != 2 {
		t.Errorf("asitrace with no argument exited %d, want 2", code)
	}
	if _, code := asitrace(t, filepath.Join(t.TempDir(), "missing.json")); code != 1 {
		t.Errorf("asitrace on a missing file exited %d, want 1", code)
	}
}
