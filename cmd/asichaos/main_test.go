package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-execute the test binary as asichaos itself.
func TestMain(m *testing.M) {
	if os.Getenv("ASICHAOS_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// asichaos runs the command with the given flags and returns its stdout,
// failing the test on anything but a clean exit.
func asichaos(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ASICHAOS_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("asichaos %q: %v\n%s", args, err, stderr.Bytes())
	}
	return string(out)
}

// TestSweepAllAlgorithms sweeps generated scenarios through every paper
// algorithm (cross-checked topology fingerprints) and the convergence
// oracle: every one must pass.
func TestSweepAllAlgorithms(t *testing.T) {
	out := asichaos(t, "-runs", "25", "-algs", "all")
	if want := "25 scenarios, 0 failures"; !strings.HasPrefix(out, want) {
		t.Errorf("sweep summary %q, want it to start %q", out, want)
	}
}

// TestSweepWorkersDeterministic: the same verbose sweep, per-scenario
// fingerprints included, prints byte-identical output on one worker and
// on eight.
func TestSweepWorkersDeterministic(t *testing.T) {
	one := asichaos(t, "-runs", "16", "-workers", "1", "-v")
	eight := asichaos(t, "-runs", "16", "-workers", "8", "-v")
	if one != eight {
		t.Errorf("-workers 1 printed\n%s\n-workers 8 printed\n%s", one, eight)
	}
	if n := strings.Count("\n"+one, "\nok   "); n != 16 {
		t.Errorf("%d scenario lines, want 16:\n%s", n, one)
	}
}

// TestReplayCorpusScenario replays a committed corpus scenario verbatim:
// it must run to the oracle's verdict and pass it.
func TestReplayCorpusScenario(t *testing.T) {
	out := asichaos(t, "-replay", "../../internal/chaos/testdata/corpus/churn-1.json")
	if !strings.HasSuffix(out, "oracle:         ok\n") {
		t.Errorf("replay printed\n%s\nwant it to end with the oracle's ok", out)
	}
}
