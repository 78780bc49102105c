package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/span"
	"repro/internal/topo"
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

// TestLossOutOfRangeExits2: a uniform loss outside [0, 1] is a usage
// error, refused by Config.Validate before any run.
func TestLossOutOfRangeExits2(t *testing.T) {
	for _, loss := range []string{"5", "-0.1"} {
		cmd := exec.Command(os.Args[0], "-loss", loss)
		cmd.Env = append(os.Environ(), "ASIDISC_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "loss rate") {
			t.Errorf("asidisc -loss %s: %v, output %q; want exit 2 naming the loss rate", loss, err, out)
		}
	}
}

// report decodes a -json run report against the run-report schema:
// unknown fields, a wrong schema version or a malformed span log fail it.
func report(t *testing.T, out string) experiment.RunReport {
	t.Helper()
	rr, err := experiment.DecodeRunReport(strings.NewReader(out))
	if err != nil {
		t.Fatalf("run report does not decode: %v\n%s", err, out)
	}
	return rr
}

// TestJSONReportsDecode: the run report of a telemetry run and of a traced
// run decode strictly, each carrying the section its flag adds.
func TestJSONReportsDecode(t *testing.T) {
	rr := report(t, asidisc(t, "-topo", "3x3 mesh", "-alg", "parallel", "-telemetry", "-json"))
	if rr.Result == nil || rr.Telemetry == nil || len(rr.Telemetry.Histograms) == 0 {
		t.Errorf("-telemetry -json report has result %v and telemetry %v, want both with histograms", rr.Result, rr.Telemetry)
	}
	rr = report(t, asidisc(t, "-topo", "3x3 mesh", "-alg", "parallel", "-spans", "-json"))
	if rr.Result == nil || rr.Spans == nil || len(rr.Spans.Spans) == 0 {
		t.Errorf("-spans -json report has result %v and spans %v, want both with spans", rr.Result, rr.Spans)
	}
}

// TestTelemetryJSONRepeatsByteForByte: a telemetry run's report is a
// function of its seed, snapshot included, so two runs print the same
// bytes.
func TestTelemetryJSONRepeatsByteForByte(t *testing.T) {
	args := []string{"-topo", "3x3 mesh", "-alg", "parallel", "-change", "remove", "-telemetry", "-json"}
	first := asidisc(t, args...)
	if second := asidisc(t, args...); second != first {
		a, b := strings.Split(first, "\n"), strings.Split(second, "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("two runs of asidisc %q differ at line %d:\n%s\n%s", args, i+1, a[i], b[i])
			}
		}
		t.Errorf("two runs of asidisc %q differ in length: %d and %d lines", args, len(a), len(b))
	}
}

// TestSpansOutReadsBack: the Chrome trace-event file -spans-out writes
// reads back through span.ReadChrome, the loader asitrace uses, to the
// same span log the -spans -json report carries.
func TestSpansOutReadsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	asidisc(t, "-topo", "3x3 mesh", "-alg", "parallel", "-spans-out", path)
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	got, err := span.ReadChrome(fh)
	if err != nil {
		t.Fatalf("ReadChrome: %v", err)
	}
	want := report(t, asidisc(t, "-topo", "3x3 mesh", "-alg", "parallel", "-spans", "-json")).Spans
	if want == nil {
		t.Fatal("-spans -json report has no span log")
	}
	if !reflect.DeepEqual(got, *want) {
		t.Errorf("-spans-out read back %d spans (dropped %d), -spans -json has %d (dropped %d), and they differ",
			len(got.Spans), got.Dropped, len(want.Spans), want.Dropped)
	}
}

// TestList: -list prints every catalogue topology exactly once, each on
// a row of its own with its device counts.
func TestList(t *testing.T) {
	out := asidisc(t, "-list")
	rows := map[string]int{}
	for _, l := range strings.Split(out, "\n") {
		for _, s := range topo.Catalogue() {
			if strings.HasPrefix(l, s.Name+" ") {
				rows[s.Name]++
				if want := fmt.Sprintf("%-16s %9d %10d %7d", s.Name, s.Switches, s.Endpoints, s.Total()); l != want {
					t.Errorf("-list row %q, want %q", l, want)
				}
			}
		}
	}
	for _, name := range topo.Names() {
		if rows[name] != 1 || strings.Count(out, name) != 1 {
			t.Errorf("-list names %q %d times (%d rows), want once", name, strings.Count(out, name), rows[name])
		}
	}
	if !strings.Contains(out, `"dragonfly KxM"`) {
		t.Errorf("-list does not name the parametric families:\n%s", out)
	}
}

// TestDescribe pins -describe, the topology summary that runs nothing:
// counts, switch degree distribution and every link of the 3x3 mesh
// (testdata/describe-3x3-mesh.txt). A bad name exits 2.
func TestDescribe(t *testing.T) {
	golden, err := os.ReadFile("testdata/describe-3x3-mesh.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := asidisc(t, "-describe", "-topo", "3x3 mesh"); got != string(golden) {
		t.Errorf("-describe -topo \"3x3 mesh\":\n%s\nwant:\n%s", got, golden)
	}
	cmd := exec.Command(os.Args[0], "-describe", "-topo", "17x17 blob")
	cmd.Env = append(os.Environ(), "ASIDISC_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "unknown topology") {
		t.Errorf("asidisc -describe -topo \"17x17 blob\": %v, output %q; want exit 2 naming the unknown topology", err, out)
	}
}
