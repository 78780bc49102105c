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

	"repro/internal/core"
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

// refusedWith2 runs asidisc with args and requires a usage refusal: exit
// 2, no panic (which also exits 2), and an error naming the flag.
func refusedWith2(t *testing.T, flag string, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ASIDISC_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || strings.Contains(string(out), "panic") || !strings.Contains(string(out), flag) {
		t.Errorf("asidisc %q: %v, output %q; want exit 2 naming %s", args, err, out, flag)
	}
}

// TestLossOutOfRangeExits2: a uniform loss outside [0, 1], NaN included,
// is a usage error, refused by Config.Validate before any run.
func TestLossOutOfRangeExits2(t *testing.T) {
	for _, loss := range []string{"5", "-0.1", "NaN"} {
		refusedWith2(t, "loss rate", "-loss", loss)
	}
}

// TestBadFlagValuesExit2: a processing factor that is not finite and
// non-negative, a retry limit past the FM's 255, a -flap the engine
// cannot schedule (or with trailing input) and a retry backoff that is
// negative, not finite or whose 8x cap would pass the last simulated
// instant are refused before any run.
func TestBadFlagValuesExit2(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-fm-factor", "NaN"},
		{"-fm-factor", "Inf"},
		{"-dev-factor", "NaN"},
		{"-dev-factor", "-1"},
		{"-retries", "100000"},
		{"-retries", "-1"},
		{"-flap", "1,-5,5"},
		{"-flap", "1,NaN,5"},
		{"-flap", "1,1e30,5"},
		{"-flap", "1,2,3junk"},
		{"-flap", "1,2,3,4"},
		{"-retry-backoff", "-1"},
		{"-retry-backoff", "1e30"},
		{"-retry-backoff", "Inf"},
		{"-retry-backoff", "NaN"},
		{"-retry-backoff", "2e12"},
	} {
		refusedWith2(t, tc.flag, "-topo", "3x3 mesh", "-loss", "1e-2", "-retries", "3", tc.flag, tc.value)
	}
}

// report decodes a -json run report against the run-report schema:
// unknown fields or a wrong schema version fail it.
func report(t *testing.T, out string) experiment.RunReport {
	t.Helper()
	rr, err := experiment.DecodeRunReport(strings.NewReader(out))
	if err != nil {
		t.Fatalf("run report does not decode: %v\n%s", err, out)
	}
	return rr
}

// TestJSONReportsDecode: the run report of a telemetry run decodes
// strictly and carries the snapshot. The report has no span log, so
// -json with -spans or -trace is refused rather than tracing for nothing:
// -spans-out saves the trace.
func TestJSONReportsDecode(t *testing.T) {
	rr := report(t, asidisc(t, "-topo", "3x3 mesh", "-alg", "parallel", "-telemetry", "-json"))
	if rr.Result == nil || rr.Telemetry == nil || len(rr.Telemetry.Histograms) == 0 {
		t.Errorf("-telemetry -json report has result %v and telemetry %v, want both with histograms", rr.Result, rr.Telemetry)
	}
	refusedWith2(t, "-spans-out", "-topo", "3x3 mesh", "-spans", "-json")
	refusedWith2(t, "-spans-out", "-topo", "3x3 mesh", "-trace", "5", "-json")
	refusedWith2(t, "-spans-out", "-topo", "3x3 mesh", "-timeline", "-json")
}

// TestTimeline: -timeline, read from the run's span log, prints one
// instant per packet the measured run processed, in order; after a
// change, the instants of every run the change triggered.
func TestTimeline(t *testing.T) {
	for _, args := range [][]string{
		{"-alg", "serial-device"},
		{"-alg", "partial", "-change", "remove"},
	} {
		out := asidisc(t, append([]string{"-topo", "3x3 mesh", "-timeline"}, args...)...)
		var packets int
		for _, l := range strings.Split(out, "\n") {
			if rest, ok := strings.CutPrefix(l, "avg FM proc:"); ok {
				fmt.Sscanf(rest[strings.Index(rest, "over")+len("over"):], "%d", &packets)
			}
		}
		_, tl, ok := strings.Cut(out, "\npacket#  processed-at (s)\n")
		if !ok {
			t.Fatalf("%q: no timeline in output:\n%s", args, out)
		}
		lines := strings.Split(strings.TrimSuffix(tl, "\n"), "\n")
		if packets == 0 || len(lines) != packets {
			t.Errorf("%q: %d timeline lines for %d processed packets", args, len(lines), packets)
		}
		prev := -1.0
		for i, l := range lines {
			var n int
			var at float64
			if _, err := fmt.Sscanf(l, "%d %f", &n, &at); err != nil || n != i+1 || at < prev {
				t.Fatalf("%q: timeline line %d is %q after %v s", args, i+1, l, prev)
			}
			prev = at
		}
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

// tracedRun is the in-process run the span tests compare the command
// with: the 3x3 mesh under Parallel, traced.
func tracedRun(t *testing.T, change experiment.Change) span.Log {
	t.Helper()
	out := experiment.RunConfig(experiment.Config{Topology: "3x3 mesh", Algorithm: core.Parallel, Seed: 1, Change: change, Spans: true})
	if out.Err != nil || out.Spans == nil {
		t.Fatalf("traced run: err %v, spans %v", out.Err, out.Spans)
	}
	return *out.Spans
}

// TestSpansOutReadsBack: the Chrome trace-event file -spans-out writes
// reads back through span.ReadChrome, the loader -spans-in uses, to the
// span log of the same run made in process.
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
	if want := tracedRun(t, experiment.NoChange); !reflect.DeepEqual(got, want) {
		t.Errorf("-spans-out read back %d spans (dropped %d), the run has %d (dropped %d), and they differ",
			len(got.Spans), got.Dropped, len(want.Spans), want.Dropped)
	}
}

// TestSpansIn: -spans-in on the file -spans-out wrote prints exactly the
// span report of the run's log, which is the block -spans prints under
// "causal spans:", with no change and after a switch removal.
func TestSpansIn(t *testing.T) {
	for _, change := range []experiment.Change{experiment.NoChange, experiment.RemoveSwitch} {
		a, err := span.Analyze(tracedRun(t, change))
		if err != nil {
			t.Fatal(err)
		}
		want := a.String()
		args := []string{"-topo", "3x3 mesh", "-alg", "parallel", "-change", change.String()}
		path := filepath.Join(t.TempDir(), "spans.json")
		asidisc(t, append(args, "-spans-out", path)...)
		if got := asidisc(t, "-spans-in", path); got != want {
			t.Errorf("-change %v: -spans-in printed\n%s\nwant\n%s", change, got, want)
		}
		if _, block, _ := strings.Cut(asidisc(t, append(args, "-spans")...), "\ncausal spans:\n"); block != want {
			t.Errorf("-change %v: -spans printed under \"causal spans:\"\n%s\nwant\n%s", change, block, want)
		}
	}
}

// TestSpansInMissingFileExits1: a trace file that does not exist is a
// run failure, exit 1.
func TestSpansInMissingFileExits1(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-spans-in", filepath.Join(t.TempDir(), "missing.json"))
	cmd.Env = append(os.Environ(), "ASIDISC_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "missing.json") {
		t.Errorf("asidisc -spans-in on a missing file: %v, output %q; want exit 1 naming the file", err, out)
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
