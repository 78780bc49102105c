package obs_test

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/rib"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// collectNames extracts every metric name from a snapshot.
func collectNames(s telemetry.Snapshot, into map[string]struct{}) {
	for _, c := range s.Counters {
		into[c.Name] = struct{}{}
	}
	for _, g := range s.Gauges {
		into[g.Name] = struct{}{}
	}
	for _, v := range s.Vectors {
		into[v.Name] = struct{}{}
	}
	for _, h := range s.Histograms {
		into[h.Name] = struct{}{}
	}
}

// Every metric name the system registers is part of the observability
// contract: dashboards, alerts and the asitop tool key on them. This
// golden pins the full sorted list; an unintentional rename fails here.
// Refresh deliberately with `go test ./internal/obs -run Golden -update`.
func TestMetricNamesGolden(t *testing.T) {
	names := map[string]struct{}{}

	// A telemetry-enabled run registers the FM, fabric and engine
	// metrics.
	o := experiment.RunConfig(experiment.MustConfig(
		"3x3 mesh", core.Parallel,
		experiment.WithSeed(1),
		experiment.WithTelemetry(),
		experiment.WithChange(experiment.RemoveSwitch),
	))
	if o.Err != nil {
		t.Fatalf("telemetry run failed: %v", o.Err)
	}
	collectNames(*o.Telemetry, names)

	// The serving layer hosts its own deliver-latency histogram.
	names[rib.MetricDeliverLatency] = struct{}{}

	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	got := strings.Join(sorted, "\n") + "\n"

	path := filepath.Join("testdata", "metric_names.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden: %v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("registered metric names drifted from %s:\n got:\n%s\nwant:\n%s\n"+
			"(rename metrics deliberately with -update, and update dashboards)",
			path, got, want)
	}
}
