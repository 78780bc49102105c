package experiment

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestConfigValidateRejects(t *testing.T) {
	good := Config{
		Topology: "4x4 mesh", Algorithm: core.Parallel,
		Seed: 9, Change: RemoveSwitch,
		FMFactor: 2, DeviceFactor: 0.5,
		LossRate: 0.01, MaxRetries: 3, RetryBackoff: 10 * sim.Microsecond,
		Telemetry: true, Spans: true,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	base := Config{Topology: "3x3 mesh", Algorithm: core.Parallel}
	with := func(edit func(*Config)) Config {
		c := base
		edit(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  Config
		frag string
	}{
		{"topology", with(func(c *Config) { c.Topology = "17x17 blob" }), "unknown topology"},
		{"algorithm", with(func(c *Config) { c.Algorithm = core.Kind(99) }), "unknown algorithm"},
		{"change", with(func(c *Config) { c.Change = Change(7) }), "unknown change"},
		{"factor", with(func(c *Config) { c.FMFactor, c.DeviceFactor = -1, 1 }), "negative processing factor"},
		{"loss", with(func(c *Config) { c.LossRate = 1.5 }), "loss rate"},
		{"retries", with(func(c *Config) { c.MaxRetries = -1 }), "negative retry limit"},
		{"backoff", with(func(c *Config) { c.MaxRetries, c.RetryBackoff = 1, -sim.Microsecond }), "negative retry backoff"},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
}

// RunConfig with telemetry attaches a snapshot carrying the FM, fabric
// and engine metric families end to end.
func TestRunConfigTelemetrySnapshot(t *testing.T) {
	o := RunConfig(Config{Topology: "3x3 mesh", Algorithm: core.Parallel, Seed: 1, Telemetry: true})
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	s := o.Telemetry
	if s == nil {
		t.Fatal("telemetry enabled but Outcome.Telemetry is nil")
	}
	if h, ok := s.Histogram(core.MetricFMServicePrefix + "completion"); !ok || h.Count == 0 {
		t.Errorf("FM completion histogram missing or empty: %+v", h)
	}
	if v, ok := s.Counter(sim.MetricEvents); !ok || v != o.Events {
		t.Errorf("sim.events = %d (ok=%v), want %d", v, ok, o.Events)
	}
	if d, ok := s.Gauge(sim.MetricHeapMax); !ok || d < 2 {
		t.Errorf("heap high-water = %d (ok=%v), want >= 2", d, ok)
	}
	var linkTx uint64
	for _, v := range s.Vectors {
		if strings.HasPrefix(v.Name, "fabric.link.tx") {
			linkTx += v.Value
		}
	}
	if linkTx == 0 {
		t.Error("no fabric link transmissions in snapshot")
	}
}

// A telemetry-less run must not carry a snapshot.
func TestRunConfigTelemetryOffByDefault(t *testing.T) {
	o := RunConfig(Config{Topology: "3x3 mesh", Algorithm: core.Parallel, Seed: 1})
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	if o.Telemetry != nil {
		t.Fatalf("telemetry disabled but snapshot present: %+v", o.Telemetry)
	}
}
