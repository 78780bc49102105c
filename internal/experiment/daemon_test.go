package experiment

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestDaemonConfigDefaultsValid(t *testing.T) {
	dc := DefaultDaemonConfig()
	if err := dc.Validate(); err != nil {
		t.Fatal(err)
	}
	if dc.Kind() != core.Parallel {
		t.Errorf("default algorithm %v", dc.Kind())
	}
}

func TestDaemonConfigRoundTrip(t *testing.T) {
	dc := DaemonConfig{
		Topology: "4x4 mesh", Algorithm: "partial", Seed: 7,
		ChurnOps: 2, Rounds: 5, AuditEvery: 3, QueueDepth: 16, Listen: ":9000",
		ScrapeMS: 250, AssimWindowUS: 200, StaleAfterMS: 2,
	}
	back, err := DecodeDaemonConfig(bytes.NewReader(dc.EncodeJSON()))
	if err != nil {
		t.Fatal(err)
	}
	if back != dc {
		t.Errorf("round trip drifted: %+v from %+v", back, dc)
	}
	if back.Kind() != core.Partial {
		t.Errorf("algorithm resolved to %v", back.Kind())
	}
}

// A partial document inherits the documented defaults.
func TestDecodeDaemonConfigAppliesDefaults(t *testing.T) {
	dc, err := DecodeDaemonConfig(strings.NewReader(`{"topology": "3x3 mesh"}`))
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultDaemonConfig()
	if dc.Algorithm != def.Algorithm || dc.ChurnOps != def.ChurnOps || dc.Listen != def.Listen {
		t.Errorf("defaults not applied: %+v", dc)
	}
}

func TestDaemonConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*DaemonConfig)
		frag string
	}{
		{"no topology", func(c *DaemonConfig) { c.Topology = "" }, "catalogue"},
		{"bad topology", func(c *DaemonConfig) { c.Topology = "17x17 blob" }, "unknown topology"},
		{"bad algorithm", func(c *DaemonConfig) { c.Algorithm = "magic" }, "valid: serial-packet"},
		{"distributed", func(c *DaemonConfig) { c.Algorithm = "distributed" }, "valid:"},
		{"churn ops", func(c *DaemonConfig) { c.ChurnOps = -1 }, "churn_ops"},
		{"rounds", func(c *DaemonConfig) { c.Rounds = -1 }, "rounds"},
		{"audit", func(c *DaemonConfig) { c.AuditEvery = -2 }, "audit_every"},
		{"queue", func(c *DaemonConfig) { c.QueueDepth = -3 }, "queue_depth"},
		{"scrape", func(c *DaemonConfig) { c.ScrapeMS = -1 }, "scrape_ms"},
		{"assim window negative", func(c *DaemonConfig) { c.AssimWindowUS = -1 }, "assim_window_us"},
		{"assim window non-partial", func(c *DaemonConfig) { c.AssimWindowUS = 200 }, "requires algorithm"},
		{"stale after", func(c *DaemonConfig) { c.StaleAfterMS = -1 }, "stale_after_ms"},
	}
	for _, tc := range cases {
		dc := DefaultDaemonConfig()
		tc.mut(&dc)
		err := dc.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
	// An unknown key fails loudly, naming the key. assim_batch_max is one:
	// the coalescing cap is a constant.
	for _, key := range []string{"bogus", "assim_batch_max"} {
		doc := `{"topology":"3x3 mesh","algorithm":"partial","assim_window_us":200,"` + key + `":1}`
		_, err := DecodeDaemonConfig(strings.NewReader(doc))
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+key+`"`) {
			t.Errorf("%s: error %v, want the unknown-field error naming it", key, err)
		}
	}
}
