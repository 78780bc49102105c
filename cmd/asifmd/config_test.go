package main

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// defaults is the documented config of a command line with no flags.
var defaults = config{
	topology: "8-port 3-tree", alg: core.Parallel, seed: 1, listen: ":8080",
	churnOps: 4, auditEvery: 8, scrapeMS: 1000, interval: time.Second,
}

// With no flags, the parser yields the documented defaults, and they
// pass validation.
func TestParseFlagsDefaultsValid(t *testing.T) {
	c, err := parseFlags(io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c != defaults {
		t.Errorf("defaults %+v, want %+v", c, defaults)
	}
	if err := c.validate(); err != nil {
		t.Errorf("defaults refused: %v", err)
	}
}

// A command line that sets one flag inherits the defaults for the rest.
func TestParseFlagsAppliesDefaults(t *testing.T) {
	c, err := parseFlags(io.Discard, []string{"-topo", "3x3 mesh"})
	if err != nil {
		t.Fatal(err)
	}
	want := defaults
	want.topology = "3x3 mesh"
	if c != want {
		t.Errorf("parsed %+v, want %+v", c, want)
	}
}

// Each of the twelve flags reaches its own field.
func TestParseFlagsSetsEveryFlag(t *testing.T) {
	c, err := parseFlags(io.Discard, []string{
		"-topo", "4x4 mesh", "-alg", "partial", "-seed", "7", "-listen", ":9000",
		"-rounds", "5", "-churn-ops", "2", "-audit-every", "3", "-stale-after-ms", "2",
		"-assim-window-us", "200", "-scrape-ms", "250", "-interval", "250ms", "-debug", ":6060",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := config{
		topology: "4x4 mesh", alg: core.Partial, seed: 7, listen: ":9000",
		rounds: 5, churnOps: 2, auditEvery: 3, staleAfterMS: 2,
		assimWindowUS: 200, scrapeMS: 250, interval: 250 * time.Millisecond, debug: ":6060",
	}
	if c != want {
		t.Errorf("parsed %+v, want %+v", c, want)
	}
	// An explicit zero is a value, not "unset": churn off, no audits.
	if c, err := parseFlags(io.Discard, []string{"-churn-ops", "0", "-audit-every", "0", "-seed", "0"}); err != nil ||
		c.churnOps != 0 || c.auditEvery != 0 || c.seed != 0 {
		t.Errorf("explicit zeros: %+v, %v", c, err)
	}
}

// Every refusal names its flag and, where there are few, the valid values.
func TestParseFlagsRefusals(t *testing.T) {
	for _, tc := range []struct {
		args []string
		frag string
	}{
		{[]string{"-topo", ""}, "-topo"},
		{[]string{"-topo", "17x17 blob"}, "catalogue"},
		{[]string{"-alg", "magic"}, "valid: serial-packet"},
		{[]string{"-alg", "distributed"}, "-alg"},
		{[]string{"-rounds", "-1"}, "-rounds"},
		{[]string{"-churn-ops", "-1"}, "-churn-ops"},
		{[]string{"-audit-every", "-2"}, "-audit-every"},
		{[]string{"-stale-after-ms", "-1"}, "-stale-after-ms"},
		{[]string{"-alg", "partial", "-assim-window-us", "-1"}, "-assim-window-us"},
		{[]string{"-assim-window-us", "200"}, "requires -alg partial"},
		{[]string{"-scrape-ms", "-1"}, "-scrape-ms"},
		{[]string{"-scrape-ms", "0"}, "-scrape-ms"},
		{[]string{"-interval", "0"}, "-interval"},
		{[]string{"-interval", "-1s"}, "-interval"},
		{[]string{"-config", "daemon.json"}, "-config"},
		{[]string{"-queue-depth", "16"}, "-queue-depth"},
	} {
		var out strings.Builder
		_, err := parseFlags(&out, tc.args)
		if err == nil {
			t.Errorf("%q: accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) || !strings.Contains(out.String(), tc.frag) {
			t.Errorf("%q: error %q (reported %q) does not mention %q", tc.args, err, out.String(), tc.frag)
		}
	}
}
