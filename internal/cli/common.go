package cli

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiment"
)

// Common is the typed parser for the flag surface the long-running and
// sweep tools share (-workers, -json, -config). Each tool
// registers only the subset it supports on its FlagSet, parses, then
// calls Validate — one definition of each flag's meaning, defaults and
// error wording instead of three drifting copies across asibench,
// asichaos and asifmd.
type Common struct {
	// Workers sizes the tool's worker pool (0 = GOMAXPROCS).
	Workers int
	// JSON switches stdout to one machine-readable document.
	JSON bool
	// ConfigPath names a JSON daemon-config file ("" = defaults).
	ConfigPath string
}

// RegisterWorkers adds the -workers flag.
func (c *Common) RegisterWorkers(fs *flag.FlagSet) {
	fs.IntVar(&c.Workers, "workers", 0,
		"worker pool size (0 = GOMAXPROCS); output is identical at any setting")
}

// RegisterJSON adds the -json flag.
func (c *Common) RegisterJSON(fs *flag.FlagSet) {
	fs.BoolVar(&c.JSON, "json", false,
		"emit one machine-readable JSON document on stdout")
}

// RegisterConfig adds the -config flag.
func (c *Common) RegisterConfig(fs *flag.FlagSet) {
	fs.StringVar(&c.ConfigPath, "config", "",
		"JSON daemon-config file (unset fields inherit the documented defaults)")
}

// Validate checks the parsed values; errors name the valid range.
func (c *Common) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("bad -workers %d (valid: 0 for GOMAXPROCS, or a positive pool size)", c.Workers)
	}
	return nil
}

// LoadDaemonConfig resolves -config: the strictly-decoded, validated
// file when one was named, the documented defaults otherwise.
func (c *Common) LoadDaemonConfig() (experiment.DaemonConfig, error) {
	if c.ConfigPath == "" {
		return experiment.DefaultDaemonConfig(), nil
	}
	f, err := os.Open(c.ConfigPath)
	if err != nil {
		return experiment.DaemonConfig{}, err
	}
	defer f.Close()
	dc, err := experiment.DecodeDaemonConfig(f)
	if err != nil {
		return experiment.DaemonConfig{}, fmt.Errorf("%s: %w", c.ConfigPath, err)
	}
	return dc, nil
}
