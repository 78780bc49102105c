package cli

import (
	"flag"
	"fmt"
)

// Common is the typed parser for the flag surface the sweep tools share
// (-workers, -json). Each tool registers only the subset it supports on
// its FlagSet, parses, then calls Validate — one definition of each
// flag's meaning, defaults and error wording instead of drifting copies
// in asibench and asichaos.
type Common struct {
	// Workers sizes the tool's worker pool (0 = GOMAXPROCS).
	Workers int
	// JSON switches stdout to one machine-readable document.
	JSON bool
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

// Validate checks the parsed values; errors name the valid range.
func (c *Common) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("bad -workers %d (valid: 0 for GOMAXPROCS, or a positive pool size)", c.Workers)
	}
	return nil
}
