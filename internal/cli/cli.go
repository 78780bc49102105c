// Package cli holds the flag-value parsers shared by the command-line
// tools (asidisc, asibench, asifmd). Each parser maps the
// stringly-typed flag surface onto the typed simulation API and, on
// failure, returns an error that names every valid value — the
// duplicated ad-hoc switches the tools used to carry drifted out of sync
// with each other.
package cli

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// AlgorithmNames returns the canonical algorithm spellings for help text
// (the core.Kind slugs of every algorithm a standalone tool can run).
func AlgorithmNames() []string {
	return []string{
		core.SerialPacket.Slug(), core.SerialDevice.Slug(),
		core.Parallel.Slug(), core.Partial.Slug(),
	}
}

// Algorithm parses a discovery-algorithm name (aliases: sp, sd, p).
// Distributed is rejected: it needs a multi-FM team the single-manager
// tools cannot assemble.
func Algorithm(s string) (core.Kind, error) {
	want := strings.ToLower(s)
	switch want {
	case "sp":
		return core.SerialPacket, nil
	case "sd":
		return core.SerialDevice, nil
	case "p":
		return core.Parallel, nil
	}
	if k, ok := core.KindBySlug(want); ok && k != core.Distributed {
		return k, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (valid: %s)", s, strings.Join(AlgorithmNames(), ", "))
}

// ChangeNames returns the topological-change spellings for help text.
func ChangeNames() []string { return []string{"none", "remove", "add"} }

// Change parses a topological-change name.
func Change(s string) (experiment.Change, error) {
	switch strings.ToLower(s) {
	case "none":
		return experiment.NoChange, nil
	case "remove":
		return experiment.RemoveSwitch, nil
	case "add":
		return experiment.AddSwitch, nil
	default:
		return 0, fmt.Errorf("unknown change %q (valid: %s)", s, strings.Join(ChangeNames(), ", "))
	}
}

// Topology validates a catalogue or parametric topology name, building
// nothing, and returns it unchanged; the error is topo's (an unknown name
// lists the catalogue and the parametric families, a bad parameter or
// size says why).
func Topology(s string) (string, error) {
	if err := topo.CheckName(s); err != nil {
		return "", err
	}
	return s, nil
}

// Flap parses "link,at_us,dur_us" into a scheduled link flap with a
// non-negative link, start and end inside the simulated time range, and a
// positive duration. Errors name the -flap flag.
func Flap(s string) (fabric.Flap, error) {
	var link int
	var atUS, durUS float64
	// The newline makes Sscanf refuse anything after dur_us.
	_, err := fmt.Sscanf(s+"\n", "%d,%g,%g\n", &link, &atUS, &durUS)
	switch {
	case err != nil:
	case link < 0 || !(atUS >= 0) || !(durUS > 0):
		err = errors.New("negative link or start, or non-positive duration")
	case !((atUS+durUS)*float64(sim.Microsecond) < float64(sim.Never)):
		err = errors.New("ends past the last simulated instant")
	}
	if err != nil {
		return fabric.Flap{}, fmt.Errorf("bad -flap %q (want link,at_us,dur_us): %v", s, err)
	}
	return fabric.Flap{Link: link, At: sim.Time(sim.Micros(atUS)), Duration: sim.Micros(durUS)}, nil
}
