package cli

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestAlgorithm(t *testing.T) {
	cases := map[string]core.Kind{
		"serial-packet": core.SerialPacket,
		"SP":            core.SerialPacket,
		"serial-device": core.SerialDevice,
		"sd":            core.SerialDevice,
		"parallel":      core.Parallel,
		"p":             core.Parallel,
		"Partial":       core.Partial,
	}
	for in, want := range cases {
		got, err := Algorithm(in)
		if err != nil || got != want {
			t.Errorf("Algorithm(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := Algorithm("quantum"); err == nil {
		t.Error("bad algorithm accepted")
	} else if !strings.Contains(err.Error(), "serial-packet") {
		t.Errorf("error %q does not name valid values", err)
	}
}

func TestChange(t *testing.T) {
	cases := map[string]experiment.Change{
		"none": experiment.NoChange, "remove": experiment.RemoveSwitch, "Add": experiment.AddSwitch,
	}
	for in, want := range cases {
		if got, err := Change(in); err != nil || got != want {
			t.Errorf("Change(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := Change("explode"); err == nil {
		t.Error("bad change accepted")
	} else if !strings.Contains(err.Error(), "remove") {
		t.Errorf("error %q does not name valid values", err)
	}
}

func TestTopology(t *testing.T) {
	if got, err := Topology("3x3 mesh"); err != nil || got != "3x3 mesh" {
		t.Errorf("Topology = %q, %v", got, err)
	}
	if _, err := Topology("5d hypercube"); err == nil {
		t.Error("bad topology accepted")
	} else if !strings.Contains(err.Error(), "3x3 mesh") {
		t.Errorf("error %q does not name valid values", err)
	}
	_, err := Topology("17x17 blob")
	if err == nil {
		t.Fatal("bad topology accepted")
	}
	if n := strings.Count(err.Error(), "catalogue"); n != 1 {
		t.Errorf("refusal mentions the catalogue %d times, want once: %v", n, err)
	}
	for _, name := range topo.Names() {
		if n := strings.Count(err.Error(), name); n != 1 {
			t.Errorf("refusal names %q %d times, want once: %v", name, n, err)
		}
	}
}

func TestFlap(t *testing.T) {
	f, err := Flap("3,50,100")
	if err != nil {
		t.Fatal(err)
	}
	if f.Link != 3 || f.At != sim.Time(sim.Micros(50)) || f.Duration != sim.Micros(100) {
		t.Errorf("Flap = %+v", f)
	}
	if f, err := Flap("0, 30, 100"); err != nil || f.Link != 0 || f.At != sim.Time(sim.Micros(30)) {
		t.Errorf("Flap with spaces = %+v, %v", f, err)
	}
	for _, bad := range []string{
		"nope", "", "1,2", "1,2,3,4", "1,2,3junk", "x,2,3", "-1,2,3",
		"1,-5,5", "1,5,-5", "1,5,0",
		"1,NaN,5", "1,5,NaN", "1,Inf,5", "1,5,+Inf", "1,1e30,5", "1,5,1e30", "1,5e12,5e12",
	} {
		_, err := Flap(bad)
		if err == nil {
			t.Errorf("Flap(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "-flap") {
			t.Errorf("Flap(%q): error %q does not name -flap", bad, err)
		}
	}
}
