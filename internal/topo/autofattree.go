package topo

import (
	"fmt"
	"math"

	"repro/internal/asi"
)

// AutoFatTreeSpec sizes a two-layer fat-tree from a switch port count and
// a required endpoint count, after Solnushkin's "Automated Design of
// Two-Layer Fat-Tree Networks": instead of fixing the geometry up front
// (as the paper's m-port n-trees do), the designer enumerates every
// feasible down/up split of the leaf radix and keeps the cheapest design
// — fewest switches — that still attaches Endpoints hosts within the
// oversubscription budget.
type AutoFatTreeSpec struct {
	// Ports is the switch radix, identical in both layers.
	Ports int
	// Endpoints is the number of hosts the tree must attach.
	Endpoints int
	// Oversub bounds the leaf oversubscription ratio down/up; zero means
	// 1 (non-blocking), the default the automated-design paper optimizes
	// first.
	Oversub float64
}

// Design is a solved two-layer geometry: Leaves edge switches, each with
// Down host ports and Up uplinks (one to each of the Spines spine
// switches, whose ports all face down).
type Design struct {
	Down, Up       int
	Leaves, Spines int
}

// Switches is the design's total switch count, the cost the designer
// minimizes.
func (d Design) Switches() int { return d.Leaves + d.Spines }

// Design solves the spec. It returns an error when the radix is not one
// an ASI switch can have, or when no two-layer tree of this radix can
// attach the required endpoints: the family's capacity is down*Leaves
// with Leaves <= Ports (every spine needs one down port per leaf), which
// tops out at Ports^2/2 hosts for a non-blocking tree.
func (s AutoFatTreeSpec) Design() (Design, error) {
	if s.Ports < 2 || s.Ports > asi.MaxSwitchPorts {
		return Design{}, fmt.Errorf("topo: autofat radix %d must be 2..%d", s.Ports, asi.MaxSwitchPorts)
	}
	if s.Endpoints < 1 {
		return Design{}, fmt.Errorf("topo: autofat needs >= 1 endpoint, have %d", s.Endpoints)
	}
	ov := s.Oversub
	if ov == 0 {
		ov = 1
	}
	if ov < 1 || math.IsNaN(ov) {
		return Design{}, fmt.Errorf("topo: autofat oversubscription %v must be >= 1", ov)
	}
	// Degenerate single-switch "tree": all hosts fit one leaf, no spine
	// layer needed.
	if s.Endpoints <= s.Ports {
		return Design{Down: s.Endpoints, Up: 0, Leaves: 1, Spines: 0}, nil
	}
	var best Design
	found := false
	for down := 1; down < s.Ports; down++ {
		up := int(math.Ceil(float64(down) / ov))
		if down+up > s.Ports {
			continue // split exceeds the leaf radix
		}
		leaves := (s.Endpoints + down - 1) / down
		if leaves > s.Ports {
			continue // spine radix cannot reach every leaf
		}
		d := Design{Down: down, Up: up, Leaves: leaves, Spines: up}
		if !found || d.Switches() < best.Switches() ||
			(d.Switches() == best.Switches() && d.Up > best.Up) {
			best, found = d, true
		}
	}
	if !found {
		return Design{}, fmt.Errorf(
			"topo: no two-layer fat-tree of radix %d attaches %d endpoints at oversubscription <= %g (capacity %d)",
			s.Ports, s.Endpoints, ov, s.Ports*s.Ports/2)
	}
	return best, nil
}

// AutoFatTree builds the spec's solved design. Port layout: a leaf's
// ports 0..Down-1 face hosts (the last leaf may be partially populated),
// ports Down..Down+Up-1 are uplinks (uplink j to spine j); spine ports
// all face down, port l toward leaf l. Endpoints terminate on dedicated
// leaf down ports, which satisfies the EndpointReserve invariant by
// construction. It panics when the spec is infeasible, like the other
// generators do on bad parameters; use Design to probe feasibility.
func AutoFatTree(spec AutoFatTreeSpec) *Topology {
	d, err := spec.Design()
	if err != nil {
		panic(err)
	}
	t := New(fmt.Sprintf("autofat %dx%d", spec.Ports, spec.Endpoints))
	leaves := make([]NodeID, d.Leaves)
	for i := range leaves {
		leaves[i] = t.AddSwitch(spec.Ports, fmt.Sprintf("leaf%d", i))
	}
	spines := make([]NodeID, d.Spines)
	for i := range spines {
		spines[i] = t.AddSwitch(spec.Ports, fmt.Sprintf("spine%d", i))
	}
	for l := range leaves {
		for j := range spines {
			t.mustConnect(leaves[l], d.Down+j, spines[j], l)
		}
	}
	for i := 0; i < spec.Endpoints; i++ {
		ep := t.AddEndpoint(fmt.Sprintf("ep%d", i))
		t.mustConnect(leaves[i/d.Down], i%d.Down, ep, 0)
	}
	if err := t.Validate(); err != nil {
		panic(err) // the solved design is valid by construction
	}
	return t
}
