package chaos

import (
	"fmt"

	"repro/internal/asi"
	"repro/internal/core"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Profile shapes what Generate produces. Profiles trade breadth for
// focus: quick random fabrics for smoke runs, the paper's Table 1
// catalogue, lossy fabrics exercising the retry machinery, and tight
// churn bursts landing mid-assimilation.
type Profile struct {
	Name string
	// Fixed pins the topology to one catalogue entry; Catalogue draws one
	// at random; Family draws a random instance of one parametric
	// generator family ("dragonfly" or "autofat"); otherwise a random
	// connected topology of up to MaxSwitches switches with up to
	// MaxExtra extra links is generated.
	Fixed       string
	Catalogue   bool
	Family      string
	MaxSwitches int
	MaxExtra    int
	// Algorithms is the pool the scenario's algorithm is drawn from.
	Algorithms []core.Kind
	// MaxEvents bounds the perturbation script length (>= 1 event).
	MaxEvents int
	// Lossy adds probabilistic loss plus a retry budget; Churn clusters
	// event times within a few microseconds so later events land while
	// the assimilation of earlier ones is still in flight.
	Lossy bool
	Churn bool
}

// Profiles returns the built-in generation profiles.
func Profiles() []Profile {
	paperAlgs := core.PaperKinds()
	return []Profile{
		{Name: "quick", MaxSwitches: 10, MaxExtra: 8, Algorithms: paperAlgs, MaxEvents: 4},
		{Name: "paper", Catalogue: true, Algorithms: paperAlgs, MaxEvents: 3},
		{Name: "lossy", MaxSwitches: 8, MaxExtra: 6, Algorithms: paperAlgs, MaxEvents: 3, Lossy: true},
		{Name: "churn", MaxSwitches: 10, MaxExtra: 8, Algorithms: paperAlgs, MaxEvents: 6, Churn: true},
		{Name: "dragonfly", Family: "dragonfly", MaxSwitches: 60, Algorithms: paperAlgs, MaxEvents: 4},
		{Name: "autofat", Family: "autofat", Algorithms: paperAlgs, MaxEvents: 4},
	}
}

// ProfileByName resolves a built-in profile.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// ProfileNames lists the built-in profile names.
func ProfileNames() []string {
	var out []string
	for _, p := range Profiles() {
		out = append(out, p.Name)
	}
	return out
}

// Generate derives one scenario from (seed, profile), deterministically:
// the same pair always yields the byte-identical scenario. The
// generation RNG is separate from the scenario's own execution seed so
// that regenerating a scenario never perturbs its replay.
func Generate(seed uint64, p Profile) Scenario {
	rng := sim.NewRNG(seed*0x9e3779b97f4a7c15 + hashString(p.Name))
	sc := Scenario{
		Name: fmt.Sprintf("%s-%d", p.Name, seed),
		Seed: seed,
	}
	switch {
	case p.Fixed != "":
		sc.Topology.Catalogue = p.Fixed
	case p.Catalogue:
		names := topo.Names()
		sc.Topology.Catalogue = names[rng.Intn(len(names))]
	case p.Family != "":
		sc.Topology.Catalogue = generateFamily(rng, p)
	default:
		maxSw := p.MaxSwitches
		if maxSw < 3 {
			maxSw = 3
		}
		sc.Topology.Switches = 3 + rng.Intn(maxSw-2)
		sc.Topology.ExtraLinks = rng.Intn(p.MaxExtra + 1)
		sc.Topology.Seed = rng.Uint64()
	}
	algs := p.Algorithms
	if len(algs) == 0 {
		algs = core.PaperKinds()
	}
	sc.Algorithm = algs[rng.Intn(len(algs))].Slug()
	if p.Lossy {
		losses := []float64{0.001, 0.002, 0.005, 0.01, 0.02}
		sc.Loss = losses[rng.Intn(len(losses))]
		sc.MaxRetries = 2 + rng.Intn(3)
		sc.BackoffUS = float64(50 * (1 + rng.Intn(4)))
	}
	sc.Events = generateEvents(rng, sc.Topology, p)
	return sc
}

// generateFamily draws one parametric instance of a generator family as
// a catalogue name — topo.ByName resolves these through ParseName, so
// the scenario JSON stays a plain string and replays without the profile.
func generateFamily(rng *sim.RNG, p Profile) string {
	switch p.Family {
	case "dragonfly":
		maxSw := p.MaxSwitches
		if maxSw < 8 {
			maxSw = 8
		}
		k := 3 + rng.Intn(4) // group size 3..6
		maxM := maxSw / k
		if maxM < 2 {
			maxM = 2
		}
		m := 2 + rng.Intn(maxM-1)
		return fmt.Sprintf("dragonfly %dx%d", k, m)
	case "autofat":
		radixes := []int{8, 12, 16}
		ports := radixes[rng.Intn(len(radixes))]
		// Two-layer designs exist from ports+1 hosts (below that the
		// designer degenerates to a single switch) up to ports^2/2.
		capacity := ports * ports / 2
		eps := ports + 1 + rng.Intn(capacity-ports)
		return fmt.Sprintf("autofat %dx%d", ports, eps)
	default:
		panic(fmt.Sprintf("chaos: unknown generator family %q", p.Family))
	}
}

// generateEvents scripts 1..MaxEvents valid perturbations against the
// scenario's topology: hot removals and re-additions of non-host
// switches (correctly alternating per node) and link flaps.
func generateEvents(rng *sim.RNG, ts TopologySpec, p Profile) []Event {
	tp, err := ts.Build()
	if err != nil {
		panic(err) // generator specs are buildable by construction
	}
	_, host := rig.Host(tp)
	var switches []int
	for _, n := range tp.Nodes {
		if n.Type == asi.DeviceSwitch && n.ID != host {
			switches = append(switches, int(n.ID))
		}
	}
	maxEvents := p.MaxEvents
	if maxEvents < 1 {
		maxEvents = 1
	}
	k := 1 + rng.Intn(maxEvents)
	var (
		events []Event
		downed []int
		at     float64
	)
	for len(events) < k {
		if p.Churn {
			// Tight spacing: the detect delay is 1us and assimilation of
			// the previous change takes tens of microseconds, so 0..6us
			// gaps pile changes onto a manager that is still absorbing.
			at += float64(rng.Intn(7))
		} else {
			at += float64(30 + rng.Intn(270))
		}
		roll := rng.Intn(10)
		switch {
		case roll < 6 && len(switches) > 0:
			i := rng.Intn(len(switches))
			node := switches[i]
			switches = append(switches[:i], switches[i+1:]...)
			downed = append(downed, node)
			events = append(events, Event{AtUS: at, Op: OpDown, Node: node})
		case roll < 8 && len(downed) > 0:
			i := rng.Intn(len(downed))
			node := downed[i]
			downed = append(downed[:i], downed[i+1:]...)
			switches = append(switches, node)
			events = append(events, Event{AtUS: at, Op: OpUp, Node: node})
		case len(tp.Links) > 0:
			events = append(events, Event{
				AtUS:  at,
				Op:    OpFlap,
				Link:  rng.Intn(len(tp.Links)),
				DurUS: float64(5 + rng.Intn(196)),
			})
		default:
			return events // degenerate topology; keep what we have
		}
	}
	return events
}

// hashString is FNV-1a, mixing a profile name into a generation seed.
func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}
