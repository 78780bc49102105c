// Package chaos is the deterministic chaos harness for the discovery
// process: a seeded scenario generator, an executor that drives a
// scenario through sim/fabric/core, an oracle that checks convergence
// and conservation invariants on every run, and a greedy shrinker that
// minimises failing scenarios before they are reported.
//
// A Scenario is a pure, reproducible value: a topology (Table 1
// catalogue entry or seeded random graph), a discovery algorithm, a
// fault model (loss, delay, deterministic first-N drops), a retry
// policy, and a timed event script of mid-run perturbations — device
// hot-removal and re-addition, link flaps, and back-to-back changes
// injected while a prior run is still assimilating. Equal scenarios
// replay bit-identically; the compact JSON form is the corpus and
// repro-exchange format (testdata/corpus, asichaos -replay, go fuzz).
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/asi"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Event ops. Each event perturbs the fabric at a scripted offset after
// the transient period (initial discovery + event-route distribution).
const (
	// OpDown hot-removes a switch (loud: neighbours report PI-5).
	OpDown = "down"
	// OpUp restores a previously removed switch.
	OpUp = "up"
	// OpFlap takes a link down for DurUS and back up (no PI-5 is emitted
	// for flaps; only discovery traffic notices).
	OpFlap = "flap"
)

// Event is one scripted perturbation.
type Event struct {
	// AtUS is the event's offset in microseconds after the transient
	// period ends (T0).
	AtUS float64 `json:"at_us"`
	// Op is one of OpDown, OpUp, OpFlap.
	Op string `json:"op"`
	// Node is the topology node ID targeted by down/up.
	Node int `json:"node,omitempty"`
	// Link is the topology link index targeted by flap.
	Link int `json:"link,omitempty"`
	// DurUS is the flap outage length in microseconds.
	DurUS float64 `json:"dur_us,omitempty"`
}

// Hotplug hands a down/up event, due AtUS after base, to the rig's
// hot-plug applier; fail receives the fabric's refusal, if any.
func (ev Event) Hotplug(r *rig.Rig, base sim.Time, fail func(error)) {
	r.Hotplug(base.Add(sim.Micros(ev.AtUS)), topo.NodeID(ev.Node), ev.Op == OpDown, fail)
}

// TopologySpec selects the fabric under test: a Table 1 catalogue name,
// or a seeded random connected topology.
type TopologySpec struct {
	Catalogue  string `json:"catalogue,omitempty"`
	Switches   int    `json:"switches,omitempty"`
	ExtraLinks int    `json:"extra_links,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
}

// Build instantiates the described topology.
func (ts TopologySpec) Build() (*topo.Topology, error) {
	if ts.Catalogue != "" {
		return topo.ByName(ts.Catalogue)
	}
	// A replayed scenario's counts come from outside: keep the fabric
	// inside the bound topo.ParseName keeps named ones to.
	if ts.Switches < 2 || ts.Switches > topo.MaxSize/2 || ts.ExtraLinks > topo.MaxSize {
		return nil, fmt.Errorf("chaos: random topology needs 2..%d switches and at most %d extra links, have %d and %d",
			topo.MaxSize/2, topo.MaxSize, ts.Switches, ts.ExtraLinks)
	}
	return topo.Random(ts.Switches, ts.ExtraLinks, sim.NewRNG(ts.Seed)), nil
}

// Scenario is one reproducible chaos run description.
type Scenario struct {
	Name     string       `json:"name,omitempty"`
	Seed     uint64       `json:"seed"`
	Topology TopologySpec `json:"topology"`
	// Algorithm is a core.Kind slug (serial-packet, serial-device,
	// parallel, partial).
	Algorithm string `json:"algorithm"`
	// MaxRetries and BackoffUS configure the FM's timeout-retry policy.
	MaxRetries int     `json:"max_retries,omitempty"`
	BackoffUS  float64 `json:"backoff_us,omitempty"`
	// Loss, DropFirst, DelayProb and DelayUS populate the default rule of
	// the run's fabric.FaultPlan.
	Loss      float64 `json:"loss,omitempty"`
	DropFirst int     `json:"drop_first,omitempty"`
	DelayProb float64 `json:"delay_prob,omitempty"`
	DelayUS   float64 `json:"delay_us,omitempty"`
	// Events is the timed perturbation script.
	Events []Event `json:"events,omitempty"`
}

// Kind resolves the scenario's algorithm slug.
func (sc Scenario) Kind() (core.Kind, error) {
	k, ok := core.KindBySlug(sc.Algorithm)
	if !ok {
		return 0, fmt.Errorf("chaos: unknown algorithm %q", sc.Algorithm)
	}
	if k == core.Distributed {
		return 0, fmt.Errorf("chaos: algorithm %q needs a multi-FM team", sc.Algorithm)
	}
	return k, nil
}

// FaultPlan returns the scenario's fault model. Scripted flaps are NOT
// part of the plan — the executor schedules them relative to the end of
// the transient period, which is only known at run time.
func (sc Scenario) FaultPlan() fabric.FaultPlan {
	return fabric.FaultPlan{Default: fabric.LinkFaults{
		Loss:      sc.Loss,
		DropFirst: sc.DropFirst,
		DelayProb: sc.DelayProb,
		Delay:     sim.Micros(sc.DelayUS),
	}}
}

// EncodeJSON renders the scenario in its canonical byte form: indented
// JSON with a trailing newline. Equal scenarios encode byte-identically,
// which is what corpus regression and determinism tests compare.
func (sc Scenario) EncodeJSON() []byte {
	b, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		panic(err) // plain-data struct; cannot fail
	}
	return append(b, '\n')
}

// DecodeJSON parses a scenario, rejecting unknown fields so corpus files
// cannot silently rot.
func DecodeJSON(b []byte) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("chaos: decode scenario: %w", err)
	}
	return sc, nil
}

// Validate checks that the scenario is executable exactly as written:
// the topology builds, the algorithm resolves, fault fields are in
// range, and the event script is well-formed — every down/up alternates
// correctly per node, targets a switch other than the FM's host switch,
// and every flap names a real link.
func (sc Scenario) Validate() error {
	tp, err := sc.Topology.Build()
	if err != nil {
		return err
	}
	if _, err := sc.Kind(); err != nil {
		return err
	}
	if sc.Loss < 0 || sc.Loss >= 1 || sc.DelayProb < 0 || sc.DelayProb > 1 {
		return fmt.Errorf("chaos: fault probabilities out of range (loss=%v, delay_prob=%v)", sc.Loss, sc.DelayProb)
	}
	if sc.DropFirst < 0 || sc.DelayUS < 0 || sc.BackoffUS < 0 || sc.MaxRetries < 0 {
		return fmt.Errorf("chaos: negative fault/retry field")
	}
	_, host := rig.Host(tp)
	down := map[int]bool{}
	prev := 0.0
	for i, ev := range sc.Events {
		if ev.AtUS < 0 || math.IsNaN(ev.AtUS) {
			return fmt.Errorf("chaos: event %d: bad time %v", i, ev.AtUS)
		}
		// Script order must be time order: the per-node alternation
		// check below (and the executor's same-time tie-breaking)
		// assume it.
		if ev.AtUS < prev {
			return fmt.Errorf("chaos: event %d: time %v before event %d's %v", i, ev.AtUS, i-1, prev)
		}
		prev = ev.AtUS
		switch ev.Op {
		case OpDown, OpUp:
			if ev.Node < 0 || ev.Node >= len(tp.Nodes) || tp.Nodes[ev.Node].Type != asi.DeviceSwitch {
				return fmt.Errorf("chaos: event %d: node %d is not a switch", i, ev.Node)
			}
			if topo.NodeID(ev.Node) == host {
				return fmt.Errorf("chaos: event %d: node %d hosts the FM's only uplink", i, ev.Node)
			}
			if (ev.Op == OpDown) == down[ev.Node] {
				return fmt.Errorf("chaos: event %d: %s on node %d out of order", i, ev.Op, ev.Node)
			}
			down[ev.Node] = ev.Op == OpDown
		case OpFlap:
			if ev.Link < 0 || ev.Link >= len(tp.Links) {
				return fmt.Errorf("chaos: event %d: link %d of %d", i, ev.Link, len(tp.Links))
			}
			if ev.DurUS <= 0 || math.IsNaN(ev.DurUS) {
				return fmt.Errorf("chaos: event %d: bad flap duration %v", i, ev.DurUS)
			}
		default:
			return fmt.Errorf("chaos: event %d: unknown op %q", i, ev.Op)
		}
	}
	return nil
}

// Sanitize clamps an arbitrary decoded scenario (fuzz input) into an
// executable one: bounds every numeric field, falls back to a random
// topology / the parallel algorithm when names do not resolve, and
// rewrites the event script through a per-node state machine so that
// down/up alternate, targets are non-host switches and flaps name real
// links. Sanitize(sc) always validates.
func Sanitize(sc Scenario) Scenario {
	sc.Name = ""
	if sc.Topology.Catalogue != "" {
		if err := topo.CheckName(sc.Topology.Catalogue); err != nil {
			sc.Topology.Catalogue = ""
		} else {
			sc.Topology.Switches, sc.Topology.ExtraLinks = 0, 0
		}
	}
	if sc.Topology.Catalogue == "" {
		sc.Topology.Switches = clampInt(sc.Topology.Switches, 2, 12)
		sc.Topology.ExtraLinks = clampInt(sc.Topology.ExtraLinks, 0, 16)
	}
	if k, err := (Scenario{Algorithm: sc.Algorithm}).Kind(); err != nil || !containsKind(ExecutableKinds(), k) {
		sc.Algorithm = core.Parallel.Slug()
	}
	sc.Loss = clampFloat(sc.Loss, 0, 0.1)
	sc.DropFirst = clampInt(sc.DropFirst, 0, 8)
	sc.DelayProb = clampFloat(sc.DelayProb, 0, 1)
	sc.DelayUS = clampFloat(sc.DelayUS, 0, 500)
	sc.MaxRetries = clampInt(sc.MaxRetries, 0, 5)
	sc.BackoffUS = clampFloat(sc.BackoffUS, 0, 1000)
	if len(sc.Events) > 8 {
		sc.Events = sc.Events[:8]
	}
	tp, err := sc.Topology.Build()
	if err != nil {
		panic(err) // clamps above guarantee a buildable spec
	}
	sc.Events = normalizeEvents(sc.Events, tp)
	return sc
}

// normalizeEvents filters an event script down to the subsequence that
// is valid against tp: in-range non-host switch targets with correct
// down/up alternation, in-range flap links, clamped times and durations.
func normalizeEvents(events []Event, tp *topo.Topology) []Event {
	_, host := rig.Host(tp)
	down := map[int]bool{}
	var out []Event
	clamped := make([]Event, len(events))
	for i, ev := range events {
		ev.AtUS = clampFloat(ev.AtUS, 0, 2000)
		clamped[i] = ev
	}
	// Time order before the alternation state machine: script order must
	// be execution order.
	sort.SliceStable(clamped, func(i, j int) bool { return clamped[i].AtUS < clamped[j].AtUS })
	for _, ev := range clamped {
		switch ev.Op {
		case OpDown, OpUp:
			if ev.Node < 0 || ev.Node >= len(tp.Nodes) {
				continue
			}
			if tp.Nodes[ev.Node].Type != asi.DeviceSwitch || topo.NodeID(ev.Node) == host {
				continue
			}
			if (ev.Op == OpDown) == down[ev.Node] {
				continue
			}
			down[ev.Node] = ev.Op == OpDown
			ev.Link, ev.DurUS = 0, 0
		case OpFlap:
			if len(tp.Links) == 0 {
				continue
			}
			if ev.Link < 0 || ev.Link >= len(tp.Links) {
				ev.Link = ev.Link & 0x7fffffff % len(tp.Links)
			}
			ev.DurUS = clampFloat(ev.DurUS, 1, 500)
			ev.Node = 0
		default:
			continue
		}
		out = append(out, ev)
	}
	return out
}

// ExecutableKinds lists the algorithms the single-manager executor can
// drive: the paper's three variants plus partial assimilation.
func ExecutableKinds() []core.Kind {
	return []core.Kind{core.SerialPacket, core.SerialDevice, core.Parallel, core.Partial}
}

func containsKind(ks []core.Kind, k core.Kind) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampFloat(v, lo, hi float64) float64 {
	if math.IsNaN(v) || v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// slugName renders a topology name as a filename-safe slug.
func slugName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, name)
}
