package chaos

import (
	"fmt"
	"slices"

	"repro/internal/asi"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Churner generates an endless, deterministic stream of valid churn
// rounds against one topology: switch hot-removals and re-additions that
// alternate correctly per node and never target the switch hosting the
// FM's only uplink. It is the daemon's steady-state load source — where
// a Scenario carries a finite scripted event list, a Churner keeps a
// long-running fabric perturbed for as many rounds as the daemon asks.
type Churner struct {
	host     topo.NodeID
	switches []topo.NodeID
	down     map[topo.NodeID]bool
	rng      *sim.RNG
}

// NewChurner builds a churner for the topology. It fails on fabrics with
// fewer than two switches — with only the host switch there is nothing
// legal to churn.
func NewChurner(tp *topo.Topology, seed uint64) (*Churner, error) {
	_, host := rig.Host(tp)
	c := &Churner{
		host: host,
		down: make(map[topo.NodeID]bool),
		rng:  rig.Stream(seed, rig.StreamChurn),
	}
	for _, n := range tp.Nodes {
		if n.Type == asi.DeviceSwitch && n.ID != host {
			c.switches = append(c.switches, n.ID)
		}
	}
	if len(c.switches) == 0 {
		return nil, fmt.Errorf("chaos: topology %q has no churnable switch (host switch excluded)", tp.Name)
	}
	return c, nil
}

// Round produces the next churn round: ops events spaced eventGapUS
// apart, each toggling a uniformly chosen non-host switch (down if up,
// up if down). The stream is a pure function of the seed and the call
// sequence, so a daemon restarted with the same config replays the same
// churn.
func (c *Churner) Round(ops int) []Event {
	const eventGapUS = 50
	events := make([]Event, 0, ops)
	for i := 0; i < ops; i++ {
		sw := c.switches[c.rng.Intn(len(c.switches))]
		op := OpDown
		if c.down[sw] {
			op = OpUp
		}
		c.down[sw] = !c.down[sw]
		events = append(events, Event{AtUS: float64(i * eventGapUS), Op: op, Node: int(sw)})
	}
	return events
}

// Quiesce returns the events restoring every switch the churner left
// down, in node order — applied before a final audit, it makes the
// fabric's ground truth the full topology again.
func (c *Churner) Quiesce() []Event {
	var downs []topo.NodeID
	for sw, d := range c.down {
		if d {
			downs = append(downs, sw)
		}
	}
	// Map order is random; node order keeps the stream deterministic.
	slices.Sort(downs)
	events := make([]Event, 0, len(downs))
	for i, sw := range downs {
		c.down[sw] = false
		events = append(events, Event{AtUS: float64(i * 50), Op: OpUp, Node: int(sw)})
	}
	return events
}

// Down returns how many switches the churner currently holds down.
func (c *Churner) Down() int {
	n := 0
	for _, d := range c.down {
		if d {
			n++
		}
	}
	return n
}
