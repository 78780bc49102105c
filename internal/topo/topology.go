// Package topo builds and validates the fabric topologies the paper
// evaluates: 2-D meshes and tori of 16-port switches with one endpoint per
// switch, and m-port n-trees (fat-trees) built with the methodology the
// paper cites from Lin, Chung and Huang. It also provides random connected
// topologies for stress testing and the full Table 1 catalogue.
//
// A Topology is a pure description — nodes, port counts and cabling. The
// executable fabric model in internal/fabric instantiates devices from it.
package topo

import (
	"fmt"

	"repro/internal/asi"
	"repro/internal/sim"
)

// NodeID names a node within a Topology; IDs are dense indices.
type NodeID int

// Node describes one fabric device to be instantiated.
type Node struct {
	ID    NodeID
	Type  asi.DeviceType
	Ports int
	Label string
}

// Link is a cable between two device ports.
type Link struct {
	A     NodeID
	APort int
	B     NodeID
	BPort int
}

// end identifies one side of a link for the occupancy index.
type end struct {
	node NodeID
	port int
}

// Topology is a description of a fabric: its devices and cabling.
type Topology struct {
	Name  string
	Nodes []Node
	Links []Link

	peers map[end]end
}

// New returns an empty topology with the given name.
func New(name string) *Topology {
	return &Topology{Name: name, peers: make(map[end]end)}
}

// AddSwitch appends a switch node with the given port count.
func (t *Topology) AddSwitch(ports int, label string) NodeID {
	id := NodeID(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{ID: id, Type: asi.DeviceSwitch, Ports: ports, Label: label})
	return id
}

// AddEndpoint appends a 1-port endpoint node.
func (t *Topology) AddEndpoint(label string) NodeID {
	id := NodeID(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{ID: id, Type: asi.DeviceEndpoint, Ports: 1, Label: label})
	return id
}

// Connect cables port aPort of a to port bPort of b. It rejects dangling
// node IDs, out-of-range ports, self-links and double-cabled ports.
func (t *Topology) Connect(a NodeID, aPort int, b NodeID, bPort int) error {
	if a == b {
		return fmt.Errorf("topo: self-link on node %d", a)
	}
	for _, e := range []end{{a, aPort}, {b, bPort}} {
		if int(e.node) < 0 || int(e.node) >= len(t.Nodes) {
			return fmt.Errorf("topo: unknown node %d", e.node)
		}
		if e.port < 0 || e.port >= t.Nodes[e.node].Ports {
			return fmt.Errorf("topo: node %d (%s) has no port %d",
				e.node, t.Nodes[e.node].Label, e.port)
		}
		if peer, busy := t.peers[e]; busy {
			return fmt.Errorf("topo: node %d port %d already cabled to node %d",
				e.node, e.port, peer.node)
		}
	}
	t.Links = append(t.Links, Link{A: a, APort: aPort, B: b, BPort: bPort})
	t.peers[end{a, aPort}] = end{b, bPort}
	t.peers[end{b, bPort}] = end{a, aPort}
	return nil
}

// mustConnect is the generator-internal Connect; generators construct
// well-formed cabling by design, so a failure is a bug in the generator.
func (t *Topology) mustConnect(a NodeID, aPort int, b NodeID, bPort int) {
	if err := t.Connect(a, aPort, b, bPort); err != nil {
		panic(err)
	}
}

// Peer reports what is cabled to the given port.
func (t *Topology) Peer(n NodeID, port int) (NodeID, int, bool) {
	p, ok := t.peers[end{n, port}]
	return p.node, p.port, ok
}

// NumSwitches counts switch nodes.
func (t *Topology) NumSwitches() int {
	c := 0
	for _, n := range t.Nodes {
		if n.Type == asi.DeviceSwitch {
			c++
		}
	}
	return c
}

// NumEndpoints counts endpoint nodes.
func (t *Topology) NumEndpoints() int {
	return len(t.Nodes) - t.NumSwitches()
}

// Endpoints returns the IDs of all endpoint nodes in ID order.
func (t *Topology) Endpoints() []NodeID {
	var out []NodeID
	for _, n := range t.Nodes {
		if n.Type == asi.DeviceEndpoint {
			out = append(out, n.ID)
		}
	}
	return out
}

// ReachableFrom returns the set of nodes connected to start, including
// start itself, following cables.
func (t *Topology) ReachableFrom(start NodeID) map[NodeID]bool {
	seen := map[NodeID]bool{start: true}
	queue := []NodeID{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for p := 0; p < t.Nodes[n].Ports; p++ {
			if peer, _, ok := t.Peer(n, p); ok && !seen[peer] {
				seen[peer] = true
				queue = append(queue, peer)
			}
		}
	}
	return seen
}

// Validate checks structural invariants: every radix is one the spec
// allows (switches 2..asi.MaxSwitchPorts, endpoints
// 1..asi.MaxEndpointPorts), endpoints have exactly one cable, no
// endpoint-to-endpoint links, and the fabric is connected.
func (t *Topology) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("topo %s: empty", t.Name)
	}
	// Radices first: a fabric sizes its port slabs from them.
	for _, n := range t.Nodes {
		lo, hi := 2, asi.MaxSwitchPorts
		if n.Type == asi.DeviceEndpoint {
			lo, hi = 1, asi.MaxEndpointPorts
		}
		if n.Ports < lo || n.Ports > hi {
			return fmt.Errorf("topo %s: %v %s has %d ports, want %d..%d", t.Name, n.Type, n.Label, n.Ports, lo, hi)
		}
	}
	for _, n := range t.Nodes {
		if n.Type == asi.DeviceEndpoint {
			cabled := 0
			for p := 0; p < n.Ports; p++ {
				if _, _, ok := t.Peer(n.ID, p); ok {
					cabled++
				}
			}
			if cabled != 1 {
				return fmt.Errorf("topo %s: endpoint %s has %d cables, want 1", t.Name, n.Label, cabled)
			}
		}
	}
	for _, l := range t.Links {
		if t.Nodes[l.A].Type == asi.DeviceEndpoint && t.Nodes[l.B].Type == asi.DeviceEndpoint {
			return fmt.Errorf("topo %s: endpoint-to-endpoint link %v", t.Name, l)
		}
	}
	if got := len(t.ReachableFrom(0)); got != len(t.Nodes) {
		return fmt.Errorf("topo %s: disconnected: %d of %d nodes reachable from node 0",
			t.Name, got, len(t.Nodes))
	}
	return nil
}

// String summarizes the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("%s: %d switches, %d endpoints, %d links",
		t.Name, t.NumSwitches(), t.NumEndpoints(), len(t.Links))
}

// EndpointReserve is the number of ports every generator keeps free on
// each switch for its local endpoint. Generators that cable switches
// incrementally (Random, Dragonfly's global links) must consult
// SwitchPortFree before adding an inter-switch link so the endpoint can
// always be attached afterwards; grid generators reserve PortHost and
// fat-trees terminate endpoints on dedicated leaf down ports, which is
// the same invariant by construction.
const EndpointReserve = 1

// SwitchPortFree reports whether a switch of the given radix can take one
// more inter-switch cable while keeping EndpointReserve ports free; used
// counts the ports already cabled. This is the single port-reservation
// rule shared by every generator, so the guard cannot drift between them.
func SwitchPortFree(used, ports int) bool {
	return used < ports-EndpointReserve
}

// Random returns a random connected topology of nSwitches 16-port switches
// with extraLinks additional random cables and one endpoint per switch. It
// is used by stress and property tests, not by the paper's experiments.
func Random(nSwitches, extraLinks int, rng *sim.RNG) *Topology {
	t := New(fmt.Sprintf("random-%d+%d", nSwitches, extraLinks))
	const ports = 16
	sws := make([]NodeID, nSwitches)
	next := make([]int, nSwitches) // next free port per switch
	for i := range sws {
		sws[i] = t.AddSwitch(ports, fmt.Sprintf("sw%d", i))
	}
	// Random spanning tree keeps it connected. When nSwitches outgrows the
	// radix, a hub switch can saturate; the connecting edge must then be
	// re-picked onto a switch with a free fabric port, never dropped (a
	// dropped edge disconnects the tree), and every switch keeps
	// EndpointReserve ports free so the endpoint loop below cannot run out.
	// A tree over i switches has i-1 edges, far fewer than i*(ports-1)/2,
	// so a switch with a free port always exists.
	perm := rng.Perm(nSwitches)
	for i := 1; i < nSwitches; i++ {
		a, b := perm[rng.Intn(i)], perm[i]
		if !SwitchPortFree(next[a], ports) {
			// One extra draw picks the scan start, keeping the re-pick
			// deterministic and bounded (and leaving the RNG stream of
			// non-saturated topologies untouched).
			j := rng.Intn(i)
			for k := 0; k < i; k++ {
				if cand := perm[(j+k)%i]; SwitchPortFree(next[cand], ports) {
					a = cand
					break
				}
			}
		}
		t.mustConnect(sws[a], next[a], sws[b], next[b])
		next[a]++
		next[b]++
	}
	for i := 0; i < extraLinks; i++ {
		a, b := rng.Intn(nSwitches), rng.Intn(nSwitches)
		if a == b || !SwitchPortFree(next[a], ports) || !SwitchPortFree(next[b], ports) {
			continue // extra links are optional; skipping keeps the reserve
		}
		t.mustConnect(sws[a], next[a], sws[b], next[b])
		next[a]++
		next[b]++
	}
	for i, sw := range sws {
		ep := t.AddEndpoint(fmt.Sprintf("ep%d", i))
		t.mustConnect(sw, next[i], ep, 0)
		next[i]++
	}
	if err := t.Validate(); err != nil {
		panic(err) // the construction above guarantees a valid topology
	}
	return t
}
