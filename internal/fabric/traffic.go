package fabric

import (
	"repro/internal/asi"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TrafficGen injects background application traffic between random
// endpoint pairs. The paper's headline results are measured without
// application traffic; the generator exists to validate the claim that
// such traffic "scarcely influences the discovery time" because management
// packets own the highest-priority virtual channel (section 4.1).
type TrafficGen struct {
	f   *Fabric
	rng *sim.RNG
	// MeanGap is the average inter-injection gap per source endpoint.
	MeanGap sim.Duration
	// PacketBytes is the application payload size.
	PacketBytes int

	paths   map[[2]topo.NodeID]route.Path
	eps     []topo.NodeID
	running bool
	// Injected counts generated packets.
	Injected uint64
}

// NewTrafficGen prepares a generator over all alive endpoints, with
// shortest paths precomputed from the static topology.
func NewTrafficGen(f *Fabric, rng *sim.RNG, meanGap sim.Duration, packetBytes int) *TrafficGen {
	g := &TrafficGen{
		f: f, rng: rng, MeanGap: meanGap, PacketBytes: packetBytes,
		paths: make(map[[2]topo.NodeID]route.Path),
		eps:   f.Topo.Endpoints(),
	}
	return g
}

// Start begins injection on every endpoint and keeps going until Stop.
func (g *TrafficGen) Start() {
	if g.f.group != nil {
		// The generator schedules on one engine and draws one RNG stream;
		// neither survives region sharding.
		panic("fabric: traffic generation is unsupported with parallel regions")
	}
	g.running = true
	for _, ep := range g.eps {
		g.scheduleNext(ep)
	}
}

// Stop halts further injections; queued packets drain normally.
func (g *TrafficGen) Stop() { g.running = false }

func (g *TrafficGen) scheduleNext(src topo.NodeID) {
	if !g.running {
		return
	}
	gap := g.rng.Jitter(g.MeanGap, 0.5)
	g.f.Engine.After(gap, func(*sim.Engine) {
		g.injectOne(src)
		g.scheduleNext(src)
	})
}

func (g *TrafficGen) injectOne(src topo.NodeID) {
	if !g.running {
		return
	}
	dev := g.f.Device(src)
	if !dev.Alive() || !dev.PortActive(0) {
		return
	}
	dst := g.eps[g.rng.Intn(len(g.eps))]
	if dst == src || !g.f.Device(dst).Alive() {
		return
	}
	p, ok := g.path(src, dst)
	if !ok {
		return
	}
	hdr, err := route.Header(p, asi.PIApplication)
	if err != nil {
		return
	}
	hdr.TC = 0 // bulk traffic class, lowest-priority VC
	dev.Inject(&asi.Packet{Header: hdr, Payload: asi.AppData{Bytes: g.PacketBytes}})
	g.Injected++
}

// path returns (and caches) a shortest source-route between endpoints,
// computed by BFS over the static topology.
func (g *TrafficGen) path(src, dst topo.NodeID) (route.Path, bool) {
	key := [2]topo.NodeID{src, dst}
	if p, ok := g.paths[key]; ok {
		return p, p != nil
	}
	p := bfsPath(g.f.Topo, src, dst)
	g.paths[key] = p
	return p, p != nil
}

// bfsPath finds a shortest path from endpoint src to node dst and encodes
// it as switch hops. Returns nil if unreachable.
func bfsPath(t *topo.Topology, src, dst topo.NodeID) route.Path {
	type pred struct {
		from    topo.NodeID
		outPort int // egress port at from
		inPort  int // ingress port at the reached node
	}
	prev := map[topo.NodeID]pred{}
	visited := map[topo.NodeID]bool{src: true}
	queue := []topo.NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == dst {
			break
		}
		n := t.Nodes[cur]
		for p := 0; p < n.Ports; p++ {
			peer, peerPort, ok := t.Peer(cur, p)
			if !ok || visited[peer] {
				continue
			}
			visited[peer] = true
			prev[peer] = pred{from: cur, outPort: p, inPort: peerPort}
			queue = append(queue, peer)
		}
	}
	if !visited[dst] {
		return nil
	}
	// Walk back from dst collecting switch traversals: each predecessor
	// that is a switch was entered at its own recorded inPort and left
	// through the outPort that led onward.
	var hops route.Path
	at := dst
	for at != src {
		step := prev[at]
		from := step.from
		if from != src && t.Nodes[from].Type == asi.DeviceSwitch {
			// A built fabric's switches have at most asi.MaxSwitchPorts
			// ports (its devices' configuration spaces refuse more), so
			// the count fits 16 bits and each port index a byte.
			hops = append(hops, route.Hop{
				Ports: uint16(t.Nodes[from].Ports),
				In:    uint8(prev[from].inPort),
				Out:   uint8(step.outPort),
			})
		}
		at = from
	}
	// hops were collected destination-first; reverse in place.
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	return hops
}
