package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"repro/internal/asi"
	"repro/internal/route"
	"repro/internal/sim"
)

// Node is one discovered device in the FM's topology database. A full
// rediscovery builds one per device, so it holds only what the FM reads:
// 112 bytes plus its path (4 bytes a hop) and two port flags a port.
type Node struct {
	DSN  asi.DSN
	Type asi.DeviceType
	// Ports is the device's port count from its general information.
	Ports int
	// Path is the source route from the FM's endpoint to this device.
	Path route.Path
	// ArrivalPort is the device port on which FM requests arrive along
	// Path — the far end of the link the FM crossed to reach it.
	ArrivalPort int
	// PortKnown and PortActive record per-port attribute reads.
	PortKnown  []bool
	PortActive []bool
	// Validated stamps the last simulated instant the FM heard from the
	// device itself (probe, port read, or verify completion) — the
	// per-node staleness the daemon's keeper ages re-audits on. It is
	// bookkeeping, not topology: Fingerprint ignores it.
	Validated sim.Time
}

// newNode returns a database entry for a device as its general
// information describes it, with no port read yet. The two per-port flag
// slices share one backing array.
func newNode(gi asi.GeneralInfo, path route.Path, arrivalPort int) *Node {
	flags := make([]bool, 2*gi.Ports)
	return &Node{
		DSN:         gi.DSN,
		Type:        gi.Type,
		Ports:       gi.Ports,
		Path:        path,
		ArrivalPort: arrivalPort,
		PortKnown:   flags[:gi.Ports:gi.Ports],
		PortActive:  flags[gi.Ports:],
	}
}

// Link records a discovered cable between two device ports.
type Link struct {
	A     asi.DSN
	APort int
	B     asi.DSN
	BPort int
}

// normalize orders the endpoints so a link has one canonical key.
func (l Link) normalize() Link {
	if l.B < l.A || (l.B == l.A && l.BPort < l.APort) {
		return Link{A: l.B, APort: l.BPort, B: l.A, BPort: l.APort}
	}
	return l
}

// ends returns the link as its A end and as its B end see it. A port
// cabled to itself has one end, and both are the same Neighbor. The
// ports narrow to a byte: the FM records a link from a probe's port and
// the completion's arrival port, both bytes on the wire, and a port index
// is below asi.MaxSwitchPorts; rib.Replayer refuses a served link leaf
// outside that range before it gets here.
func (l Link) ends() (a, b Neighbor) {
	return Neighbor{DSN: l.B, LocalPort: uint8(l.APort), RemotePort: uint8(l.BPort)},
		Neighbor{DSN: l.A, LocalPort: uint8(l.BPort), RemotePort: uint8(l.APort)}
}

// DB is the fabric manager's topology database, rebuilt from scratch on
// every (full) discovery, as the paper assumes: "the FM obtains the
// complete fabric topology, discarding all the previously collected
// information".
//
// The link set is held once, in adj, indexed per device. After every
// mutation each recorded link appears in adj exactly once under each of
// its distinct ends (a port cabled to itself has one), numLinks counts
// the links, and adj holds nothing else and no empty entry; each
// device's entries stay sorted by (LocalPort, DSN, RemotePort). That
// order is the order every breadth-first search expands neighbours in,
// so it decides every shortest-path tie-break and therefore every source
// route. The canonical end of a link — the device whose adjacency speaks
// for it in Links, Fingerprint and DiffDBs — is its normalized A end.
//
// Clone shares: the two databases hold the same maps, Node entries and
// adjacency slices until one of them writes. Every writer — AddNode,
// RemoveNode, index, unindex and the package's direct Node field writes,
// which fetch the entry through writable — goes through own first, which
// copies the two maps on the first write after a Clone and then the one
// device it touches, so neither side ever sees the other's writes.
type DB struct {
	// HostDSN is the endpoint hosting the FM.
	HostDSN  asi.DSN
	nodes    map[asi.DSN]*Node
	adj      map[asi.DSN][]Neighbor
	numLinks int
	// shared is set by Clone on both databases while they hold the same
	// maps. owned lists the devices whose Node and adjacency this database
	// has copied since it last shared them; it stays nil until the first
	// write after a Clone, so a database never cloned owns everything.
	shared bool
	owned  map[asi.DSN]struct{}
}

// NewDB returns an empty database for an FM hosted on the given endpoint.
func NewDB(host asi.DSN) *DB { return newDB(host, 0) }

// newDB returns an empty database with room for the given number of
// devices: a rediscovery expects about what the database it replaces held.
func newDB(host asi.DSN, nodes int) *DB {
	return &DB{
		HostDSN: host,
		nodes:   make(map[asi.DSN]*Node, nodes),
		adj:     make(map[asi.DSN][]Neighbor, nodes),
	}
}

// Node returns the database entry for a DSN, or nil.
func (db *DB) Node(dsn asi.DSN) *Node { return db.nodes[dsn] }

// NumNodes returns the number of discovered devices (including the host).
func (db *DB) NumNodes() int { return len(db.nodes) }

// NumSwitches counts discovered switches.
func (db *DB) NumSwitches() int {
	c := 0
	for _, n := range db.nodes {
		if n.Type == asi.DeviceSwitch {
			c++
		}
	}
	return c
}

// NumLinks returns the number of discovered links.
func (db *DB) NumLinks() int { return db.numLinks }

// Nodes returns all entries sorted by DSN for deterministic iteration.
func (db *DB) Nodes() []*Node {
	out := make([]*Node, 0, len(db.nodes))
	for _, n := range db.nodes {
		out = append(out, n)
	}
	slices.SortFunc(out, func(a, b *Node) int { return cmp.Compare(a.DSN, b.DSN) })
	return out
}

// EachNode calls f for every entry in no particular order, for passes
// that sort their own output (or need none) and should not pay for the
// sorted copy Nodes makes.
func (db *DB) EachNode(f func(*Node)) {
	for _, n := range db.nodes {
		f(n)
	}
}

// Links returns all discovered links sorted canonically: devices in DSN
// order, each emitting the links it is the canonical end of, which its
// adjacency order already sorts by (APort, B, BPort).
func (db *DB) Links() []Link {
	dsns := make([]asi.DSN, 0, len(db.adj))
	for dsn := range db.adj {
		dsns = append(dsns, dsn)
	}
	slices.Sort(dsns)
	out := make([]Link, 0, db.numLinks)
	for _, dsn := range dsns {
		for _, nb := range db.adj[dsn] {
			if nb.canonicalFrom(dsn) {
				out = append(out, nb.linkFrom(dsn))
			}
		}
	}
	return out
}

// sortLinks puts links in the canonical order: by A, A's port, B, B's port.
func sortLinks(ls []Link) {
	slices.SortFunc(ls, func(a, b Link) int {
		if c := cmp.Compare(a.A, b.A); c != 0 {
			return c
		}
		if c := cmp.Compare(a.APort, b.APort); c != 0 {
			return c
		}
		if c := cmp.Compare(a.B, b.B); c != 0 {
			return c
		}
		return cmp.Compare(a.BPort, b.BPort)
	})
}

// Clone freezes the database for a reader while the caller keeps
// writing it: the serving layer takes one per generation, and the manager
// goes on assimilating into its own. It allocates the same on any fabric:
// the clone shares every map, Node and adjacency slice, and the first
// write on either side copies what it touches (see own). Clone marks the
// receiver shared, so it must not race with the receiver's writers.
func (db *DB) Clone() *DB {
	db.shared = true
	return &DB{HostDSN: db.HostDSN, nodes: db.nodes, adj: db.adj, numLinks: db.numLinks, shared: true}
}

// own readies a device's Node and adjacency for a write in place. After a
// Clone, the first write copies the two maps, and each device's first
// write copies its Node, its port flags and its adjacency; a database
// never cloned pays one branch.
func (db *DB) own(dsn asi.DSN) {
	if db.owned == nil && !db.shared {
		return
	}
	db.unshare()
	if _, ok := db.owned[dsn]; ok {
		return
	}
	db.owned[dsn] = struct{}{}
	if n := db.nodes[dsn]; n != nil {
		c := *n
		if len(n.PortKnown)+len(n.PortActive) > 0 {
			flags := append(append(make([]bool, 0, len(n.PortKnown)+len(n.PortActive)), n.PortKnown...), n.PortActive...)
			c.PortKnown, c.PortActive = flags[:len(n.PortKnown):len(n.PortKnown)], flags[len(n.PortKnown):]
		}
		db.nodes[dsn] = &c
	}
	if nbs, ok := db.adj[dsn]; ok {
		db.adj[dsn] = slices.Clone(nbs)
	}
}

// unshare gives the database its own two maps if it shares them with a
// clone; it owns no device until it copies one.
func (db *DB) unshare() {
	if !db.shared {
		return
	}
	db.nodes, db.adj = maps.Clone(db.nodes), maps.Clone(db.adj)
	db.shared = false
	if db.owned == nil {
		db.owned = make(map[asi.DSN]struct{})
	} else {
		clear(db.owned)
	}
}

// writable returns a device's entry, or nil, ready for its fields to be
// written in place.
func (db *DB) writable(dsn asi.DSN) *Node {
	db.own(dsn)
	return db.nodes[dsn]
}

// Fingerprint hashes the database's topology content — the node set
// (DSN, type, port count) and the canonical link set — into one FNV-1a
// value. Two databases fingerprint equally iff they describe the same
// topology, regardless of discovery order or algorithm, so runs of
// different algorithms over the same fabric can be compared in O(1).
//
// It reads the maps in place, in the order Nodes and Links list them,
// from one sorted slice of DSNs: the devices, then any the adjacency
// names without an entry. It writes nothing, so frozen clones may be
// fingerprinted concurrently.
func (db *DB) Fingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	dsns := make([]asi.DSN, 0, len(db.nodes))
	for dsn := range db.nodes {
		dsns = append(dsns, dsn)
	}
	for dsn := range db.adj {
		if _, ok := db.nodes[dsn]; !ok {
			dsns = append(dsns, dsn)
		}
	}
	slices.Sort(dsns)
	mix(uint64(len(db.nodes)))
	for _, dsn := range dsns {
		if n := db.nodes[dsn]; n != nil {
			mix(uint64(n.DSN))
			mix(uint64(n.Type))
			mix(uint64(n.Ports))
		}
	}
	mix(uint64(db.numLinks))
	for _, dsn := range dsns {
		for _, nb := range db.adj[dsn] {
			if nb.canonicalFrom(dsn) {
				mix(uint64(dsn))
				mix(uint64(nb.LocalPort))
				mix(uint64(nb.DSN))
				mix(uint64(nb.RemotePort))
			}
		}
	}
	return h
}

// AddNode inserts a newly discovered device. It reports whether the device
// was new; a device reached through an alternate path keeps its original
// entry (and path).
func (db *DB) AddNode(n *Node) bool {
	if _, ok := db.nodes[n.DSN]; ok {
		return false
	}
	db.own(n.DSN)
	db.nodes[n.DSN] = n
	return true
}

// RemoveNode deletes a device and all links touching it (used by partial
// rediscovery when pruning an unreachable region).
func (db *DB) RemoveNode(dsn asi.DSN) {
	db.unshare()
	delete(db.nodes, dsn)
	for _, nb := range db.adj[dsn] {
		// A cable between two of dsn's own ports is listed under both
		// and counted once, at its canonical end.
		if nb.DSN != dsn {
			_, far := nb.linkFrom(dsn).ends()
			db.unindex(nb.DSN, far)
		} else if !nb.canonicalFrom(dsn) {
			continue
		}
		db.numLinks--
	}
	delete(db.adj, dsn)
}

// AddLink records a link; duplicates (the same cable crossed from either
// side) collapse onto one entry.
func (db *DB) AddLink(l Link) {
	l = l.normalize()
	a, b := l.ends()
	if slices.Contains(db.adj[l.A], a) {
		return
	}
	db.numLinks++
	db.index(l.A, a)
	if b != a {
		db.index(l.B, b)
	}
}

// RemoveLink deletes a link.
func (db *DB) RemoveLink(l Link) {
	l = l.normalize()
	a, b := l.ends()
	if !db.unindex(l.A, a) {
		return
	}
	db.numLinks--
	if b != a {
		db.unindex(l.B, b)
	}
}

// HasLink reports whether a link is recorded, in either orientation.
func (db *DB) HasLink(l Link) bool {
	l = l.normalize()
	a, _ := l.ends()
	return slices.Contains(db.adj[l.A], a)
}

// Neighbor is one end of a recorded link as seen from a device: the port
// it leaves on, the device it reaches and the port it arrives on there.
// A port index fits a byte (asi.MaxSwitchPorts = 256), so an end is 16
// bytes; the database holds two per link.
type Neighbor struct {
	DSN        asi.DSN
	LocalPort  uint8
	RemotePort uint8
}

// linkFrom returns the link this is one end of, oriented from the device
// whose adjacency holds it.
func (nb Neighbor) linkFrom(dsn asi.DSN) Link {
	return Link{A: dsn, APort: int(nb.LocalPort), B: nb.DSN, BPort: int(nb.RemotePort)}
}

// canonicalFrom reports whether dsn, whose adjacency holds nb, is the
// canonical (normalized A) end of the link: linkFrom(dsn) is already
// normalized.
func (nb Neighbor) canonicalFrom(dsn asi.DSN) bool {
	return dsn < nb.DSN || dsn == nb.DSN && nb.LocalPort <= nb.RemotePort
}

// before is the adjacency order: (LocalPort, DSN, RemotePort).
func (a Neighbor) before(b Neighbor) bool {
	if a.LocalPort != b.LocalPort {
		return a.LocalPort < b.LocalPort
	}
	if a.DSN != b.DSN {
		return a.DSN < b.DSN
	}
	return a.RemotePort < b.RemotePort
}

// index inserts one link end into a device's adjacency, in order. A
// device's first entry sizes the slice from its port count, so a device
// with one cable per port never regrows it.
func (db *DB) index(dsn asi.DSN, nb Neighbor) {
	db.own(dsn)
	nbs, ok := db.adj[dsn]
	if !ok {
		ports := 1
		if n := db.nodes[dsn]; n != nil && n.Ports > ports {
			ports = n.Ports
		}
		nbs = make([]Neighbor, 0, ports)
	}
	i := len(nbs)
	nbs = append(nbs, nb)
	for ; i > 0 && nb.before(nbs[i-1]); i-- {
		nbs[i] = nbs[i-1]
	}
	nbs[i] = nb
	db.adj[dsn] = nbs
}

// unindex removes one link end from a device's adjacency and reports
// whether it was there.
func (db *DB) unindex(dsn asi.DSN, nb Neighbor) bool {
	i := slices.Index(db.adj[dsn], nb)
	if i < 0 {
		return false
	}
	db.own(dsn)
	if nbs := db.adj[dsn]; len(nbs) == 1 {
		delete(db.adj, dsn)
	} else {
		db.adj[dsn] = slices.Delete(nbs, i, i+1)
	}
	return true
}

// LinkAt returns the link attached to a device port, if recorded. Should
// two different links ever be recorded on one port, it returns the first
// in NeighborsOf order.
func (db *DB) LinkAt(dsn asi.DSN, port int) (Link, bool) {
	for _, nb := range db.adj[dsn] {
		if int(nb.LocalPort) == port {
			return nb.linkFrom(dsn).normalize(), true
		}
	}
	return Link{}, false
}

// NeighborsOf lists the recorded neighbours of a device in (LocalPort,
// DSN, RemotePort) order, one entry per link end on the device (a cable
// between two of its own ports appears under both). The slice is the
// database's own index: callers must not modify it, and it is valid only
// until the next mutation.
func (db *DB) NeighborsOf(dsn asi.DSN) []Neighbor { return db.adj[dsn] }

// ReachableFromHost walks the recorded links from the host endpoint and
// returns the set of reachable DSNs.
func (db *DB) ReachableFromHost() map[asi.DSN]bool {
	if _, ok := db.nodes[db.HostDSN]; !ok {
		return map[asi.DSN]bool{}
	}
	seen := make(map[asi.DSN]bool, len(db.nodes))
	seen[db.HostDSN] = true
	queue := make([]asi.DSN, 1, len(db.nodes))
	queue[0] = db.HostDSN
	for head := 0; head < len(queue); head++ {
		for _, nb := range db.adj[queue[head]] {
			if _, known := db.nodes[nb.DSN]; !known || seen[nb.DSN] {
				continue
			}
			seen[nb.DSN] = true
			queue = append(queue, nb.DSN)
		}
	}
	return seen
}

// PathTo computes a shortest source route from the host endpoint to the
// target over the recorded links, breadth-first, and the target's arrival
// port along it. It returns a nil path when the target is not reachable
// in the database. The first hop leaves the host endpoint; every switch
// traversal contributes one hop, the target itself none. Each call is one
// breadth-first search; a caller with many targets builds one TreeFrom.
func (db *DB) PathTo(target asi.DSN) (route.Path, int) {
	return db.TreeFrom(db.HostDSN).PathTo(target)
}

// PathBetween computes a shortest source route from one discovered device
// to another over the recorded links. Only endpoints and switches known
// to the database are usable; nil means unreachable.
func (db *DB) PathBetween(src, dst asi.DSN) route.Path {
	p, _ := db.TreeFrom(src).PathTo(dst)
	return p
}

// PathTree is the shortest-path tree of one breadth-first search over the
// database graph: built once in O(devices + links), it then answers
// PathTo for any target in O(hops). It is a snapshot — it holds no
// reference to the database and does not follow later mutations — so the
// per-device passes build one per pass: the distributed merge drops its
// own, the path refresh and the RIB's FIB update each rebuild one they
// keep (RebuildTree). The database itself never caches one, because a
// served snapshot's DB is read concurrently and queries must not write.
type PathTree struct {
	src asi.DSN
	// rooted is false when src is not in the database.
	rooted bool
	prev   map[asi.DSN]pred
	// queue is the search's work list, kept only by a tree that is rebuilt
	// in place, so a warm rebuild allocates nothing.
	queue []*Node
}

// pred records how the search reached a node: 16 bytes, in the widths
// of the route.Hop it becomes.
type pred struct {
	from asi.DSN
	// hops is the length of the source route to the node; fromPorts is
	// from's port count, the Ports of the hop through it.
	hops       int32
	fromPorts  uint16
	fromPort   uint8
	arrivePort uint8
}

// TreeFrom runs one breadth-first search from src; only src and switches
// forward. Neighbours expand in NeighborsOf order, which fixes the choice
// among equally short paths.
func (db *DB) TreeFrom(src asi.DSN) *PathTree {
	t := new(PathTree)
	db.RebuildTree(t, src)
	t.queue = nil
	return t
}

// RebuildTree runs TreeFrom's search into t, clearing and refilling the
// map and queue a previous search left there. A caller that keeps one
// tree and rebuilds it pass after pass allocates nothing once it is warm.
func (db *DB) RebuildTree(t *PathTree, src asi.DSN) {
	root, ok := db.nodes[src]
	t.src, t.rooted = src, ok
	clear(t.prev)
	if !ok {
		return
	}
	if t.prev == nil {
		t.prev = make(map[asi.DSN]pred, len(db.nodes))
	}
	if cap(t.queue) < len(db.nodes) {
		t.queue = make([]*Node, 0, len(db.nodes))
	}
	queue := append(t.queue[:0], root)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		var hops int32 // of a route that ends one cable past cur
		if cur != root {
			if cur.Type != asi.DeviceSwitch {
				continue
			}
			hops = t.prev[cur.DSN].hops + 1
		}
		for _, nb := range db.adj[cur.DSN] {
			n, known := db.nodes[nb.DSN]
			if !known || nb.DSN == src {
				continue
			}
			if _, seen := t.prev[nb.DSN]; seen {
				continue
			}
			// A device's port count is at most asi.MaxSwitchPorts
			// (ParseGeneralInfo refuses more), and a search is no
			// deeper than the topo.MaxSize devices it can visit.
			t.prev[nb.DSN] = pred{from: cur.DSN, fromPorts: uint16(cur.Ports), fromPort: nb.LocalPort, arrivePort: nb.RemotePort, hops: hops}
			queue = append(queue, n)
		}
	}
	clear(queue) // hold no removed device until the next search
	t.queue = queue[:0]
}

// Reached returns how many devices the search reached besides its
// source: the number of targets PathTo routes.
func (t *PathTree) Reached() int { return len(t.prev) }

// PathTo returns the source route from the tree's source to target and
// the target's arrival port along it; a nil path means unreachable. The
// source itself is the empty, non-nil path.
func (t *PathTree) PathTo(target asi.DSN) (route.Path, int) {
	return t.PathInto(nil, target)
}

// PathInto is PathTo writing the route into buf's backing array when buf
// is non-nil and large enough, so a pass that only compares each route
// with one it already holds allocates nothing per target. The result
// aliases buf; the caller copies what it keeps.
func (t *PathTree) PathInto(buf route.Path, target asi.DSN) (route.Path, int) {
	if !t.rooted {
		return nil, 0
	}
	last, ok := t.prev[target]
	if target == t.src {
		last = pred{}
	} else if !ok {
		return nil, 0
	}
	// Non-nil even for adjacent targets: nil is the unreachable
	// sentinel, a zero-hop path is a valid route.
	var path route.Path
	if buf != nil && cap(buf) >= int(last.hops) {
		path = buf[:last.hops]
	} else {
		path = make(route.Path, last.hops)
	}
	for p, i := last, last.hops-1; i >= 0; i-- {
		up := t.prev[p.from]
		path[i] = route.Hop{Ports: p.fromPorts, In: up.arrivePort, Out: p.fromPort}
		p = up
	}
	return path, int(last.arrivePort)
}

// String summarizes the database.
func (db *DB) String() string {
	return fmt.Sprintf("db{%d devices (%d switches), %d links}",
		db.NumNodes(), db.NumSwitches(), db.NumLinks())
}
