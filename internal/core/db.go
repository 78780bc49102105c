package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

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
	// per-node staleness the daemon's re-audit is keyed on. It is
	// bookkeeping, not topology: Fingerprint ignores it.
	Validated sim.Time
}

// newNode returns a database entry for a device as its general
// information describes it, with no port read yet. The two per-port flag
// slices share one backing array.
func newNode(gi asi.GeneralInfo, path route.Path, arrivalPort int) Node {
	flags := make([]bool, 2*gi.Ports)
	return Node{
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

// slots is one version of a database's intern table: every DSN the
// database and the ones before it have recorded, each at a fixed slot.
// Slots are handed out in the order DSNs first appear, append-only and
// never recycled, so a table holds at most the distinct DSNs ever
// recorded. order lists the slots in ascending DSN order; ordered sorts
// in the slots interned since it last ran, so a walk in DSN order sorts
// nothing while no new DSN appears.
//
// A version is written by one database only. Clone and a rediscovery's
// fresh database freeze it, because from then on a clone may read it on
// another goroutine: a frozen version is never written again, and the
// next new DSN copies it once (thaw). Steady churn interns nothing.
type slots struct {
	dsns   []asi.DSN
	index  map[asi.DSN]int32
	order  []int32
	frozen bool
}

// ordered returns the slots in ascending DSN order.
func (t *slots) ordered() []int32 {
	if len(t.order) < len(t.dsns) {
		t.order = slices.Grow(t.order, len(t.dsns)-len(t.order))
		for s := len(t.order); s < len(t.dsns); s++ {
			t.order = append(t.order, int32(s))
		}
		slices.SortFunc(t.order, func(a, b int32) int { return cmp.Compare(t.dsns[a], t.dsns[b]) })
	}
	return t.order
}

// freeze readies the version for readers on other goroutines; a frozen
// version it leaves untouched, since they may be reading it.
func (t *slots) freeze() {
	if !t.frozen {
		t.ordered()
		t.frozen = true
	}
}

// thaw returns a writable copy of a frozen version.
func (t *slots) thaw() *slots {
	return &slots{dsns: slices.Clone(t.dsns), index: maps.Clone(t.index), order: slices.Clone(t.order)}
}

// A page holds a database's entries for pageSize consecutive slots: the
// devices by value, their adjacencies and which slots hold a device, one
// bit a slot. Eight slots make a page of 1 112 bytes, so a small
// fabric's last page wastes little and a write after a Clone copies
// about 1 KB.
const (
	pageBits = 3
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

type page struct {
	nodes [pageSize]Node
	adj   [pageSize][]Neighbor
	// present has bit i set while slot i holds a device. A removed
	// device's record stays where it was, so an entry a caller still
	// holds reads as before.
	present uint64
	// mine has bit i set once slot i's port flags and adjacency are this
	// page's own, not shared with the page it was copied from.
	mine uint64
	// owner is the stamp of the one database that may write the page in
	// place.
	owner uint64
}

// stamps numbers databases' write rights: a database writes in place
// only the pages stamped with its own number, and Clone gives both sides
// new numbers.
var stamps atomic.Uint64

// DB is the fabric manager's topology database, rebuilt from scratch on
// every (full) discovery, as the paper assumes: "the FM obtains the
// complete fabric topology, discarding all the previously collected
// information".
//
// A device is a slot. The intern table (slots) maps each DSN to a fixed
// slot, and pages holds the entries slot by slot; a rediscovery's
// database starts empty but keeps the table of the one it replaces, so
// the manager interns a device once, not once per run.
//
// The link set is held once, in the adjacencies. After every mutation
// each recorded link appears exactly once under each of its distinct
// ends (a port cabled to itself has one), numLinks counts the links, and
// there is no empty adjacency; each device's entries stay sorted by
// (LocalPort, DSN, RemotePort). That order is the order every
// breadth-first search expands neighbours in, so it decides every
// shortest-path tie-break and therefore every source route. The
// canonical end of a link — the device whose adjacency speaks for it in
// Links, Fingerprint and DiffDBs — is its normalized A end.
//
// Clone shares the table, the page directory and every page. Every
// writer — AddNode, RemoveNode, index, unindex and the package's direct
// Node field writes, which fetch the entry through writable — goes
// through own first, which copies the directory on the first write after
// a Clone, a page on its first write, and a device's port flags and
// adjacency on the device's first write, so neither side ever sees the
// other's writes.
type DB struct {
	// HostDSN is the endpoint hosting the FM.
	HostDSN asi.DSN
	tab     *slots
	dir     *directory
	// stamp marks the pages this database may write in place.
	stamp uint64
}

// directory is a database's page list and its two counts. Clone shares
// it, frozen, and the first write after copies it.
type directory struct {
	pages              []*page
	numNodes, numLinks int
	frozen             bool
}

// emptyTable and emptyDir start every new database: frozen, so its first
// write makes it a table and a directory of its own, and a database that
// is never written, like the manager's before its first run, costs one
// header.
var (
	emptyTable = &slots{frozen: true}
	emptyDir   = &directory{frozen: true}
)

// NewDB returns an empty database for an FM hosted on the given endpoint;
// its first write gives it an intern table of its own.
func NewDB(host asi.DSN) *DB {
	return &DB{HostDSN: host, tab: emptyTable, dir: emptyDir, stamp: stamps.Add(1)}
}

// fresh returns a rediscovery's empty database: the same host and intern
// table, frozen so the database it replaces stays as it is, and a
// directory with room for every slot.
func (db *DB) fresh() *DB {
	db.tab.freeze()
	return &DB{
		HostDSN: db.HostDSN,
		tab:     db.tab,
		dir:     &directory{pages: make([]*page, (len(db.tab.dsns)+pageMask)>>pageBits)},
		stamp:   stamps.Add(1),
	}
}

// find returns the page and index of a DSN's slot; the page is nil when
// the database has none there.
func (db *DB) find(dsn asi.DSN) (*page, int) {
	s, ok := db.tab.index[dsn]
	if !ok {
		return nil, 0
	}
	return db.slot(s)
}

// slot returns the page and index of a slot; the page is nil when s is
// negative or the database has no page there.
func (db *DB) slot(s int32) (*page, int) {
	if s < 0 || int(s>>pageBits) >= len(db.dir.pages) {
		return nil, 0
	}
	return db.dir.pages[s>>pageBits], int(s & pageMask)
}

// has reports whether slot i of pg holds a device.
func (pg *page) has(i int) bool { return pg.present&(1<<i) != 0 }

// each calls f for every slot the database has a page for, in ascending
// DSN order.
func (db *DB) each(f func(dsn asi.DSN, pg *page, i int)) {
	for _, s := range db.tab.ordered() {
		if pg, i := db.slot(s); pg != nil {
			f(db.tab.dsns[s], pg, i)
		}
	}
}

// Node returns the database entry for a DSN, or nil.
func (db *DB) Node(dsn asi.DSN) *Node {
	pg, i := db.find(dsn)
	if pg == nil || !pg.has(i) {
		return nil
	}
	return &pg.nodes[i]
}

// NumNodes returns the number of discovered devices (including the host).
func (db *DB) NumNodes() int { return db.dir.numNodes }

// NumSwitches counts discovered switches.
func (db *DB) NumSwitches() int {
	c := 0
	for _, pg := range db.dir.pages {
		for i := 0; pg != nil && i < pageSize; i++ {
			if pg.has(i) && pg.nodes[i].Type == asi.DeviceSwitch {
				c++
			}
		}
	}
	return c
}

// NumLinks returns the number of discovered links.
func (db *DB) NumLinks() int { return db.dir.numLinks }

// Nodes returns all entries sorted by DSN.
func (db *DB) Nodes() []*Node {
	out := make([]*Node, 0, db.dir.numNodes)
	db.EachNode(func(n *Node) { out = append(out, n) })
	return out
}

// EachNode calls f for every entry in ascending DSN order, without the
// slice Nodes makes.
func (db *DB) EachNode(f func(*Node)) {
	db.each(func(_ asi.DSN, pg *page, i int) {
		if pg.has(i) {
			f(&pg.nodes[i])
		}
	})
}

// Links returns all discovered links sorted canonically: devices in DSN
// order, each emitting the links it is the canonical end of, which its
// adjacency order already sorts by (APort, B, BPort).
func (db *DB) Links() []Link {
	out := make([]Link, 0, db.dir.numLinks)
	db.each(func(dsn asi.DSN, pg *page, i int) {
		for _, nb := range pg.adj[i] {
			if nb.canonicalFrom(dsn) {
				out = append(out, nb.linkFrom(dsn))
			}
		}
	})
	return out
}

// Clone freezes the database for a reader while the caller keeps
// writing it: the serving layer takes one per generation, and the manager
// goes on assimilating into its own. It allocates the same on any fabric:
// the clone shares the intern table, the page directory and every page,
// and the first write on either side copies what it touches (see own).
// Clone freezes the table and renumbers the receiver's write rights, so
// it must not race with the receiver's writers.
func (db *DB) Clone() *DB {
	db.tab.freeze()
	if !db.dir.frozen {
		db.dir.frozen = true
	}
	db.stamp = stamps.Add(1)
	return &DB{HostDSN: db.HostDSN, tab: db.tab, dir: db.dir, stamp: stamps.Add(1)}
}

// intern returns a DSN's slot, giving it the next one if it has none.
func (db *DB) intern(dsn asi.DSN) int32 {
	if s, ok := db.tab.index[dsn]; ok {
		return s
	}
	if db.tab.frozen {
		db.tab = db.tab.thaw()
	}
	t := db.tab
	if t.index == nil {
		t.index = make(map[asi.DSN]int32)
	}
	s := int32(len(t.dsns))
	t.dsns = append(t.dsns, dsn)
	t.index[dsn] = s
	return s
}

// own readies a DSN's slot for a write in place, interning the DSN if it
// is new, and returns its page and index. After a Clone, the first write
// copies the directory (a pointer a page), each page's first write
// copies the page, and each device's first write copies its port flags
// and its adjacency; a database never cloned pays two branches.
func (db *DB) own(dsn asi.DSN) (*page, int) {
	s := db.intern(dsn)
	k, i := int(s>>pageBits), int(s&pageMask)
	if d := db.dir; d.frozen {
		db.dir = &directory{pages: slices.Clone(d.pages), numNodes: d.numNodes, numLinks: d.numLinks}
	}
	d := db.dir
	if k >= len(d.pages) {
		d.pages = append(d.pages, make([]*page, k+1-len(d.pages))...)
	}
	pg := d.pages[k]
	switch {
	case pg == nil:
		pg = &page{mine: ^uint64(0), owner: db.stamp}
		d.pages[k] = pg
	case pg.owner != db.stamp:
		c := *pg
		c.mine, c.owner = 0, db.stamp
		pg = &c
		d.pages[k] = pg
	}
	if bit := uint64(1) << i; pg.mine&bit == 0 {
		pg.mine |= bit
		if n := &pg.nodes[i]; pg.has(i) && len(n.PortKnown)+len(n.PortActive) > 0 {
			flags := append(append(make([]bool, 0, len(n.PortKnown)+len(n.PortActive)), n.PortKnown...), n.PortActive...)
			n.PortKnown, n.PortActive = flags[:len(n.PortKnown):len(n.PortKnown)], flags[len(n.PortKnown):]
		}
		if nbs := pg.adj[i]; nbs != nil {
			pg.adj[i] = slices.Clone(nbs)
		}
	}
	return pg, i
}

// writable returns a device's entry, or nil, ready for its fields to be
// written in place. The entry stays this database's until its next Clone.
func (db *DB) writable(dsn asi.DSN) *Node {
	if db.Node(dsn) == nil {
		return nil
	}
	pg, i := db.own(dsn)
	return &pg.nodes[i]
}

// Fingerprint hashes the database's topology content — the node set
// (DSN, type, port count) and the canonical link set — into one FNV-1a
// value. Two databases fingerprint equally iff they describe the same
// topology, regardless of discovery order or algorithm, so runs of
// different algorithms over the same fabric can be compared in O(1).
//
// It walks the slots in the order Nodes and Links list them: the
// devices, then the links. It writes nothing once the table is frozen,
// so clones may be fingerprinted concurrently.
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
	mix(uint64(db.dir.numNodes))
	db.EachNode(func(n *Node) {
		mix(uint64(n.DSN))
		mix(uint64(n.Type))
		mix(uint64(n.Ports))
	})
	mix(uint64(db.dir.numLinks))
	db.each(func(dsn asi.DSN, pg *page, i int) {
		for _, nb := range pg.adj[i] {
			if nb.canonicalFrom(dsn) {
				mix(uint64(dsn))
				mix(uint64(nb.LocalPort))
				mix(uint64(nb.DSN))
				mix(uint64(nb.RemotePort))
			}
		}
	})
	return h
}

// AddNode inserts a copy of a newly discovered device. It reports whether
// the device was new; a device reached through an alternate path keeps
// its original entry (and path).
func (db *DB) AddNode(n *Node) bool {
	if db.Node(n.DSN) != nil {
		return false
	}
	db.insert(*n)
	return true
}

// insert records a device the database does not hold and returns its
// entry.
func (db *DB) insert(n Node) *Node {
	pg, i := db.own(n.DSN)
	pg.nodes[i] = n
	pg.present |= 1 << i
	db.dir.numNodes++
	return &pg.nodes[i]
}

// RemoveNode deletes a device and all links touching it (used by partial
// rediscovery when pruning an unreachable region).
func (db *DB) RemoveNode(dsn asi.DSN) {
	if pg, i := db.find(dsn); pg == nil || !pg.has(i) && pg.adj[i] == nil {
		return
	}
	pg, i := db.own(dsn)
	if pg.has(i) {
		pg.present &^= 1 << i
		db.dir.numNodes--
	}
	for _, nb := range pg.adj[i] {
		// A cable between two of dsn's own ports is listed under both
		// and counted once, at its canonical end.
		if nb.DSN != dsn {
			_, far := nb.linkFrom(dsn).ends()
			db.unindex(nb.DSN, far)
		} else if !nb.canonicalFrom(dsn) {
			continue
		}
		db.dir.numLinks--
	}
	pg.adj[i] = nil
}

// AddLink records a link; duplicates (the same cable crossed from either
// side) collapse onto one entry.
func (db *DB) AddLink(l Link) {
	l = l.normalize()
	a, b := l.ends()
	if slices.Contains(db.NeighborsOf(l.A), a) {
		return
	}
	db.index(l.A, a) // owns the directory the count is in
	db.dir.numLinks++
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
	db.dir.numLinks--
	if b != a {
		db.unindex(l.B, b)
	}
}

// HasLink reports whether a link is recorded, in either orientation.
func (db *DB) HasLink(l Link) bool {
	l = l.normalize()
	a, _ := l.ends()
	return slices.Contains(db.NeighborsOf(l.A), a)
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
	pg, i := db.own(dsn)
	nbs := pg.adj[i]
	if nbs == nil {
		ports := 1
		if pg.has(i) && pg.nodes[i].Ports > ports {
			ports = pg.nodes[i].Ports
		}
		nbs = make([]Neighbor, 0, ports)
	}
	j := len(nbs)
	nbs = append(nbs, nb)
	for ; j > 0 && nb.before(nbs[j-1]); j-- {
		nbs[j] = nbs[j-1]
	}
	nbs[j] = nb
	pg.adj[i] = nbs
}

// unindex removes one link end from a device's adjacency and reports
// whether it was there.
func (db *DB) unindex(dsn asi.DSN, nb Neighbor) bool {
	j := slices.Index(db.NeighborsOf(dsn), nb)
	if j < 0 {
		return false
	}
	pg, i := db.own(dsn)
	if nbs := pg.adj[i]; len(nbs) == 1 {
		pg.adj[i] = nil
	} else {
		pg.adj[i] = slices.Delete(nbs, j, j+1)
	}
	return true
}

// LinkAt returns the link attached to a device port, if recorded. Should
// two different links ever be recorded on one port, it returns the first
// in NeighborsOf order.
func (db *DB) LinkAt(dsn asi.DSN, port int) (Link, bool) {
	for _, nb := range db.NeighborsOf(dsn) {
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
func (db *DB) NeighborsOf(dsn asi.DSN) []Neighbor {
	pg, i := db.find(dsn)
	if pg == nil {
		return nil
	}
	return pg.adj[i]
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
// PathTo for any target in O(hops). It is a snapshot — it holds the
// intern table it searched, not the database, and does not follow later
// mutations — so the per-device passes build one per pass: the
// distributed merge drops its own, the path refresh and the RIB's FIB
// update each rebuild one they keep (RebuildTree). The database itself
// never caches one, because a served snapshot's DB is read concurrently
// and queries must not write.
type PathTree struct {
	src asi.DSN
	// rooted is false when src is not in the database.
	rooted bool
	// tab names each target's slot in prev, which holds how the search
	// reached the device in that slot; reached counts them.
	tab     *slots
	prev    []pred
	reached int
	// queue is the search's work list, kept only by a tree that is rebuilt
	// in place, so a warm rebuild allocates nothing.
	queue []int32
}

// pred records how the search reached a node: 12 bytes, in the widths
// of the route.Hop it becomes.
type pred struct {
	// via is one more than the slot of the device the search came from;
	// zero marks a device the search did not reach.
	via int32
	// hops is the length of the source route to the node; fromPorts is
	// the port count of the device it came from, the Ports of the hop
	// through it.
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
// slices a previous search left there. A caller that keeps one tree and
// rebuilds it pass after pass allocates nothing once it is warm.
func (db *DB) RebuildTree(t *PathTree, src asi.DSN) {
	root := db.Node(src)
	t.src, t.rooted, t.tab, t.reached = src, root != nil, db.tab, 0
	if root == nil {
		return
	}
	if n := len(db.tab.dsns); cap(t.prev) < n {
		t.prev = make([]pred, n)
	} else {
		t.prev = t.prev[:n]
		clear(t.prev)
	}
	if cap(t.queue) < db.dir.numNodes {
		t.queue = make([]int32, 0, db.dir.numNodes)
	}
	rootSlot := db.tab.index[src]
	queue := append(t.queue[:0], rootSlot)
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		pg, i := db.dir.pages[s>>pageBits], s&pageMask
		cur := &pg.nodes[i]
		var hops int32 // of a route that ends one cable past cur
		if s != rootSlot {
			if cur.Type != asi.DeviceSwitch {
				continue
			}
			hops = t.prev[s].hops + 1
		}
		for _, nb := range pg.adj[i] {
			ns := db.tab.index[nb.DSN] // every adjacency's far end is interned
			if ns == rootSlot || t.prev[ns].via != 0 {
				continue
			}
			if npg, j := db.slot(ns); npg == nil || !npg.has(j) {
				continue
			}
			// A device's port count is at most asi.MaxSwitchPorts
			// (ParseGeneralInfo refuses more), and a search is no
			// deeper than the topo.MaxSize devices it can visit.
			t.prev[ns] = pred{via: s + 1, fromPorts: uint16(cur.Ports), fromPort: nb.LocalPort, arrivePort: nb.RemotePort, hops: hops}
			t.reached++
			queue = append(queue, ns)
		}
	}
	t.queue = queue[:0]
}

// Reached returns how many devices the search reached besides its
// source: the number of targets PathTo routes.
func (t *PathTree) Reached() int { return t.reached }

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
	var last pred
	if target != t.src {
		s, ok := t.tab.index[target]
		if !ok || int(s) >= len(t.prev) || t.prev[s].via == 0 {
			return nil, 0
		}
		last = t.prev[s]
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
		up := t.prev[p.via-1]
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
