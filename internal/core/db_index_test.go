package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/asi"
	"repro/internal/route"
)

// refDB is the database as it was before the adjacency index: a node map
// and a link map, every graph question answered by scanning them, and
// the link set's own queries (Links, HasLink, NumLinks, Fingerprint,
// DiffDBs) the bodies that read the link map. It is the reference the
// indexed DB, which holds its link set only in the index, is compared
// against.
//
// Two deliberate differences from the old scan: a cable between two
// ports of one device is listed under both of them (the old switch
// statement listed it only under its A port, so NeighborsOf disagreed
// with LinkAt about the B port), and a port cabled to itself is listed
// once, since it has one end. No search can see either difference,
// because a device is never its own unseen neighbour.
type refDB struct {
	HostDSN asi.DSN
	nodes   map[asi.DSN]*Node
	links   map[Link]bool
}

func newRefDB(host asi.DSN) refDB {
	return refDB{HostDSN: host, nodes: map[asi.DSN]*Node{}, links: map[Link]bool{}}
}

func (r refDB) addLink(l Link)      { r.links[l.normalize()] = true }
func (r refDB) removeLink(l Link)   { delete(r.links, l.normalize()) }
func (r refDB) hasLink(l Link) bool { return r.links[l.normalize()] }

func (r refDB) String() string {
	return fmt.Sprintf("ref{%d devices, %d links}", len(r.nodes), len(r.links))
}

func (r refDB) removeNode(dsn asi.DSN) {
	delete(r.nodes, dsn)
	for l := range r.links {
		if l.A == dsn || l.B == dsn {
			delete(r.links, l)
		}
	}
}

func (r refDB) clone() refDB {
	out := newRefDB(r.HostDSN)
	for dsn, n := range r.nodes {
		c := *n
		out.nodes[dsn] = &c
	}
	for l := range r.links {
		out.links[l] = true
	}
	return out
}

// sortLinks puts links in the canonical order: by A, A's port, B, B's
// port.
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

// linkList is Links over the link map: every key, sorted.
func (r refDB) linkList() []Link {
	out := make([]Link, 0, len(r.links))
	for l := range r.links {
		out = append(out, l)
	}
	sortLinks(out)
	return out
}

// fingerprint is Fingerprint over the two maps.
func (r refDB) fingerprint() uint64 {
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
	mix(uint64(len(r.nodes)))
	dsns := make([]asi.DSN, 0, len(r.nodes))
	for dsn := range r.nodes {
		dsns = append(dsns, dsn)
	}
	slices.Sort(dsns)
	for _, dsn := range dsns {
		n := r.nodes[dsn]
		mix(uint64(n.DSN))
		mix(uint64(n.Type))
		mix(uint64(n.Ports))
	}
	mix(uint64(len(r.links)))
	for _, l := range r.linkList() {
		mix(uint64(l.A))
		mix(uint64(l.APort))
		mix(uint64(l.B))
		mix(uint64(l.BPort))
	}
	return h
}

// refDiffDBs is DiffDBs as it was while the database held a link map:
// the two node maps and the two link maps scanned directly, only the
// differences sorted.
func refDiffDBs(old, new refDB) Diff {
	var d Diff
	for dsn, n := range new.nodes {
		switch o := old.nodes[dsn]; {
		case o == nil:
			d.AddedDevices = append(d.AddedDevices, dsn)
		case o.Type != n.Type || o.Ports != n.Ports:
			d.ChangedDevices = append(d.ChangedDevices, dsn)
		}
	}
	for dsn := range old.nodes {
		if new.nodes[dsn] == nil {
			d.RemovedDevices = append(d.RemovedDevices, dsn)
		}
	}
	for l := range new.links {
		if !old.links[l] {
			d.AddedLinks = append(d.AddedLinks, l)
		}
	}
	for l := range old.links {
		if !new.links[l] {
			d.RemovedLinks = append(d.RemovedLinks, l)
		}
	}
	slices.Sort(d.AddedDevices)
	slices.Sort(d.RemovedDevices)
	slices.Sort(d.ChangedDevices)
	sortLinks(d.AddedLinks)
	sortLinks(d.RemovedLinks)
	return d
}

func (r refDB) neighborsOf(dsn asi.DSN) []Neighbor {
	var out []Neighbor
	for l := range r.links {
		if l.A == dsn {
			out = append(out, Neighbor{DSN: l.B, LocalPort: uint8(l.APort), RemotePort: uint8(l.BPort)})
		}
		if l.B == dsn && (l.A != l.B || l.APort != l.BPort) {
			out = append(out, Neighbor{DSN: l.A, LocalPort: uint8(l.BPort), RemotePort: uint8(l.APort)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].before(out[j]) })
	return out
}

// linkAt scans for the links on a port; with more than one it picks the
// first in neighbour order (the old scan returned whichever the map
// iterated first).
func (r refDB) linkAt(dsn asi.DSN, port int) (Link, bool) {
	for _, nb := range r.neighborsOf(dsn) {
		if int(nb.LocalPort) == port {
			return nb.linkFrom(dsn).normalize(), true
		}
	}
	return Link{}, false
}

type refPred struct {
	from       asi.DSN
	fromPort   uint8
	arrivePort uint8
}

func (r refDB) bfsFrom(src asi.DSN) map[asi.DSN]refPred {
	prev := map[asi.DSN]refPred{}
	if _, ok := r.nodes[src]; !ok {
		return prev
	}
	seen := map[asi.DSN]bool{src: true}
	queue := []asi.DSN{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur != src && r.nodes[cur].Type != asi.DeviceSwitch {
			continue
		}
		for _, nb := range r.neighborsOf(cur) {
			if _, known := r.nodes[nb.DSN]; !known || seen[nb.DSN] {
				continue
			}
			seen[nb.DSN] = true
			prev[nb.DSN] = refPred{from: cur, fromPort: nb.LocalPort, arrivePort: nb.RemotePort}
			queue = append(queue, nb.DSN)
		}
	}
	return prev
}

func (r refDB) pathFrom(src, target asi.DSN) (route.Path, int) {
	if _, ok := r.nodes[src]; !ok {
		return nil, 0
	}
	if target == src {
		return route.Path{}, 0
	}
	prev := r.bfsFrom(src)
	if _, ok := prev[target]; !ok {
		return nil, 0
	}
	hops := route.Path{}
	at := target
	for at != src {
		p := prev[at]
		if p.from != src {
			hops = append(hops, route.Hop{Ports: uint16(r.nodes[p.from].Ports), In: prev[p.from].arrivePort, Out: p.fromPort})
		}
		at = p.from
	}
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	return hops, int(prev[target].arrivePort)
}

// The differential walk's universe: DSNs 1..walkDSNs may become nodes,
// links may also name walkDSNs+1..walkDSNs+2 (devices never in the node
// set), on ports 0..walkPorts-1.
const (
	walkHost  = asi.DSN(1)
	walkDSNs  = 10
	walkPorts = 4
)

// dbPair is an indexed database and its scanning reference, fed the same
// mutations.
type dbPair struct {
	db  *DB
	ref refDB
}

func (p dbPair) addNode(dsn asi.DSN, typ asi.DeviceType) {
	p.db.AddNode(&Node{DSN: dsn, Type: typ, Ports: walkPorts})
	if _, had := p.ref.nodes[dsn]; !had {
		p.ref.nodes[dsn] = &Node{DSN: dsn, Type: typ, Ports: walkPorts}
	}
}
func (p dbPair) addLink(l Link)         { p.db.AddLink(l); p.ref.addLink(l) }
func (p dbPair) removeLink(l Link)      { p.db.RemoveLink(l); p.ref.removeLink(l) }
func (p dbPair) removeNode(dsn asi.DSN) { p.db.RemoveNode(dsn); p.ref.removeNode(dsn) }
func (p dbPair) clone() dbPair          { return dbPair{db: p.db.Clone(), ref: p.ref.clone()} }

// check compares every query the index serves against the reference, and
// the index against its own invariant.
func (p dbPair) check(t *testing.T, when string) {
	t.Helper()
	db, ref := p.db, p.ref
	if got, want := db.Links(), ref.linkList(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Links = %v, reference %v", when, got, want)
	}
	if db.NumLinks() != len(ref.links) || db.NumNodes() != len(ref.nodes) {
		t.Fatalf("%s: %v, reference %v", when, db, ref)
	}
	if got, want := db.Fingerprint(), ref.fingerprint(); got != want {
		t.Fatalf("%s: Fingerprint = %x, reference %x", when, got, want)
	}
	ends, wantEnds := 0, 0
	db.each(func(dsn asi.DSN, pg *page, i int) {
		if nbs := pg.adj[i]; nbs != nil && len(nbs) == 0 {
			t.Fatalf("%s: empty adjacency kept for %v", when, dsn)
		}
		ends += len(pg.adj[i])
	})
	for l := range ref.links {
		wantEnds += 2
		if l.A == l.B && l.APort == l.BPort {
			wantEnds-- // a port cabled to itself has one end
		}
	}
	if ends != wantEnds {
		t.Fatalf("%s: index holds %d link ends for %d links, want %d", when, ends, len(ref.links), wantEnds)
	}
	tree := db.TreeFrom(db.HostDSN)
	for dsn := asi.DSN(0); dsn <= walkDSNs+3; dsn++ {
		want := ref.neighborsOf(dsn)
		if got := db.NeighborsOf(dsn); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s: NeighborsOf(%v) = %v, reference %v", when, dsn, got, want)
		}
		for port := 0; port <= walkPorts; port++ {
			got, gok := db.LinkAt(dsn, port)
			want, wok := ref.linkAt(dsn, port)
			if got != want || gok != wok {
				t.Fatalf("%s: LinkAt(%v, %d) = %v %v, reference %v %v", when, dsn, port, got, gok, want, wok)
			}
			// Every link this port could carry, named from this end.
			for far := asi.DSN(1); far <= walkDSNs+2; far++ {
				for farPort := 0; farPort < walkPorts; farPort++ {
					l := Link{A: dsn, APort: port, B: far, BPort: farPort}
					if got, want := db.HasLink(l), ref.hasLink(l); got != want {
						t.Fatalf("%s: HasLink(%v) = %v, reference %v", when, l, got, want)
					}
				}
			}
		}
		wantPath, wantArrive := ref.pathFrom(ref.HostDSN, dsn)
		for name, q := range map[string]func(asi.DSN) (route.Path, int){"DB.PathTo": db.PathTo, "PathTree.PathTo": tree.PathTo} {
			if got, arrive := q(dsn); !reflect.DeepEqual(got, wantPath) || arrive != wantArrive {
				t.Fatalf("%s: %s(%v) = %#v %d, reference %#v %d", when, name, dsn, got, arrive, wantPath, wantArrive)
			}
		}
		// A second source exercises PathBetween from devices of either
		// type, present or not.
		src := asi.DSN(1 + (uint64(dsn)*7)%(walkDSNs+1))
		wantPath, _ = ref.pathFrom(src, dsn)
		if got := db.PathBetween(src, dsn); !reflect.DeepEqual(got, wantPath) {
			t.Fatalf("%s: PathBetween(%v, %v) = %#v, reference %#v", when, src, dsn, got, wantPath)
		}
	}
}

// rebuilt copies a database into one with an intern table of its own,
// interning in descending DSN order, so its slots are not the original's:
// DiffDBs between the two merges two different tables.
func rebuilt(db *DB) *DB {
	out := NewDB(db.HostDSN)
	nodes, links := db.Nodes(), db.Links()
	for i := len(nodes) - 1; i >= 0; i-- {
		out.AddNode(nodes[i])
	}
	for i := len(links) - 1; i >= 0; i-- {
		out.AddLink(links[i])
	}
	return out
}

// checkDiff compares DiffDBs between two states against the link-map
// body over the same two states.
func checkDiff(t *testing.T, when string, prev, cur dbPair) {
	t.Helper()
	if got, want := DiffDBs(prev.db, cur.db), refDiffDBs(prev.ref, cur.ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: DiffDBs = %+v, reference %+v", when, got, want)
	}
}

// TestDBIndexMatchesLinkScan drives the indexed database and the
// link-scanning reference through the same mutation sequences — a
// scripted prefix of the awkward cases, then a seeded random walk — and
// compares every query after every step, and DiffDBs across the step,
// also against a copy with an intern table of its own. Clones taken along
// the way are mutated onward while the original they came from must keep
// answering as it did. Each seed first interns a different number of
// DSNs that never get an entry, so the walk's devices straddle page
// boundaries at different places.
func TestDBIndexMatchesLinkScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := dbPair{db: NewDB(walkHost), ref: newRefDB(walkHost)}
		for k := 0; k < int(seed)*3; k++ {
			p.db.intern(asi.DSN(1000 + k))
		}
		step := 0
		do := func(what string, mutate func()) {
			prev := p.clone()
			mutate()
			step++
			when := fmt.Sprintf("seed %d step %d (%s)", seed, step, what)
			p.check(t, when)
			checkDiff(t, when, prev, p)
			checkDiff(t, when+" reversed", p, prev)
			foreign := dbPair{db: rebuilt(p.db), ref: p.ref}
			if got, want := foreign.db.Fingerprint(), p.db.Fingerprint(); got != want {
				t.Fatalf("%s: a copy with its own table fingerprints %x, want %x", when, got, want)
			}
			checkDiff(t, when+" against its own table", prev, foreign)
			checkDiff(t, when+" from its own table", foreign, prev)
		}

		do("host", func() { p.addNode(1, asi.DeviceEndpoint) })
		do("switch", func() { p.addNode(2, asi.DeviceSwitch) })
		do("link", func() { p.addLink(Link{A: 1, APort: 0, B: 2, BPort: 0}) })
		do("same cable from the other side", func() { p.addLink(Link{A: 2, APort: 0, B: 1, BPort: 0}) })
		do("far device not in the node set", func() { p.addLink(Link{A: 2, APort: 1, B: walkDSNs + 1, BPort: 3}) })
		do("self-loop cable", func() { p.addLink(Link{A: 2, APort: 3, B: 2, BPort: 2}) })
		do("self-loop cable again, other way round", func() { p.addLink(Link{A: 2, APort: 2, B: 2, BPort: 3}) })
		do("port cabled to itself", func() { p.addLink(Link{A: 2, APort: 1, B: 2, BPort: 1}) })
		do("second link on a used port", func() { p.addLink(Link{A: 2, APort: 0, B: 3, BPort: 0}) })
		do("third link on it, to a device below", func() { p.addLink(Link{A: 2, APort: 0, B: 1, BPort: 2}) })
		do("remove a device", func() { p.removeNode(2) })
		do("re-add it", func() { p.addNode(2, asi.DeviceSwitch) })
		do("re-link it", func() { p.addLink(Link{A: 2, APort: 0, B: 1, BPort: 0}) })
		do("port cabled to itself again", func() { p.addLink(Link{A: 2, APort: 3, B: 2, BPort: 3}) })
		do("remove it", func() { p.removeLink(Link{A: 2, APort: 3, B: 2, BPort: 3}) })
		do("self-loop cable, removed from its B end", func() {
			p.addLink(Link{A: 2, APort: 1, B: 2, BPort: 2})
			p.removeLink(Link{A: 2, APort: 2, B: 2, BPort: 1})
		})

		var frozen dbPair
		for i := 0; i < 300; i++ {
			dsn := func() asi.DSN { return asi.DSN(1 + rng.Intn(walkDSNs)) }
			anyLink := func() Link {
				l := Link{A: dsn(), APort: rng.Intn(walkPorts), B: asi.DSN(1 + rng.Intn(walkDSNs+2)), BPort: rng.Intn(walkPorts)}
				if rng.Intn(8) == 0 {
					l.B = l.A // a cable between ports of one device
				}
				return l
			}
			// Most link mutations target a recorded link, named from
			// either end; the rest are arbitrary.
			someLink := func() Link {
				links := p.ref.linkList()
				if len(links) == 0 || rng.Intn(4) == 0 {
					return anyLink()
				}
				l := links[rng.Intn(len(links))]
				if rng.Intn(2) == 0 {
					l = Link{A: l.B, APort: l.BPort, B: l.A, BPort: l.APort}
				}
				return l
			}
			switch k := rng.Intn(20); {
			case k < 5:
				typ := asi.DeviceSwitch
				if rng.Intn(3) == 0 {
					typ = asi.DeviceEndpoint
				}
				do("AddNode", func() { p.addNode(dsn(), typ) })
			case k < 12:
				do("AddLink", func() { p.addLink(anyLink()) })
			case k < 13:
				do("AddLink again", func() { p.addLink(someLink()) })
			case k < 16:
				do("RemoveLink", func() { p.removeLink(someLink()) })
			case k < 18:
				do("RemoveNode", func() { p.removeNode(dsn()) })
			default:
				do("Clone", func() { frozen, p = p, p.clone() })
			}
			if frozen.db != nil {
				frozen.check(t, fmt.Sprintf("seed %d step %d: original of the last clone", seed, step))
			}
		}
	}
}

// TestDBLinkAtDoubleBookedPort pins the answer when two links claim one
// port: the first in NeighborsOf order, whatever order they were recorded
// in (the link-map scan returned whichever Go's map iterated first).
func TestDBLinkAtDoubleBookedPort(t *testing.T) {
	links := []Link{
		{A: 10, APort: 1, B: 12, BPort: 0},
		{A: 10, APort: 1, B: 11, BPort: 2},
		{A: 10, APort: 1, B: 11, BPort: 0},
	}
	want := Link{A: 10, APort: 1, B: 11, BPort: 0}
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {1, 0, 2}} {
		db := NewDB(1)
		for _, i := range order {
			db.AddLink(links[i])
		}
		for try := 0; try < 20; try++ {
			if got, ok := db.LinkAt(10, 1); !ok || got != want {
				t.Fatalf("insertion order %v: LinkAt(10, 1) = %v %v, want %v", order, got, ok, want)
			}
		}
		db.RemoveLink(want)
		if got, _ := db.LinkAt(10, 1); got != (Link{A: 10, APort: 1, B: 11, BPort: 2}) {
			t.Errorf("insertion order %v: after removing the first, LinkAt(10, 1) = %v", order, got)
		}
	}
}
