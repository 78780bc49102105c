package rib

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/asi"
	"repro/internal/core"
	"repro/internal/fib"
)

// Leaf paths follow the gNMI convention: every piece of served state
// lives at a slash-separated path, and a subscription names a prefix.
//
//	/topology/switches/<dsn>      {"dsn":N,"type":"switch","ports":P}
//	/topology/endpoints/<dsn>     {"dsn":N,"type":"endpoint","ports":P}
//	/topology/links/<a>:<ap>-<b>:<bp>
//	/fib/routes/<dsn>             fib.Route
//	/fib/event-routes/<dsn>       fib.EventRoute
const (
	PathTopology    = "/topology"
	PathSwitches    = "/topology/switches/"
	PathEndpoints   = "/topology/endpoints/"
	PathLinks       = "/topology/links/"
	PathFIB         = "/fib"
	PathRoutes      = "/fib/routes/"
	PathEventRoutes = "/fib/event-routes/"
)

// Snapshot is one immutable generation of the served state: the frozen
// topology database it was installed from, the FIB derived from it, and
// the delta from the generation before. A generation is built from that
// one: only the leaves the change touched are encoded, for the delta, and
// the full leaf set — a subscriber's sync body, Canonical — is rendered
// from DB and FIB on demand, once per (generation, prefix) by the views.
//
// What the fan-out shares of a generation hangs off it: pub, the record
// subscriber queues point at (the generation's delta and its per-prefix
// views), and full, the full-state views of subscribers that attached or
// were resynced while it was current.
type Snapshot struct {
	// Gen is the monotonic generation number; 0 is the empty pre-install
	// snapshot every RIB starts from.
	Gen uint64
	// Fingerprint is core.DB.Fingerprint of the installed database
	// (zero for generation 0).
	Fingerprint uint64
	// DB is the installed database, a core.DB.Clone. Read-only by
	// contract: the RIB and every subscriber may hold it concurrently.
	DB *core.DB
	// FIB is the forwarding state derived from DB.
	FIB *fib.Table

	pub  *generation
	full views
}

// emptySnapshot is generation 0: no topology, no leaves.
func emptySnapshot() *Snapshot {
	return &Snapshot{DB: core.NewDB(0), FIB: &fib.Table{}, pub: &generation{fpHex: fpHex(0)}}
}

// nodeLeaf is the encoded value of a topology node leaf.
type nodeLeaf struct {
	DSN   asi.DSN `json:"dsn"`
	Type  string  `json:"type"`
	Ports int     `json:"ports"`
}

// linkLeaf is the encoded value of a topology link leaf.
type linkLeaf struct {
	A     asi.DSN `json:"a"`
	APort int     `json:"a_port"`
	B     asi.DSN `json:"b"`
	BPort int     `json:"b_port"`
}

// nodePath and nodeValue render a topology node's leaf: anything that is
// not a switch is served as an endpoint.
func nodePath(n *core.Node) string {
	if n.Type == asi.DeviceSwitch {
		return dsnPath(PathSwitches, n.DSN)
	}
	return dsnPath(PathEndpoints, n.DSN)
}

func nodeValue(n *core.Node) nodeLeaf {
	typ := "endpoint"
	if n.Type == asi.DeviceSwitch {
		typ = "switch"
	}
	return nodeLeaf{DSN: n.DSN, Type: typ, Ports: n.Ports}
}

// dsnPath renders a per-device leaf path under dir.
func dsnPath(dir string, dsn asi.DSN) string {
	return dir + strconv.FormatUint(uint64(dsn), 10)
}

// linkValue renders a link's leaf value.
func linkValue(l core.Link) linkLeaf {
	return linkLeaf{A: l.A, APort: l.APort, B: l.B, BPort: l.BPort}
}

// linkPath renders a link's canonical leaf path.
func linkPath(l core.Link) string {
	return fmt.Sprintf("%s%d:%d-%d:%d", PathLinks, l.A, l.APort, l.B, l.BPort)
}

// next builds the generation that follows prev from an installed
// database (already cloned) and d, its diff against prev.DB, rebuilding
// tree for fib.Update. The cost is the change's, not the fabric's: the
// delta compares structured values — each device's leaf value, d's links,
// and the Route and EventRoute of every device fib.Update names — and
// encodes only the leaves that differ.
func (prev *Snapshot) next(db *core.DB, d core.Diff, tree *core.PathTree) *Snapshot {
	t, rerouted := fib.Update(prev.FIB, db, tree)
	s := &Snapshot{
		Gen:         prev.Gen + 1,
		Fingerprint: db.Fingerprint(),
		DB:          db,
		FIB:         t,
	}
	var sets, dels []Update
	set := func(path string, v any) {
		sets = append(sets, Update{Op: OpSet, Path: path, Value: encodeLeaf(path, v)})
	}
	del := func(path string) { dels = append(dels, Update{Op: OpDelete, Path: path}) }

	for _, dsn := range d.RemovedDevices {
		del(nodePath(prev.DB.Node(dsn)))
	}
	db.EachNode(func(n *core.Node) {
		old := prev.DB.Node(n.DSN)
		switch {
		case old == nil:
		case nodeValue(old) == nodeValue(n):
			return
		case (old.Type == asi.DeviceSwitch) != (n.Type == asi.DeviceSwitch):
			del(nodePath(old)) // the leaf moves between switches/ and endpoints/
		}
		set(nodePath(n), nodeValue(n))
	})
	for _, l := range d.RemovedLinks {
		del(linkPath(l))
	}
	for _, l := range d.AddedLinks {
		set(linkPath(l), linkValue(l))
	}
	for _, dsn := range rerouted {
		r, ok := t.Routes[dsn]
		old, had := prev.FIB.Routes[dsn]
		switch {
		case ok && !(had && old.ArrivalPort == r.ArrivalPort && slices.Equal(old.Hops, r.Hops)):
			set(dsnPath(PathRoutes, dsn), r)
		case !ok && had:
			del(dsnPath(PathRoutes, dsn))
		}
		ev, ok := t.EventRoutes[dsn]
		oldEv, had := prev.FIB.EventRoutes[dsn]
		switch {
		case ok && !(had && oldEv == ev):
			set(dsnPath(PathEventRoutes, dsn), ev)
		case !ok && had:
			del(dsnPath(PathEventRoutes, dsn))
		}
	}
	slices.SortFunc(sets, byPath)
	slices.SortFunc(dels, byPath)
	s.pub = &generation{gen: s.Gen, fpHex: fpHex(s.Fingerprint), delta: append(sets, dels...)}
	return s
}

// encodeLeaf renders one leaf value.
func encodeLeaf(path string, v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("rib: leaf %s does not marshal: %v", path, err)) // plain-data values
	}
	return b
}

// syncBody lists the snapshot's leaves under a prefix as "set" ops in
// sorted path order — the body of a full-state batch — rendering each
// from DB and FIB.
func (s *Snapshot) syncBody(prefix string) []Update {
	var ups []Update
	if prefix == "/" {
		ups = make([]Update, 0, s.NumLeaves())
	}
	put := func(path string, v any) {
		if underPrefix(path, prefix) {
			ups = append(ups, Update{Op: OpSet, Path: path, Value: encodeLeaf(path, v)})
		}
	}
	s.DB.EachNode(func(n *core.Node) { put(nodePath(n), nodeValue(n)) })
	for _, l := range s.DB.Links() {
		put(linkPath(l), linkValue(l))
	}
	for dsn, r := range s.FIB.Routes {
		put(dsnPath(PathRoutes, dsn), r)
	}
	for dsn, ev := range s.FIB.EventRoutes {
		put(dsnPath(PathEventRoutes, dsn), ev)
	}
	slices.SortFunc(ups, byPath)
	return ups
}

// byPath orders updates by leaf path.
func byPath(a, b Update) int { return strings.Compare(a.Path, b.Path) }

// NumLeaves returns the number of served leaves: one per device, link,
// route and event route.
func (s *Snapshot) NumLeaves() int {
	return s.DB.NumNodes() + s.DB.NumLinks() + len(s.FIB.Routes) + len(s.FIB.EventRoutes)
}

// Canonical renders the snapshot's leaves under a prefix in the canonical
// byte form replayed subscribers are compared against: a JSON object with
// the generation and the sorted leaf map, indented, trailing newline.
func (s *Snapshot) Canonical(prefix string) []byte {
	body := s.syncBody(prefix)
	leaves := make(map[string]json.RawMessage, len(body))
	for _, u := range body {
		leaves[u.Path] = u.Value
	}
	return canonicalBytes(s.Gen, leaves, prefix)
}

// canonicalBytes is the shared canonical encoder (Snapshot and Replayer
// must agree byte for byte; encoding/json sorts the map keys).
func canonicalBytes(gen uint64, leaves map[string]json.RawMessage, prefix string) []byte {
	filtered := make(map[string]json.RawMessage, len(leaves))
	for path, v := range leaves {
		if underPrefix(path, prefix) {
			filtered[path] = v
		}
	}
	doc := struct {
		Gen    uint64                     `json:"gen"`
		Leaves map[string]json.RawMessage `json:"leaves"`
	}{gen, filtered}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("rib: canonical encoding failed: %v", err)) // RawMessage leaves cannot fail
	}
	return append(b, '\n')
}

// fpHex renders a topology fingerprint in its wire form.
func fpHex(fp uint64) string { return fmt.Sprintf("%#016x", fp) }

// underPrefix reports whether a leaf path falls under a subscription
// prefix: "/" matches everything, otherwise the prefix must end at a
// path-segment boundary ("/fib" matches "/fib/routes/3", not "/fibx").
func underPrefix(path, prefix string) bool {
	if prefix == "" || prefix == "/" {
		return true
	}
	prefix = strings.TrimSuffix(prefix, "/")
	return strings.HasPrefix(path, prefix) &&
		(len(path) == len(prefix) || path[len(prefix)] == '/')
}
