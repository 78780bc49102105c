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
	var buf [64]byte
	return string(strconv.AppendUint(append(buf[:0], dir...), uint64(dsn), 10))
}

// linkValue renders a link's leaf value.
func linkValue(l core.Link) linkLeaf {
	return linkLeaf{A: l.A, APort: l.APort, B: l.B, BPort: l.BPort}
}

// linkPath renders a link's canonical leaf path, <a>:<ap>-<b>:<bp>.
func linkPath(l core.Link) string {
	var buf [96]byte
	b := strconv.AppendUint(append(buf[:0], PathLinks...), uint64(l.A), 10)
	b = strconv.AppendInt(append(b, ':'), int64(l.APort), 10)
	b = strconv.AppendUint(append(b, '-'), uint64(l.B), 10)
	b = strconv.AppendInt(append(b, ':'), int64(l.BPort), 10)
	return string(b)
}

// The leaf encoders write each value as exactly the bytes json.Marshal
// writes for it, without boxing it into an interface or reflecting on it:
// the value's appender fills a buffer on the caller's stack, and the leaf
// is copied out of it into a slice of its own, at its exact size. A leaf
// owns its bytes, so a Replayer or queued batch that keeps one pins
// nothing else of its generation.

// appendJSON appends the node leaf's encoding to b. Type is "switch" or
// "endpoint" (nodeValue), which JSON needs no escape for.
func (n nodeLeaf) appendJSON(b []byte) []byte {
	b = strconv.AppendUint(append(b, `{"dsn":`...), uint64(n.DSN), 10)
	b = append(append(append(b, `,"type":"`...), n.Type...), '"')
	b = strconv.AppendInt(append(b, `,"ports":`...), int64(n.Ports), 10)
	return append(b, '}')
}

// appendJSON appends the link leaf's encoding to b.
func (l linkLeaf) appendJSON(b []byte) []byte {
	b = strconv.AppendUint(append(b, `{"a":`...), uint64(l.A), 10)
	b = strconv.AppendInt(append(b, `,"a_port":`...), int64(l.APort), 10)
	b = strconv.AppendUint(append(b, `,"b":`...), uint64(l.B), 10)
	b = strconv.AppendInt(append(b, `,"b_port":`...), int64(l.BPort), 10)
	return append(b, '}')
}

// leafBuf is the stack buffer a leaf is encoded into: a route of 13
// switch hops fits whatever its port numbers, a longer one grows it onto
// the heap (one allocation more, same bytes).
const leafBuf = 512

func nodeJSON(n nodeLeaf) json.RawMessage {
	var buf [leafBuf]byte
	return exact(n.appendJSON(buf[:0]))
}

func linkJSON(l linkLeaf) json.RawMessage {
	var buf [leafBuf]byte
	return exact(l.appendJSON(buf[:0]))
}

func routeJSON(r fib.Route) json.RawMessage {
	var buf [leafBuf]byte
	return exact(r.AppendJSON(buf[:0]))
}

func eventRouteJSON(e fib.EventRoute) json.RawMessage {
	var buf [leafBuf]byte
	return exact(e.AppendJSON(buf[:0]))
}

// exact copies an encoded leaf into a slice of its own length.
func exact(b []byte) json.RawMessage {
	v := make(json.RawMessage, len(b))
	copy(v, b)
	return v
}

// installer is what the RIB reuses install after install, under
// installMu: fib.Update's search tree and the two lists a delta is
// gathered in before it is copied out at its exact size.
type installer struct {
	tree       core.PathTree
	sets, dels []Update
}

func (w *installer) set(path string, v json.RawMessage) {
	w.sets = append(w.sets, Update{Op: OpSet, Path: path, Value: v})
}

func (w *installer) del(path string) {
	w.dels = append(w.dels, Update{Op: OpDelete, Path: path})
}

// next builds the generation that follows prev from an installed
// database (already cloned) and d, its diff against prev.DB, with the
// RIB's installer. The cost is the change's, not the fabric's: the delta
// compares structured values — d's devices and links, and the Route and
// EventRoute of every device fib.Update names — and encodes only the
// leaves that differ.
func (prev *Snapshot) next(db *core.DB, d core.Diff, w *installer) *Snapshot {
	t, rerouted := fib.Update(prev.FIB, db, &w.tree)
	s := &Snapshot{
		Gen:         prev.Gen + 1,
		Fingerprint: db.Fingerprint(),
		DB:          db,
		FIB:         t,
	}
	for _, dsn := range d.RemovedDevices {
		w.del(nodePath(prev.DB.Node(dsn)))
	}
	for _, dsn := range d.AddedDevices {
		n := db.Node(dsn)
		w.set(nodePath(n), nodeJSON(nodeValue(n)))
	}
	for _, dsn := range d.ChangedDevices {
		old, n := prev.DB.Node(dsn), db.Node(dsn)
		switch {
		case nodeValue(old) == nodeValue(n):
			continue // a type change between two kinds served as endpoints
		case (old.Type == asi.DeviceSwitch) != (n.Type == asi.DeviceSwitch):
			w.del(nodePath(old)) // the leaf moves between switches/ and endpoints/
		}
		w.set(nodePath(n), nodeJSON(nodeValue(n)))
	}
	for _, l := range d.RemovedLinks {
		w.del(linkPath(l))
	}
	for _, l := range d.AddedLinks {
		w.set(linkPath(l), linkJSON(linkValue(l)))
	}
	for _, dsn := range rerouted {
		r, ok := t.Route(dsn)
		old, had := prev.FIB.Route(dsn)
		switch {
		case ok && !(had && old.ArrivalPort == r.ArrivalPort && slices.Equal(old.Hops, r.Hops)):
			w.set(dsnPath(PathRoutes, dsn), routeJSON(r))
		case !ok && had:
			w.del(dsnPath(PathRoutes, dsn))
		}
		ev, ok := t.EventRoute(dsn)
		oldEv, had := prev.FIB.EventRoute(dsn)
		switch {
		case ok && !(had && oldEv == ev):
			w.set(dsnPath(PathEventRoutes, dsn), eventRouteJSON(ev))
		case !ok && had:
			w.del(dsnPath(PathEventRoutes, dsn))
		}
	}
	s.pub = &generation{gen: s.Gen, fpHex: fpHex(s.Fingerprint), delta: w.delta()}
	return s
}

// delta returns the gathered sets then deletes, each group in path order,
// as one slice of exactly their length (nil when nothing changed), and
// empties the lists without keeping any of their leaves alive.
func (w *installer) delta() []Update {
	slices.SortFunc(w.sets, byPath)
	slices.SortFunc(w.dels, byPath)
	var delta []Update
	if n := len(w.sets) + len(w.dels); n > 0 {
		delta = append(append(make([]Update, 0, n), w.sets...), w.dels...)
	}
	clear(w.sets)
	clear(w.dels)
	w.sets, w.dels = w.sets[:0], w.dels[:0]
	return delta
}

// syncBody lists the snapshot's leaves under a prefix as "set" ops in
// sorted path order — the body of a full-state batch — rendering each
// from DB and FIB.
func (s *Snapshot) syncBody(prefix string) []Update {
	var ups []Update
	if prefix == "/" {
		ups = make([]Update, 0, s.NumLeaves())
	}
	s.DB.EachNode(func(n *core.Node) {
		if path := nodePath(n); underPrefix(path, prefix) {
			ups = append(ups, Update{Op: OpSet, Path: path, Value: nodeJSON(nodeValue(n))})
		}
	})
	for _, l := range s.DB.Links() {
		if path := linkPath(l); underPrefix(path, prefix) {
			ups = append(ups, Update{Op: OpSet, Path: path, Value: linkJSON(linkValue(l))})
		}
	}
	for _, r := range s.FIB.Routes {
		if path := dsnPath(PathRoutes, r.DSN); underPrefix(path, prefix) {
			ups = append(ups, Update{Op: OpSet, Path: path, Value: routeJSON(r)})
		}
	}
	for _, ev := range s.FIB.EventRoutes {
		if path := dsnPath(PathEventRoutes, ev.DSN); underPrefix(path, prefix) {
			ups = append(ups, Update{Op: OpSet, Path: path, Value: eventRouteJSON(ev)})
		}
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
