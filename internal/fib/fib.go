// Package fib derives forwarding state from one topology-RIB generation,
// the second stage of the daemon's installers → RIB → FIB → streaming
// server pipeline (modeled on production routing daemons, where the RIB
// holds what was learned and the FIB holds what is programmed).
//
// The derivation is a pure function of the database snapshot: for every
// discovered device it recomputes the FM's shortest source route over the
// recorded links (the unicast route table) and the turn-pool encoding the
// device must use to source PI-5 event reports back toward the FM (the
// event-route table). Deriving from the snapshot — rather than reusing
// the discovery-time paths — means a FIB generation is reproducible from
// its RIB generation alone, which is what lets subscribers verify a
// replayed stream against the live state.
package fib

import (
	"slices"
	"sort"

	"repro/internal/asi"
	"repro/internal/core"
	"repro/internal/route"
)

// Hop is one switch traversal of a source route, with JSON names for the
// streaming leaf encoding.
type Hop struct {
	Ports int `json:"ports"`
	In    int `json:"in"`
	Out   int `json:"out"`
}

// Route is the FM's source route to one device: the unicast entry the FM
// would use to address the device's configuration space.
type Route struct {
	DSN asi.DSN `json:"dsn"`
	// Hops is the switch-by-switch walk; empty means the device is
	// cabled directly to the FM's endpoint.
	Hops []Hop `json:"hops"`
	// ArrivalPort is the device port requests arrive on along Hops.
	ArrivalPort int `json:"arrival_port"`

	// typ and ports are the device's own type and port count when the
	// entry was derived. With the walk they decide its EventRoute, so
	// Update can tell that both entries still hold without re-encoding.
	typ   asi.DeviceType
	ports int
}

// EventRoute is the turn-pool encoding a device uses to source PI-5
// event reports toward the FM (what DistributeEventRoutes programs).
type EventRoute struct {
	DSN asi.DSN `json:"dsn"`
	// Pool is the packed turn pool, Ptr the initial turn pointer.
	Pool uint64 `json:"pool"`
	Ptr  uint8  `json:"ptr"`
}

// Table is the forwarding state derived from one RIB generation.
type Table struct {
	// Host is the FM's endpoint, the root of every route.
	Host asi.DSN
	// Routes maps every other discovered device to the FM's source
	// route; EventRoutes to the device's PI-5 route back.
	Routes      map[asi.DSN]Route
	EventRoutes map[asi.DSN]EventRoute
	// Unrouted counts devices present in the database but unreachable
	// over its recorded links (mid-churn generations can carry them),
	// and Unencodable event routes whose turn pool overflowed.
	Unrouted    int
	Unencodable int
}

// Derive computes the FIB for one database generation. The database is
// read-only during the call; Derive never mutates it.
func Derive(db *core.DB) *Table {
	t, _ := Update(nil, db, new(core.PathTree))
	return t
}

// Update is Derive given the previous generation's table (nil for none)
// and a tree to rebuild in place (the caller's, reused install after
// install): the result is the table Derive(db) returns, but every entry
// the change left alone is prev's — its Hops slice included — and costs
// no allocation. One breadth-first tree still decides every route, so the
// port-order tie-break is Derive's. changed lists, ascending, the devices
// whose Route or EventRoute is new, different from prev's or gone.
func Update(prev *Table, db *core.DB, tree *core.PathTree) (t *Table, changed []asi.DSN) {
	if prev == nil {
		prev = &Table{}
	}
	t = &Table{
		Host:        db.HostDSN,
		Routes:      make(map[asi.DSN]Route, db.NumNodes()),
		EventRoutes: make(map[asi.DSN]EventRoute, db.NumNodes()),
	}
	db.RebuildTree(tree, db.HostDSN)
	scratch := make(route.Path, 0, 16)
	db.EachNode(func(n *core.Node) {
		if n.DSN == db.HostDSN {
			return
		}
		p, arrival := tree.PathInto(scratch, n.DSN)
		if p == nil {
			t.Unrouted++
			return
		}
		scratch = p[:0]
		if old, ok := prev.Routes[n.DSN]; ok && old.follows(p, arrival) && old.typ == n.Type && old.ports == n.Ports {
			t.Routes[n.DSN] = old
			if ev, ok := prev.EventRoutes[n.DSN]; ok {
				t.EventRoutes[n.DSN] = ev
			} else {
				t.Unencodable++
			}
			return
		}
		changed = append(changed, n.DSN)
		hops := make([]Hop, len(p))
		for i, h := range p {
			hops[i] = Hop{Ports: h.Ports, In: h.In, Out: h.Out}
		}
		t.Routes[n.DSN] = Route{DSN: n.DSN, Hops: hops, ArrivalPort: arrival, typ: n.Type, ports: n.Ports}
		// The event route derives from the same recomputed path, so a
		// FIB generation is self-consistent even when the node's stored
		// discovery path predates a link change.
		pool, ptr, err := core.EventRouteFor(&core.Node{
			DSN: n.DSN, Type: n.Type, Ports: n.Ports,
			Path: p, ArrivalPort: arrival,
		})
		if err != nil {
			t.Unencodable++
			return
		}
		t.EventRoutes[n.DSN] = EventRoute{DSN: n.DSN, Pool: pool, Ptr: ptr}
	})
	for dsn := range prev.Routes {
		if _, ok := t.Routes[dsn]; !ok {
			changed = append(changed, dsn)
		}
	}
	slices.Sort(changed)
	return t, changed
}

// follows reports whether the route is exactly the walk p arriving on
// the given port.
func (r Route) follows(p route.Path, arrival int) bool {
	if r.ArrivalPort != arrival || len(r.Hops) != len(p) {
		return false
	}
	for i, h := range p {
		if r.Hops[i] != (Hop{Ports: h.Ports, In: h.In, Out: h.Out}) {
			return false
		}
	}
	return true
}

// DSNs returns the route table's destinations in ascending order, the
// iteration order of every serialization.
func (t *Table) DSNs() []asi.DSN {
	out := make([]asi.DSN, 0, len(t.Routes))
	for dsn := range t.Routes {
		out = append(out, dsn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PathOf reconstructs the route.Path of a table entry (the inverse of the
// Hop flattening), for callers that want to re-encode or validate it.
func (r Route) PathOf() route.Path {
	p := make(route.Path, len(r.Hops))
	for i, h := range r.Hops {
		p[i] = route.Hop{Ports: h.Ports, In: h.In, Out: h.Out}
	}
	return p
}
