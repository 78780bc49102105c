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
	t := &Table{
		Host:        db.HostDSN,
		Routes:      make(map[asi.DSN]Route, db.NumNodes()),
		EventRoutes: make(map[asi.DSN]EventRoute, db.NumNodes()),
	}
	tree := db.TreeFrom(db.HostDSN)
	for _, n := range db.Nodes() {
		if n.DSN == db.HostDSN {
			continue
		}
		p, arrival := tree.PathTo(n.DSN)
		if p == nil {
			t.Unrouted++
			continue
		}
		hops := make([]Hop, len(p))
		for i, h := range p {
			hops[i] = Hop{Ports: h.Ports, In: h.In, Out: h.Out}
		}
		t.Routes[n.DSN] = Route{DSN: n.DSN, Hops: hops, ArrivalPort: arrival}
		// The event route derives from the same recomputed path, so a
		// FIB generation is self-consistent even when the node's stored
		// discovery path predates a link change.
		pool, ptr, err := core.EventRouteFor(&core.Node{
			DSN: n.DSN, Type: n.Type, Ports: n.Ports,
			Path: p, ArrivalPort: arrival,
		})
		if err != nil {
			t.Unencodable++
			continue
		}
		t.EventRoutes[n.DSN] = EventRoute{DSN: n.DSN, Pool: pool, Ptr: ptr}
	}
	return t
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
