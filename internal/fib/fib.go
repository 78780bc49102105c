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
	"cmp"
	"slices"
	"strconv"

	"repro/internal/asi"
	"repro/internal/core"
	"repro/internal/route"
)

// Hop is one switch traversal of a source route, with JSON names for the
// streaming leaf encoding. Its fields are route.Hop's, in its widths (4
// bytes: a port count reaches asi.MaxSwitchPorts, a port index fits a
// byte), so either converts to the other as is.
type Hop struct {
	Ports uint16 `json:"ports"`
	In    uint8  `json:"in"`
	Out   uint8  `json:"out"`
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
	// Routes holds the FM's source route to every other discovered
	// device, EventRoutes each such device's PI-5 route back, both in
	// ascending DSN order; Route and EventRoute look one up.
	Routes      []Route
	EventRoutes []EventRoute
	// Unrouted counts devices present in the database but unreachable
	// over its recorded links (mid-churn generations can carry them),
	// and Unencodable event routes whose turn pool overflowed.
	Unrouted    int
	Unencodable int
}

// Route returns the FM's source route to a device, if it has one.
func (t *Table) Route(dsn asi.DSN) (Route, bool) {
	i, ok := slices.BinarySearchFunc(t.Routes, dsn, func(r Route, dsn asi.DSN) int { return cmp.Compare(r.DSN, dsn) })
	if !ok {
		return Route{}, false
	}
	return t.Routes[i], true
}

// EventRoute returns a device's PI-5 route to the FM, if it has one.
func (t *Table) EventRoute(dsn asi.DSN) (EventRoute, bool) {
	i, ok := slices.BinarySearchFunc(t.EventRoutes, dsn, func(e EventRoute, dsn asi.DSN) int { return cmp.Compare(e.DSN, dsn) })
	if !ok {
		return EventRoute{}, false
	}
	return t.EventRoutes[i], true
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
// the change left alone is copied from prev by value, its Hops slice
// shared, and costs no allocation. One breadth-first tree still decides
// every route, so the port-order tie-break is Derive's, and it sizes both
// tables before they are filled: each is allocated once, for exactly the
// number of routed devices (EventRoutes holds fewer only when a route
// does not encode). The database lists its devices in DSN order, so the
// tables fill in order and prev is read by one merge alongside them.
// changed lists, ascending, the devices whose Route or EventRoute is new,
// different from prev's or gone.
func Update(prev *Table, db *core.DB, tree *core.PathTree) (t *Table, changed []asi.DSN) {
	if prev == nil {
		prev = &Table{}
	}
	db.RebuildTree(tree, db.HostDSN)
	routed := tree.Reached()
	t = &Table{
		Host:        db.HostDSN,
		Routes:      make([]Route, 0, routed),
		EventRoutes: make([]EventRoute, 0, routed),
	}
	var buf [16]route.Hop
	scratch := route.Path(buf[:0])
	// pr and pe are the next unmerged entries of prev's two tables.
	pr, pe := 0, 0
	db.EachNode(func(n *core.Node) {
		if n.DSN == db.HostDSN {
			return
		}
		// What prev routed below n.DSN, t does not: gone.
		for ; pr < len(prev.Routes) && prev.Routes[pr].DSN < n.DSN; pr++ {
			changed = append(changed, prev.Routes[pr].DSN)
		}
		for pe < len(prev.EventRoutes) && prev.EventRoutes[pe].DSN < n.DSN {
			pe++
		}
		var old *Route
		if pr < len(prev.Routes) && prev.Routes[pr].DSN == n.DSN {
			old, pr = &prev.Routes[pr], pr+1
		}
		var oldEv *EventRoute
		if pe < len(prev.EventRoutes) && prev.EventRoutes[pe].DSN == n.DSN {
			oldEv, pe = &prev.EventRoutes[pe], pe+1
		}
		p, arrival := tree.PathInto(scratch, n.DSN)
		if p == nil {
			t.Unrouted++
			if old != nil {
				changed = append(changed, n.DSN)
			}
			return
		}
		scratch = p[:0]
		if old != nil && old.follows(p, arrival) && old.typ == n.Type && old.ports == n.Ports {
			t.Routes = append(t.Routes, *old)
			if oldEv != nil {
				t.EventRoutes = append(t.EventRoutes, *oldEv)
			} else {
				t.Unencodable++
			}
			return
		}
		changed = append(changed, n.DSN)
		hops := make([]Hop, len(p))
		for i, h := range p {
			hops[i] = Hop(h)
		}
		t.Routes = append(t.Routes, Route{DSN: n.DSN, Hops: hops, ArrivalPort: arrival, typ: n.Type, ports: n.Ports})
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
		t.EventRoutes = append(t.EventRoutes, EventRoute{DSN: n.DSN, Pool: pool, Ptr: ptr})
	})
	for ; pr < len(prev.Routes); pr++ {
		changed = append(changed, prev.Routes[pr].DSN)
	}
	return t, changed
}

// follows reports whether the route is exactly the walk p arriving on
// the given port.
func (r Route) follows(p route.Path, arrival int) bool {
	if r.ArrivalPort != arrival || len(r.Hops) != len(p) {
		return false
	}
	for i, h := range p {
		if r.Hops[i] != Hop(h) {
			return false
		}
	}
	return true
}

// PathOf reconstructs the route.Path of a table entry (the inverse of the
// Hop flattening), for callers that want to re-encode or validate it.
func (r Route) PathOf() route.Path {
	p := make(route.Path, len(r.Hops))
	for i, h := range r.Hops {
		p[i] = route.Hop(h)
	}
	return p
}

// AppendJSON appends the route's leaf encoding to b: exactly the bytes
// json.Marshal writes for it, without reflection. A nil Hops encodes as
// null, an empty one as [].
func (r Route) AppendJSON(b []byte) []byte {
	b = strconv.AppendUint(append(b, `{"dsn":`...), uint64(r.DSN), 10)
	b = append(b, `,"hops":`...)
	if r.Hops == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, h := range r.Hops {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(append(b, `{"ports":`...), uint64(h.Ports), 10)
			b = strconv.AppendUint(append(b, `,"in":`...), uint64(h.In), 10)
			b = strconv.AppendUint(append(b, `,"out":`...), uint64(h.Out), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(append(b, `,"arrival_port":`...), int64(r.ArrivalPort), 10)
	return append(b, '}')
}

// AppendJSON appends the event route's leaf encoding to b: exactly the
// bytes json.Marshal writes for it.
func (e EventRoute) AppendJSON(b []byte) []byte {
	b = strconv.AppendUint(append(b, `{"dsn":`...), uint64(e.DSN), 10)
	b = strconv.AppendUint(append(b, `,"pool":`...), e.Pool, 10)
	b = strconv.AppendUint(append(b, `,"ptr":`...), uint64(e.Ptr), 10)
	return append(b, '}')
}
