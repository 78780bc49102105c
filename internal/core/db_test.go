package core

import (
	"testing"
	"testing/quick"

	"repro/internal/asi"
	"repro/internal/route"
)

// buildTestDB constructs a small known database by hand:
//
//	host ep (dsn 1) -- sw A (dsn 10, 4 ports) -- sw B (dsn 11, 4 ports) -- ep (dsn 2)
//	                       \______________________/
//	                        second parallel link
func buildTestDB() *DB {
	db := NewDB(1)
	db.AddNode(&Node{DSN: 1, Type: asi.DeviceEndpoint, Ports: 1, Path: route.Path{},
		PortKnown: []bool{true}, PortActive: []bool{true}})
	db.AddNode(&Node{DSN: 10, Type: asi.DeviceSwitch, Ports: 4, Path: route.Path{}, ArrivalPort: 0,
		PortKnown: []bool{true, true, true, true}, PortActive: []bool{true, true, true, false}})
	db.AddNode(&Node{DSN: 11, Type: asi.DeviceSwitch, Ports: 4, ArrivalPort: 0,
		Path:      route.Path{{Ports: 4, In: 0, Out: 1}},
		PortKnown: []bool{true, true, true, true}, PortActive: []bool{true, true, true, true}})
	db.AddNode(&Node{DSN: 2, Type: asi.DeviceEndpoint, Ports: 1, ArrivalPort: 0,
		Path:      route.Path{{Ports: 4, In: 0, Out: 1}, {Ports: 4, In: 0, Out: 3}},
		PortKnown: []bool{true}, PortActive: []bool{true}})
	db.AddLink(Link{A: 1, APort: 0, B: 10, BPort: 0})
	db.AddLink(Link{A: 10, APort: 1, B: 11, BPort: 0})
	db.AddLink(Link{A: 10, APort: 2, B: 11, BPort: 2}) // parallel link
	db.AddLink(Link{A: 11, APort: 3, B: 2, BPort: 0})
	return db
}

func TestDBAddNodeDedup(t *testing.T) {
	db := NewDB(1)
	if !db.AddNode(&Node{DSN: 5, Type: asi.DeviceSwitch, Ports: 4}) {
		t.Error("first insert rejected")
	}
	if db.AddNode(&Node{DSN: 5, Type: asi.DeviceSwitch, Ports: 4}) {
		t.Error("duplicate insert accepted")
	}
	if db.NumNodes() != 1 {
		t.Errorf("NumNodes = %d", db.NumNodes())
	}
}

func TestDBLinkNormalization(t *testing.T) {
	db := NewDB(1)
	db.AddLink(Link{A: 7, APort: 2, B: 3, BPort: 5})
	db.AddLink(Link{A: 3, APort: 5, B: 7, BPort: 2}) // same cable, other side
	if db.NumLinks() != 1 {
		t.Errorf("NumLinks = %d, want 1", db.NumLinks())
	}
	if !db.HasLink(Link{A: 7, APort: 2, B: 3, BPort: 5}) {
		t.Error("HasLink false for recorded link")
	}
	if !db.HasLink(Link{A: 3, APort: 5, B: 7, BPort: 2}) {
		t.Error("HasLink false for flipped orientation")
	}
	if l, ok := db.LinkAt(7, 2); !ok || l.normalize() != (Link{A: 3, APort: 5, B: 7, BPort: 2}).normalize() {
		t.Errorf("LinkAt = %+v, %v", l, ok)
	}
	if _, ok := db.LinkAt(7, 9); ok {
		t.Error("LinkAt found a link on an uncabled port")
	}
}

func TestDBLinkNormalizeProperty(t *testing.T) {
	f := func(a, b uint32, ap, bp uint8) bool {
		l1 := Link{A: asi.DSN(a), APort: int(ap), B: asi.DSN(b), BPort: int(bp)}
		l2 := Link{A: asi.DSN(b), APort: int(bp), B: asi.DSN(a), BPort: int(ap)}
		return l1.normalize() == l2.normalize()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDBPathToAdjacent(t *testing.T) {
	db := buildTestDB()
	p, arrive := db.PathTo(10)
	if p == nil || len(p) != 0 {
		t.Fatalf("path to adjacent switch = %v", p)
	}
	if arrive != 0 {
		t.Errorf("arrival port = %d, want 0", arrive)
	}
}

func TestDBPathToMultiHop(t *testing.T) {
	db := buildTestDB()
	p, arrive := db.PathTo(2)
	if len(p) != 2 {
		t.Fatalf("path to far endpoint = %v", p)
	}
	// First hop crosses switch A from its arrival port 0 to port 1 or 2
	// (parallel links; BFS picks the lowest local port).
	if p[0].In != 0 || (p[0].Out != 1 && p[0].Out != 2) {
		t.Errorf("hop 0 = %+v", p[0])
	}
	if p[1].Out != 3 {
		t.Errorf("hop 1 = %+v", p[1])
	}
	if arrive != 0 {
		t.Errorf("arrival port = %d", arrive)
	}
}

func TestDBPathToUnreachable(t *testing.T) {
	db := buildTestDB()
	db.RemoveLink(Link{A: 10, APort: 1, B: 11, BPort: 0})
	// Still reachable over the parallel link.
	if p, _ := db.PathTo(2); p == nil {
		t.Fatal("redundant link not used")
	}
	db.RemoveLink(Link{A: 10, APort: 2, B: 11, BPort: 2})
	if p, _ := db.PathTo(2); p != nil {
		t.Fatalf("unreachable endpoint got path %v", p)
	}
	if p, _ := db.PathTo(999); p != nil {
		t.Error("unknown DSN got a path")
	}
}

func TestDBEndpointsDoNotForward(t *testing.T) {
	// host -- epX -- sw: a path "through" an endpoint must not exist.
	db := NewDB(1)
	db.AddNode(&Node{DSN: 1, Type: asi.DeviceEndpoint, Ports: 1, PortKnown: []bool{true}, PortActive: []bool{true}})
	db.AddNode(&Node{DSN: 2, Type: asi.DeviceEndpoint, Ports: 2, PortKnown: []bool{true, true}, PortActive: []bool{true, true}})
	db.AddNode(&Node{DSN: 10, Type: asi.DeviceSwitch, Ports: 4, PortKnown: make([]bool, 4), PortActive: make([]bool, 4)})
	db.AddLink(Link{A: 1, APort: 0, B: 2, BPort: 0})
	db.AddLink(Link{A: 2, APort: 1, B: 10, BPort: 0})
	if p, _ := db.PathTo(10); p != nil {
		t.Errorf("path through endpoint: %v", p)
	}
}

func TestDBRemoveNodeDropsLinks(t *testing.T) {
	db := buildTestDB()
	db.RemoveNode(11)
	if db.Node(11) != nil {
		t.Error("node still present")
	}
	if db.NumLinks() != 1 { // only host--swA remains
		t.Errorf("NumLinks = %d, want 1", db.NumLinks())
	}
	if p, _ := db.PathTo(2); p != nil {
		t.Error("path survives through removed node")
	}
}

func TestDBNeighborsSorted(t *testing.T) {
	db := buildTestDB()
	nbs := db.NeighborsOf(10)
	if len(nbs) != 3 {
		t.Fatalf("NeighborsOf(10) = %v", nbs)
	}
	for i := 1; i < len(nbs); i++ {
		if nbs[i].LocalPort < nbs[i-1].LocalPort {
			t.Error("neighbors not sorted by local port")
		}
	}
}

func TestDBNodesAndLinksSorted(t *testing.T) {
	db := buildTestDB()
	nodes := db.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i].DSN < nodes[i-1].DSN {
			t.Error("nodes not sorted")
		}
	}
	links := db.Links()
	if len(links) != 4 {
		t.Errorf("Links() = %d entries", len(links))
	}
	if db.String() == "" {
		t.Error("empty String")
	}
}

func TestDBPathBetweenEndpoints(t *testing.T) {
	db := buildTestDB()
	p := db.PathBetween(2, 1)
	if len(p) != 2 {
		t.Fatalf("PathBetween(2,1) = %v", p)
	}
	// Reverse direction exists too and has the same length.
	q := db.PathBetween(1, 2)
	if len(q) != len(p) {
		t.Errorf("asymmetric path lengths %d vs %d", len(p), len(q))
	}
	if db.PathBetween(99, 1) != nil {
		t.Error("unknown source got a path")
	}
}
