package topo

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/asi"
	"repro/internal/sim"
)

func TestConnectValidation(t *testing.T) {
	tp := New("t")
	a := tp.AddSwitch(4, "a")
	b := tp.AddSwitch(4, "b")
	if err := tp.Connect(a, 0, a, 1); err == nil {
		t.Error("self-link accepted")
	}
	if err := tp.Connect(a, 0, NodeID(99), 0); err == nil {
		t.Error("unknown node accepted")
	}
	if err := tp.Connect(a, 4, b, 0); err == nil {
		t.Error("out-of-range port accepted")
	}
	if err := tp.Connect(a, 0, b, 0); err != nil {
		t.Fatalf("valid connect failed: %v", err)
	}
	if err := tp.Connect(a, 0, b, 1); err == nil {
		t.Error("double-cabled port accepted")
	}
}

func TestPeerSymmetry(t *testing.T) {
	tp := New("t")
	a := tp.AddSwitch(4, "a")
	b := tp.AddSwitch(4, "b")
	if err := tp.Connect(a, 2, b, 3); err != nil {
		t.Fatal(err)
	}
	if n, p, ok := tp.Peer(a, 2); !ok || n != b || p != 3 {
		t.Errorf("Peer(a,2) = (%d,%d,%v)", n, p, ok)
	}
	if n, p, ok := tp.Peer(b, 3); !ok || n != a || p != 2 {
		t.Errorf("Peer(b,3) = (%d,%d,%v)", n, p, ok)
	}
	if _, _, ok := tp.Peer(a, 0); ok {
		t.Error("uncabled port reports a peer")
	}
}

func TestValidateCatchesBrokenTopologies(t *testing.T) {
	// Disconnected.
	tp := New("disc")
	tp.AddSwitch(4, "a")
	tp.AddSwitch(4, "b")
	if err := tp.Validate(); err == nil {
		t.Error("disconnected topology validated")
	}
	// Endpoint with no cable.
	tp2 := New("dangling")
	s := tp2.AddSwitch(4, "s")
	e1 := tp2.AddEndpoint("e1")
	tp2.AddEndpoint("e2")
	if err := tp2.Connect(s, 0, e1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp2.Validate(); err == nil {
		t.Error("dangling endpoint validated")
	}
	// Empty.
	if err := New("empty").Validate(); err == nil {
		t.Error("empty topology validated")
	}
}

func TestMeshStructure(t *testing.T) {
	m := Mesh(3, 3)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumSwitches() != 9 || m.NumEndpoints() != 9 {
		t.Errorf("3x3 mesh has %d switches, %d endpoints", m.NumSwitches(), m.NumEndpoints())
	}
	// Mesh links: 2*rows*cols - rows - cols switch links + one per endpoint.
	wantLinks := 2*9 - 3 - 3 + 9
	if len(m.Links) != wantLinks {
		t.Errorf("3x3 mesh has %d links, want %d", len(m.Links), wantLinks)
	}
	// Corner switch (node 0) has exactly E, S and host cabled.
	cabled := 0
	for p := 0; p < GridPorts; p++ {
		if _, _, ok := m.Peer(0, p); ok {
			cabled++
		}
	}
	if cabled != 3 {
		t.Errorf("corner switch has %d cables, want 3", cabled)
	}
}

func TestTorusStructure(t *testing.T) {
	tr := Torus(4, 4)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every switch in a torus has degree 4 (plus host).
	for _, n := range tr.Nodes {
		if n.Type != asi.DeviceSwitch {
			continue
		}
		cabled := 0
		for p := 0; p < n.Ports; p++ {
			if _, _, ok := tr.Peer(n.ID, p); ok {
				cabled++
			}
		}
		if cabled != 5 {
			t.Errorf("torus switch %s has %d cables, want 5", n.Label, cabled)
		}
	}
	wantLinks := 2*16 + 16 // 2N wrap links + N host links
	if len(tr.Links) != wantLinks {
		t.Errorf("4x4 torus has %d links, want %d", len(tr.Links), wantLinks)
	}
}

func TestTorusWidth2HasNoDuplicateWrap(t *testing.T) {
	tr := Torus(2, 4)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rows of height 2: vertical wrap would duplicate the mesh link, so
	// vertical degree is 1, horizontal 2.
	cabled := 0
	for p := 0; p < GridPorts; p++ {
		if _, _, ok := tr.Peer(0, p); ok {
			cabled++
		}
	}
	if cabled != 4 { // E, W, S, host
		t.Errorf("2x4 torus corner switch has %d cables, want 4", cabled)
	}
}

func TestFatTreeDegrees(t *testing.T) {
	for _, c := range []struct{ m, n int }{{4, 2}, {4, 3}, {4, 4}, {8, 2}, {8, 3}} {
		ft := FatTree(c.m, c.n)
		if err := ft.Validate(); err != nil {
			t.Fatalf("%s: %v", ft.Name, err)
		}
		h := c.m / 2
		wantEP := 2 * pow(h, c.n)
		wantSW := (2*c.n - 1) * pow(h, c.n-1)
		if ft.NumEndpoints() != wantEP || ft.NumSwitches() != wantSW {
			t.Errorf("%s: %d switches %d endpoints, want %d/%d",
				ft.Name, ft.NumSwitches(), ft.NumEndpoints(), wantSW, wantEP)
		}
		// Every switch port must be cabled in a fat-tree.
		for _, n := range ft.Nodes {
			for p := 0; p < n.Ports; p++ {
				if _, _, ok := ft.Peer(n.ID, p); !ok {
					t.Fatalf("%s: node %s port %d uncabled", ft.Name, n.Label, p)
				}
			}
		}
	}
}

func TestFatTreeRejectsBadParams(t *testing.T) {
	for _, c := range []struct{ m, n int }{{3, 2}, {0, 2}, {4, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FatTree(%d,%d) did not panic", c.m, c.n)
				}
			}()
			FatTree(c.m, c.n)
		}()
	}
}

func TestGridRejectsTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mesh(1,5) did not panic")
		}
	}()
	Mesh(1, 5)
}

func TestTable1CountsMatchPaper(t *testing.T) {
	for _, s := range Table1() {
		tp := s.Build()
		if err := tp.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		if tp.NumSwitches() != s.Switches || tp.NumEndpoints() != s.Endpoints {
			t.Errorf("%s: built %d switches / %d endpoints, Table 1 says %d / %d",
				s.Name, tp.NumSwitches(), tp.NumEndpoints(), s.Switches, s.Endpoints)
		}
	}
}

func TestByName(t *testing.T) {
	tp, err := ByName("3x3 mesh")
	if err != nil || tp.NumSwitches() != 9 {
		t.Errorf("ByName: %v %v", tp, err)
	}
	if _, err := ByName("17x17 hypercube"); err == nil {
		t.Error("unknown name accepted")
	}
	if len(Names()) != len(Table1())+len(Extended()) {
		t.Error("Names length mismatch")
	}
}

func TestByNameParametric(t *testing.T) {
	good := map[string]struct{ sw, ep int }{
		"12x12 torus":     {144, 144},
		"5x4 mesh":        {20, 20},
		"6-port 2-tree":   {9, 18},
		"dragonfly 6x13":  {78, 78},
		"autofat 16x100":  {21, 100}, // down=8 -> 13 leaves + 8 spines
		"dragonfly 16x65": {1040, 1040},
	}
	for name, want := range good {
		tp, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if err := tp.Validate(); err != nil {
			t.Errorf("%q: %v", name, err)
		}
		if tp.NumSwitches() != want.sw || tp.NumEndpoints() != want.ep {
			t.Errorf("%q: %d switches / %d endpoints, want %d / %d",
				name, tp.NumSwitches(), tp.NumEndpoints(), want.sw, want.ep)
		}
	}
	for _, name := range []string{
		"1x5 mesh", "dragonfly 1x9", "3-port 2-tree", "autofat 4x9",
		"0x0 torus", "dragonfly four by six",
	} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) accepted a bad parametric name", name)
		}
	}
}

// TestParseNameBoundsSize: a name arrives from outside the program, so an
// instance past MaxSize nodes or links — including one whose parameters
// overflow an int when multiplied — must be refused from its parameters
// alone, in every family, with an error naming the bound it broke.
func TestParseNameBoundsSize(t *testing.T) {
	for name, want := range map[string]string{
		"100000x100000 mesh":              "limit",
		"4294967296x4294967296 torus":     "limit", // 2^64 wraps to 0
		"600x600 mesh":                    "limit", // 720 000 nodes, but 1 078 800 links
		"64-port 9-tree":                  "limit",
		"2-port 524288-tree":              "limit", // in range by nodes; labels grow with depth
		"4-port 9223372036854775807-tree": "limit",
		"dragonfly 65536x65536":           "limit",
		"dragonfly 2x262144":              "limit", // 2^20 nodes, 3.4e10 global links
		"dragonfly 3037000500x3037000500": "limit",
		"dragonfly 2x600":                 "2..256", // 2 400 nodes, 302-port switches
		// An auto-designed tree is bounded by the ASI switch radix, and
		// through it by the two-layer capacity.
		"autofat 256x1048577":           "capacity 32768",
		"autofat 1000000000x5":          "2..256", // one switch, a billion ports
		"autofat 4294967296x4294967297": "2..256",
	} {
		if _, err := ParseName(name); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseName(%q) = %v, want a refusal naming its bound (%q)", name, err, want)
		}
	}
	// The largest fabrics any test or benchmark builds stay well inside,
	// and the counts the bound works from are the generators' own.
	for _, name := range []string{
		"dragonfly 16x625", "autofat 128x4096",
		"2x2 mesh", "2x5 torus", "3x2 torus", "7x4 torus", "5x4 mesh",
		"2-port 4-tree", "6-port 2-tree", "4-port 4-tree", "dragonfly 5x7", "autofat 16x100", "autofat 8x5",
	} {
		nodes, links, _, err := parametric(name)
		if err != nil {
			t.Errorf("parametric(%q): %v", name, err)
			continue
		}
		tp, err := ParseName(name)
		if err != nil {
			t.Errorf("ParseName(%q): %v", name, err)
			continue
		}
		if nodes != float64(len(tp.Nodes)) || links != float64(len(tp.Links)) {
			t.Errorf("%q sized as %v nodes / %v links, built %d / %d", name, nodes, links, len(tp.Nodes), len(tp.Links))
		}
	}
}

// TestRandomPortExhaustionRegression pins the hub-saturation bug: at
// these sizes the random spanning tree drives one switch's degree past
// the 16-port radix. The seed-state generator then both dropped the
// connecting edge (disconnecting the topology) and left no port for the
// endpoint (panicking in mustConnect); the fixed generator must re-pick
// a partner with a free port and keep the endpoint reservation.
func TestRandomPortExhaustionRegression(t *testing.T) {
	cases := []struct {
		n, extra int
		seed     uint64
	}{
		{1000, 0, 203}, // max tree degree 16 pre-fix
		{2000, 0, 108}, // max tree degree 18 pre-fix
		{2000, 64, 29},
		{500, 32, 466}, // degree 15: legal pre-fix, must stay legal
	}
	for _, c := range cases {
		tp := Random(c.n, c.extra, sim.NewRNG(c.seed)) // panicked pre-fix
		if err := tp.Validate(); err != nil {
			t.Errorf("Random(%d,%d,seed=%d): %v", c.n, c.extra, c.seed, err)
		}
		if tp.NumSwitches() != c.n || tp.NumEndpoints() != c.n {
			t.Errorf("Random(%d,%d,seed=%d): %d switches / %d endpoints",
				c.n, c.extra, c.seed, tp.NumSwitches(), tp.NumEndpoints())
		}
		// The endpoint reservation must hold on every switch: at most
		// ports-EndpointReserve inter-switch cables.
		for _, n := range tp.Nodes {
			if n.Type != asi.DeviceSwitch {
				continue
			}
			interSwitch := 0
			for p := 0; p < n.Ports; p++ {
				if peer, _, ok := tp.Peer(n.ID, p); ok && tp.Nodes[peer].Type == asi.DeviceSwitch {
					interSwitch++
				}
			}
			if !SwitchPortFree(interSwitch-1, n.Ports) {
				t.Fatalf("Random(%d,%d,seed=%d): switch %s has %d inter-switch cables, radix %d",
					c.n, c.extra, c.seed, n.Label, interSwitch, n.Ports)
			}
		}
	}
}

func TestEndpointsList(t *testing.T) {
	m := Mesh(3, 3)
	eps := m.Endpoints()
	if len(eps) != 9 {
		t.Fatalf("Endpoints() returned %d", len(eps))
	}
	for _, id := range eps {
		if m.Nodes[id].Type != asi.DeviceEndpoint {
			t.Errorf("node %d is not an endpoint", id)
		}
	}
}

func TestRandomTopologyProperty(t *testing.T) {
	f := func(seed uint64, n, extra uint8) bool {
		nsw := int(n%20) + 2
		tp := Random(nsw, int(extra%16), sim.NewRNG(seed))
		return tp.Validate() == nil &&
			tp.NumSwitches() == nsw && tp.NumEndpoints() == nsw
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReachableFromSubset(t *testing.T) {
	tp := New("two-islands")
	a := tp.AddSwitch(4, "a")
	b := tp.AddSwitch(4, "b")
	c := tp.AddSwitch(4, "c")
	if err := tp.Connect(a, 0, b, 0); err != nil {
		t.Fatal(err)
	}
	if got := tp.ReachableFrom(a); !reflect.DeepEqual(got, []NodeID{a, b}) {
		t.Errorf("ReachableFrom(%d) = %v, want [%d %d] (not %d)", a, got, a, b, c)
	}
}

func TestStringOutputs(t *testing.T) {
	if Mesh(3, 3).String() == "" || Table1()[0].Total() != 18 {
		t.Error("String/Total broken")
	}
}
