package chaos

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/asi"
	"repro/internal/core"
	"repro/internal/rig"
	"repro/internal/topo"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, p := range Profiles() {
		a := Generate(7, p)
		b := Generate(7, p)
		if !bytes.Equal(a.EncodeJSON(), b.EncodeJSON()) {
			t.Errorf("%s: Generate(7) not deterministic", p.Name)
		}
		c := Generate(8, p)
		if bytes.Equal(a.EncodeJSON(), c.EncodeJSON()) {
			t.Errorf("%s: seeds 7 and 8 generated identical scenarios", p.Name)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: generated scenario invalid: %v", p.Name, err)
		}
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	for _, p := range Profiles() {
		sc := Generate(3, p)
		enc := sc.EncodeJSON()
		dec, err := DecodeJSON(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", p.Name, err)
		}
		if !bytes.Equal(enc, dec.EncodeJSON()) {
			t.Errorf("%s: round trip changed the scenario", p.Name)
		}
	}
	if _, err := DecodeJSON([]byte(`{"seed": 1, "bogus": true}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() Scenario {
		return Scenario{
			Seed:      1,
			Topology:  TopologySpec{Switches: 4, Seed: 5},
			Algorithm: core.Parallel.Slug(),
		}
	}
	tp, err := base().Topology.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, hostSw := rig.Host(tp)
	host := int(hostSw)
	leaf := -1
	for _, n := range tp.Nodes {
		if n.Type == asi.DeviceSwitch && int(n.ID) != host {
			leaf = int(n.ID)
			break
		}
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"unknown algorithm", func(s *Scenario) { s.Algorithm = "bogus" }},
		{"distributed needs a team", func(s *Scenario) { s.Algorithm = core.Distributed.Slug() }},
		{"loss out of range", func(s *Scenario) { s.Loss = 1.5 }},
		{"oversized catalogue fabric", func(s *Scenario) { s.Topology = TopologySpec{Catalogue: "100000x100000 mesh"} }},
		{"oversized random fabric", func(s *Scenario) { s.Topology = TopologySpec{Switches: 1 << 30} }},
		{"unbounded extra links", func(s *Scenario) { s.Topology = TopologySpec{Switches: 4, ExtraLinks: 1 << 30} }},
		{"unknown op", func(s *Scenario) { s.Events = []Event{{AtUS: 1, Op: "explode"}} }},
		{"down on endpoint", func(s *Scenario) { s.Events = []Event{{AtUS: 1, Op: OpDown, Node: int(tp.Endpoints()[0])}} }},
		{"down on host switch", func(s *Scenario) { s.Events = []Event{{AtUS: 1, Op: OpDown, Node: host}} }},
		{"double down", func(s *Scenario) {
			s.Events = []Event{{AtUS: 1, Op: OpDown, Node: leaf}, {AtUS: 2, Op: OpDown, Node: leaf}}
		}},
		{"up before down", func(s *Scenario) { s.Events = []Event{{AtUS: 1, Op: OpUp, Node: leaf}} }},
		{"times out of order", func(s *Scenario) {
			s.Events = []Event{{AtUS: 9, Op: OpDown, Node: leaf}, {AtUS: 3, Op: OpUp, Node: leaf}}
		}},
		{"flap on missing link", func(s *Scenario) { s.Events = []Event{{AtUS: 1, Op: OpFlap, Link: 999, DurUS: 5}} }},
		{"flap without duration", func(s *Scenario) { s.Events = []Event{{AtUS: 1, Op: OpFlap, Link: 0}} }},
	}
	for _, tc := range cases {
		sc := base()
		tc.mut(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Errorf("base scenario rejected: %v", err)
	}
}

func TestSanitizeAlwaysValidates(t *testing.T) {
	f := func(seed uint64, sw, extra int, alg string, loss, delayProb float64, retries int,
		atA, atB float64, nodeA, nodeB, link int, durUS float64) bool {
		sc := Scenario{
			Seed:       seed,
			Topology:   TopologySpec{Switches: sw, ExtraLinks: extra, Seed: seed},
			Algorithm:  alg,
			Loss:       loss,
			DelayProb:  delayProb,
			MaxRetries: retries,
			Events: []Event{
				{AtUS: atA, Op: OpDown, Node: nodeA},
				{AtUS: atB, Op: OpUp, Node: nodeB},
				{AtUS: atA, Op: OpFlap, Link: link, DurUS: durUS},
				{AtUS: atB, Op: "bogus"},
			},
		}
		return Sanitize(sc).Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExecuteDeterministic(t *testing.T) {
	for _, p := range Profiles() {
		sc := Generate(2, p)
		a, err := Execute(sc, Options{Telemetry: true})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		b, err := Execute(sc, Options{Telemetry: true})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if a.Fingerprint != b.Fingerprint {
			t.Errorf("%s: two executions fingerprint %#x and %#x", p.Name, a.Fingerprint, b.Fingerprint)
		}
		errA, errB := (Oracle{}).Check(a), (Oracle{}).Check(b)
		if (errA == nil) != (errB == nil) {
			t.Errorf("%s: oracle verdicts differ: %v vs %v", p.Name, errA, errB)
		}
	}
}

func TestSmokeAllProfiles(t *testing.T) {
	for _, p := range Profiles() {
		for seed := uint64(1); seed <= 5; seed++ {
			sc := Generate(seed, p)
			rep, err := Execute(sc, Options{Telemetry: true, Spans: true})
			if err != nil {
				t.Fatalf("%s seed %d: %v", p.Name, seed, err)
			}
			if err := (Oracle{}).Check(rep); err != nil {
				t.Errorf("%s seed %d (%s): %v", p.Name, seed, sc.Name, err)
			}
		}
	}
}

func TestCrossCheckAgreement(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		sc := Generate(seed, mustProfile(t, "quick"))
		if err := CrossCheck(sc, Options{Telemetry: true}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestOracleCatchesSkippedPI5AndShrinks breaks the system on purpose:
// the executor's pi5Filter swallows the one PI-5 report of a leaf-switch
// removal, so the fabric counts a delivery the manager never assimilates.
// The oracle must notice (PI-5 after the last change with no discovery
// run following it), and the shrinker must cut the reproducer down to a
// handful of switches and at most two script events.
func TestOracleCatchesSkippedPI5AndShrinks(t *testing.T) {
	opt := Options{Telemetry: true, SkipPI5: 1}
	fails := func(sc Scenario) bool {
		rep, err := Execute(sc, opt)
		return err == nil && (Oracle{}).Check(rep) != nil
	}
	spec := TopologySpec{Switches: 12, Seed: 11}
	tp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, host := rig.Host(tp)
	for _, n := range tp.Nodes {
		// A leaf switch has exactly one switch neighbour, so its removal
		// produces exactly one deliverable PI-5 (the one the filter eats:
		// its own endpoint's report dies inside the dead region).
		if n.Type != asi.DeviceSwitch || n.ID == host || switchNeighbors(tp, n.ID) != 1 {
			continue
		}
		sc := Scenario{
			Seed:      5,
			Topology:  spec,
			Algorithm: core.Parallel.Slug(),
			Events: []Event{
				{AtUS: 20, Op: OpFlap, Link: 0, DurUS: 30},
				{AtUS: 400, Op: OpDown, Node: int(n.ID)},
			},
		}
		if !fails(sc) {
			continue
		}
		rep, err := Execute(sc, opt)
		if err != nil {
			t.Fatal(err)
		}
		oerr := (Oracle{}).Check(rep)
		if oerr == nil || !strings.Contains(oerr.Error(), "PI-5") {
			t.Fatalf("oracle error does not name the lost PI-5: %v", oerr)
		}
		min := Shrink(sc, fails)
		if !fails(min) {
			t.Fatal("shrunk scenario no longer fails")
		}
		mtp, err := min.Topology.Build()
		if err != nil {
			t.Fatal(err)
		}
		if sw := mtp.NumSwitches(); sw > 6 || len(min.Events) > 2 {
			t.Fatalf("shrunk to %d switches / %d events, want <= 6 / <= 2\n%s",
				sw, len(min.Events), min.EncodeJSON())
		}
		// And the same scenario with the filter removed is healthy.
		repOK, err := Execute(min, Options{Telemetry: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := (Oracle{}).Check(repOK); err != nil {
			t.Fatalf("minimal scenario fails even without the injected fault: %v", err)
		}
		return
	}
	t.Fatal("no leaf-switch scenario tripped the oracle")
}

// switchNeighbors counts distinct switch nodes cabled to n.
func switchNeighbors(tp *topo.Topology, id topo.NodeID) int {
	seen := map[topo.NodeID]bool{}
	n := tp.Nodes[id]
	for p := 0; p < n.Ports; p++ {
		peer, _, ok := tp.Peer(id, p)
		if ok && tp.Nodes[peer].Type == asi.DeviceSwitch && !seen[peer] {
			seen[peer] = true
		}
	}
	return len(seen)
}

func mustProfile(t *testing.T, name string) Profile {
	t.Helper()
	p, ok := ProfileByName(name)
	if !ok {
		t.Fatalf("missing profile %q", name)
	}
	return p
}

// TestCheckConvergedRejectsIsland keeps the database's device and link
// counts at ground truth while cutting one endpoint off: its cable is
// swapped for a bogus one between two free switch ports. Only the
// reachability clause can tell, and it must name the endpoint.
func TestCheckConvergedRejectsIsland(t *testing.T) {
	r, err := rig.New(topo.Mesh(3, 3), rig.Config{Seed: 1, Manager: core.Options{Algorithm: core.Parallel}})
	if err != nil {
		t.Fatal(err)
	}
	var res core.Result
	r.Manager.OnDiscoveryComplete = func(got core.Result) { res = got }
	r.Manager.StartDiscovery()
	r.Run()
	if err := CheckConverged(r.Fabric, r.Manager, res); err != nil {
		t.Fatal(err)
	}

	db := r.Manager.DB()
	var island asi.DSN
	var free []core.Link
	for _, n := range db.Nodes() {
		switch {
		case n.Type != asi.DeviceSwitch && n.DSN != db.HostDSN && island == 0:
			island = n.DSN
		case n.Type == asi.DeviceSwitch:
			for port := 0; port < n.Ports && len(free) < 2; port++ {
				if _, used := db.LinkAt(n.DSN, port); !used {
					free = append(free, core.Link{A: n.DSN, APort: port})
				}
			}
		}
	}
	if island == 0 || len(free) < 2 {
		t.Fatalf("no endpoint (%v) or fewer than two free switch ports (%v) to rewire", island, free)
	}
	cable, _ := db.LinkAt(island, int(db.NeighborsOf(island)[0].LocalPort))
	db.RemoveLink(cable)
	db.AddLink(core.Link{A: free[0].A, APort: free[0].APort, B: free[1].A, BPort: free[1].APort})

	err = CheckConverged(r.Fabric, r.Manager, res)
	if want := fmt.Sprintf("node %v unreachable", island); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("CheckConverged = %v, want an error naming %q", err, want)
	}
}
