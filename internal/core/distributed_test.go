package core

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// teamSetup builds a fabric with k distributed managers on spread-out
// endpoints, runs one single-FM bootstrap discovery on the primary's
// fabric position (to prepare report routes), and returns the team.
func teamSetup(t *testing.T, tp *topo.Topology, k int) (*sim.Engine, *fabric.Fabric, *Team) {
	t.Helper()
	e := sim.NewEngine()
	f, err := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	eps := tp.Endpoints()
	if k > len(eps) {
		t.Fatal("team larger than endpoint count")
	}
	members := make([]*Manager, k)
	for i := 0; i < k; i++ {
		// Spread members across the fabric.
		ep := eps[i*len(eps)/k]
		members[i] = NewManager(f, f.Device(ep), Options{Algorithm: Distributed})
	}
	team := NewTeam(members)
	// Bootstrap: one round with only the primary effectively discovering
	// (standalone distributed run) to obtain the paths for Prepare.
	var boot *Result
	members[0].OnDiscoveryComplete = func(r Result) { boot = &r }
	members[0].StartDiscovery()
	e.Run()
	if boot == nil {
		t.Fatal("bootstrap discovery did not finish")
	}
	team.RestoreMemberCallbacks()
	team.Prepare()
	return e, f, team
}

func TestDistributedDiscoversFullTopology(t *testing.T) {
	tp := topo.Mesh(6, 6)
	e, _, team := teamSetup(t, tp, 3)
	var res *TeamResult
	team.OnComplete = func(r TeamResult) { res = &r }
	team.StartDiscovery()
	e.Run()
	if res == nil {
		t.Fatal("distributed round did not complete")
	}
	if res.Devices != 72 {
		t.Errorf("merged %d devices, want 72", res.Devices)
	}
	if res.Links != len(tp.Links) {
		t.Errorf("merged %d links, want %d", res.Links, len(tp.Links))
	}
	if res.Missing != 0 {
		t.Errorf("%d reports missing", res.Missing)
	}
	if res.SyncPackets == 0 {
		t.Error("no sync traffic recorded")
	}
	if len(res.PerMember) != 3 {
		t.Errorf("%d member results", len(res.PerMember))
	}
}

func TestDistributedRegionsPartitionPortReads(t *testing.T) {
	// Each member's local packet count must be well under a full solo
	// run: claims partition the port reads.
	tp := topo.Mesh(6, 6)
	e, _, soloM := setup(t, tp, Parallel)
	solo := runDiscovery(t, e, soloM)

	e2, _, team := teamSetup(t, tp, 3)
	var res *TeamResult
	team.OnComplete = func(r TeamResult) { res = &r }
	team.StartDiscovery()
	e2.Run()
	if res == nil {
		t.Fatal("no result")
	}
	for i, r := range res.PerMember {
		if r.PacketsSent >= solo.PacketsSent {
			t.Errorf("member %d sent %d packets, solo run sent %d — no partitioning",
				i, r.PacketsSent, solo.PacketsSent)
		}
	}
}

func TestDistributedFasterThanSoloParallel(t *testing.T) {
	tp := topo.Torus(8, 8)
	e, _, soloM := setup(t, tp, Parallel)
	solo := runDiscovery(t, e, soloM)

	e2, _, team := teamSetup(t, tp, 4)
	var res *TeamResult
	team.OnComplete = func(r TeamResult) { res = &r }
	team.StartDiscovery()
	e2.Run()
	if res == nil {
		t.Fatal("no result")
	}
	if res.Duration >= solo.Duration {
		t.Errorf("distributed (%v) not faster than solo Parallel (%v)", res.Duration, solo.Duration)
	}
}

func TestDistributedSingleMemberDegeneratesToParallel(t *testing.T) {
	tp := topo.Mesh(3, 3)
	e, _, team := teamSetup(t, tp, 1)
	var res *TeamResult
	team.OnComplete = func(r TeamResult) { res = &r }
	team.StartDiscovery()
	e.Run()
	if res == nil || res.Devices != 18 || res.SyncPackets != 0 {
		t.Fatalf("single-member round: %+v", res)
	}
}

func TestDistributedAfterChange(t *testing.T) {
	tp := topo.Mesh(4, 4)
	e, f, team := teamSetup(t, tp, 2)
	// First full round.
	ran := 0
	team.OnComplete = func(r TeamResult) { ran++ }
	team.StartDiscovery()
	e.Run()
	// Remove a switch quietly (not the report path's anchor) and re-run.
	if err := f.SetDeviceDown(10, true); err != nil {
		t.Fatal(err)
	}
	var res *TeamResult
	team.OnComplete = func(r TeamResult) { res = &r }
	team.StartDiscovery()
	e.Run()
	if res == nil {
		t.Fatal("second round did not finish")
	}
	primary := team.Primary()
	wantDev, wantLinks := f.AliveReachable(primary.Device().ID)
	if res.Devices != wantDev || res.Links != wantLinks {
		t.Errorf("merged %d devices / %d links, want %d / %d",
			res.Devices, res.Links, wantDev, wantLinks)
	}
}

// TestDistributedMergesEveryReportAtScale: on a 2048-device dragonfly
// the primary takes longer than the sync timeout to process the queued
// FM-sync chunks of several collaborators. The deadline measures
// progress, so every report is merged and the DB matches the alive
// fabric at 2, 4 and 8 FMs.
func TestDistributedMergesEveryReportAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("three 2048-device team rounds")
	}
	tp := topo.Dragonfly(16, 64)
	for _, k := range []int{2, 4, 8} {
		e, f, team := teamSetup(t, tp, k)
		var res *TeamResult
		team.OnComplete = func(r TeamResult) { res = &r }
		team.StartDiscovery()
		e.Run()
		if res == nil {
			t.Fatalf("%d FMs: round did not complete", k)
		}
		devices, links := f.AliveReachable(team.Primary().Device().ID)
		if res.Missing != 0 || res.Devices != devices || res.Links != links {
			t.Errorf("%d FMs: merged %d devices and %d links with %d reports missing, the alive fabric has %d and %d",
				k, res.Devices, res.Links, res.Missing, devices, links)
		}
	}
}

func TestDistributedSurvivesLostReportRoute(t *testing.T) {
	// Cut a member's report path mid-round: the primary must complete
	// after the sync timeout with the report counted missing (or the
	// member unreachable entirely).
	tp := topo.Mesh(4, 4)
	e, f, team := teamSetup(t, tp, 2)
	// Member 1 sits at the far corner; removing its host switch strands
	// it entirely.
	member := team.members[1]
	host, _, _ := f.Topo.Peer(member.Device().ID, 0)
	if err := f.SetDeviceDown(host, true); err != nil {
		t.Fatal(err)
	}
	var res *TeamResult
	team.OnComplete = func(r TeamResult) { res = &r }
	team.StartDiscovery()
	e.Run()
	if res == nil {
		t.Fatal("round hung on missing report")
	}
	if res.Missing != 1 {
		t.Errorf("Missing = %d, want 1", res.Missing)
	}
	// The primary still discovered its own region.
	if res.Devices == 0 {
		t.Error("primary discovered nothing")
	}
}

func TestMergedPathsValid(t *testing.T) {
	tp := topo.Torus(4, 4)
	e, _, team := teamSetup(t, tp, 2)
	var res *TeamResult
	team.OnComplete = func(r TeamResult) { res = &r }
	team.StartDiscovery()
	e.Run()
	if res == nil {
		t.Fatal("no result")
	}
	p := team.Primary()
	for _, n := range p.DB().Nodes() {
		if n.DSN == p.Device().DSN {
			continue
		}
		if got, _ := p.DB().PathTo(n.DSN); got == nil {
			t.Errorf("merged node %v has no primary-relative path", n.DSN)
		}
		if n.Path == nil {
			t.Errorf("merged node %v kept a nil path", n.DSN)
		}
	}
}

func TestNewTeamValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty team did not panic")
		}
	}()
	NewTeam(nil)
}

func TestTeamRejectsWrongAlgorithm(t *testing.T) {
	tp := topo.Mesh(3, 3)
	e := sim.NewEngine()
	f, _ := fabric.New(e, tp, fabric.Config{}, sim.NewRNG(1))
	m := NewManager(f, f.Device(tp.Endpoints()[0]), Options{Algorithm: Parallel})
	defer func() {
		if recover() == nil {
			t.Error("non-distributed member did not panic")
		}
	}()
	NewTeam([]*Manager{m})
}

// A database frozen by Clone when the primary's own run completes — what
// an installer takes — must not see the merge that follows, which adds
// the members' devices and rewrites source routes in the primary's live
// database.
func TestDistributedMergeLeavesCloneAlone(t *testing.T) {
	e, _, team := teamSetup(t, topo.Mesh(6, 6), 3)
	p := team.Primary()
	var frozen *DB
	var before string
	done := p.OnDiscoveryComplete
	p.OnDiscoveryComplete = func(r Result) {
		frozen = p.DB().Clone()
		before = dump(frozen, true)
		done(r)
	}
	merged := false
	team.OnComplete = func(TeamResult) { merged = true }
	team.StartDiscovery()
	e.Run()
	if !merged || frozen == nil {
		t.Fatalf("round merged %v, primary's run cloned %v", merged, frozen != nil)
	}
	if frozen.NumNodes() == p.DB().NumNodes() {
		t.Fatalf("the merge added nothing to the primary's %d devices", frozen.NumNodes())
	}
	if after := dump(frozen, true); after != before {
		t.Error("the merge changed the database cloned before it")
	}
}
