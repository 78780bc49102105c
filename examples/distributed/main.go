// Distributed demonstrates the paper's future-work collaborative
// discovery: several fabric managers partition the fabric by atomic
// ownership claims, discover their regions concurrently, and ship their
// views to the primary for merging.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/rig"
	"repro/internal/topo"
)

func run(teamSize int) {
	tp := topo.Torus(8, 8)
	r, err := rig.New(tp, rig.Config{Seed: 11, Manager: core.Options{Algorithm: core.Distributed}})
	if err != nil {
		log.Fatal(err)
	}
	eps := tp.Endpoints()
	members := []*core.Manager{r.Manager} // on eps[0]
	for i := 1; i < teamSize; i++ {
		// Spread the collaborators across the fabric.
		members = append(members, r.AddManager(eps[i*len(eps)/teamSize], core.Options{Algorithm: core.Distributed}))
	}
	team := core.NewTeam(members)

	// Bootstrap: the primary discovers alone once, so the team knows the
	// report routes (in deployment this state exists from normal
	// operation).
	done := false
	members[0].OnDiscoveryComplete = func(core.Result) { done = true }
	members[0].StartDiscovery()
	r.Run()
	if !done {
		log.Fatal("bootstrap discovery failed")
	}
	team.RestoreMemberCallbacks()
	team.Prepare()

	var res core.TeamResult
	team.OnComplete = func(got core.TeamResult) { res = got }
	team.StartDiscovery()
	r.Run()

	fmt.Printf("%d FM(s): %v  devices=%d links=%d  total pkts=%d (sync %d)\n",
		teamSize, res.Duration, res.Devices, res.Links, res.TotalPacketsSent, res.SyncPackets)
	for i, r := range res.PerMember {
		fmt.Printf("   member %d: local %v, %d pkts\n", i, r.Duration, r.PacketsSent)
	}
}

func main() {
	fmt.Println("collaborative discovery on an 8x8 torus (128 devices):")
	for _, k := range []int{1, 2, 4} {
		run(k)
	}
}
