package experiment_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Example_fattree compares the three discovery algorithms of the paper on
// its fat-tree topologies (m-port n-trees), printing discovery time,
// management traffic, and the FM processing average for each.
func Example_fattree() {
	trees := []string{"4-port 2-tree", "4-port 3-tree", "4-port 4-tree", "8-port 2-tree"}
	fmt.Printf("%-14s %-14s %12s %10s %12s\n",
		"Topology", "Algorithm", "Time", "Packets", "FM avg")
	for _, name := range trees {
		for _, kind := range core.PaperKinds() {
			tp, err := topo.ByName(name)
			if err != nil {
				log.Fatal(err)
			}
			r, err := rig.New(tp, rig.Config{Seed: 1, Manager: core.Options{Algorithm: kind}})
			if err != nil {
				log.Fatal(err)
			}
			var res core.Result
			r.Manager.OnDiscoveryComplete = func(got core.Result) { res = got }
			r.Manager.StartDiscovery()
			r.Run()
			if res.Devices != len(tp.Nodes) {
				log.Fatalf("%s/%v: found %d of %d devices", name, kind, res.Devices, len(tp.Nodes))
			}
			fmt.Printf("%-14s %-14s %12v %10d %12v\n",
				name, kind, res.Duration, res.PacketsSent, res.AvgFMProcessing())
		}
		fmt.Println()
	}
	// Output:
	// Topology       Algorithm              Time    Packets       FM avg
	// 4-port 2-tree  Serial Packet       1.042ms         47     18.394us
	// 4-port 2-tree  Serial Device     887.044us         47     16.328us
	// 4-port 2-tree  Parallel          594.828us         47     12.290us
	//
	// 4-port 3-tree  Serial Packet       3.325ms        143     18.985us
	// 4-port 3-tree  Serial Device       2.783ms        143     16.821us
	// 4-port 3-tree  Parallel            1.837ms        143     12.725us
	//
	// 4-port 4-tree  Serial Packet       9.704ms        383     20.387us
	// 4-port 4-tree  Serial Device       8.016ms        383     17.989us
	// 4-port 4-tree  Parallel            5.283ms        383     13.744us
	//
	// 8-port 2-tree  Serial Packet       4.311ms        191     18.979us
	// 8-port 2-tree  Serial Device       3.627ms        191     16.816us
	// 8-port 2-tree  Parallel            2.459ms        191     12.779us
}

// Example_distributed demonstrates the paper's future-work collaborative
// discovery: several fabric managers partition the fabric by atomic
// ownership claims, discover their regions concurrently, and ship their
// views to the primary for merging.
func Example_distributed() {
	fmt.Println("collaborative discovery on an 8x8 torus (128 devices):")
	for _, teamSize := range []int{1, 2, 4} {
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

		// Bootstrap: the primary discovers alone once, so the team knows
		// the report routes (in deployment this state exists from normal
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
		for i, m := range res.PerMember {
			fmt.Printf("   member %d: local %v, %d pkts\n", i, m.Duration, m.PacketsSent)
		}
	}
	// Output:
	// collaborative discovery on an 8x8 torus (128 devices):
	// 1 FM(s): 20.640ms  devices=128 links=192  total pkts=1406 (sync 0)
	//    member 0: local 20.640ms, 1406 pkts
	// 2 FM(s): 9.957ms  devices=128 links=192  total pkts=1454 (sync 2)
	//    member 0: local 9.882ms, 726 pkts
	//    member 1: local 9.882ms, 726 pkts
	// 4 FM(s): 4.936ms  devices=128 links=192  total pkts=1499 (sync 3)
	//    member 0: local 4.874ms, 374 pkts
	//    member 1: local 4.874ms, 374 pkts
	//    member 2: local 4.874ms, 374 pkts
	//    member 3: local 4.874ms, 374 pkts
}

// Example_failover demonstrates fabric-management failover (paper
// section 2: "If the primary FM fails, the secondary one takes over"):
// the primary streams heartbeats to the secondary; when the primary's
// endpoint dies, the secondary's watchdog fires, it rediscovers the
// fabric and reprograms the event routes toward itself, after which it
// assimilates further changes as the acting manager.
func Example_failover() {
	tp := topo.Torus(4, 4)
	r, err := rig.New(tp, rig.Config{Seed: 21, Manager: core.Options{Algorithm: core.Parallel}})
	if err != nil {
		log.Fatal(err)
	}
	engine, fab := r.Engine, r.Fabric
	primary := r.Manager // on the first endpoint
	secondary := r.AddManager(tp.Endpoints()[8], core.Options{Algorithm: core.Parallel})

	// The primary discovers and configures the fabric.
	primary.OnDiscoveryComplete = func(res core.Result) {
		fmt.Printf("[%-9v] primary discovery: %v\n", engine.Now(), res)
		primary.DistributeEventRoutes(nil)
	}
	primary.StartDiscovery()
	engine.Run()

	// Liveness protocol between the two managers.
	primary.StartHeartbeats(secondary.Device().DSN, 300*sim.Microsecond)
	watchdog := secondary.WatchPrimary(300*sim.Microsecond, 3, func() {
		fmt.Printf("[%-9v] watchdog fired: secondary %s takes over\n",
			engine.Now(), secondary.Device().Label)
	})
	secondary.OnDiscoveryComplete = func(res core.Result) {
		fmt.Printf("[%-9v] new primary discovery: %v\n", engine.Now(), res)
	}

	engine.RunUntil(engine.Now().Add(2 * sim.Millisecond))
	fmt.Printf("[%-9v] %d heartbeats received; primary healthy\n", engine.Now(), watchdog.Received)

	// Kill the primary's endpoint.
	fmt.Printf("\n[%-9v] *** primary endpoint %s fails ***\n", engine.Now(), primary.Device().Label)
	if err := fab.SetDeviceDown(primary.Device().ID, true); err != nil {
		log.Fatal(err)
	}
	engine.RunUntil(engine.Now().Add(20 * sim.Millisecond))
	engine.Run()

	if !watchdog.TookOver() {
		log.Fatal("failover did not happen")
	}
	fmt.Printf("[%-9v] fabric now managed by %s: %v\n",
		engine.Now(), secondary.Device().Label, secondary.DB())

	// Prove the new primary owns change assimilation: remove a switch.
	fmt.Printf("\n[%-9v] *** removing a switch under the new primary ***\n", engine.Now())
	if err := fab.SetDeviceDown(6, false); err != nil {
		log.Fatal(err)
	}
	engine.Run()
	fmt.Printf("[%-9v] assimilated: %v\n", engine.Now(), secondary.DB())
	// Output:
	// [4.064ms  ] primary discovery: Parallel: 4.064ms, 32 devices (16 switches, 48 links), 319 pkts sent / 319 received, avg FM proc 12.669us
	// [6.478ms  ] 7 heartbeats received; primary healthy
	//
	// [6.478ms  ] *** primary endpoint ep(0,0) fails ***
	// [7.179ms  ] watchdog fired: secondary ep(2,0) takes over
	// [11.213ms ] new primary discovery: Parallel: 4.034ms, 31 devices (16 switches, 47 links), 317 pkts sent / 317 received, avg FM proc 12.655us
	// [26.478ms ] fabric now managed by ep(2,0): db{31 devices (16 switches), 47 links}
	//
	// [26.478ms ] *** removing a switch under the new primary ***
	// [30.256ms ] new primary discovery: Parallel: 3.743ms, 29 devices (15 switches, 42 links), 295 pkts sent / 295 received, avg FM proc 12.614us
	// [30.256ms ] assimilated: db{29 devices (15 switches), 42 links}
}
