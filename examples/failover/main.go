// Failover demonstrates fabric-management failover (paper section 2:
// "If the primary FM fails, the secondary one takes over"): the primary
// streams heartbeats to the secondary; when the primary's endpoint dies,
// the secondary's watchdog fires, it rediscovers the fabric and
// reprograms the event routes toward itself, after which it assimilates
// further changes as the acting manager.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() {
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
}
