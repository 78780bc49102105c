// Hotswap walks the ASI change-assimilation lifecycle of the paper:
// initial topology discovery, event-route distribution, a live switch
// removal detected via PI-5 and assimilated by rediscovery, and finally
// the switch's hot re-addition.
//
//	go run ./examples/hotswap
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/rig"
	"repro/internal/topo"
)

func main() {
	tp := topo.Torus(4, 4)
	r, err := rig.New(tp, rig.Config{Seed: 7, Manager: core.Options{Algorithm: core.Parallel}})
	if err != nil {
		log.Fatal(err)
	}
	engine, fab, fm := r.Engine, r.Fabric, r.Manager
	fm.OnDiscoveryComplete = func(res core.Result) {
		fmt.Printf("[%-9v] discovery: %v\n", engine.Now(), res)
		// After every discovery, (re)program event routes so devices can
		// report the next change.
		fm.DistributeEventRoutes(func(d core.DistResult) {
			fmt.Printf("[%-9v] event routes: %d writes, %d failures, %v\n",
				engine.Now(), d.Writes, d.Failures, d.Duration)
		})
	}
	fm.StartDiscovery()
	engine.Run()

	// Hot-remove a switch: its neighbours detect the dead ports and
	// report via PI-5; the FM coalesces the burst and rediscovers.
	victim := topo.NodeID(5)
	fmt.Printf("\n[%-9v] *** hot-removing %s ***\n", engine.Now(), fab.Device(victim).Label)
	if err := fab.SetDeviceDown(victim, false); err != nil {
		log.Fatal(err)
	}
	engine.Run()
	fmt.Printf("[%-9v] database now: %v\n", engine.Now(), fm.DB())

	// Hot-add it back.
	fmt.Printf("\n[%-9v] *** hot-adding %s back ***\n", engine.Now(), fab.Device(victim).Label)
	if err := fab.SetDeviceUp(victim, false); err != nil {
		log.Fatal(err)
	}
	engine.Run()
	fmt.Printf("[%-9v] database now: %v\n", engine.Now(), fm.DB())
}
