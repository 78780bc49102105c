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
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() {
	engine := sim.NewEngine()
	tp := topo.Torus(4, 4)
	fab, err := fabric.New(engine, tp, fabric.DefaultConfig(), sim.NewRNG(7))
	if err != nil {
		log.Fatal(err)
	}
	fm := core.NewManager(fab, fab.Device(tp.Endpoints()[0]), core.Options{Algorithm: core.Parallel})
	fm.OnDiscoveryComplete = func(r core.Result) {
		fmt.Printf("[%-9v] discovery: %v\n", engine.Now(), r)
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
