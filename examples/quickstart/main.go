// Quickstart: build an ASI fabric, run the Parallel discovery process,
// and print what the fabric manager learned.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/rig"
	"repro/internal/topo"
)

func main() {
	// Build the paper's smallest topology, a 3x3 mesh of 16-port
	// switches with one endpoint per switch, as a managed fabric: a
	// discrete-event engine drives the fabric, and a fabric manager sits
	// on the first endpoint.
	tp := topo.Mesh(3, 3)
	r, err := rig.New(tp, rig.Config{Seed: 42, Manager: core.Options{Algorithm: core.Parallel}})
	if err != nil {
		log.Fatal(err)
	}

	// Discover.
	fm := r.Manager
	var result core.Result
	fm.OnDiscoveryComplete = func(res core.Result) { result = res }
	fm.StartDiscovery()
	r.Run()

	fmt.Printf("discovered %s in %v using %d management packets\n",
		tp, result.Duration, result.PacketsSent)
	fmt.Printf("average FM processing per packet: %v\n\n", result.AvgFMProcessing())

	fmt.Println("topology database:")
	for _, n := range fm.DB().Nodes() {
		fmt.Printf("  %-9s %s  path=[%s]\n", n.Type, n.DSN, n.Path)
	}
	fmt.Printf("\nlinks (%d):\n", fm.DB().NumLinks())
	for _, l := range fm.DB().Links() {
		fmt.Printf("  %s.%d -- %s.%d\n", l.A, l.APort, l.B, l.BPort)
	}
}
