// Fattree compares the three discovery algorithms of the paper on its
// fat-tree topologies (m-port n-trees), printing discovery time,
// management traffic, and the FM processing average for each.
//
//	go run ./examples/fattree
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/rig"
	"repro/internal/topo"
)

func main() {
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
}
