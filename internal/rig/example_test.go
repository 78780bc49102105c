package rig_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/rig"
	"repro/internal/topo"
)

// Example_quickstart builds an ASI fabric, runs the Parallel discovery
// process and prints what the fabric manager learned.
//
//	go test -run Example_quickstart -v ./internal/rig
func Example_quickstart() {
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
	// Output:
	// discovered 3x3 mesh: 9 switches, 9 endpoints, 21 links in 2.163ms using 173 management packets
	// average FM processing per packet: 12.377us
	//
	// topology database:
	//   switch    dsn:00000000a5100000  path=[<direct>]
	//   switch    dsn:00000000a5100001  path=[4->0]
	//   switch    dsn:00000000a5100002  path=[4->0 1->0]
	//   switch    dsn:00000000a5100003  path=[4->2]
	//   switch    dsn:00000000a5100004  path=[4->0 1->2]
	//   switch    dsn:00000000a5100005  path=[4->0 1->0 1->2]
	//   switch    dsn:00000000a5100006  path=[4->2 3->2]
	//   switch    dsn:00000000a5100007  path=[4->0 1->2 3->2]
	//   switch    dsn:00000000a5100008  path=[4->0 1->0 1->2 3->2]
	//   endpoint  dsn:00000000a5100009  path=[<direct>]
	//   endpoint  dsn:00000000a510000a  path=[4->0 1->4]
	//   endpoint  dsn:00000000a510000b  path=[4->0 1->0 1->4]
	//   endpoint  dsn:00000000a510000c  path=[4->2 3->4]
	//   endpoint  dsn:00000000a510000d  path=[4->0 1->2 3->4]
	//   endpoint  dsn:00000000a510000e  path=[4->0 1->0 1->2 3->4]
	//   endpoint  dsn:00000000a510000f  path=[4->2 3->2 3->4]
	//   endpoint  dsn:00000000a5100010  path=[4->0 1->2 3->2 3->4]
	//   endpoint  dsn:00000000a5100011  path=[4->0 1->0 1->2 3->2 3->4]
	//
	// links (21):
	//   dsn:00000000a5100000.0 -- dsn:00000000a5100001.1
	//   dsn:00000000a5100000.2 -- dsn:00000000a5100003.3
	//   dsn:00000000a5100000.4 -- dsn:00000000a5100009.0
	//   dsn:00000000a5100001.0 -- dsn:00000000a5100002.1
	//   dsn:00000000a5100001.2 -- dsn:00000000a5100004.3
	//   dsn:00000000a5100001.4 -- dsn:00000000a510000a.0
	//   dsn:00000000a5100002.2 -- dsn:00000000a5100005.3
	//   dsn:00000000a5100002.4 -- dsn:00000000a510000b.0
	//   dsn:00000000a5100003.0 -- dsn:00000000a5100004.1
	//   dsn:00000000a5100003.2 -- dsn:00000000a5100006.3
	//   dsn:00000000a5100003.4 -- dsn:00000000a510000c.0
	//   dsn:00000000a5100004.0 -- dsn:00000000a5100005.1
	//   dsn:00000000a5100004.2 -- dsn:00000000a5100007.3
	//   dsn:00000000a5100004.4 -- dsn:00000000a510000d.0
	//   dsn:00000000a5100005.2 -- dsn:00000000a5100008.3
	//   dsn:00000000a5100005.4 -- dsn:00000000a510000e.0
	//   dsn:00000000a5100006.0 -- dsn:00000000a5100007.1
	//   dsn:00000000a5100006.4 -- dsn:00000000a510000f.0
	//   dsn:00000000a5100007.0 -- dsn:00000000a5100008.1
	//   dsn:00000000a5100007.4 -- dsn:00000000a5100010.0
	//   dsn:00000000a5100008.4 -- dsn:00000000a5100011.0
}

// Example_hotswap walks the ASI change-assimilation lifecycle of the
// paper: initial topology discovery, event-route distribution, a live
// switch removal detected via PI-5 and assimilated by rediscovery, and
// finally the switch's hot re-addition.
func Example_hotswap() {
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
	// Output:
	// [4.064ms  ] discovery: Parallel: 4.064ms, 32 devices (16 switches, 48 links), 319 pkts sent / 319 received, avg FM proc 12.669us
	// [4.478ms  ] event routes: 31 writes, 0 failures, 414.118us
	//
	// [4.478ms  ] *** hot-removing sw(1,1) ***
	// [8.285ms  ] discovery: Parallel: 3.773ms, 30 devices (15 switches, 43 links), 297 pkts sent / 297 received, avg FM proc 12.627us
	// [8.670ms  ] event routes: 29 writes, 0 failures, 385.238us
	// [8.670ms  ] database now: db{30 devices (15 switches), 43 links}
	//
	// [8.670ms  ] *** hot-adding sw(1,1) back ***
	// [12.776ms ] discovery: Parallel: 4.071ms, 32 devices (16 switches, 48 links), 319 pkts sent / 319 received, avg FM proc 12.655us
	// [13.153ms ] event routes: 31 writes, 0 failures, 376.998us
	// [17.217ms ] discovery: Parallel: 4.416ms, 32 devices (16 switches, 48 links), 319 pkts sent / 319 received, avg FM proc 12.669us
	// [17.631ms ] event routes: 31 writes, 0 failures, 414.118us
	// [17.631ms ] database now: db{32 devices (16 switches), 48 links}
}
