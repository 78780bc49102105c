package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Extension experiments for the paper's future-work directions (section
// 5): partial (affected-region) rediscovery and discovery distributed
// over collaborating fabric managers.

// ExtPartial compares full rediscovery (Parallel) against Partial
// assimilation for the same changes.
func ExtPartial(seeds, workers int) Report {
	topos := []string{"4x4 mesh", "6x6 mesh", "8x8 torus"}
	var cfgs []Config
	for _, tn := range topos {
		for seed := 1; seed <= seeds; seed++ {
			for _, ch := range []Change{RemoveSwitch, AddSwitch} {
				for _, k := range []core.Kind{core.Parallel, core.Partial} {
					cfgs = append(cfgs, Config{
						Topology: tn, Algorithm: k, Seed: uint64(seed), Change: ch,
					})
				}
			}
		}
	}
	outs := RunConfigAll(cfgs, workers)
	r := Report{
		ID:     "ext-partial",
		Title:  "Full rediscovery (Parallel) vs partial assimilation of the affected region",
		Header: []string{"Topology", "Change", "Seed", "Full (s)", "Partial (s)", "Full pkts", "Partial pkts", "Pkt saving"},
		Notes: []string{
			"paper section 5: \"explore only the portion of the network affected by the change, instead of the entire fabric\"",
		},
	}
	for i := 0; i+1 < len(outs); i += 2 {
		full, part := outs[i], outs[i+1]
		row := []string{full.Config.Topology, full.Config.Change.String(), fmt.Sprint(full.Config.Seed)}
		if full.Err != nil || part.Err != nil {
			row = append(row, "ERR", "ERR", "", "", "")
			r.Rows = append(r.Rows, row)
			continue
		}
		saving := "-"
		if part.Result.PacketsSent > 0 {
			saving = fmt.Sprintf("%.1fx", float64(full.Result.PacketsSent)/float64(part.Result.PacketsSent))
		}
		row = append(row,
			secs(full.Result.Duration), secs(part.Result.Duration),
			fmt.Sprint(full.Result.PacketsSent), fmt.Sprint(part.Result.PacketsSent),
			saving)
		r.Rows = append(r.Rows, row)
	}
	return r
}

// distRun measures one distributed round with k collaborating FMs on the
// named topology; it returns the merged result, or an error when a
// collaborator's report is missing from it. The rig gets no seed:
// without a fault plan nothing in the run draws a random number.
func distRun(topoName string, k int) (core.TeamResult, error) {
	tp, err := topo.ByName(topoName)
	if err != nil {
		return core.TeamResult{}, err
	}
	opt := core.Options{Algorithm: core.Distributed}
	r, err := rig.New(tp, rig.Config{Manager: opt})
	if err != nil {
		return core.TeamResult{}, err
	}
	eps := tp.Endpoints()
	members := []*core.Manager{r.Manager}
	for i := 1; i < k; i++ {
		members = append(members, r.AddManager(eps[i*len(eps)/k], opt))
	}
	team := core.NewTeam(members)
	// Bootstrap round: the primary alone discovers so Prepare can
	// compute report routes (in deployment this state carries over from
	// normal operation).
	var boot bool
	members[0].OnDiscoveryComplete = func(core.Result) { boot = true }
	members[0].StartDiscovery()
	r.Run()
	if !boot {
		return core.TeamResult{}, fmt.Errorf("experiment: distributed bootstrap failed on %s", topoName)
	}
	team.RestoreMemberCallbacks()
	team.Prepare()
	var res *core.TeamResult
	team.OnComplete = func(r core.TeamResult) { res = &r }
	team.StartDiscovery()
	r.Run()
	if res == nil {
		return core.TeamResult{}, fmt.Errorf("experiment: distributed round hung on %s", topoName)
	}
	if res.Missing > 0 {
		return core.TeamResult{}, fmt.Errorf("experiment: distributed round on %s merged without %d of %d reports", topoName, res.Missing, k-1)
	}
	return *res, nil
}

// ExtDistributed measures how discovery time scales with the number of
// collaborating fabric managers.
func ExtDistributed() Report {
	r := Report{
		ID:     "ext-distributed",
		Title:  "Discovery distributed over collaborating fabric managers",
		Header: []string{"Topology", "FMs", "Time (s)", "Total pkts", "Sync pkts", "Missing", "Speedup vs 1 FM"},
		Notes: []string{
			"paper section 5: \"distribute the entire process through several collaborative fabric managers, in order to increase parallelization\"",
			"regions partition dynamically via atomic ownership claims; collaborators ship their view to the primary over the fabric",
		},
	}
	for _, tn := range []string{"6x6 mesh", "8x8 torus", "10x10 torus"} {
		var base sim.Duration
		for _, k := range []int{1, 2, 4} {
			res, err := distRun(tn, k)
			if err != nil {
				r.Rows = append(r.Rows, []string{tn, fmt.Sprint(k), "ERR: " + err.Error(), "", "", "", ""})
				continue
			}
			if k == 1 {
				base = res.Duration
			}
			speedup := "-"
			if base > 0 && res.Duration > 0 {
				speedup = fmt.Sprintf("%.2fx", float64(base)/float64(res.Duration))
			}
			r.Rows = append(r.Rows, []string{
				tn, fmt.Sprint(k), secs(res.Duration),
				fmt.Sprint(res.TotalPacketsSent), fmt.Sprint(res.SyncPackets),
				fmt.Sprint(res.Missing), speedup,
			})
		}
	}
	return r
}

// ExtTraffic validates the paper's methodological claim that application
// traffic scarcely influences discovery time, because management packets
// ride the highest-priority virtual channel.
func ExtTraffic() Report {
	r := Report{
		ID:     "ext-traffic",
		Title:  "Discovery time with and without background application traffic",
		Header: []string{"Topology", "Algorithm", "Idle fabric (s)", "Loaded fabric (s)", "Slowdown"},
		Notes: []string{
			"paper section 4.1: application traffic \"scarcely influences on the discovery time\" because management packets have the highest priority",
		},
	}
	for _, tn := range []string{"4x4 mesh", "6x6 torus"} {
		for _, k := range core.PaperKinds() {
			idle := RunConfig(Config{Topology: tn, Algorithm: k, Seed: 1, Change: NoChange})
			loaded, err := runLoaded(tn, k, 1)
			if idle.Err != nil || err != nil {
				r.Rows = append(r.Rows, []string{tn, k.String(), "ERR", "ERR", ""})
				continue
			}
			slow := float64(loaded) / float64(idle.Result.Duration)
			r.Rows = append(r.Rows, []string{
				tn, k.String(), secs(idle.Result.Duration), secs(loaded),
				fmt.Sprintf("%.3fx", slow),
			})
		}
	}
	return r
}

// ExtFailover measures fabric-management failover: the time from the
// primary FM's death until the secondary has taken over, rediscovered the
// fabric, and reprogrammed the event routes (i.e. the fabric is managed
// again).
func ExtFailover() Report {
	r := Report{
		ID:     "ext-failover",
		Title:  "FM failover: primary death to fabric managed by the secondary",
		Header: []string{"Topology", "HB interval (us)", "Detect (s)", "Rediscover (s)", "Reprogram (s)", "Total outage (s)"},
		Notes: []string{
			"spec / paper section 2: \"If the primary FM fails, the secondary one takes over\"",
			"outage = watchdog window + rediscovery + event-route redistribution",
		},
	}
	for _, tn := range []string{"4x4 mesh", "6x6 torus", "8x8 mesh"} {
		row, err := failoverRun(tn)
		if err != nil {
			r.Rows = append(r.Rows, []string{tn, "", "ERR: " + err.Error(), "", "", ""})
			continue
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// failoverRun kills the primary FM under a secondary that watches its
// heartbeats, and returns the outage broken down by phase as a table row.
func failoverRun(topoName string) ([]string, error) {
	const hb = 300 * sim.Microsecond
	tp, err := topo.ByName(topoName)
	if err != nil {
		return nil, err
	}
	opt := core.Options{Algorithm: core.Parallel}
	r, err := rig.New(tp, rig.Config{Manager: opt})
	if err != nil {
		return nil, err
	}
	eps := tp.Endpoints()
	primary, secondary := r.Manager, r.AddManager(eps[len(eps)/2], opt)
	if err := r.Bootstrap(); err != nil {
		return nil, err
	}
	primary.StartHeartbeats(secondary.Device().DSN, hb)
	var detectAt, rediscoverAt, reprogramAt sim.Time
	w := secondary.WatchPrimary(hb, 3, func() { detectAt = r.Engine.Now() })
	secondary.OnDiscoveryComplete = func(core.Result) {
		if rediscoverAt == 0 {
			rediscoverAt = r.Engine.Now()
		}
	}
	r.RunFor(2 * sim.Millisecond)

	dieAt := r.Engine.Now()
	if err := r.Fabric.SetDeviceDown(primary.Device().ID, true); err != nil {
		return nil, err
	}
	// Drain until the takeover's redistribution completes; the watchdog
	// wrapper redistributes, so wait for an idle fabric.
	r.Run()
	if !w.TookOver() || rediscoverAt == 0 {
		return nil, fmt.Errorf("experiment: failover did not complete on %s", topoName)
	}
	reprogramAt = r.Engine.Now()
	return []string{
		topoName,
		fmt.Sprintf("%.0f", hb.Microseconds()),
		secs(detectAt.Sub(dieAt)),
		secs(rediscoverAt.Sub(detectAt)),
		secs(reprogramAt.Sub(rediscoverAt)),
		secs(reprogramAt.Sub(dieAt)),
	}, nil
}

// runLoaded measures a full discovery while a traffic generator saturates
// the fabric with bulk application packets.
func runLoaded(topoName string, k core.Kind, seed uint64) (sim.Duration, error) {
	tp, err := topo.ByName(topoName)
	if err != nil {
		return 0, err
	}
	r, err := rig.New(tp, rig.Config{Seed: seed, Manager: core.Options{Algorithm: k}})
	if err != nil {
		return 0, err
	}
	// The generator's stream is its own: the fabric draws nothing from its
	// stream without a fault plan.
	gen := fabric.NewTrafficGen(r.Fabric, sim.NewRNG(seed).Split(), 5*sim.Microsecond, 1024)
	gen.Start()
	// The generator never lets the queue drain: the discovery's
	// completion stops the engine.
	var res *core.Result
	r.Manager.OnDiscoveryComplete = func(cr core.Result) { res = &cr; r.Engine.Stop() }
	// Let traffic build up before the discovery starts.
	r.RunFor(200 * sim.Microsecond)
	r.Manager.StartDiscovery()
	r.Run()
	gen.Stop()
	if res == nil {
		return 0, fmt.Errorf("experiment: loaded discovery hung on %s", topoName)
	}
	return res.Duration, nil
}
