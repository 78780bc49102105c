package main

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/fib"
	"repro/internal/rib"
	"repro/internal/sim"
	"repro/internal/topo"
)

// churnRun is one churn workload in progress: the rig, its subscribers
// and the toggle generator.
type churnRun struct {
	spec churnSpec
	rig  *rig
	rs   *readerSet
	tr   *tracer

	rng     *sim.RNG
	scratch []topo.NodeID // permutation scratch for pick
	cur     []topo.NodeID // the switches the current pair toggles

	op        int64
	lat       opLatencies
	rounds    []roundRec
	probing   bool     // probe spans follow every round
	gateAt    int      // rig.installs when the gated reader last drained
	prevClone *core.DB // probes: the previous round's clone

	// Recorded rounds only.
	deliverMS, httpDeliverMS           []float64
	stalenessP99                       []float64
	probeRoutes, probeUnrouted, probes int
}

// roundRec is what one round measured besides its latency.
type roundRec struct {
	simMS          float64       // first toggle to last completed run, simulated
	wall           time.Duration // toggles scheduled to scrape done
	events         uint64        // simulator events processed
	traced, probed bool          // the recorder was on; probe spans followed
}

// churnTimes are the wall times of one set-up and of its stages.
type churnTimes struct {
	total, topo, fabric, bootstrap, subs time.Duration
}

// setupChurn builds a rig at generation 1 with every subscriber attached
// and synced.
func setupChurn(spec churnSpec, seed uint64, tr *tracer) (*rig, *readerSet, churnTimes, error) {
	var t churnTimes
	t0 := time.Now()
	tp, err := topo.ByName(spec.rig.topo)
	if err != nil {
		return nil, nil, t, err
	}
	t.topo = time.Since(t0)
	r, err := newRig(spec.rig, tp, seed, tr)
	if err != nil {
		return nil, nil, t, err
	}
	rs, err := attach(r.rib, spec.subs, tr)
	if err != nil {
		return nil, nil, t, err
	}
	t.fabric, t.bootstrap, t.subs = r.buildTimes.fabric, r.buildTimes.bootstrap, rs.readyIn
	t.total = time.Since(t0)
	return r, rs, t, nil
}

// pick chooses the next pair's switches: spec.ops distinct ones, never
// the FM's host switch, by a partial shuffle of the benchmark's own
// seeded stream.
func (c *churnRun) pick() {
	c.scratch = append(c.scratch[:0], c.rig.switches...)
	c.cur = c.cur[:0]
	for i := 0; i < c.spec.ops; i++ {
		j := i + c.rng.Intn(len(c.scratch)-i)
		c.scratch[i], c.scratch[j] = c.scratch[j], c.scratch[i]
		c.cur = append(c.cur, c.scratch[i])
	}
}

// round runs one churn round to delivery: its toggles are scheduled, the
// simulation drains (installing every completed discovery), and the
// driver waits until the slowest subscriber has applied the round's
// final generation. The latency ends there; the round's scrape follows.
func (c *churnRun) round(down bool) {
	r, rs, tr := c.rig, c.rs, c.tr
	tr.setOp(c.op)
	rs.op.Store(c.op)
	c.op++
	t0 := time.Now()
	tr.begin("round")
	rs.roundSpan.Store(tr.current())

	tr.begin("gen.toggles")
	if down {
		c.pick()
	}
	base := r.e.Now()
	for i, id := range c.cur {
		r.toggle(base.Add(sim.Duration(i)*toggleSpacing), id, down)
	}
	tr.end()

	gaveUp, applyErrs, installs, events := r.gaveUp, rs.applyErrs.Load(), r.installs, r.e.Processed
	tr.begin("sim.run")
	r.e.Run()
	tr.end()
	target := r.rib.Current().Gen
	if tr.active() {
		c.stalenessP99 = append(c.stalenessP99, float64(r.rib.Stats().Staleness.P99))
	}

	tr.begin("rib.deliver.wait")
	ok := rs.wait(target, false)
	delivered := time.Now()
	tr.end()

	if c.spec.scrape {
		tr.begin("obs.scrape")
		r.scrape()
		tr.end()
		tr.begin("obs.prom")
		r.plane.WriteProm(&r.promDiscard)
		r.proms++
		tr.end()
	}
	rec := roundRec{traced: tr.active(), probed: c.probing}
	tr.end()
	rec.wall, rec.events = time.Since(t0), r.e.Processed-events
	if r.lastDone > base {
		rec.simMS = simMS(r.lastDone.Sub(base))
	}
	c.rounds = append(c.rounds, rec)

	ok = ok && r.gaveUp == gaveUp && rs.applyErrs.Load() == applyErrs
	c.lat.add(delivered.Sub(t0), ok)
	if tr.active() && r.installs > installs {
		c.deliverMS = append(c.deliverMS, ms(delivered.Sub(r.lastInstallEnd)))
		if at, ok := rs.slowestHTTP(); ok {
			c.httpDeliverMS = append(c.httpDeliverMS, ms(at.Sub(r.lastInstallEnd)))
		}
	}
	// The stalled subscriber drains once its queue has certainly
	// overflowed, then stalls again.
	if rs.gated != nil && r.installs-c.gateAt >= rib.DefaultQueueDepth+16 {
		c.gateAt = r.installs
		rs.openGate()
	}
}

// pair runs a down round and the up round that restores it, so the
// fabric is whole again after every pair and every pair does the same
// kind of work.
func (c *churnRun) pair() {
	c.round(true)
	if c.probing {
		c.probe()
	}
	c.round(false)
	if c.probing {
		c.probe()
	}
}

// probe times, on the quiescent state after a round and outside its
// span, the calls that make up Install's interior and the other
// per-generation costs a round cannot show from outside.
func (c *churnRun) probe() {
	r, tr := c.rig, c.tr
	tr.begin("probes")
	tr.begin("probe.core.clone")
	clone := r.m.DB().Clone()
	tr.end()
	if c.prevClone != nil {
		tr.begin("probe.core.diff")
		core.DiffDBs(c.prevClone, clone)
		tr.end()
	}
	c.prevClone = clone
	tr.begin("probe.core.fingerprint")
	clone.Fingerprint()
	tr.end()
	tr.begin("probe.fib.derive")
	t := fib.Derive(clone)
	tr.end()
	nodes := clone.Nodes()
	last := nodes[len(nodes)-1].DSN
	tr.begin("probe.core.pathto")
	clone.PathTo(last)
	tr.end()
	tr.begin("probe.rib.canonical")
	r.rib.Current().Canonical("/")
	tr.end()
	tr.begin("probe.telemetry.snapshot")
	r.reg.Snapshot()
	tr.end()
	tr.end()
	c.probes++
	c.probeRoutes += len(t.Routes)
	c.probeUnrouted += t.Unrouted
}

// churnMark is the rig's counters at an instant, for deltas.
type churnMark struct {
	ops                 int
	events              uint64
	runs, installs      int
	packets             uint64
	timeouts, retries   int
	tx, drops           uint64
	simRun              sim.Duration
	deliveries, updates int64
	proms               int
	promBytes           int64
}

func (c *churnRun) mark() churnMark {
	r := c.rig
	cnt := r.f.Counters()
	return churnMark{
		ops: len(c.lat.ms), events: r.e.Processed, runs: r.runs, installs: r.installs, packets: r.packets,
		simRun: r.simRun, timeouts: r.timeouts, retries: r.retries, tx: cnt.TxPackets, drops: dropped(cnt),
		deliveries: c.rs.deliveries(), updates: c.rs.waited[0].updates.Load(),
		proms: r.proms, promBytes: r.promDiscard.n,
	}
}

func runChurn(w *workload, spec churnSpec, o options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	var (
		r      *rig
		rs     *readerSet
		setupS []float64
		stages []churnTimes
	)
	for i := 0; i < w.setups; i++ {
		if rs != nil {
			rs.stop()
		}
		var t churnTimes
		var err error
		if r, rs, t, err = setupChurn(spec, o.seed, tr); err != nil {
			return nil, err
		}
		setupS = append(setupS, t.total.Seconds())
		stages = append(stages, t)
	}
	c := &churnRun{spec: spec, rig: r, rs: rs, tr: tr, rng: sim.NewRNG(o.seed*0x9E3779B97F4A7C15 + 7)}

	c.pair() // warm-up, untimed
	c.lat, c.rounds = opLatencies{}, nil

	sec := beginSection()
	start := c.mark()
	for pairs := 1; ; pairs++ {
		// A traced run records every other pair, so the two kinds of pair
		// see the same host and their difference is the recorder; its
		// last part records every pair and probes after every round.
		tr.enable(o.trace && (c.probing || pairs%2 == 0))
		c.pair()
		if pairs == spec.prefixPairs {
			now := c.mark()
			var converge []float64
			for _, rec := range c.rounds {
				converge = append(converge, rec.simMS)
			}
			out.golden = goldenRec{
				Ops: now.ops, Runs: now.runs - start.runs, Packets: now.packets - start.packets,
				Generations: r.rib.Current().Gen, Chain: chainHex(r.genChain),
				SimMS: map[string]float64{"sim_ms_per_op": mean(converge), "sim_converge_ms_p50": median(converge)},
			}
		}
		if pairs < spec.prefixPairs {
			continue
		}
		elapsed := time.Since(sec.start).Seconds()
		if elapsed >= o.seconds {
			break
		}
		c.probing = o.trace && elapsed >= o.seconds*(1-probeShare)
	}
	tot := sec.end()
	all := c.mark().sub(start)

	// Untimed: the fabric is whole after the last pair. One forced audit,
	// then the database must equal the fabric's ground truth and every
	// subscriber, the stalled one included, must hold exactly the served
	// state.
	tr.enable(false)
	r.audit()
	if err := r.converged(); err != nil {
		out.problem("after the final audit: %v", err)
	}
	rs.openGate()
	if !rs.wait(r.rib.Current().Gen, true) {
		out.problem("subscribers did not reach the final generation %d within %v", r.rib.Current().Gen, opTimeout)
	}
	stats := r.rib.Stats()
	var snapshotMS []float64
	if o.trace && rs.addr != "" {
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if err := getSnapshot(rs.addr); err != nil {
				out.problem("GET /snapshot: %v", err)
				break
			}
			snapshotMS = append(snapshotMS, ms(time.Since(t0)))
		}
	}
	rs.stop()
	if err := rs.verify(r.m.DB().Fingerprint()); err != nil {
		out.problem("replay identity: %v", err)
	}

	out.attempted, out.failed = all.ops, c.lat.failed
	m["setup_s"] = median(setupS)
	// A cycle is a down round and the up round that undoes it.
	cyc := cycleStats{opsEach: 2}
	var plainPairS, tracedPairS []float64
	var converge []float64
	var tracedEvents uint64 // spans cover the recorded rounds only; so must the events their self time is divided by
	for i := 0; i+1 < len(c.rounds); i += 2 {
		down, up := c.rounds[i], c.rounds[i+1]
		wall := down.wall + up.wall
		cyc.add(wall, (c.lat.ms[i]+c.lat.ms[i+1])/2, down.events+up.events)
		converge = append(converge, down.simMS, up.simMS)
		switch {
		case !down.traced:
			plainPairS = append(plainPairS, wall.Seconds())
		case !down.probed:
			tracedPairS = append(tracedPairS, wall.Seconds())
		}
		if down.traced {
			tracedEvents += down.events + up.events
		}
	}
	cyc.metrics(m)
	m["alloc_mb_per_op"] = float64(tot.allocBytes) / mib / float64(all.ops)
	m["sim_ms_per_op"] = out.golden.SimMS["sim_ms_per_op"]
	if !o.trace {
		return out, nil
	}

	tailMetrics(m, c.lat.ms)
	m["failed_share"] = float64(out.failed) / float64(out.attempted)
	m["changes_per_s"] = float64(all.ops*spec.ops) / tot.wall.Seconds()
	m["deliveries_per_s"] = float64(all.deliveries) / tot.wall.Seconds()
	m["sim_converge_ms_p50"] = median(converge)
	if spec.rig.alg == core.Parallel {
		m["sim_discovery_ms_parallel"] = simMS(all.simRun) / float64(all.runs)
	}

	var stage struct{ topo, fabric, bootstrap, subs []float64 }
	for _, t := range stages {
		stage.topo = append(stage.topo, ms(t.topo))
		stage.fabric = append(stage.fabric, ms(t.fabric))
		stage.bootstrap = append(stage.bootstrap, ms(t.bootstrap))
		stage.subs = append(stage.subs, ms(t.subs))
	}
	m["topo.build_ms"] = median(stage.topo)
	m["fabric.build_ms"] = median(stage.fabric)
	m["core.bootstrap_ms"] = median(stage.bootstrap)
	m["rib.sync_build_ms"] = median(stage.subs)

	totals := totalsByName(tr.spans)
	get := func(name string) *spanTotals {
		if t := totals[name]; t != nil {
			return t
		}
		return &spanTotals{}
	}
	rounds, simRun, install := get("round"), get("sim.run"), get("rib.install")
	if rounds.n > 0 && tracedEvents > 0 {
		m["sim.ns_per_event"] = float64(simRun.self) / float64(tracedEvents)
		m["sim.run_self_share"] = float64(simRun.self) / float64(rounds.dur)
		m["rib.install_share"] = float64(install.dur) / float64(rounds.dur)
		m["rib.installs_per_round"] = float64(install.n) / float64(rounds.n)
		m["rib.install_ms_p50"] = quantile(install.durs, 0.50) / 1e6
		m["rib.install_ms_p95"] = quantile(install.durs, 0.95) / 1e6
		m["obs.scrape_us"] = meanDur(get("obs.scrape")) / 1e3
		m["telemetry.snapshot_us"] = meanDur(get("telemetry.snapshot")) / 1e3
		m["obs.prom_us"] = meanDur(get("obs.prom")) / 1e3
		m["core.clone_us"] = meanDur(get("probe.core.clone")) / 1e3
		m["core.diff_us"] = meanDur(get("probe.core.diff")) / 1e3
		m["core.fingerprint_us"] = meanDur(get("probe.core.fingerprint")) / 1e3
		m["core.pathto_us"] = meanDur(get("probe.core.pathto")) / 1e3
		m["fib.derive_ms"] = meanDur(get("probe.fib.derive")) / 1e6
		m["rib.canonical_us"] = meanDur(get("probe.rib.canonical")) / 1e3
		if plain := median(plainPairS); plain > 0 && len(tracedPairS) > 0 {
			m["trace.overhead_share"] = (median(tracedPairS) - plain) / plain
		}
	}
	m["sim.events_per_op"] = float64(all.events) / float64(all.ops)
	m["sim.max_pending"] = float64(r.e.MaxPending)
	m["fabric.packets_tx_per_op"] = float64(all.tx) / float64(all.ops)
	m["fabric.drops_per_op"] = float64(all.drops) / float64(all.ops)
	m["fabric.events_per_packet"] = float64(all.events) / float64(all.tx)
	m["core.runs_per_round"] = float64(all.runs) / float64(all.ops)
	m["core.packets_per_run"] = float64(all.packets) / float64(all.runs)
	m["core.timeouts_per_op"] = float64(all.timeouts) / float64(all.ops)
	m["core.retries_per_op"] = float64(all.retries) / float64(all.ops)
	snap := r.reg.Snapshot()
	m["telemetry.series"] = float64(len(snap.Counters) + len(snap.Gauges) + len(snap.Vectors) + len(snap.Histograms))
	if events, _ := snap.Counter(core.MetricFMAssimEvents); events > 0 {
		coalesced, _ := snap.Counter(core.MetricFMAssimCoalesced)
		m["core.assim.coalesce_ratio"] = float64(coalesced) / float64(events)
		if h, ok := snap.Histogram(core.MetricFMAssimBatch); ok {
			m["core.assim.batch_size_p50"] = h.Quantile(0.5)
		}
	}
	if c.probes > 0 {
		m["fib.routes"] = float64(c.probeRoutes) / float64(c.probes)
		m["fib.unrouted"] = float64(c.probeUnrouted) / float64(c.probes)
	}
	m["rib.updates_per_install"] = float64(all.updates) / float64(all.installs)
	m["rib.leaves"] = float64(stats.Leaves)
	m["rib.deliver_ms_p50"] = quantile(c.deliverMS, 0.50)
	m["rib.deliver_ms_p95"] = quantile(c.deliverMS, 0.95)
	m["rib.deliveries_per_round"] = float64(all.deliveries) / float64(all.ops)
	m["rib.resyncs"] = float64(r.resyncs.Load())
	m["rib.overflows"] = float64(r.overflows.Load())
	m["rib.staleness_p99_gens"] = mean(c.stalenessP99)
	var applyNS []float64
	var httpBytes, httpGens int64
	var ttfb []float64
	for _, rd := range rs.every() {
		applyNS = append(applyNS, rd.applyNS...)
		if rd.http {
			httpBytes += rd.bytes
			httpGens += rd.batches.Load()
			ttfb = append(ttfb, ms(rd.ttfb))
		}
	}
	m["rib.apply_us_p50"] = median(applyNS) / 1e3
	if httpGens > 0 {
		m["rib.http_deliver_ms_p50"] = median(c.httpDeliverMS)
		m["rib.http_bytes_per_gen"] = float64(httpBytes) / float64(httpGens)
		m["rib.http_ttfb_ms"] = median(ttfb)
		m["rib.snapshot_get_ms"] = median(snapshotMS)
	}
	if all.proms > 0 {
		m["obs.prom_bytes"] = float64(all.promBytes) / float64(all.proms)
	}
	runtimeMetrics(m, tot)
	if err := tr.write(filepath.Join(o.outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	return out, nil
}

func (a churnMark) sub(b churnMark) churnMark {
	return churnMark{
		ops: a.ops - b.ops, events: a.events - b.events, runs: a.runs - b.runs, installs: a.installs - b.installs,
		packets: a.packets - b.packets, simRun: a.simRun - b.simRun, timeouts: a.timeouts - b.timeouts, retries: a.retries - b.retries,
		tx: a.tx - b.tx, drops: a.drops - b.drops, deliveries: a.deliveries - b.deliveries,
		updates: a.updates - b.updates, proms: a.proms - b.proms, promBytes: a.promBytes - b.promBytes,
	}
}

func meanDur(t *spanTotals) float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.dur) / float64(t.n)
}

// getSnapshot fetches the whole canonical snapshot document over HTTP.
func getSnapshot(addr string) error {
	resp, err := http.Get("http://" + addr + "/snapshot?path=/")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	http.DefaultClient.CloseIdleConnections()
	return err
}
