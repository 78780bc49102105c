package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/asi"
	"repro/internal/fabric"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// Options configures a fabric manager.
type Options struct {
	// Algorithm selects the discovery implementation.
	Algorithm Kind
	// FMFactor is the FM processing-speed multiplier (paper Figs. 8-9);
	// processing time = model time / factor. Zero means 1.
	FMFactor float64
	// MaxRetries is how many times a timed-out PI-4 request is re-issued
	// along the same path before the timeout becomes a terminal failure.
	// Zero (the default) preserves the paper's lossless-fabric behaviour:
	// the first timeout is final. At most 255.
	MaxRetries int
	// RetryBackoff is the wait before the first re-issue; each further
	// attempt doubles it, capped at 8x. Zero means 100us; at most
	// MaxRetryBackoff.
	RetryBackoff sim.Duration
	// AssimWindow enables the Partial algorithm's coalescing front-end:
	// accepted PI-5 reports debounce for this long (the window slides
	// with each arrival) before one batched partial run assimilates
	// them; reports for the same (reporter, port) collapse to the final
	// state. Zero (the default) keeps per-event assimilation. Only the
	// Partial algorithm consults it.
	AssimWindow sim.Duration
	// Telemetry, when non-nil, records the FM's operational metrics —
	// per-phase service-time and round-trip histograms, work-queue depth,
	// timeout/retry counters — into the given registry. Nil (the default)
	// disables recording entirely; enabling it never alters simulated
	// behaviour.
	Telemetry *telemetry.Registry
	// Spans, when non-nil, records the causal life of every FM-issued
	// PI-4 request — run bands, request/attempt/backoff spans and FM
	// queue/service intervals — into the given tracer. Attach the same
	// tracer to the fabric (Fabric.SetSpanTracer) to also capture
	// per-hop wire, queueing and device-service spans. Nil (the
	// default) disables recording entirely; enabling it never alters
	// simulated behaviour.
	Spans *span.Tracer
}

func (o Options) withDefaults() Options {
	if o.FMFactor <= 0 {
		o.FMFactor = 1
	}
	o.MaxRetries = min(max(o.MaxRetries, 0), math.MaxUint8)
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 100 * sim.Microsecond
	}
	o.RetryBackoff = min(o.RetryBackoff, MaxRetryBackoff)
	return o
}

// MaxRetryBackoff is the largest Options.RetryBackoff: its 8x cap still
// fits in a sim.Duration.
const MaxRetryBackoff = sim.Duration(sim.Never / 8)

const (
	// requestTimeout expires outstanding PI-4 requests; a timed-out
	// probe is treated like a completion with error.
	requestTimeout = 5 * sim.Millisecond
	// verifyTimeout expires partial-rediscovery validation reads. It is
	// shorter than requestTimeout because a verify targets a
	// device the FM suspects may be gone; waiting the full window would
	// make localized assimilation slower than a full rediscovery.
	verifyTimeout = 1 * sim.Millisecond
	// coalesceDelay batches a burst of PI-5 reports for the same change
	// into one discovery run.
	coalesceDelay = 25 * sim.Microsecond
	// assimBatchMax caps the distinct (reporter, port) entries a
	// coalesced batch holds before it flushes at once: the bound that
	// keeps a sustained event stream from sliding the debounce window
	// forever.
	assimBatchMax = 64
)

// reqKind classifies outstanding PI-4 requests.
type reqKind uint8

const (
	reqProbeGeneral reqKind = iota // general-info read through a port
	reqReadPort                    // port-attribute read of a known device
	reqWrite                       // event-route programming write
	reqVerify                      // partial rediscovery route validation
	reqClaim                       // distributed discovery ownership claim
	numReqKinds
)

// request is one outstanding PI-4 request and the context to interpret
// its completion. The Parallel algorithm parks tens of thousands at once,
// so each field has the width its range needs: a port fits a byte
// (asi.MaxSwitchPorts), Options.MaxRetries ≤ 255.
type request struct {
	// path is the source route the request travels, shared with the
	// database entry it came from, and hop, unless it is the zero Hop,
	// one more switch traversal past it: a probe keeps its parent's path
	// and the hop it adds, and only a probe that discovers a device
	// builds the extended path (fullPath).
	path route.Path
	// data is the payload's Data: only writes and claims carry any.
	data []uint32
	// dsn and port name the request's subject. For probes: the device
	// and port the request crosses last (the near side of the link being
	// explored; the host for the very first probe). For everything else:
	// the target device, and for port reads the port.
	dsn asi.DSN
	// timeout fires if no completion arrives.
	timeout sim.EventID
	// sentAt stamps the latest issue, for round-trip telemetry.
	sentAt sim.Time
	// round is the upkeep round that sent the request, nil for the run's
	// own: the class whose books (Result or DistResult) count its traffic.
	round *round
	// span/attemptSpan are the causal-trace handles for this request and
	// its in-flight attempt; zero unless Options.Spans is set.
	span        span.ID
	attemptSpan span.ID
	// pkt is the request's PI-4 packet while the FM holds it: from
	// HandlePacket on the completion awaiting processing, and on a
	// recycled request, until issue sends it again, the completion its
	// previous use consumed. Nil while the packet is in the fabric.
	pkt *asi.Packet
	// next links released requests on the Manager's free list.
	next *request
	tag  uint32
	// op, offset and count are the rest of the payload, kept with data so
	// a timed-out request can be sent again verbatim (with a fresh tag)
	// along the same path.
	offset uint16
	op     asi.PI4Op
	count  uint8
	kind   reqKind
	port   uint8
	// attempt counts retransmissions: 0 for the original one.
	attempt uint8
	hop     route.Hop
}

// fullPath returns the request's whole source route, building the
// extended path of a probe.
func (r *request) fullPath() route.Path {
	if r.hop == (route.Hop{}) {
		return r.path
	}
	return route.Extend(r.path, r.hop)
}

// workKind classifies FM processing work items.
type workKind int

const (
	wStart workKind = iota
	wCompletion
	wTimeout
	wEvent
	wSync
	wFlush // coalesced-assimilation batch flush (Options.AssimWindow)
	numWorkKinds
)

// work is one item of the FM's serial processor. The Fig. 7 pile-up
// queues tens of thousands of them, so an item only points at what it is
// about: the request a completion (req.pkt) or a timeout belongs to, or
// the packet that carried a PI-5 event or an FM sync report.
type work struct {
	kind workKind
	req  *request
	pkt  *asi.Packet
}

// driver is a discovery algorithm plugged into the Manager. The Manager
// owns packet mechanics (tags, timeouts, the FM processing queue, the
// database); the driver decides what to send next.
type driver interface {
	// start fires once per discovery run, after the FM has read its own
	// endpoint's configuration space.
	start()
	// onGeneral is called after a probe completion was processed into
	// the database. n is nil when ok is false (error or timeout);
	// isNew reports whether the device entered the database just now.
	onGeneral(req *request, n *Node, isNew, ok bool)
	// onPort is called after a port-attribute read was processed.
	onPort(req *request, n *Node, ok bool)
	// finished reports whether the driver has no more work to issue.
	finished() bool
}

// Manager is an ASI fabric manager: a software management entity hosted
// on a fabric endpoint.
type Manager struct {
	f   *fabric.Fabric
	dev *fabric.Device
	e   *sim.Engine
	opt Options

	db      *DB
	pending map[uint32]*request
	nextTag uint32

	// The FM software is a single serial processor: work items queue in
	// a ring, the item in service parks in curWork, and its completion
	// fires workFn, bound once — no closure per packet.
	busy    bool
	queue   sim.Ring[work]
	curWork work
	curCost sim.Duration
	workFn  sim.Handler
	// enqAt stamps when each queued item entered the queue, and curEnqAt
	// the item in service, for the fm-queue span; used only when span
	// tracing is on.
	enqAt    sim.Ring[sim.Time]
	curEnqAt sim.Time
	// freeReqs recycles finished requests, each with the completion
	// packet it consumed, into the next requests issued (see release.go
	// for the ownership rule).
	freeReqs *request
	// timeoutFn/retryFn are the pre-bound callbacks for request timeout
	// and retry-backoff events; the request itself rides as the event arg.
	timeoutFn sim.ArgHandler
	retryFn   sim.ArgHandler

	discovering bool
	partialRun  bool
	dirty       bool
	coalesced   bool

	drv driver

	res  Result
	last *Result
	// timelineChunks are the full chunks of res.Timeline (appendTimeline).
	timelineChunks [][]sim.Time

	// OnDiscoveryComplete fires when a discovery run finishes, with its
	// measurements.
	OnDiscoveryComplete func(Result)

	// team wires this manager into a distributed-discovery team;
	// teamGen is the claim generation of the current round.
	team    *Team
	teamGen uint32

	// beats/watchdog implement FM failover.
	beats    *Heartbeater
	watchdog *Watchdog

	// partialSeq tracks the last PI-5 sequence seen per reporter, so
	// stale reports do not re-trigger partial assimilation. Cursors are
	// pruned with their device (removeNode, ExpireReporters) so the map
	// stays bounded under steady-state churn.
	partialSeq map[asi.DSN]uint32

	// assimPending is the coalescing front-end's debounce batch, keyed
	// by (reporter, port) with the latest report winning; non-nil only
	// when Options.AssimWindow selects coalesced assimilation.
	// assimEvents counts reports absorbed into the open batch (including
	// superseded ones); assimQueued marks a wFlush item already in the
	// work queue. assimID is the armed debounce event, which fires
	// assimFn, bound once.
	assimPending map[assimKey]asi.PI5
	assimEvents  int
	assimFn      sim.Handler
	assimID      sim.EventID
	assimQueued  bool

	// tree, pathBuf and dsnBuf are refreshPaths' reused search tree, route
	// buffer and visit list; ageBuf is DBStaleness' list of node ages.
	tree    PathTree
	pathBuf route.Path
	dsnBuf  []asi.DSN
	ageBuf  []sim.Duration

	// tel holds the pre-registered telemetry handles, nil unless
	// Options.Telemetry was set.
	tel *fmTelemetry

	// sp is the causal span tracer, nil unless Options.Spans was set;
	// runSpan is the open phase band of the current run.
	sp      *span.Tracer
	runSpan span.ID

	// runReqs counts the run's own requests from newRequest to
	// releaseRequest: pending, queued or in a retry backoff. The run
	// cannot finish under them.
	runReqs int
}

// NewManager attaches a fabric manager to an endpoint device.
func NewManager(f *fabric.Fabric, dev *fabric.Device, opt Options) *Manager {
	if dev.Type != asi.DeviceEndpoint {
		panic("core: fabric managers run on endpoints")
	}
	m := &Manager{
		f:       f,
		dev:     dev,
		e:       f.Engine,
		opt:     opt.withDefaults(),
		pending: make(map[uint32]*request),
		db:      NewDB(dev.DSN),
	}
	if opt.Telemetry != nil {
		m.tel = newFMTelemetry(opt.Telemetry)
	}
	m.sp = opt.Spans
	m.workFn = m.completeWork
	m.timeoutFn = func(_ *sim.Engine, arg any) { m.onTimeout(arg.(*request)) }
	m.retryFn = func(_ *sim.Engine, arg any) { m.onRetryBackoff(arg.(*request)) }
	if m.opt.Algorithm == Partial && m.opt.AssimWindow > 0 {
		m.initAssim()
	}
	m.drv = m.newDriver()
	dev.SetHandler(m)
	return m
}

// newDriver instantiates the configured algorithm.
func (m *Manager) newDriver() driver {
	switch m.opt.Algorithm {
	case SerialPacket:
		return &serialDriver{m: m, perDeviceParallel: false}
	case SerialDevice:
		return &serialDriver{m: m, perDeviceParallel: true}
	case Parallel, Partial:
		return &parallelDriver{m: m}
	case Distributed:
		// A standalone distributed manager claims with generation 1.
		return &parallelDriver{m: m, gen: max(m.teamGen, 1)}
	default:
		panic(fmt.Sprintf("core: unknown algorithm %v", m.opt.Algorithm))
	}
}

// DB returns the manager's current topology database.
func (m *Manager) DB() *DB { return m.db }

// Device returns the hosting endpoint.
func (m *Manager) Device() *fabric.Device { return m.dev }

// Discovering reports whether a discovery run is in progress.
func (m *Manager) Discovering() bool { return m.discovering }

// LastResult returns the most recent completed discovery's measurements.
func (m *Manager) LastResult() (Result, bool) {
	if m.last == nil {
		return Result{}, false
	}
	return *m.last, true
}

// HandlePacket implements fabric.Handler: every management packet
// delivered to the FM's endpoint lands here and is queued for the FM's
// serial packet processor.
func (m *Manager) HandlePacket(port int, pkt *asi.Packet) {
	switch pl := pkt.Payload.(type) {
	case *asi.PI4:
		req, ok := m.pending[pl.Tag]
		if !ok || req.round == nil {
			m.res.PacketsReceived++
			m.res.BytesReceived += uint64(pkt.WireSize())
		}
		if !ok {
			// A completion for a request that already timed out (and was
			// possibly re-issued under a fresh tag). The retransmission's
			// own completion is the one that counts; this one is dropped
			// so the database never folds a response in twice.
			if m.discovering {
				m.res.Stale++
			}
			if m.tel != nil {
				m.tel.stale.Inc()
			}
			return
		}
		delete(m.pending, pl.Tag)
		m.e.Cancel(req.timeout)
		if m.tel != nil {
			m.tel.rtt[req.kind].Observe(int64(m.e.Now().Sub(req.sentAt)))
		}
		if m.sp != nil {
			m.sp.End(req.attemptSpan, m.e.Now(), span.StatusOK)
		}
		req.pkt = pkt
		m.enqueue(work{kind: wCompletion, req: req})
	case asi.PI5:
		m.res.PacketsReceived++
		m.res.BytesReceived += uint64(pkt.WireSize())
		m.enqueue(work{kind: wEvent, pkt: pkt})
	case asi.FMSync:
		m.enqueue(work{kind: wSync, pkt: pkt})
	case asi.Heartbeat:
		if m.watchdog != nil {
			m.watchdog.feed()
		}
	}
}

// enqueue adds a work item to the FM's serial processor.
func (m *Manager) enqueue(w work) {
	if m.sp != nil {
		m.enqAt.Push(m.e.Now())
	}
	m.queue.Push(w)
	if m.tel != nil {
		m.tel.queueDepth.SetMax(int64(m.queue.Len()))
	}
	if !m.busy {
		m.processNext()
	}
}

// processNext models the FM software: one packet at a time, each costing
// the algorithm's processing time at the current database size.
func (m *Manager) processNext() {
	if m.queue.Len() == 0 {
		m.busy = false
		return
	}
	m.busy = true
	m.curWork = m.queue.Pop()
	if m.sp != nil {
		m.curEnqAt = m.enqAt.Pop()
	}
	switch m.curWork.kind {
	case wEvent:
		m.curCost = fmEvent.Scale(1 / m.opt.FMFactor)
	default:
		m.curCost = FMProcessing(m.opt.Algorithm, m.db.NumNodes(), m.opt.FMFactor)
	}
	m.e.After(m.curCost, m.workFn)
}

// completeWork finishes the work item in service when the FM processing
// time elapses.
func (m *Manager) completeWork(*sim.Engine) {
	w := m.curWork
	m.curWork = work{}
	if m.tel != nil {
		m.tel.service[w.kind].Observe(int64(m.curCost))
	}
	if m.sp != nil {
		m.recordWorkSpans(w)
	}
	if m.discovering && (w.req == nil || w.req.round == nil) {
		m.res.Processed++
		m.res.FMBusy += m.curCost
		m.appendTimeline(m.e.Now())
	}
	m.handleWork(w)
	m.checkDone()
	m.processNext()
}

// handleWork interprets a processed work item.
func (m *Manager) handleWork(w work) {
	switch w.kind {
	case wStart:
		m.discoverSelf()
		m.drv.start()
	case wCompletion:
		m.applyCompletion(w.req, w.req.pkt.Payload.(*asi.PI4))
		if m.sp != nil {
			m.sp.End(w.req.span, m.e.Now(), span.StatusOK)
		}
		m.releaseRequest(w.req)
	case wTimeout:
		if w.req.round == nil {
			m.res.TimedOut++
		}
		if m.tel != nil {
			m.tel.timeouts.Inc()
		}
		if !m.retryRequest(w.req) {
			m.applyFailure(w.req)
			m.releaseRequest(w.req)
		}
	case wEvent:
		m.handleEvent(w.pkt.Payload.(asi.PI5))
	case wSync:
		if m.team != nil {
			m.team.onSync(m, w.pkt.Payload.(asi.FMSync))
		}
	case wFlush:
		m.applyAssimBatch()
	}
}

// discoverSelf reads the host endpoint's own configuration space — a
// local operation, the first step of every variant in the paper's
// flow charts ("Discovery starts on the host endpoint").
func (m *Manager) discoverSelf() {
	blocks, err := m.dev.Config.Read(asi.GeneralInfoOffset, asi.GeneralInfoBlocks)
	if err != nil {
		panic("core: host endpoint config space unreadable: " + err.Error())
	}
	gi, err := asi.ParseGeneralInfo(blocks)
	if err != nil {
		panic("core: host endpoint general info invalid: " + err.Error())
	}
	host := newNode(gi, route.Path{}, 0)
	for p := 0; p < gi.Ports; p++ {
		host.PortKnown[p] = true
		host.PortActive[p] = m.dev.PortActive(p)
	}
	host.Validated = m.e.Now()
	m.db.AddNode(&host)
}

// applyCompletion folds a PI-4 completion into the database and notifies
// the driver. resp belongs to the request's packet, which is recycled
// with it afterwards: nothing may keep it or its Data.
func (m *Manager) applyCompletion(req *request, resp *asi.PI4) {
	switch req.kind {
	case reqProbeGeneral:
		if resp.Op != asi.PI4ReadCompletionData {
			m.drv.onGeneral(req, nil, false, false)
			return
		}
		gi, err := asi.ParseGeneralInfo(resp.Data)
		if err != nil {
			m.drv.onGeneral(req, nil, false, false)
			return
		}
		n := m.db.writable(gi.DSN)
		isNew := n == nil
		if isNew {
			n = m.db.insert(newNode(gi, req.fullPath(), int(resp.ArrivalPort)))
		}
		n.Validated = m.e.Now()
		m.db.AddLink(Link{A: req.dsn, APort: int(req.port), B: gi.DSN, BPort: int(resp.ArrivalPort)})
		m.drv.onGeneral(req, n, isNew, true)
	case reqReadPort:
		n := m.db.writable(req.dsn)
		if n == nil || int(req.port) >= n.Ports {
			// The device left the database between request and completion
			// (partial-run pruning), or no longer has the port. The driver
			// still must hear about the request, or the serial variants
			// wait on it forever.
			m.drv.onPort(req, nil, false)
			return
		}
		ok := resp.Op == asi.PI4ReadCompletionData
		if ok {
			n.Validated = m.e.Now()
		}
		n.PortKnown[req.port] = true
		n.PortActive[req.port] = false
		if ok {
			if info, err := asi.ParsePortInfo(resp.Data); err == nil {
				n.PortActive[req.port] = info.Active
			}
		}
		m.drv.onPort(req, n, ok)
	case reqWrite:
		m.onWriteDone(req, resp.Op == asi.PI4WriteCompletion)
	case reqVerify:
		m.onVerify(req, resp, true)
	case reqClaim:
		won := resp.Op == asi.PI4ClaimCompletion && len(resp.Data) >= 2
		var owner uint32
		if won {
			owner = resp.Data[1]
		}
		m.onClaim(req, owner, won)
	}
}

// applyFailure handles a timed-out request like an error completion.
func (m *Manager) applyFailure(req *request) {
	if m.sp != nil {
		st := span.StatusTimeout
		if m.opt.MaxRetries > 0 {
			st = span.StatusGaveUp
		}
		m.sp.End(req.span, m.e.Now(), st)
	}
	switch req.kind {
	case reqProbeGeneral:
		m.drv.onGeneral(req, nil, false, false)
	case reqReadPort:
		n := m.db.writable(req.dsn)
		if n != nil && int(req.port) < n.Ports {
			n.PortKnown[req.port] = true
			n.PortActive[req.port] = false
		}
		// Notify even with a nil node: the driver accounts outstanding
		// port reads and would otherwise never finish.
		m.drv.onPort(req, n, false)
	case reqWrite:
		m.onWriteDone(req, false)
	case reqVerify:
		m.onVerify(req, nil, false)
	case reqClaim:
		m.onClaim(req, 0, false)
	}
}

// send transmits a PI-4 request along path and registers it as pending.
// It returns false when the path cannot be encoded (turn pool overflow) —
// the device is unreachable by source routing from this FM.
func (m *Manager) send(req *request, payload asi.PI4) bool {
	req.op, req.offset, req.count, req.data = payload.Op, payload.Offset, payload.Count, payload.Data
	if m.sp != nil {
		m.beginRequestSpan(req)
	}
	if !m.issue(req) {
		if m.sp != nil {
			m.sp.End(req.span, m.e.Now(), span.StatusError)
		}
		m.releaseRequest(req)
		return false
	}
	return true
}

// issue puts one attempt of req on the wire: fresh tag, pending-table
// entry, timeout, inject. Retransmissions re-enter here with the stored
// payload and the same path. The packet is the FM's until Inject; the
// payload's Data is copied into the packet's own buffer, because the
// answering device overwrites it with the completion.
func (m *Manager) issue(req *request) bool {
	hdr, err := route.HeaderNext(req.path, req.hop, asi.PI4DeviceManagement)
	if err != nil {
		return false
	}
	req.tag = m.nextTag
	m.nextTag++
	pkt := req.pkt
	req.pkt = nil
	if pkt == nil {
		pkt, _ = asi.NewPI4Packet()
	}
	p4 := pkt.Payload.(*asi.PI4)
	*p4 = asi.PI4{Op: req.op, Tag: req.tag, Offset: req.offset, Count: req.count, Data: append(p4.Data[:0], req.data...)}
	pkt.Header = hdr
	pkt.Span = uint64(req.span)
	m.pending[req.tag] = req
	if req.round != nil {
		req.round.res.BytesSent += uint64(pkt.WireSize())
	} else {
		m.res.PacketsSent++
		m.res.BytesSent += uint64(pkt.WireSize())
	}
	window := requestTimeout
	if req.kind == reqVerify {
		window = verifyTimeout
	}
	req.timeout = m.e.AfterArg(window, m.timeoutFn, req)
	req.sentAt = m.e.Now()
	if m.sp != nil {
		// pkt.Span carries the request span so the fabric's per-hop
		// spans parent to it; completions carry it back.
		m.beginAttemptSpan(req)
	}
	m.dev.Inject(pkt)
	return true
}

// onTimeout expires an outstanding request. A completion that arrived
// first cancels the timeout event outright, so firing here means the
// request is genuinely still pending (the tag lookup guards the final
// race: a completion processed in this very instant).
func (m *Manager) onTimeout(req *request) {
	r, ok := m.pending[req.tag]
	if !ok || r != req {
		return
	}
	delete(m.pending, req.tag)
	if m.sp != nil {
		m.sp.End(req.attemptSpan, m.e.Now(), span.StatusTimeout)
	}
	m.enqueue(work{kind: wTimeout, req: r})
}

// retryRequest decides what a timeout means for req: another attempt with
// backoff, or (attempts exhausted / retries disabled) a terminal failure.
// It reports whether a retry was armed.
//
// A retry whose attempt could not time out before the end of simulated
// time is never armed: the request gives up instead.
func (m *Manager) retryRequest(req *request) bool {
	backoff := m.opt.RetryBackoff << min(req.attempt, 3)
	run := req.round == nil
	if int(req.attempt) >= m.opt.MaxRetries || backoff > sim.Never.Sub(m.e.Now())-requestTimeout {
		if m.opt.MaxRetries > 0 {
			if run {
				m.res.GaveUp++
			}
			if m.tel != nil {
				m.tel.giveups.Inc()
			}
		}
		return false
	}
	req.attempt++
	if run {
		m.res.Retries++
	}
	if m.tel != nil {
		m.tel.retries.Inc()
	}
	if m.sp != nil {
		now := m.e.Now()
		m.sp.Complete(span.KindBackoff, req.span, now, now.Add(backoff), span.StatusOK)
	}
	m.e.AfterArg(backoff, m.retryFn, req)
	return true
}

// onRetryBackoff re-issues a timed-out request once its backoff window
// elapses.
func (m *Manager) onRetryBackoff(req *request) {
	if !m.issue(req) {
		// The path stopped encoding (cannot normally happen: the
		// original attempt encoded the same path); fail terminally.
		m.applyFailure(req)
		m.releaseRequest(req)
	}
	m.checkDone()
}

// probe sends a general-information read through p.srcDSN's p.srcPort,
// to identify whatever device is attached there.
func (m *Manager) probe(p probeSpec) bool {
	req := m.newRequest(request{kind: reqProbeGeneral, path: p.path, hop: p.hop, dsn: p.srcDSN, port: p.srcPort})
	return m.send(req, asi.PI4{
		Op:     asi.PI4ReadRequest,
		Offset: asi.GeneralInfoOffset,
		Count:  asi.GeneralInfoBlocks,
	})
}

// readPort sends the attribute read of one port of n: one port-information
// block per PI-4 request, as the paper's algorithms read. It reports
// whether the request went out.
func (m *Manager) readPort(n *Node, port int) bool {
	req := m.newRequest(request{kind: reqReadPort, path: n.Path, dsn: n.DSN, port: uint8(port)})
	return m.send(req, asi.PI4{
		Op:     asi.PI4ReadRequest,
		Offset: asi.PortInfoOffset(port),
		Count:  asi.PortInfoBlocks,
	})
}

// readAllPorts issues the attribute read of every port of n and returns
// the number of requests sent.
func (m *Manager) readAllPorts(n *Node) int {
	sent := 0
	for port := 0; port < n.Ports; port++ {
		if m.readPort(n, port) {
			sent++
		}
	}
	return sent
}

// probeSpec describes an exploration step: what lies beyond a discovered
// switch port. It travels path, the discovered switch's own, and then hop
// through the switch to srcPort; the host's probe has no hop.
type probeSpec struct {
	path    route.Path
	srcDSN  asi.DSN
	hop     route.Hop
	srcPort uint8
}

// probeThrough is the exploration step out of a discovered switch's
// port; the port is one of the switch's, so it fits a byte (hopThrough).
func probeThrough(n *Node, port int) probeSpec {
	return probeSpec{path: n.Path, srcDSN: n.DSN, hop: hopThrough(n, n.ArrivalPort, port), srcPort: uint8(port)}
}

// hopThrough is the traversal of a discovered switch from port in to
// port out. The database's port counts come from general information,
// which refuses more than asi.MaxSwitchPorts, and in and out are ports of
// the device, so the hop's narrow fields hold them exactly.
func hopThrough(n *Node, in, out int) route.Hop {
	return route.Hop{Ports: uint16(n.Ports), In: uint8(in), Out: uint8(out)}
}

// probesFrom enumerates the exploration steps a fully port-read device
// enables: one probe per active port whose link the FM has not yet
// recorded. Endpoints never forward, so only switches (and the host
// endpoint at start) spawn probes.
func (m *Manager) probesFrom(n *Node) []probeSpec {
	if n.Type != asi.DeviceSwitch {
		return nil
	}
	var out []probeSpec
	for p := 0; p < n.Ports; p++ {
		if spec, ok := m.probeFromPort(n, p); ok {
			out = append(out, spec)
		}
	}
	return out
}

// probeFromPort is the single-port variant of probesFrom, used by the
// parallel driver to expand each active port the moment its attribute
// read returns. ok is false when the port enables no probe.
func (m *Manager) probeFromPort(n *Node, port int) (spec probeSpec, ok bool) {
	if n.Type != asi.DeviceSwitch {
		return spec, false
	}
	if !n.PortKnown[port] || !n.PortActive[port] {
		return spec, false
	}
	if _, known := m.db.LinkAt(n.DSN, port); known {
		return spec, false // arrival link, or a cycle link already crossed
	}
	return probeThrough(n, port), true
}

// initialProbe explores the host endpoint's single port.
func (m *Manager) initialProbe() bool {
	host := m.db.Node(m.dev.DSN)
	if host == nil || !host.PortActive[0] {
		return false
	}
	return m.probe(probeSpec{path: route.Path{}, srcDSN: m.dev.DSN})
}

// StartDiscovery begins a full discovery run: the database is discarded
// and rebuilt, per the paper's assumption. If a run is already in
// progress the request is absorbed (the running discovery will already
// observe the fabric's current state or be re-armed by PI-5 dirtiness).
func (m *Manager) StartDiscovery() {
	if m.discovering {
		m.dirty = true
		return
	}
	m.beginRun()
	m.enqueue(work{kind: wStart})
}

// beginRun resets per-run state.
func (m *Manager) beginRun() {
	m.discovering = true
	m.partialRun = false
	m.dirty = false
	m.dropAssimPending()
	m.db = m.db.fresh()
	m.drv = m.newDriver()
	if m.sp != nil {
		m.runSpan = m.beginRunSpan(m.opt.Algorithm.String())
	}
	// A rediscovery processes about as many work items as the run before
	// it (m.res still holds that run); the very first has nothing to go
	// by and grows its timeline.
	m.res = Result{Algorithm: m.opt.Algorithm, Start: m.e.Now(),
		Timeline: make([]sim.Time, 0, len(m.res.Timeline))}
}

// timelineChunk is the size, in points, of a long timeline's chunks.
const timelineChunk = 4096

// appendTimeline adds one point to the running result's timeline. A
// timeline grows by append until its slice holds timelineChunk points,
// then in fixed chunks that finishRun flattens once: a cold run of a large
// fabric allocates about twice its timeline, not the five times that
// regrowing one slice costs.
func (m *Manager) appendTimeline(at sim.Time) {
	if tl := m.res.Timeline; len(tl) == cap(tl) && cap(tl) >= timelineChunk {
		m.timelineChunks = append(m.timelineChunks, tl)
		m.res.Timeline = make([]sim.Time, 0, timelineChunk)
	}
	m.res.Timeline = append(m.res.Timeline, at)
}

// checkDone finishes the run when the driver is idle, none of its own
// requests is outstanding and nothing but PI-5 events or upkeep is queued.
func (m *Manager) checkDone() {
	if !m.discovering || !m.drv.finished() || m.runReqs > 0 {
		return
	}
	for i := 0; i < m.queue.Len(); i++ {
		if w := m.queue.At(i); w.kind != wEvent && w.req == nil {
			return
		}
	}
	m.finishRun()
}

// finishRun closes out measurements and fires the completion callback.
func (m *Manager) finishRun() {
	m.discovering = false
	m.partialRun = false
	if m.sp != nil {
		m.sp.End(m.runSpan, m.e.Now(), span.StatusOK)
		m.runSpan = 0
	}
	m.res.End = m.e.Now()
	m.res.Duration = m.res.End.Sub(m.res.Start)
	m.res.Devices = m.db.NumNodes()
	m.res.Switches = m.db.NumSwitches()
	m.res.Links = m.db.NumLinks()
	if m.timelineChunks != nil {
		m.res.Timeline = slices.Concat(append(m.timelineChunks, m.res.Timeline)...)
		m.timelineChunks = nil
	}
	r := m.res
	m.last = &r
	if m.OnDiscoveryComplete != nil {
		m.OnDiscoveryComplete(r)
	}
	if m.dirty {
		m.dirty = false
		m.scheduleDiscovery()
	}
}

// handleEvent implements change assimilation: a PI-5 report triggers a
// (coalesced) rediscovery, or a localized update under the Partial
// algorithm.
func (m *Manager) handleEvent(ev asi.PI5) {
	if m.opt.Algorithm == Partial {
		m.handleEventPartial(ev)
		return
	}
	if m.discovering {
		// Reports arriving mid-run belong to the change being
		// assimilated (or force one more run via the dirty flag).
		m.dirty = true
		return
	}
	m.scheduleDiscovery()
}

// scheduleDiscovery arms a coalesced discovery start so a burst of PI-5
// reports for one change triggers a single run.
func (m *Manager) scheduleDiscovery() {
	if m.coalesced {
		return
	}
	m.coalesced = true
	m.e.After(coalesceDelay, func(*sim.Engine) {
		m.coalesced = false
		m.StartDiscovery()
	})
}
