package core

import (
	"repro/internal/asi"
	"repro/internal/route"
	"repro/internal/sim"
)

// Distributed discovery — the paper's first future-work direction
// (section 5): "distribute the entire process through several
// collaborative fabric managers, in order to increase parallelization".
//
// The implementation here partitions the fabric dynamically by ownership
// claims: every collaborating FM runs the propagation-order engine from
// its own endpoint, but before expanding a newly found device it must win
// an atomic PI-4 claim on that device's ownership region. A lost claim
// marks a region boundary: the links are still recorded, but the port
// reads (the dominant packet cost) and the onward probes belong to the
// winning FM. Regions therefore grow outward from each FM until they
// meet, roughly a Voronoi partition by discovery speed.
//
// When a collaborator's pending table drains it ships its partial
// database to the primary as a sequence of FM-sync packets over the
// fabric; the primary merges the views, recomputes its own source routes
// for foreign-region devices, and completes.

// onClaim handles a claim completion of the claim-gated parallel driver:
// the winner expands the device; a lost claim marks a region boundary.
func (m *Manager) onClaim(req *request, owner uint32, ok bool) {
	if !ok || owner != uint32(m.dev.DSN) {
		return // lost the claim: region boundary, the winner expands
	}
	if n := m.db.Node(req.dsn); n != nil {
		m.readAllPorts(n)
	}
}

// sendClaim issues an atomic ownership claim for a discovered device.
func (m *Manager) sendClaim(n *Node, gen uint32) bool {
	req := m.newRequest(request{kind: reqClaim, path: n.Path, dsn: n.DSN})
	return m.send(req, asi.PI4{
		Op:     asi.PI4ClaimRequest,
		Offset: asi.OwnerOffset(n.Ports),
		Count:  asi.OwnerBlocks,
		Data:   []uint32{gen, uint32(m.dev.DSN)},
	})
}

// TeamResult measures one distributed discovery round.
type TeamResult struct {
	Start, End sim.Time
	Duration   sim.Duration
	// Devices/Links of the merged primary database.
	Devices, Links int
	// PerMember holds each collaborator's local run result, primary
	// first.
	PerMember []Result
	// SyncPackets/SyncBytes count the inter-FM report traffic.
	SyncPackets int
	SyncBytes   uint64
	// TotalPacketsSent sums member discovery packets and sync packets.
	TotalPacketsSent uint64
	// Missing counts members whose report never reached the primary. A
	// round with Missing > 0 merged an incomplete view: it failed.
	Missing int
}

// syncTimeout bounds how long the primary waits for report progress
// after all members finished locally: every FM-sync chunk it processes
// restarts the wait, so a long report queue at the primary is merged
// whole and only a report that stopped arriving is counted missing.
const syncTimeout = 2 * sim.Millisecond

// Team coordinates collaborating fabric managers. All members must use
// Kind Distributed. The first member acts as primary.
type Team struct {
	e       *sim.Engine
	members []*Manager
	gen     uint32

	// OnComplete fires after every round with the merged result.
	OnComplete func(TeamResult)

	pathToPrimary map[asi.DSN]route.Path

	running     bool
	start       sim.Time
	localDone   int
	results     []Result
	reports     map[asi.DSN]*DB
	finalSeen   map[asi.DSN]bool
	syncPackets int
	syncBytes   uint64
	deadline    sim.EventID
	armed       bool
}

// NewTeam wires the managers into a team; members[0] is the primary.
// Member completion callbacks are owned by the team from here on.
func NewTeam(members []*Manager) *Team {
	if len(members) == 0 {
		panic("core: empty team")
	}
	t := &Team{
		e:       members[0].e,
		members: members,
		// Claim generations must outrun any standalone (bootstrap) run,
		// which uses generation 1.
		gen: 1,
	}
	for _, m := range members {
		if m.opt.Algorithm != Distributed {
			panic("core: team members must use the Distributed algorithm")
		}
		m.team = t
		mm := m
		m.OnDiscoveryComplete = func(r Result) { t.onMemberDone(mm, r) }
	}
	return t
}

// Primary returns the coordinating manager.
func (t *Team) Primary() *Manager { return t.members[0] }

// RestoreMemberCallbacks re-arms team ownership of the members'
// completion callbacks after a caller temporarily hooked one (e.g. for a
// bootstrap discovery before Prepare).
func (t *Team) RestoreMemberCallbacks() {
	for _, m := range t.members {
		mm := m
		m.OnDiscoveryComplete = func(r Result) { t.onMemberDone(mm, r) }
	}
}

// Prepare computes each member's report route to the primary from the
// primary's current database. In a deployment this happens during idle
// time: the primary distributes collaborator paths exactly as it
// distributes event routes. It must be called after the primary has a
// topology (e.g. one initial discovery).
func (t *Team) Prepare() {
	p := t.Primary()
	t.pathToPrimary = make(map[asi.DSN]route.Path, len(t.members)-1)
	for _, m := range t.members[1:] {
		if path := p.db.PathBetween(m.dev.DSN, p.dev.DSN); path != nil {
			t.pathToPrimary[m.dev.DSN] = path
		}
	}
}

// StartDiscovery launches one distributed round on all members.
func (t *Team) StartDiscovery() {
	if t.running {
		return
	}
	t.running = true
	t.gen++
	t.start = t.e.Now()
	t.localDone = 0
	t.results = nil
	t.reports = make(map[asi.DSN]*DB)
	t.finalSeen = make(map[asi.DSN]bool)
	t.syncPackets = 0
	t.syncBytes = 0
	for _, m := range t.members {
		m.teamGen = t.gen
		m.StartDiscovery()
	}
}

// onMemberDone collects a member's local completion; non-primary members
// ship their report.
func (t *Team) onMemberDone(m *Manager, r Result) {
	if !t.running {
		return
	}
	t.results = append(t.results, r)
	t.localDone++
	if m != t.Primary() {
		t.sendReport(m)
	}
	if t.localDone == len(t.members) && !t.armed {
		t.arm()
		t.checkMerge()
	}
}

// arm (re)starts the sync timeout; when it runs out the primary merges
// the reports it has.
func (t *Team) arm() {
	if t.armed {
		t.e.Cancel(t.deadline)
	}
	t.armed = true
	t.deadline = t.e.After(syncTimeout, func(*sim.Engine) {
		t.armed = false
		t.merge()
	})
}

// sendReport ships a member's database to the primary as FM-sync chunks.
// The database content rides out of band; the packets carry its wire
// cost.
func (t *Team) sendReport(m *Manager) {
	path, ok := t.pathToPrimary[m.dev.DSN]
	if !ok {
		return // unreachable primary: the round will count it missing
	}
	hdr, err := route.Header(path, asi.PIFMSync)
	if err != nil {
		return
	}
	t.reports[m.dev.DSN] = m.db
	entries := m.db.NumNodes() + m.db.NumLinks()
	const maxPerChunk = 150 // bounded by the 2176-byte max packet
	seq := uint16(0)
	for entries > 0 || seq == 0 {
		n := entries
		if n > maxPerChunk {
			n = maxPerChunk
		}
		entries -= n
		sync := asi.FMSync{From: m.dev.DSN, Seq: seq, Entries: uint16(n), Final: entries == 0}
		pkt := &asi.Packet{Header: hdr, Payload: sync}
		t.syncPackets++
		t.syncBytes += uint64(pkt.WireSize())
		m.dev.Inject(pkt)
		seq++
	}
}

// onSync is called by the primary manager when a processed FM-sync chunk
// reaches it.
func (t *Team) onSync(m *Manager, sync asi.FMSync) {
	if !t.running || m != t.Primary() {
		return
	}
	if sync.Final {
		t.finalSeen[sync.From] = true
	}
	t.checkMerge()
	if t.running && t.armed {
		t.arm() // a processed chunk is progress
	}
}

// checkMerge completes the round once every expected report landed.
func (t *Team) checkMerge() {
	if !t.running || t.localDone != len(t.members) {
		return
	}
	for _, m := range t.members[1:] {
		if !t.finalSeen[m.dev.DSN] {
			return
		}
	}
	if t.armed {
		t.e.Cancel(t.deadline)
		t.armed = false
	}
	t.merge()
}

// merge unions the received reports into the primary's database,
// recomputes primary-relative source routes, and reports the round.
func (t *Team) merge() {
	if !t.running {
		return
	}
	t.running = false
	p := t.Primary()
	missing := 0
	for _, m := range t.members[1:] {
		if !t.finalSeen[m.dev.DSN] {
			missing++
			continue
		}
		db := t.reports[m.dev.DSN]
		for _, n := range db.Nodes() {
			p.db.AddNode(n)
		}
		for _, l := range db.Links() {
			p.db.AddLink(l)
		}
	}
	// Foreign-region nodes carry member-relative paths; recompute from
	// the primary's endpoint over the merged graph.
	tree := p.db.TreeFrom(p.dev.DSN)
	for _, n := range p.db.Nodes() {
		if n.DSN == p.dev.DSN {
			continue
		}
		path, arrive := tree.PathTo(n.DSN)
		if path == nil {
			p.db.RemoveNode(n.DSN)
			continue
		}
		n = p.db.writable(n.DSN)
		n.Path = path
		n.ArrivalPort = arrive
	}
	res := TeamResult{
		Start:       t.start,
		End:         t.e.Now(),
		Duration:    t.e.Now().Sub(t.start),
		Devices:     p.db.NumNodes(),
		Links:       p.db.NumLinks(),
		PerMember:   t.results,
		SyncPackets: t.syncPackets,
		SyncBytes:   t.syncBytes,
		Missing:     missing,
	}
	for _, r := range t.results {
		res.TotalPacketsSent += r.PacketsSent
	}
	res.TotalPacketsSent += uint64(t.syncPackets)
	if t.OnComplete != nil {
		t.OnComplete(res)
	}
}
