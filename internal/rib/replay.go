package rib

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/asi"
	"repro/internal/core"
)

// Replayer reconstructs served state from a subscription's batch stream.
// It is both the reference client (the daemon's smoke test and the HTTP
// examples use it) and the verification tool: after any quiescent point,
// Canonical must be byte-identical to the live snapshot's Canonical and
// Fingerprint must equal the live core.DB.Fingerprint.
type Replayer struct {
	gen    uint64
	leaves map[string]json.RawMessage
	synced bool
	// Resyncs counts full-state replacements observed (stalled-reader
	// recoveries); Batches every batch applied.
	Resyncs int
	Batches int
}

// NewReplayer returns an empty replayer awaiting its initial sync.
func NewReplayer() *Replayer {
	return &Replayer{leaves: map[string]json.RawMessage{}}
}

// Apply folds one batch into the reconstructed state.
func (r *Replayer) Apply(b Batch) error {
	switch b.Type {
	case SyncBatch, ResyncBatch:
		// Full state transfer: drop everything and start over.
		r.leaves = make(map[string]json.RawMessage, len(b.Updates))
		r.synced = true
		if b.Type == ResyncBatch {
			r.Resyncs++
		}
	case DeltaBatch:
		if !r.synced {
			return fmt.Errorf("rib: delta for generation %d before any sync", b.Gen)
		}
		if b.Gen <= r.gen {
			return fmt.Errorf("rib: generation went backwards: %d after %d", b.Gen, r.gen)
		}
	default:
		return fmt.Errorf("rib: unknown batch type %q", b.Type)
	}
	for _, u := range b.Updates {
		switch u.Op {
		case OpSet:
			r.leaves[u.Path] = u.Value
		case OpDelete:
			n := len(r.leaves)
			delete(r.leaves, u.Path) // one probe: the count says whether it was there
			if len(r.leaves) == n {
				return fmt.Errorf("rib: delete of unknown leaf %s in generation %d", u.Path, b.Gen)
			}
		default:
			return fmt.Errorf("rib: unknown update op %q", u.Op)
		}
	}
	r.gen = b.Gen
	r.Batches++
	return nil
}

// Gen returns the last applied generation.
func (r *Replayer) Gen() uint64 { return r.gen }

// NumLeaves returns the reconstructed leaf count.
func (r *Replayer) NumLeaves() int { return len(r.leaves) }

// Canonical renders the reconstructed state in the canonical byte form,
// comparable against Snapshot.Canonical of the same prefix.
func (r *Replayer) Canonical(prefix string) []byte {
	return canonicalBytes(r.gen, r.leaves, prefix)
}

// Fingerprint rebuilds a topology database from the reconstructed
// /topology leaves and returns its core fingerprint — the end-to-end
// check that a diff stream reproduces exactly what the FM's database
// holds. It fails when the stream carried no topology (e.g. a /fib-only
// subscription) or a leaf does not parse, and when a leaf's ports are
// out of the range a device can have: a node's port count outside
// 1..asi.MaxSwitchPorts, or a link port outside 0..255 or past its
// device's port count. The database holds a port index in a byte, so
// such a port would otherwise alias another.
func (r *Replayer) Fingerprint() (uint64, error) {
	if !r.synced {
		return 0, fmt.Errorf("rib: no sync applied")
	}
	db := core.NewDB(0)
	type link struct {
		path string
		l    core.Link
	}
	var links []link
	for path, v := range r.leaves {
		switch {
		case strings.HasPrefix(path, PathSwitches), strings.HasPrefix(path, PathEndpoints):
			var n nodeLeaf
			if err := json.Unmarshal(v, &n); err != nil {
				return 0, fmt.Errorf("rib: leaf %s: %w", path, err)
			}
			if n.Ports < 1 || n.Ports > asi.MaxSwitchPorts {
				return 0, fmt.Errorf("rib: leaf %s: port count %d outside 1..%d", path, n.Ports, asi.MaxSwitchPorts)
			}
			typ := asi.DeviceEndpoint
			if n.Type == "switch" {
				typ = asi.DeviceSwitch
			}
			db.AddNode(&core.Node{DSN: n.DSN, Type: typ, Ports: n.Ports})
		case strings.HasPrefix(path, PathLinks):
			var l linkLeaf
			if err := json.Unmarshal(v, &l); err != nil {
				return 0, fmt.Errorf("rib: leaf %s: %w", path, err)
			}
			links = append(links, link{path, core.Link{A: l.A, APort: l.APort, B: l.B, BPort: l.BPort}})
		}
	}
	// Links are checked once every node is in: the leaves come in map
	// order.
	checkPort := func(path string, dsn asi.DSN, port int) error {
		if port < 0 || port > math.MaxUint8 {
			return fmt.Errorf("rib: leaf %s: port %d outside 0..%d", path, port, math.MaxUint8)
		}
		if n := db.Node(dsn); n != nil && port >= n.Ports {
			return fmt.Errorf("rib: leaf %s: port %d past device %d's %d ports", path, port, dsn, n.Ports)
		}
		return nil
	}
	for _, l := range links {
		if err := checkPort(l.path, l.l.A, l.l.APort); err != nil {
			return 0, err
		}
		if err := checkPort(l.path, l.l.B, l.l.BPort); err != nil {
			return 0, err
		}
		db.AddLink(l.l)
	}
	if db.NumNodes() == 0 {
		return 0, fmt.Errorf("rib: reconstructed state carries no topology leaves")
	}
	return db.Fingerprint(), nil
}
