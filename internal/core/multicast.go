package core

import (
	"fmt"

	"repro/internal/asi"
)

// Multicast group management — one of the FM tasks the specification
// lists (paper section 2). The FM computes a shared distribution tree
// spanning the group's member endpoints over its topology database and
// programs the per-switch multicast forwarding tables (port masks) with
// PI-4 writes. Any member can then source packets to the group: switches
// replicate along all tree ports except the arrival port, so the tree
// structure itself prevents loops.

// MulticastTree describes a programmed group.
type MulticastTree struct {
	MGID    uint16
	Members []asi.DSN
	// SwitchMasks holds the replication port mask per tree switch.
	SwitchMasks map[asi.DSN]uint32
}

// ComputeMulticastTree builds the shared tree for a member set: the union
// of database shortest paths from the first member to every other. All
// members must be discovered endpoints reachable in the database.
func (m *Manager) ComputeMulticastTree(mgid uint16, members []asi.DSN) (*MulticastTree, error) {
	if int(mgid) >= asi.MFTGroups {
		return nil, fmt.Errorf("core: multicast group %d out of range 0..%d", mgid, asi.MFTGroups-1)
	}
	if len(members) < 2 {
		return nil, fmt.Errorf("core: multicast group needs at least 2 members, got %d", len(members))
	}
	for _, dsn := range members {
		n := m.db.Node(dsn)
		if n == nil {
			return nil, fmt.Errorf("core: multicast member %v not in topology database", dsn)
		}
		if n.Type != asi.DeviceEndpoint {
			return nil, fmt.Errorf("core: multicast member %v is not an endpoint", dsn)
		}
	}
	tree := &MulticastTree{
		MGID:        mgid,
		Members:     append([]asi.DSN(nil), members...),
		SwitchMasks: map[asi.DSN]uint32{},
	}
	root := members[0]
	paths := m.db.TreeFrom(root)
	for _, dst := range members[1:] {
		chain := paths.Chain(dst)
		if chain == nil {
			return nil, fmt.Errorf("core: multicast member %v unreachable from %v", dst, root)
		}
		for _, l := range chain {
			if from := m.db.Node(l.From); from != nil && from.Type == asi.DeviceSwitch {
				if l.FromPort >= 32 {
					return nil, fmt.Errorf("core: port %d exceeds the 32-port MFT mask", l.FromPort)
				}
				tree.SwitchMasks[l.From] |= 1 << uint(l.FromPort)
			}
			if to := m.db.Node(l.To); to != nil && to.Type == asi.DeviceSwitch {
				if l.ToPort >= 32 {
					return nil, fmt.Errorf("core: port %d exceeds the 32-port MFT mask", l.ToPort)
				}
				tree.SwitchMasks[l.To] |= 1 << uint(l.ToPort)
			}
		}
	}
	return tree, nil
}

// ProgramMulticastGroup computes the group's tree and writes every tree
// switch's forwarding-table entry over the fabric, reusing the parallel
// distribution engine. onDone fires when the last write completes.
func (m *Manager) ProgramMulticastGroup(mgid uint16, members []asi.DSN, onDone func(DistResult)) error {
	if m.discovering {
		return fmt.Errorf("core: cannot program multicast during discovery")
	}
	tree, err := m.ComputeMulticastTree(mgid, members)
	if err != nil {
		return err
	}
	m.dist = &distState{res: DistResult{Start: m.e.Now()}, onDone: onDone}
	for _, n := range m.db.Nodes() {
		mask, ok := tree.SwitchMasks[n.DSN]
		if !ok {
			continue
		}
		req := m.newRequest(request{kind: reqWrite, path: n.Path, dsn: n.DSN})
		payload := asi.PI4{
			Op:     asi.PI4WriteRequest,
			Offset: asi.MFTEntryOffset(n.Ports, mgid),
			Data:   []uint32{mask},
		}
		sz := (&asi.Packet{Payload: &payload}).WireSize()
		if !m.send(req, payload) {
			m.dist.res.Failures++
			continue
		}
		m.dist.res.Writes++
		m.dist.res.BytesSent += uint64(sz)
		m.dist.outstanding++
	}
	if m.dist.outstanding == 0 {
		m.finishDist()
	}
	return nil
}
