package rib

import (
	"testing"

	"repro/internal/asi"
	"repro/internal/core"
)

// TestReplayerFingerprintPortRange pins the narrowing boundary on the
// served side: the database holds a port index in a byte, so a node leaf
// whose port count no device can have, or a link leaf whose port is out of
// a byte or past its device's ports, is refused instead of aliasing
// another port. In range, the replayed fingerprint is the database's.
func TestReplayerFingerprintPortRange(t *testing.T) {
	for _, c := range []struct {
		name      string
		ports     int // of switch 2
		linkPort  int // switch 2's end of the link to endpoint 1
		wantError bool
	}{
		{"node ports -1", -1, 0, true},
		{"node ports 255", 255, 0, false},
		{"node ports 256", 256, 0, false},
		{"node ports 300", 300, 0, true},
		{"link port -1", 256, -1, true},
		{"link port 255", 256, 255, false},
		{"link port 256", 256, 256, true},
		{"link port 300", 256, 300, true},
		{"link port 255 of 255 ports", 255, 255, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			sw := &core.Node{DSN: 2, Type: asi.DeviceSwitch, Ports: c.ports}
			ep := &core.Node{DSN: 1, Type: asi.DeviceEndpoint, Ports: 1}
			l := core.Link{A: 1, APort: 0, B: 2, BPort: c.linkPort}
			b := Batch{Gen: 1, Type: SyncBatch, Updates: []Update{
				{Op: OpSet, Path: nodePath(sw), Value: nodeJSON(nodeValue(sw))},
				{Op: OpSet, Path: nodePath(ep), Value: nodeJSON(nodeValue(ep))},
				{Op: OpSet, Path: linkPath(l), Value: linkJSON(linkValue(l))},
			}}
			rep := NewReplayer()
			if err := rep.Apply(b); err != nil {
				t.Fatal(err)
			}
			fp, err := rep.Fingerprint()
			if c.wantError {
				if err == nil {
					t.Fatalf("fingerprint %#x accepted, want an error", fp)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			db := core.NewDB(1)
			db.AddNode(ep)
			db.AddNode(sw)
			db.AddLink(l)
			if want := db.Fingerprint(); fp != want {
				t.Errorf("replayed fingerprint %#x, database %#x", fp, want)
			}
		})
	}
}
