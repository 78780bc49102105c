package rib

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/asi"
	"repro/internal/core"
)

// fuzzDB is the database FuzzInstallChangeSets mutates: host endpoint 1
// on a ring of six 4-port switches (DSN 2..7), an endpoint (8..13) on
// each.
func fuzzDB() *core.DB {
	db := core.NewDB(1)
	db.AddNode(&core.Node{DSN: 1, Type: asi.DeviceEndpoint, Ports: 1})
	db.AddLink(core.Link{A: 1, APort: 0, B: 2, BPort: 3})
	for i := 0; i < 6; i++ {
		sw, ep := asi.DSN(2+i), asi.DSN(8+i)
		db.AddNode(&core.Node{DSN: sw, Type: asi.DeviceSwitch, Ports: 4})
		db.AddNode(&core.Node{DSN: ep, Type: asi.DeviceEndpoint, Ports: 1})
		db.AddLink(core.Link{A: sw, APort: 0, B: asi.DSN(2 + (i+1)%6), BPort: 1})
		if ep != 8 { // switch 2's port 3 carries the host
			db.AddLink(core.Link{A: sw, APort: 3, B: ep, BPort: 0})
		}
	}
	return db
}

// reshape gives a device another type or port count from outside core,
// where a served entry must not be written in place: the entry is
// replaced by an edited copy and its links are cabled back.
func reshape(db *core.DB, dsn asi.DSN, edit func(*core.Node)) {
	n := db.Node(dsn)
	if n == nil {
		return
	}
	c := *n
	edit(&c)
	var links []core.Link
	for _, nb := range db.NeighborsOf(dsn) {
		links = append(links, core.Link{A: dsn, APort: int(nb.LocalPort), B: nb.DSN, BPort: int(nb.RemotePort)})
	}
	db.RemoveNode(dsn)
	db.AddNode(&c)
	for _, l := range links {
		db.AddLink(l)
	}
}

// mutate applies one of FuzzInstallChangeSets' database changes, op 0..6
// with its argument byte; cut remembers the links of each device cut off
// (op 6), to cable them back the next time.
func mutate(db *core.DB, cut map[asi.DSN][]core.Link, op byte, arg int) {
	dsn := asi.DSN(1 + arg%16)
	switch op {
	case 0: // add a device, switch or endpoint by the argument's high bit
		typ, ports := asi.DeviceEndpoint, 1
		if arg >= 128 {
			typ, ports = asi.DeviceSwitch, 4
		}
		db.AddNode(&core.Node{DSN: dsn, Type: typ, Ports: ports})
	case 1:
		db.RemoveNode(dsn)
		delete(cut, dsn)
	case 2: // cable two known devices, possibly one to itself
		a, b := dsn, asi.DSN(1+(arg/16)%16)
		if db.Node(a) != nil && db.Node(b) != nil {
			l := core.Link{A: a, APort: arg % db.Node(a).Ports, B: b, BPort: (arg / 7) % db.Node(b).Ports}
			if l.A != l.B || l.APort != l.BPort {
				db.AddLink(l)
			}
		}
	case 3:
		if links := db.Links(); len(links) > 0 {
			db.RemoveLink(links[arg%len(links)])
		}
	case 4: // same DSN, other type
		reshape(db, dsn, func(n *core.Node) { n.Type = asi.DeviceSwitch + asi.DeviceEndpoint - n.Type })
	case 5: // same DSN, other port count
		reshape(db, dsn, func(n *core.Node) { n.Ports = 1 + (n.Ports+arg/16)%8 })
	case 6: // cut a device off; the next time, cable it back
		if links, ok := cut[dsn]; ok {
			for _, l := range links {
				if db.Node(l.A) != nil && db.Node(l.B) != nil {
					db.AddLink(l)
				}
			}
			delete(cut, dsn)
		} else if db.Node(dsn) != nil {
			for _, nb := range append([]core.Neighbor(nil), db.NeighborsOf(dsn)...) {
				l := core.Link{A: dsn, APort: int(nb.LocalPort), B: nb.DSN, BPort: int(nb.RemotePort)}
				cut[dsn] = append(cut[dsn], l)
				db.RemoveLink(l)
			}
		}
	}
}

// follower replays one subscription and checks it against the live
// snapshot whenever asked.
type follower struct {
	prefix string
	sub    *Subscription
	rep    *Replayer
}

func follow(r *RIB, prefix string) *follower {
	return &follower{prefix: prefix, sub: r.Subscribe(prefix), rep: NewReplayer()}
}

// catchUp applies batches until the replayer holds the current
// generation, then compares it with the live snapshot.
func (f *follower) catchUp(r *RIB) error {
	cur := r.Current()
	for f.rep.Batches == 0 || f.rep.Gen() < cur.Gen {
		if err := f.rep.Apply(<-f.sub.Updates()); err != nil {
			return fmt.Errorf("subscriber %s: %w", f.prefix, err)
		}
	}
	if got, want := f.rep.Canonical(f.prefix), cur.Canonical(f.prefix); !bytes.Equal(got, want) {
		return fmt.Errorf("subscriber %s: replayed state differs at gen %d:\n%s\nlive:\n%s", f.prefix, cur.Gen, got, want)
	}
	if f.prefix != "/" || cur.DB.NumNodes() == 0 {
		return nil
	}
	fp, err := f.rep.Fingerprint()
	if err != nil {
		return fmt.Errorf("subscriber %s: %w", f.prefix, err)
	}
	if fp != cur.Fingerprint {
		return fmt.Errorf("subscriber %s: replayed fingerprint %#x, live %#x", f.prefix, fp, cur.Fingerprint)
	}
	return nil
}

// FuzzInstallChangeSets drives random mutation sequences — devices and
// links added and removed, a device keeping its DSN while its type flips
// switch↔endpoint (its leaf moves between /topology/switches/ and
// /topology/endpoints/) or its port count changes, a device cut off and
// cabled back, installs of an unchanged database — through Install. After
// every install the generation must equal the from-scratch reference
// (see referee), and subscribers on "/", /topology/links and /fib/routes
// that read every delta, plus one on "/" that reads only at the end and
// is resynced, must replay to the live snapshot. The mutations write the
// database every generation was installed from, and no served generation
// may see them.
func FuzzInstallChangeSets(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 7, 0})                                     // empty changes
	f.Add([]byte{4, 3, 7, 0, 4, 3, 7, 0})                         // a switch becomes an endpoint and back
	f.Add([]byte{5, 2, 7, 0, 5, 2, 7, 0})                         // port count changes
	f.Add([]byte{6, 4, 7, 0, 6, 4, 7, 0})                         // cut off, then cabled back
	f.Add([]byte{1, 3, 7, 0, 0, 3, 7, 0, 2, 9, 7, 0})             // remove, re-add, cable
	f.Add([]byte{1, 0, 7, 0, 0, 0, 7, 0})                         // the host itself goes and returns
	f.Add([]byte{3, 0, 3, 1, 2, 200, 2, 77, 7, 0, 4, 9, 7, 0})    // links out, self-loop in, an endpoint forwards
	f.Add([]byte{0, 40, 2, 41, 7, 0, 6, 2, 7, 0, 1, 40, 7, 0})    // new device beyond a cut
	f.Add([]byte{7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 1, 5, 7, 0}) // enough installs to overflow the lazy reader
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		db := fuzzDB()
		r := New(Config{QueueDepth: 4})
		ref := newReferee(r)
		if err := ref.install(db); err != nil {
			t.Fatal(err)
		}
		eager := []*follower{follow(r, "/"), follow(r, PathLinks), follow(r, PathRoutes)}
		lazy := follow(r, "/")
		defer lazy.sub.Close()
		for _, f := range eager {
			defer f.sub.Close()
		}

		cut := map[asi.DSN][]core.Link{}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%8, int(data[i+1])
			switch op {
			default:
				mutate(db, cut, op, arg)
			case 7:
				if err := ref.install(db); err != nil {
					t.Fatal(err)
				}
				for _, f := range eager {
					if err := f.catchUp(r); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := ref.install(db); err != nil {
			t.Fatal(err)
		}
		for _, f := range append(eager, lazy) {
			if err := f.catchUp(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := ref.checkFrozen(); err != nil {
			t.Fatal(err)
		}
	})
}
