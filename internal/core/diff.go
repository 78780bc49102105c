package core

import (
	"fmt"
	"strings"

	"repro/internal/asi"
)

// Diff summarizes what changed between two topology databases — the
// assimilation report an operator (or the path-distribution stage) reads
// after a change-triggered rediscovery.
type Diff struct {
	AddedDevices   []asi.DSN
	RemovedDevices []asi.DSN
	AddedLinks     []Link
	RemovedLinks   []Link
}

// Empty reports whether nothing changed.
func (d Diff) Empty() bool {
	return len(d.AddedDevices) == 0 && len(d.RemovedDevices) == 0 &&
		len(d.AddedLinks) == 0 && len(d.RemovedLinks) == 0
}

// String renders a compact human-readable summary.
func (d Diff) String() string {
	if d.Empty() {
		return "no change"
	}
	var parts []string
	if n := len(d.AddedDevices); n > 0 {
		parts = append(parts, fmt.Sprintf("+%d devices", n))
	}
	if n := len(d.RemovedDevices); n > 0 {
		parts = append(parts, fmt.Sprintf("-%d devices", n))
	}
	if n := len(d.AddedLinks); n > 0 {
		parts = append(parts, fmt.Sprintf("+%d links", n))
	}
	if n := len(d.RemovedLinks); n > 0 {
		parts = append(parts, fmt.Sprintf("-%d links", n))
	}
	return strings.Join(parts, ", ")
}

// DiffDBs compares two databases. Devices compare by DSN, links by their
// normalized form; old or new may be nil (treated as empty). It merges the
// two intern tables' DSN orders, so devices come out ascending and links
// canonically sorted, with no sort and no copy of either database; per
// DSN it merges the two sorted adjacencies, keeping the link ends the
// device is the canonical end of. A DSN whose slot sits in a page the two
// still share since a Clone is skipped unread.
func DiffDBs(old, new *DB) Diff {
	var d Diff
	if old == nil {
		old = NewDB(0)
	}
	if new == nil {
		new = NewDB(0)
	}
	oo, no := old.tab.ordered(), new.tab.ordered()
	for i, j := 0, 0; i < len(oo) || j < len(no); {
		os, ns := int32(-1), int32(-1)
		switch {
		case j == len(no) || i < len(oo) && old.tab.dsns[oo[i]] < new.tab.dsns[no[j]]:
			os, i = oo[i], i+1
		case i == len(oo) || new.tab.dsns[no[j]] < old.tab.dsns[oo[i]]:
			ns, j = no[j], j+1
		default:
			os, ns, i, j = oo[i], no[j], i+1, j+1
		}
		po, io := old.slot(os)
		pn, in := new.slot(ns)
		if po == pn && io == in {
			continue // the same page, or neither database has one
		}
		var dsn asi.DSN
		var was, now []Neighbor
		wasNode, isNode := po != nil && po.has(io), pn != nil && pn.has(in)
		if po != nil {
			dsn, was = old.tab.dsns[os], po.adj[io]
		}
		if pn != nil {
			dsn, now = new.tab.dsns[ns], pn.adj[in]
		}
		switch {
		case isNode && !wasNode:
			d.AddedDevices = append(d.AddedDevices, dsn)
		case wasNode && !isNode:
			d.RemovedDevices = append(d.RemovedDevices, dsn)
		}
		if len(was) != len(now) || len(was) > 0 && &was[0] != &now[0] {
			d.RemovedLinks, d.AddedLinks = diffEnds(dsn, was, now, d.RemovedLinks, d.AddedLinks)
		}
	}
	return d
}

// diffEnds merges one device's old and new adjacency, both in Neighbor
// order, appending the links dsn is the canonical end of that only old
// holds to removed and that only new holds to added.
func diffEnds(dsn asi.DSN, old, new []Neighbor, removed, added []Link) ([]Link, []Link) {
	i, j := 0, 0
	for i < len(old) || j < len(new) {
		switch {
		case j == len(new) || i < len(old) && old[i].before(new[j]):
			if old[i].canonicalFrom(dsn) {
				removed = append(removed, old[i].linkFrom(dsn))
			}
			i++
		case i == len(old) || new[j].before(old[i]):
			if new[j].canonicalFrom(dsn) {
				added = append(added, new[j].linkFrom(dsn))
			}
			j++
		default:
			i, j = i+1, j+1
		}
	}
	return removed, added
}
