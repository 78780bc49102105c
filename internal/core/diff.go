package core

import (
	"fmt"
	"slices"
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
// normalized form; old or new may be nil (treated as empty). It scans the
// two node maps and merges each device's two sorted adjacencies, keeping
// the link ends a device is the canonical end of, and sorts only what
// differs (devices by DSN, links canonically), so comparing two
// generations of a large fabric costs no sorted copy of either. An
// adjacency the two still share since a Clone is skipped unread.
func DiffDBs(old, new *DB) Diff {
	var d Diff
	var empty DB
	if old == nil {
		old = &empty
	}
	if new == nil {
		new = &empty
	}
	for dsn := range new.nodes {
		if old.nodes[dsn] == nil {
			d.AddedDevices = append(d.AddedDevices, dsn)
		}
	}
	for dsn := range old.nodes {
		if new.nodes[dsn] == nil {
			d.RemovedDevices = append(d.RemovedDevices, dsn)
		}
	}
	for dsn, nbs := range new.adj {
		if was := old.adj[dsn]; len(was) != len(nbs) || &was[0] != &nbs[0] { // adjacencies are never empty
			d.RemovedLinks, d.AddedLinks = diffEnds(dsn, was, nbs, d.RemovedLinks, d.AddedLinks)
		}
	}
	for dsn, nbs := range old.adj {
		if _, ok := new.adj[dsn]; !ok {
			d.RemovedLinks, _ = diffEnds(dsn, nbs, nil, d.RemovedLinks, nil)
		}
	}
	slices.Sort(d.AddedDevices)
	slices.Sort(d.RemovedDevices)
	sortLinks(d.AddedLinks)
	sortLinks(d.RemovedLinks)
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
