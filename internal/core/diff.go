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
// two node and link maps directly and sorts only what differs (devices by
// DSN, links canonically), so comparing two generations of a large fabric
// costs no sorted copy of either.
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
	for l := range new.links {
		if !old.links[l] {
			d.AddedLinks = append(d.AddedLinks, l)
		}
	}
	for l := range old.links {
		if !new.links[l] {
			d.RemovedLinks = append(d.RemovedLinks, l)
		}
	}
	slices.Sort(d.AddedDevices)
	slices.Sort(d.RemovedDevices)
	sortLinks(d.AddedLinks)
	sortLinks(d.RemovedLinks)
	return d
}
