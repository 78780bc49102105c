package topo

import (
	"fmt"
	"testing"
)

// fuzzBuildMax keeps one fuzz iteration small: a name that is legal but
// sized past it (in nodes or links) is not built.
const fuzzBuildMax = 1 << 14

// FuzzParseName feeds arbitrary names to ParseName. Any input must come
// back without a panic and nothing past MaxSize may be built. CheckName,
// which builds nothing, must refuse a name exactly when ByName does, with
// the same error. Every name
// that builds must agree with the counts ParseName sized it by, and its
// port table with the cabling: Peer at every (node, port) equals a map
// rebuilt from Links, and ReachableFrom equals a map-based breadth-first
// search.
func FuzzParseName(f *testing.F) {
	for _, s := range Table1() {
		f.Add(s.Name)
	}
	for _, name := range []string{
		"2x2 mesh", "2x5 torus", "7x4 torus", "2-port 4-tree", "6-port 2-tree",
		"dragonfly 2x2", "dragonfly 5x7", "dragonfly 2x508", "dragonfly 2x600", "autofat 8x5", "autofat 16x100",
		"100000x100000 mesh", "autofat 1000000000x5", "dragonfly -3x4", "0-port 2-tree", "x mesh", "",
	} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		nodes, links, _, perr := parametric(name)
		if perr == nil && nodes <= MaxSize && links <= MaxSize && (nodes > fuzzBuildMax || links > fuzzBuildMax) {
			t.Skip("legal, but too large to build in a fuzz iteration")
		}
		tp, err := ParseName(name)
		if _, berr := ByName(name); fmt.Sprint(CheckName(name)) != fmt.Sprint(berr) {
			t.Fatalf("CheckName(%q) = %v, ByName refuses it with %v", name, CheckName(name), berr)
		}
		if err != nil {
			return
		}
		if len(tp.Nodes) > MaxSize || len(tp.Links) > MaxSize {
			t.Fatalf("ParseName(%q) built %d nodes and %d links, past MaxSize", name, len(tp.Nodes), len(tp.Links))
		}
		if nodes != float64(len(tp.Nodes)) || links != float64(len(tp.Links)) {
			t.Fatalf("ParseName(%q) sized %v nodes / %v links, built %d / %d", name, nodes, links, len(tp.Nodes), len(tp.Links))
		}
		checkPortTable(t, tp)
	})
}

// checkPortTable compares the topology's port table with a map rebuilt
// from its links.
func checkPortTable(t *testing.T, tp *Topology) {
	t.Helper()
	type port struct {
		node NodeID
		port int
	}
	peers := map[port]port{}
	adj := map[NodeID][]NodeID{}
	for _, l := range tp.Links {
		peers[port{l.A, l.APort}] = port{l.B, l.BPort}
		peers[port{l.B, l.BPort}] = port{l.A, l.APort}
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	for _, n := range tp.Nodes {
		for p := -1; p <= n.Ports; p++ {
			want, wok := peers[port{n.ID, p}]
			node, pp, ok := tp.Peer(n.ID, p)
			if ok != wok || ok && (node != want.node || pp != want.port) {
				t.Fatalf("%s: Peer(%d, %d) = %d %d %v, links say %v %v", tp.Name, n.ID, p, node, pp, ok, want, wok)
			}
		}
	}
	for _, start := range []NodeID{0, NodeID(len(tp.Nodes) - 1)} {
		seen := map[NodeID]bool{start: true}
		queue := []NodeID{start}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, m := range adj[n] {
				if !seen[m] {
					seen[m] = true
					queue = append(queue, m)
				}
			}
		}
		got := tp.ReachableFrom(start)
		if len(got) != len(seen) || got[0] != start {
			t.Fatalf("%s: ReachableFrom(%d) reaches %d nodes starting at %d, a map BFS %d", tp.Name, start, len(got), got[0], len(seen))
		}
		for _, n := range got {
			if !seen[n] {
				t.Fatalf("%s: ReachableFrom(%d) reaches %d, a map BFS does not", tp.Name, start, n)
			}
		}
	}
}
