package topo

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/asi"
)

// Spec identifies one topology from the paper's Table 1 together with its
// expected device counts, which double as a regression check on the
// generators.
type Spec struct {
	Name      string
	Switches  int
	Endpoints int
	Build     func() *Topology
}

// Total returns the expected total device count.
func (s Spec) Total() int { return s.Switches + s.Endpoints }

// Table1 returns the paper's Table 1 catalogue of evaluated topologies, in
// the paper's order: meshes and tori from 3x3 to 8x8, the 10x10 torus, and
// the four fat-trees.
func Table1() []Spec {
	specs := []Spec{
		{"3x3 mesh", 9, 9, func() *Topology { return Mesh(3, 3) }},
		{"3x3 torus", 9, 9, func() *Topology { return Torus(3, 3) }},
		{"4x4 mesh", 16, 16, func() *Topology { return Mesh(4, 4) }},
		{"4x4 torus", 16, 16, func() *Topology { return Torus(4, 4) }},
		{"6x6 mesh", 36, 36, func() *Topology { return Mesh(6, 6) }},
		{"6x6 torus", 36, 36, func() *Topology { return Torus(6, 6) }},
		{"8x8 mesh", 64, 64, func() *Topology { return Mesh(8, 8) }},
		{"8x8 torus", 64, 64, func() *Topology { return Torus(8, 8) }},
		{"10x10 torus", 100, 100, func() *Topology { return Torus(10, 10) }},
		{"4-port 2-tree", 6, 8, func() *Topology { return FatTree(4, 2) }},
		{"4-port 3-tree", 20, 16, func() *Topology { return FatTree(4, 3) }},
		{"4-port 4-tree", 56, 32, func() *Topology { return FatTree(4, 4) }},
		{"8-port 2-tree", 12, 32, func() *Topology { return FatTree(8, 2) }},
	}
	return specs
}

// Extended returns the post-paper generator families' representative
// catalogue entries: dragonfly D3(K,M) fabrics and auto-designed
// two-layer fat-trees. Like Table1, the listed device counts double as a
// regression check on the generators; the chaos corpus executes every
// catalogue entry.
func Extended() []Spec {
	return []Spec{
		{"dragonfly 4x6", 24, 24, func() *Topology { return Dragonfly(4, 6) }},
		{"dragonfly 8x17", 136, 136, func() *Topology { return Dragonfly(8, 17) }},
		{"autofat 8x32", 12, 32, func() *Topology {
			return AutoFatTree(AutoFatTreeSpec{Ports: 8, Endpoints: 32})
		}},
		{"autofat 24x288", 36, 288, func() *Topology {
			return AutoFatTree(AutoFatTreeSpec{Ports: 24, Endpoints: 288})
		}},
	}
}

// Catalogue returns every named topology: the paper's Table 1 followed by
// the extended generator families.
func Catalogue() []Spec {
	return append(Table1(), Extended()...)
}

// ByName builds the named topology: an exact catalogue entry, or any
// parametric family name (see ParseName).
func ByName(name string) (*Topology, error) {
	for _, s := range Catalogue() {
		if s.Name == name {
			return s.Build(), nil
		}
	}
	return ParseName(name)
}

// CheckName returns the error ByName would return for name, building
// nothing: a catalogue lookup, or a parametric family's sizing and its
// MaxSize check.
func CheckName(name string) error {
	for _, s := range Catalogue() {
		if s.Name == name {
			return nil
		}
	}
	_, err := sized(name)
	return err
}

// MaxSize bounds the fabrics ParseName builds, in nodes and in links.
// Names arrive from outside the program (-topo, replayed scenarios, the
// fuzzer) and the generators allocate every node and cable, so without a
// bound a name can ask for any amount of memory. 1<<20 nodes is ~50x dragonfly 16x625, the largest fabric any
// test or benchmark builds.
const MaxSize = 1 << 20

// maxTreeDepth is log2(MaxSize): a deeper m-port n-tree has too many
// nodes whatever m >= 4 is, and a 2-port one — a chain, whose node
// labels grow with its depth — costs depth squared to build.
const maxTreeDepth = 20

// ParseName builds a topology from a parametric family name, so tools and
// scenario specs can reference arbitrary instances without a catalogue
// entry:
//
//	"RxC mesh"        Mesh(R, C), R and C >= 2
//	"RxC torus"       Torus(R, C), R and C >= 2
//	"M-port N-tree"   FatTree(M, N), M even >= 2, 2 <= N <= 20
//	"dragonfly KxM"   Dragonfly(K, M), K and M >= 2
//	"autofat PxN"     AutoFatTree of radix P <= 256 attaching N endpoints
//
// An instance of more than MaxSize nodes or links is refused before
// anything is built.
func ParseName(name string) (*Topology, error) {
	build, err := sized(name)
	if err != nil {
		return nil, err
	}
	return build(), nil
}

// sized resolves a parametric family name to its constructor, refusing
// an instance of more than MaxSize nodes or links.
func sized(name string) (func() *Topology, error) {
	nodes, links, build, err := parametric(name)
	if err != nil {
		return nil, err
	}
	if nodes > MaxSize || links > MaxSize {
		return nil, fmt.Errorf("topo: %q is too large: %.4g nodes and %.4g links, the limit is %d of each",
			name, nodes, links, MaxSize)
	}
	return build, nil
}

// parametric resolves a family name to the instance's node and link
// counts and its constructor, building nothing. The counts are float64
// so that no parameter can overflow them back into range; below 2^53,
// far above MaxSize, they are exact.
func parametric(name string) (nodes, links float64, build func() *Topology, err error) {
	var a, b int
	if n, _ := fmt.Sscanf(name, "dragonfly %dx%d", &a, &b); n == 2 {
		if a < 2 || b < 2 {
			return 0, 0, nil, fmt.Errorf("topo: dragonfly %dx%d needs K >= 2 and M >= 2", a, b)
		}
		k, m := float64(a), float64(b)
		// Its switch radix grows with M/K; Dragonfly validates what it built.
		if ports := k + math.Ceil((m-1)/k); ports > asi.MaxSwitchPorts {
			return 0, 0, nil, fmt.Errorf("topo: dragonfly %dx%d needs %.4g-port switches, past the limit of 2..%d", a, b, ports, asi.MaxSwitchPorts)
		}
		return 2 * k * m, m*k*(k-1)/2 + m*(m-1)/2 + k*m, func() *Topology { return Dragonfly(a, b) }, nil
	}
	if n, _ := fmt.Sscanf(name, "autofat %dx%d", &a, &b); n == 2 {
		// Design bounds the radix, and with it the endpoints.
		spec := AutoFatTreeSpec{Ports: a, Endpoints: b}
		d, err := spec.Design()
		if err != nil {
			return 0, 0, nil, err
		}
		return float64(b + d.Switches()), float64(b + d.Leaves*d.Spines), func() *Topology { return AutoFatTree(spec) }, nil
	}
	if n, _ := fmt.Sscanf(name, "%d-port %d-tree", &a, &b); n == 2 {
		if a < 2 || a%2 != 0 || b < 2 {
			return 0, 0, nil, fmt.Errorf("topo: fat-tree %q needs an even port count >= 2 and depth >= 2", name)
		}
		if b > maxTreeDepth {
			return 0, 0, nil, fmt.Errorf("topo: fat-tree %q is deeper than the limit of %d levels", name, maxTreeDepth)
		}
		// n-1 levels of 2h^(n-1) switches with h uplinks each, h^(n-1)
		// roots, and h endpoints under every leaf switch.
		h, depth := float64(a/2), float64(b)
		row := math.Pow(h, depth-1)
		return (2*depth-1)*row + 2*h*row, 2 * depth * h * row, func() *Topology { return FatTree(a, b) }, nil
	}
	var kind string
	if n, _ := fmt.Sscanf(name, "%dx%d %s", &a, &b, &kind); n == 3 && (kind == "mesh" || kind == "torus") {
		if a < 2 || b < 2 {
			return 0, 0, nil, fmt.Errorf("topo: grid %q needs both dimensions >= 2", name)
		}
		// One endpoint cable per switch, plus the east and south cables;
		// a dimension wraps only when wider than 2.
		r, c := float64(a), float64(b)
		links = 3*r*c - r - c
		if kind == "mesh" {
			return 2 * r * c, links, func() *Topology { return Mesh(a, b) }, nil
		}
		if b > 2 {
			links += r
		}
		if a > 2 {
			links += c
		}
		return 2 * r * c, links, func() *Topology { return Torus(a, b) }, nil
	}
	return 0, 0, nil, fmt.Errorf("topo: unknown topology %q (catalogue: %s; or parametric: %q, %q, %q, %q, %q)",
		name, strings.Join(Names(), ", "), "RxC mesh", "RxC torus", "M-port N-tree", "dragonfly KxM", "autofat PxN")
}

// Names lists the catalogue topology names in order: Table 1 first, then
// the extended families.
func Names() []string {
	specs := Catalogue()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}
