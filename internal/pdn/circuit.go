// Package pdn models power-distribution networks (PDNs) as lumped RLC
// circuits and provides two analyses over them:
//
//   - transient simulation (trapezoidal integration of the circuit
//     state) driving time-varying per-node current loads, producing the
//     on-die voltage waveforms the paper observes with oscilloscopes
//     and skitter macros, and
//   - AC (phasor) impedance analysis, producing the impedance-vs-
//     frequency profiles used during package characterization
//     (the paper's Figure 7b).
//
// The package also ships a calibrated ZEC12-like network preset
// reproducing the salient structure of the paper's platform: a VRM,
// motherboard and package stages, and two on-die voltage domains (cores
// {0,2,4} and {1,3,5}) joined by a large deep-trench eDRAM L3
// capacitance that acts as the damping element between them.
//
// Every product that feeds an addition is written float64(x*y): the
// Go spec lets a compiler fuse x*y + z into one multiply-add that
// rounds once, and the arm64, ppc64le, s390x and riscv64 backends do,
// which would change results there. The explicit conversion forbids
// the fusion; make fma-check fails on any fused op left in the package.
package pdn

import (
	"fmt"
	"math"
)

// NodeID identifies a circuit node. The zero value is ground.
type NodeID int

// Ground is the reference node; its potential is always 0.
const Ground NodeID = 0

type elementKind int

const (
	kindResistor elementKind = iota
	kindInductor
	kindCapacitor
)

// element is one two-terminal branch of the circuit.
type element struct {
	kind  elementKind
	name  string
	a, b  NodeID
	value float64 // ohms, henries or farads
}

// Load is a time-varying current sink attached to a node: Current(t)
// amperes flow from the node to ground (i.e. the device draws current
// from the network).
type Load struct {
	Name string
	Node NodeID
	// Current returns the drawn current at time t (seconds).
	Current func(t float64) float64
}

// Circuit is a netlist under construction. Build it with the Add*
// methods, then hand it to NewTransient or the impedance functions.
// A Circuit is not safe for concurrent mutation.
type Circuit struct {
	nodeNames []string       // index = NodeID
	nodeIndex map[string]int // name -> NodeID
	elements  []element
	loads     []*Load
	fixed     map[NodeID]float64 // node -> fixed potential (voltage sources to ground)
}

// NewCircuit returns an empty circuit containing only the ground node.
func NewCircuit() *Circuit {
	c := &Circuit{
		nodeIndex: map[string]int{"gnd": 0},
		nodeNames: []string{"gnd"},
		fixed:     map[NodeID]float64{},
	}
	return c
}

// Node returns the node with the given name, creating it on first use.
// The name "gnd" is reserved for ground.
func (c *Circuit) Node(name string) NodeID {
	if id, ok := c.nodeIndex[name]; ok {
		return NodeID(id)
	}
	id := len(c.nodeNames)
	c.nodeNames = append(c.nodeNames, name)
	c.nodeIndex[name] = id
	return NodeID(id)
}

// NodeName returns the name of node n.
func (c *Circuit) NodeName(n NodeID) string {
	if int(n) < 0 || int(n) >= len(c.nodeNames) {
		panic(fmt.Sprintf("pdn: unknown node %d", n))
	}
	return c.nodeNames[n]
}

// NumNodes returns the number of nodes including ground.
func (c *Circuit) NumNodes() int { return len(c.nodeNames) }

// FixNode pins node n to the given potential, modelling an ideal
// voltage source to ground (the VRM output in our networks). Ground is
// implicitly fixed at 0 and cannot be re-fixed.
func (c *Circuit) FixNode(n NodeID, volts float64) {
	if n == Ground {
		panic("pdn: cannot fix ground")
	}
	c.checkNode(n)
	c.fixed[n] = volts
}

// FixedVoltage returns the pinned potential of n and whether it is
// pinned. Ground reports (0, true).
func (c *Circuit) FixedVoltage(n NodeID) (float64, bool) {
	if n == Ground {
		return 0, true
	}
	v, ok := c.fixed[n]
	return v, ok
}

// AddResistor adds a resistor of the given resistance between a and b.
func (c *Circuit) AddResistor(name string, a, b NodeID, ohms float64) {
	c.checkBranch(name, a, b)
	if ohms <= 0 {
		panic(fmt.Sprintf("pdn: resistor %q with non-positive resistance %g", name, ohms))
	}
	c.elements = append(c.elements, element{kind: kindResistor, name: name, a: a, b: b, value: ohms})
}

// AddInductor adds an inductor of the given inductance between a and b.
func (c *Circuit) AddInductor(name string, a, b NodeID, henries float64) {
	c.checkBranch(name, a, b)
	if henries <= 0 {
		panic(fmt.Sprintf("pdn: inductor %q with non-positive inductance %g", name, henries))
	}
	c.elements = append(c.elements, element{kind: kindInductor, name: name, a: a, b: b, value: henries})
}

// AddCapacitor adds a capacitor of the given capacitance between a and
// b. A positive esr adds an equivalent series resistance by inserting
// an internal node.
func (c *Circuit) AddCapacitor(name string, a, b NodeID, farads, esr float64) {
	c.checkBranch(name, a, b)
	if farads <= 0 {
		panic(fmt.Sprintf("pdn: capacitor %q with non-positive capacitance %g", name, farads))
	}
	if esr < 0 {
		panic(fmt.Sprintf("pdn: capacitor %q with negative ESR %g", name, esr))
	}
	if esr > 0 {
		mid := c.Node(name + ".esr")
		c.AddResistor(name+".r", a, mid, esr)
		a = mid
	}
	c.elements = append(c.elements, element{kind: kindCapacitor, name: name, a: a, b: b, value: farads})
}

// AddLoad attaches a time-varying current sink to node n. The returned
// Load may be used to identify the sink later; its Current function can
// be replaced between transient runs but not during one.
func (c *Circuit) AddLoad(name string, n NodeID, current func(t float64) float64) *Load {
	c.checkNode(n)
	if n == Ground {
		panic("pdn: load on ground")
	}
	if current == nil {
		panic("pdn: nil load function")
	}
	l := &Load{Name: name, Node: n, Current: current}
	c.loads = append(c.loads, l)
	return l
}

// Loads returns the attached loads in insertion order.
func (c *Circuit) Loads() []*Load { return c.loads }

// NumElements returns the number of primitive branches (after ESR
// expansion).
func (c *Circuit) NumElements() int { return len(c.elements) }

func (c *Circuit) checkNode(n NodeID) {
	if int(n) < 0 || int(n) >= len(c.nodeNames) {
		panic(fmt.Sprintf("pdn: unknown node %d", n))
	}
}

func (c *Circuit) checkBranch(name string, a, b NodeID) {
	if name == "" {
		panic("pdn: element with empty name")
	}
	c.checkNode(a)
	c.checkNode(b)
	if a == b {
		panic(fmt.Sprintf("pdn: element %q connects node %d to itself", name, a))
	}
}

// unknowns returns the mapping from NodeID to unknown index (or -1 for
// ground/fixed nodes) and the number of unknowns.
//
// Unknown indices follow a greedy minimum-degree elimination order over
// the element graph instead of node insertion order: eliminating
// low-degree (leaf-ish) nodes first keeps the LU factors of the mostly
// tree-structured PDN matrices close to fill-free, which directly sets
// the per-step substitution cost of the transient engines. The order is
// a pure function of the circuit topology (ties break on NodeID), so
// every engine over the same circuit derives the same indexing and
// per-lane arithmetic stays identical across engines and batch widths.
func (c *Circuit) unknowns() (index []int, n int) {
	index = make([]int, len(c.nodeNames))
	nodes := make([]NodeID, 0, len(c.nodeNames))
	for i := range index {
		id := NodeID(i)
		index[i] = -1
		if id == Ground {
			continue
		}
		if _, ok := c.fixed[id]; ok {
			continue
		}
		index[i] = len(nodes) // provisional: position among unknowns
		nodes = append(nodes, id)
	}
	n = len(nodes)
	if n == 0 {
		return index, 0
	}
	// Symmetric adjacency among unknowns from the element graph.
	adj := make([][]bool, n)
	deg := make([]int, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	connect := func(a, b int) {
		if a >= 0 && b >= 0 && a != b && !adj[a][b] {
			adj[a][b], adj[b][a] = true, true
			deg[a]++
			deg[b]++
		}
	}
	for _, e := range c.elements {
		connect(index[e.a], index[e.b])
	}
	// Greedy minimum-degree elimination with symbolic fill: each pick
	// marries its remaining neighbors before leaving the graph.
	order := make([]int, n) // elimination position -> provisional index
	done := make([]bool, n)
	for pos := 0; pos < n; pos++ {
		best := -1
		for v := 0; v < n; v++ {
			if !done[v] && (best < 0 || deg[v] < deg[best]) {
				best = v
			}
		}
		order[pos] = best
		done[best] = true
		for a := 0; a < n; a++ {
			if !adj[best][a] || done[a] {
				continue
			}
			deg[a]--
			for b := a + 1; b < n; b++ {
				if adj[best][b] && !done[b] {
					connect(a, b)
				}
			}
		}
	}
	// Rewrite the provisional indices to elimination positions.
	final := make([]int, n)
	for pos, v := range order {
		final[v] = pos
	}
	for i := range index {
		if index[i] >= 0 {
			index[i] = final[index[i]]
		}
	}
	return index, n
}

// potentialOfFixed returns the pinned potential of a non-unknown node.
func (c *Circuit) potentialOfFixed(n NodeID) float64 {
	if n == Ground {
		return 0
	}
	return c.fixed[n]
}

// LogSpace returns n logarithmically spaced values from lo to hi
// inclusive. lo and hi must be positive with lo < hi and n >= 2.
func LogSpace(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= lo || n < 2 {
		panic(fmt.Sprintf("pdn: LogSpace(%g, %g, %d)", lo, hi, n))
	}
	out := make([]float64, n)
	llo, lhi := float64(math.Log10(lo)), float64(math.Log10(hi))
	for i := range out {
		out[i] = math.Pow(10, llo+(lhi-llo)*float64(i)/float64(n-1))
	}
	return out
}
