package pdn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// FuzzSolveBatchInPlace hammers the in-place permuted-RHS substitution
// kernels — single-lane, the width-8 register block and width-16 array
// walk with the AVX2 kernels beside them, and the element-wise walk
// every other width runs — with random sparse diagonally-dominant systems and
// random right-hand sides, and requires every path to reproduce the
// element-wise reference walk bit for bit. The matrix sparsity pattern, values, and
// lane data all derive from the fuzzed bytes, so the corpus explores
// pivoting permutations, empty substitution rows, and denormal-scale
// values the unit tests' fixed seeds never reach.
func FuzzSolveBatchInPlace(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), []byte{0x10, 0x80, 0xf0})
	f.Add(int64(42), uint8(23), uint8(8), []byte{0x00, 0xff, 0x7f, 0x3c})
	f.Add(int64(7), uint8(9), uint8(16), []byte{0xaa, 0x55})
	f.Add(int64(99), uint8(2), uint8(1), []byte{0x01})
	f.Add(int64(13), uint8(17), uint8(5), []byte{0xde, 0xad, 0xbe, 0xef, 0x42})
	f.Fuzz(func(t *testing.T, seed int64, nRaw, lanesRaw uint8, data []byte) {
		n := 2 + int(nRaw)%24
		lanes := 1 + int(lanesRaw)%16
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				// Sparsity and magnitude steered by the fuzzed bytes.
				b := byte(0x80)
				if len(data) > 0 {
					b = data[(i*n+j)%len(data)]
				}
				if i != j && b < 0x99 {
					continue
				}
				a[i*n+j] = rng.NormFloat64() * math.Ldexp(1, int(b%16)-8)
			}
			a[i*n+i] += float64(n) + 1
		}
		lu, err := factorReal(a, n)
		if err != nil {
			t.Skip() // singular by construction: nothing to solve
		}
		b := make([]float64, n*lanes)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := make([]float64, n*lanes)
		lu.solveBatchIntoElementwise(want, b, lanes)
		modes := []bool{false}
		if useAVX2 && (lanes == DefaultBatchLanes || lanes == WideBatchLanes) {
			modes = append(modes, true)
		}
		for _, vec := range modes {
			x := permuteRHS(lu, b, lanes)
			if vec {
				solveBatchVector(lu, x, lanes)
			} else {
				lu.solveBatchInPlace(x, lanes)
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
					t.Fatalf("vec=%v n=%d lanes=%d: slot %d = %x, want %x",
						vec, n, lanes, i, math.Float64bits(x[i]), math.Float64bits(want[i]))
				}
			}
		}
		// Single-lane in-place path against its own reference.
		wantS := make([]float64, n)
		lu.solveIntoElementwise(wantS, b[:n])
		xs := permuteRHS(lu, b[:n], 1)
		lu.solveInPlace(xs)
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(wantS[i]) {
				t.Fatalf("solveInPlace: slot %d = %x, want %x",
					i, math.Float64bits(xs[i]), math.Float64bits(wantS[i]))
			}
		}
	})
}

// FuzzBatchStep drives random RLC netlists through the batched step:
// random fixed supplies, pinned to lane-specific potentials through
// SetLaneFixed, random loads (some on fixed nodes, whose rows the
// engines ignore) and widths 1 to 16. One batch engine steps on the
// vector path where the host has it, a second on the Go walk, and one
// single-lane Transient per lane follows the same supplies and loads;
// every lane's potentials and companion histories must agree bit for
// bit across all three after construction and after every step — the
// first step, which skips the companion update, and the later ones —
// and again after a Reset.
func FuzzBatchStep(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(7), uint8(6))
	f.Add(int64(42), uint8(9), uint8(17), uint8(15), uint8(20))
	f.Add(int64(7), uint8(5), uint8(0), uint8(2), uint8(1))
	f.Add(int64(99), uint8(11), uint8(23), uint8(3), uint8(31))
	savedVec := useAVX2
	defer func() { useAVX2 = savedVec }()
	f.Fuzz(func(t *testing.T, seed int64, nodesRaw, extraRaw, lanesRaw, stepsRaw uint8) {
		lanes := 1 + int(lanesRaw)%16
		steps := 1 + int(stepsRaw)%32
		rng := rand.New(rand.NewSource(seed))
		net := randomNet(rng, 1+int(nodesRaw)%12, int(extraRaw)%24, lanes)
		start := -float64(rng.Intn(4)) * 1e-7
		const dt = 1e-9

		newBatch := func() *BatchTransient {
			bt, err := NewBatchTransientFill(net.circuit(0), dt, start, lanes, net.fill)
			if err != nil {
				t.Skip() // singular by construction: nothing to step
			}
			for node, pots := range net.fixed {
				for l, v := range pots {
					if err := bt.SetLaneFixed(l, NodeID(node), v); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := bt.Reset(start); err != nil {
				t.Fatal(err)
			}
			return bt
		}
		vec, gow := newBatch(), newBatch()
		singles := make([]*Transient, lanes)
		for l := range singles {
			tr, err := NewTransientAt(net.circuit(l), dt, start)
			if err != nil {
				t.Skip()
			}
			singles[l] = tr
		}
		check := func(when string) {
			t.Helper()
			for l, tr := range singles {
				for node := range tr.pots {
					want := math.Float64bits(tr.pots[node])
					if v, g := math.Float64bits(vec.pots[node*lanes+l]), math.Float64bits(gow.pots[node*lanes+l]); v != want || g != want {
						t.Fatalf("%s lane %d node %d: vector %x, Go %x, single %x", when, l, node, v, g, want)
					}
				}
				for ei := range tr.hist {
					want := math.Float64bits(tr.hist[ei])
					if v, g := math.Float64bits(vec.hist[ei*lanes+l]), math.Float64bits(gow.hist[ei*lanes+l]); v != want || g != want {
						t.Fatalf("%s lane %d element %d history: vector %x, Go %x, single %x", when, l, ei, v, g, want)
					}
				}
			}
		}
		run := func(phase string, n int) {
			check(phase + " start")
			for s := 1; s <= n; s++ {
				useAVX2 = savedVec
				errV := vec.Step()
				useAVX2 = false
				errG := gow.Step()
				useAVX2 = savedVec
				if errV != nil || errG != nil {
					if fmt.Sprint(errV) != fmt.Sprint(errG) {
						t.Fatalf("%s step %d: vector error %v, Go error %v", phase, s, errV, errG)
					}
					return // both diverged alike; the state is abandoned
				}
				for _, tr := range singles {
					if err := tr.Step(); err != nil {
						t.Fatalf("%s step %d: single lane diverged where the batch did not: %v", phase, s, err)
					}
				}
				check(fmt.Sprintf("%s step %d", phase, s))
			}
		}
		run("fresh", steps)
		for _, bt := range []*BatchTransient{vec, gow} {
			if err := bt.Reset(start); err != nil {
				t.Fatal(err)
			}
		}
		for _, tr := range singles {
			if err := tr.Reset(start); err != nil {
				t.Fatal(err)
			}
		}
		run("reset", min(steps, 4))
	})
}

// fuzzNet is a random netlist with per-lane supplies and loads, from
// which FuzzBatchStep builds one batch engine and per-lane singles.
type fuzzNet struct {
	nodes int // non-ground nodes 1..nodes
	elems []fuzzElem
	fixed map[int][]float64 // fixed node -> potential per lane
	loads []fuzzLoad
	lanes int
}

type fuzzElem struct {
	kind  elementKind
	a, b  int
	value float64
}

type fuzzLoad struct {
	node int
	amp  []float64 // per lane
	w    float64   // angular frequency, rad/s
}

// randomNet draws a netlist in which every node reaches ground through
// resistors and inductors (so the DC point exists), plus extra random
// R, L and C branches, a random set of fixed supplies and 1 to 4 loads.
func randomNet(rng *rand.Rand, nodes, extra, lanes int) *fuzzNet {
	net := &fuzzNet{nodes: nodes, fixed: map[int][]float64{}, lanes: lanes}
	value := func(kind elementKind) float64 {
		switch kind {
		case kindResistor:
			return math.Pow(10, -4+4*rng.Float64())
		case kindInductor:
			return math.Pow(10, -12+4*rng.Float64())
		}
		return math.Pow(10, -9+6*rng.Float64())
	}
	for n := 1; n <= nodes; n++ {
		kind := []elementKind{kindResistor, kindInductor}[rng.Intn(2)]
		net.elems = append(net.elems, fuzzElem{kind, n, rng.Intn(n), value(kind)})
	}
	for i := 0; i < extra; i++ {
		a, b := rng.Intn(nodes+1), rng.Intn(nodes+1)
		if a == b {
			continue
		}
		kind := elementKind(rng.Intn(3))
		net.elems = append(net.elems, fuzzElem{kind, a, b, value(kind)})
	}
	for n := 1; n <= nodes; n++ {
		if rng.Intn(4) == 0 {
			pots := make([]float64, lanes)
			for l := range pots {
				pots[l] = 0.8 + 0.4*rng.Float64()
			}
			net.fixed[n] = pots
		}
	}
	for k := 1 + rng.Intn(4); k > 0; k-- {
		ld := fuzzLoad{node: 1 + rng.Intn(nodes), amp: make([]float64, lanes), w: 1e6 + 1e8*rng.Float64()}
		for l := range ld.amp {
			ld.amp[l] = 5 * rng.Float64()
		}
		net.loads = append(net.loads, ld)
	}
	return net
}

// current is load ld's draw in the given lane at time tm.
func (ld *fuzzLoad) current(lane int, tm float64) float64 {
	return ld.amp[lane] * (1 + math.Sin(ld.w*tm))
}

// circuit builds the netlist with the given lane's supplies and loads.
func (net *fuzzNet) circuit(lane int) *Circuit {
	c := NewCircuit()
	for n := 1; n <= net.nodes; n++ {
		c.Node(fmt.Sprintf("n%d", n))
	}
	for i, e := range net.elems {
		name, a, b := fmt.Sprintf("e%d", i), NodeID(e.a), NodeID(e.b)
		switch e.kind {
		case kindResistor:
			c.AddResistor(name, a, b, e.value)
		case kindInductor:
			c.AddInductor(name, a, b, e.value)
		default:
			c.AddCapacitor(name, a, b, e.value, 0)
		}
	}
	for n, pots := range net.fixed {
		c.FixNode(NodeID(n), pots[lane])
	}
	for k := range net.loads {
		ld := &net.loads[k]
		c.AddLoad(fmt.Sprintf("i%d", k), NodeID(ld.node), func(tm float64) float64 { return ld.current(lane, tm) })
	}
	return c
}

// fill is the batch engines' LoadFill: every load's draw in every lane.
func (net *fuzzNet) fill(tm float64, dst []float64) {
	for k := range net.loads {
		for l := 0; l < net.lanes; l++ {
			dst[k*net.lanes+l] = net.loads[k].current(l, tm)
		}
	}
}
