package pdn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// zec12LU factors the calibrated zEC12 companion matrix — the factor
// every transient step solves against in production.
func zec12LU(t testing.TB) *realLU {
	t.Helper()
	ckt, _ := ZEC12(DefaultZEC12Config())
	tr, err := NewTransient(ckt, 2e-9)
	if err != nil {
		t.Fatal(err)
	}
	return tr.lu
}

// solveIntoElementwise is the element-wise two-buffer reference walk:
// gather b into permuted order in x, then forward and back substitute
// one nonzero at a time. Every production solve path is pinned to it
// bit for bit.
func (f *realLU) solveIntoElementwise(x, b []float64) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("pdn: solveIntoElementwise with len(x)=%d len(b)=%d n=%d", len(x), len(b), n))
	}
	for i := 0; i < n; i++ {
		x[i] = b[f.perm[i]]
	}
	for i := 1; i < n; i++ {
		sum := x[i]
		for k := f.lPtr[i]; k < f.lPtr[i+1]; k++ {
			sum -= f.lVal[k] * x[f.lCol[k]]
		}
		x[i] = sum
	}
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		for k := f.uPtr[i]; k < f.uPtr[i+1]; k++ {
			sum -= f.uVal[k] * x[f.uCol[k]]
		}
		x[i] = sum * f.invDiag[i]
	}
}

// solveBatchIntoElementwise is solveIntoElementwise for `lanes`
// lockstep right-hand sides, row i lane l at i*lanes+l.
func (f *realLU) solveBatchIntoElementwise(x, b []float64, lanes int) {
	n := f.n
	if lanes < 1 || len(b) != n*lanes || len(x) != n*lanes {
		panic(fmt.Sprintf("pdn: solveBatchIntoElementwise with len(x)=%d len(b)=%d n=%d lanes=%d", len(x), len(b), n, lanes))
	}
	for i := 0; i < n; i++ {
		copy(x[i*lanes:i*lanes+lanes], b[f.perm[i]*lanes:f.perm[i]*lanes+lanes])
	}
	for i := 1; i < n; i++ {
		xi := x[i*lanes : i*lanes+lanes]
		for k := f.lPtr[i]; k < f.lPtr[i+1]; k++ {
			v := f.lVal[k]
			j := int(f.lCol[k])
			xj := x[j*lanes : j*lanes+lanes : j*lanes+lanes]
			for l := range xi {
				xi[l] -= v * xj[l]
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		xi := x[i*lanes : i*lanes+lanes]
		for k := f.uPtr[i]; k < f.uPtr[i+1]; k++ {
			v := f.uVal[k]
			j := int(f.uCol[k])
			xj := x[j*lanes : j*lanes+lanes : j*lanes+lanes]
			for l := range xi {
				xi[l] -= v * xj[l]
			}
		}
		d := f.invDiag[i]
		for l := range xi {
			xi[l] *= d
		}
	}
}

// byteIdentical fails unless a and b match bit for bit (NaNs included).
func byteIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %x, want %x", label, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestSolveIntoMatchesElementwiseZEC12: on the production zEC12
// factor, solveInto (the DC operating-point solve: gather, then the
// in-place walk) is byte-identical to the element-wise reference.
func TestSolveIntoMatchesElementwiseZEC12(t *testing.T) {
	lu := zec12LU(t)
	rng := rand.New(rand.NewSource(42))
	n := lu.n
	for trial := 0; trial < 10; trial++ {
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := make([]float64, n)
		want := make([]float64, n)
		lu.solveInto(got, b)
		lu.solveIntoElementwise(want, b)
		byteIdentical(t, "solveInto", got, want)
	}
}

// TestSolveIntoMatchesElementwiseRandom: randomized small circuits —
// random sparse diagonally-dominant matrices with scattered zero
// patterns — keep solveInto byte-identical to the element-wise
// reference.
func TestSolveIntoMatchesElementwiseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(20)
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.6 {
					continue // leave a zero: factors stay sparse
				}
				a[i*n+j] = rng.NormFloat64()
			}
			a[i*n+i] += float64(n) + 1 // diagonally dominant: nonsingular
		}
		lu, err := factorReal(a, n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := make([]float64, n)
		want := make([]float64, n)
		lu.solveInto(got, b)
		lu.solveIntoElementwise(want, b)
		byteIdentical(t, "solveInto", got, want)
	}
}

// TestTransientStepAllocs: the single-lane transient step stays at zero
// allocations on the production zEC12 network.
func TestTransientStepAllocs(t *testing.T) {
	ckt, nodes := ZEC12(DefaultZEC12Config())
	ckt.AddLoad("core", nodes.Core[0], func(tm float64) float64 { return 20 + 10*math.Sin(tm*1e7) })
	tr, err := NewTransient(ckt, 2e-9)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Step allocates %g times per run", allocs)
	}
}

// BenchmarkTransientStep measures the per-step cost of the single-lane
// transient engine on the calibrated zEC12 network (compare
// BenchmarkBatchStep for the multi-RHS engine).
func BenchmarkTransientStep(b *testing.B) {
	ckt, nodes := ZEC12(DefaultZEC12Config())
	ckt.AddLoad("core", nodes.Core[0], func(tm float64) float64 { return 20 + 10*math.Sin(tm*1e7) })
	tr, err := NewTransient(ckt, 2e-9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
