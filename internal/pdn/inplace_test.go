package pdn

import (
	"fmt"
	"math/rand"
	"testing"
)

// solveBatchVector runs the AVX2 substitution kernel of width 8 or 16
// over x, as the vector step does.
func solveBatchVector(lu *realLU, x []float64, lanes int) {
	if lanes == WideBatchLanes {
		fwdBack16AVX2(lu.lVal, lu.lCol, lu.lPtr, lu.uVal, lu.uCol, lu.uPtr, lu.invDiag, x, lu.n)
		return
	}
	fwdBack8AVX2(lu.lVal, lu.lCol, lu.lPtr, lu.uVal, lu.uCol, lu.uPtr, lu.invDiag, x, lu.n)
}

// permuteRHS assembles b in permuted row order for the in-place solve
// paths: slot i carries b[perm[i]] (equivalently, the contribution to
// unknown u lands at slot invPerm[u]).
func permuteRHS(lu *realLU, b []float64, lanes int) []float64 {
	x := make([]float64, len(b))
	for i := 0; i < lu.n; i++ {
		copy(x[i*lanes:i*lanes+lanes], b[lu.perm[i]*lanes:lu.perm[i]*lanes+lanes])
	}
	return x
}

// TestSolveInPlaceMatchesSolveInto: the in-place permuted-RHS walks —
// single-lane, width 8, width 16, and the generic widths — are
// byte-identical to the two-buffer element-wise reference on both the
// production zEC12 factor and randomized sparse factors.
func TestSolveInPlaceMatchesSolveInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	factors := []*realLU{zec12LU(t)}
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(20)
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.6 {
					continue
				}
				a[i*n+j] = rng.NormFloat64()
			}
			a[i*n+i] += float64(n) + 1
		}
		lu, err := factorReal(a, n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		factors = append(factors, lu)
	}
	for fi, lu := range factors {
		n := lu.n
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		lu.solveIntoElementwise(want, b)
		x := permuteRHS(lu, b, 1)
		lu.solveInPlace(x)
		byteIdentical(t, "solveInPlace", x, want)
		for _, lanes := range []int{1, 3, 5, 8, 16} {
			bb := make([]float64, n*lanes)
			for i := range bb {
				bb[i] = rng.NormFloat64()
			}
			wantB := make([]float64, n*lanes)
			lu.solveBatchIntoElementwise(wantB, bb, lanes)
			xb := permuteRHS(lu, bb, lanes)
			lu.solveBatchInPlace(xb, lanes)
			byteIdentical(t, "solveBatchInPlace", xb, wantB)
			_ = fi
		}
	}
}

// TestSolveBatchInPlaceVectorMatchesGo pins the hand-written vector
// kernels to the pure-Go register-blocked walks bit for bit, on the
// production factor and randomized sparse factors, at both specialized
// widths. Hosts without the vector path have nothing to compare and
// skip.
func TestSolveBatchInPlaceVectorMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 vector kernels on this host")
	}
	rng := rand.New(rand.NewSource(23))
	factors := []*realLU{zec12LU(t)}
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(24)
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.5 {
					continue
				}
				a[i*n+j] = rng.NormFloat64()
			}
			a[i*n+i] += float64(n) + 1
		}
		lu, err := factorReal(a, n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		factors = append(factors, lu)
	}
	for _, lu := range factors {
		for _, lanes := range []int{DefaultBatchLanes, WideBatchLanes} {
			b := make([]float64, lu.n*lanes)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			vec := permuteRHS(lu, b, lanes)
			gop := permuteRHS(lu, b, lanes)
			solveBatchVector(lu, vec, lanes)
			lu.solveBatchInPlace(gop, lanes)
			byteIdentical(t, "vector vs Go", vec, gop)
		}
	}
}

// BenchmarkInPlaceSolve measures the in-place permuted-RHS
// substitution kernels on the production factor — the per-step solve
// cost at each width: InPlace1 is the single-lane walk, InPlace8 and
// InPlace16 the specialized widths (the vector kernels on AVX2 hosts,
// as the vector step runs them), Generic4 the element-wise walk every
// other width runs. Go8/Go16 time the Go step walk's solves, so the
// vector kernels' margin is visible on AVX2 hosts.
func BenchmarkInPlaceSolve(b *testing.B) {
	lu := zec12LU(b)
	n := lu.n
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, n*WideBatchLanes)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.Run("InPlace1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lu.solveInPlace(x[:n])
		}
	})
	for _, lanes := range []int{DefaultBatchLanes, WideBatchLanes} {
		b.Run(fmt.Sprintf("InPlace%d", lanes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if useAVX2 {
					solveBatchVector(lu, x[:n*lanes], lanes)
				} else {
					lu.solveBatchInPlace(x[:n*lanes], lanes)
				}
			}
		})
	}
	b.Run("Generic4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lu.solveBatchInPlace(x[:n*4], 4)
		}
	})
	if useAVX2 {
		for _, lanes := range []int{DefaultBatchLanes, WideBatchLanes} {
			b.Run(fmt.Sprintf("Go%d", lanes), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					lu.solveBatchInPlace(x[:n*lanes], lanes)
				}
			})
		}
	}
}
