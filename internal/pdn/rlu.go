package pdn

import (
	"fmt"
	"math"
)

// realLU is a real LU factorization with partial pivoting, used by the
// transient engine where the (constant) conductance matrix is factored
// once and solved against a new right-hand side every step.
//
// PDN conductance matrices are mostly tree-structured, so the LU
// factors stay sparse (the zEC12 netlist factors to ~70% zeros).
// Alongside the dense factor the nonzero pattern of each row is
// recorded once, and the substitutions walk only the stored nonzeros.
// Skipping an exactly-zero coefficient never changes a solution value
// (x - 0*xj == x), so the sparse walk is bit-identical to the dense
// one — and both solve paths share the same pattern, so the batch and
// single-lane engines perform identical per-lane arithmetic.
type realLU struct {
	n    int
	lu   []float64
	perm []int
	// invPerm is perm's inverse: invPerm[perm[i]] == i. The in-place
	// solve paths have their callers assemble the right-hand side
	// directly in permuted row order (a contribution to unknown u lands
	// at slot invPerm[u]), which removes the per-solve gather pass —
	// an addressing change only, so solutions stay bit-identical.
	invPerm []int

	// Sparse substitution pattern: row r's L nonzeros (columns < r)
	// sit at lVal/lCol[lPtr[r]:lPtr[r+1]], its U nonzeros (columns
	// > r) at uVal/uCol[uPtr[r]:uPtr[r+1]], columns ascending — the
	// same order the dense loops visit them in.
	lVal, uVal []float64
	lCol, uCol []int32
	lPtr, uPtr []int32
	// invDiag is the reciprocal of the U diagonal, computed once at factorization time: the
	// substitutions scale each row by multiplying with the reciprocal
	// instead of dividing, trading one division per row per solve for
	// one per row per factorization. Every solve path (single- and
	// multi-RHS, Go and vector) uses the same reciprocal, so they all
	// remain byte-identical to one another.
	invDiag []float64
}

// factorReal factors the n x n row-major matrix a. a is not modified.
func factorReal(a []float64, n int) (*realLU, error) {
	if len(a) != n*n {
		panic(fmt.Sprintf("pdn: factorReal matrix length %d for n=%d", len(a), n))
	}
	lu := make([]float64, n*n)
	copy(lu, a)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		pivot := col
		maxMag := math.Abs(lu[col*n+col])
		for r := col + 1; r < n; r++ {
			if mag := math.Abs(lu[r*n+col]); mag > maxMag {
				maxMag = mag
				pivot = r
			}
		}
		if maxMag < 1e-300 {
			return nil, fmt.Errorf("pdn: singular conductance matrix (pivot %d)", col)
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				lu[col*n+j], lu[pivot*n+j] = lu[pivot*n+j], lu[col*n+j]
			}
			perm[col], perm[pivot] = perm[pivot], perm[col]
		}
		inv := 1 / lu[col*n+col]
		for r := col + 1; r < n; r++ {
			f := lu[r*n+col] * inv
			lu[r*n+col] = f
			if f == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				lu[r*n+j] -= float64(f * lu[col*n+j])
			}
		}
	}
	f := &realLU{n: n, lu: lu, perm: perm}
	f.indexNonzeros()
	return f, nil
}

// indexNonzeros records the nonzero pattern of the factored L and U
// triangles for the sparse substitutions.
func (f *realLU) indexNonzeros() {
	n := f.n
	f.invPerm = make([]int, n)
	for i, p := range f.perm {
		f.invPerm[p] = i
	}
	f.lPtr = make([]int32, n+1)
	f.uPtr = make([]int32, n+1)
	f.invDiag = make([]float64, n)
	for i := 0; i < n; i++ {
		f.invDiag[i] = 1 / f.lu[i*n+i]
		for j := 0; j < i; j++ {
			if v := f.lu[i*n+j]; v != 0 {
				f.lVal = append(f.lVal, v)
				f.lCol = append(f.lCol, int32(j))
			}
		}
		f.lPtr[i+1] = int32(len(f.lVal))
		for j := i + 1; j < n; j++ {
			if v := f.lu[i*n+j]; v != 0 {
				f.uVal = append(f.uVal, v)
				f.uCol = append(f.uCol, int32(j))
			}
		}
		f.uPtr[i+1] = int32(len(f.uVal))
	}
}

// DefaultBatchLanes is the lane width the 8-wide substitution kernel
// is specialized for — exec.DefaultBatchWidth, restated here to keep
// pdn free of an exec import.
const DefaultBatchLanes = 8

// WideBatchLanes is the second specialized lane width: twice the
// default, for hosts whose calibration finds the per-lane cost still
// dropping past 8 (the substitution kernels gain instruction-level
// parallelism with width until the lane state outgrows cache).
const WideBatchLanes = 16

// laneBlock is one row's lane-width block of batch state (a solve row,
// or a node's or element's lanes in the batched step). At the
// specialized widths it is a fixed-size array pointer, so the compiler
// drops the slice-header bookkeeping and bounds checks of the lane
// loops; at every other width it is a plain slice.
type laneBlock interface {
	[]float64 | *[DefaultBatchLanes]float64 | *[WideBatchLanes]float64
}

// blockLanes returns the lane count of blocks of type P: the array
// length for the array pointers — a compile-time constant, so slicing
// a block out of lane state needs no length check at conversion — and
// lanes for the slice type.
func blockLanes[P laneBlock](lanes int) int {
	var blk P
	if n := len(blk); n != 0 {
		return n
	}
	return lanes
}

// solveInto solves A*x = b, writing the solution into x. b is not
// modified; x and b must both have length n and may not alias. It
// gathers b into permuted row order and runs the in-place walk, so the
// result is bit-identical to every other solve path. Only the DC
// operating-point init uses it; the per-step solves assemble their
// right-hand sides in permuted order and call the in-place walks
// directly.
func (f *realLU) solveInto(x, b []float64) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("pdn: solveInto with len(x)=%d len(b)=%d n=%d", len(x), len(b), n))
	}
	for i, p := range f.perm {
		x[i] = b[p]
	}
	f.solveInPlace(x)
}

// solveInPlace solves A*x = b in place: on entry x holds the
// right-hand side already in permuted row order (slot i carries
// b[perm[i]], i.e. the caller scattered each contribution to unknown u
// into slot invPerm[u]); on exit x[i] is the solution of unknown i.
// The forward substitution only reads slots j < i that the pass has
// already finalized and the back substitution only reads slots j > i,
// so the walk can run in the right-hand-side buffer itself.
func (f *realLU) solveInPlace(x []float64) {
	n := f.n
	if len(x) != n {
		panic(fmt.Sprintf("pdn: solveInPlace with len(x)=%d n=%d", len(x), n))
	}
	for i := 1; i < n; i++ {
		sum := x[i]
		for k := f.lPtr[i]; k < f.lPtr[i+1]; k++ {
			sum -= float64(f.lVal[k] * x[f.lCol[k]])
		}
		x[i] = sum
	}
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		for k := f.uPtr[i]; k < f.uPtr[i+1]; k++ {
			sum -= float64(f.uVal[k] * x[f.uCol[k]])
		}
		x[i] = sum * f.invDiag[i]
	}
}

// solveBatchInPlace is solveInPlace for `lanes` lockstep right-hand
// sides (row i, lane l at i*lanes+l), already assembled in permuted
// row order: the Go step walk's solve. Width 8 keeps its
// register-hoisted body and every other width runs the element-wise
// walk (solveWalk), over 16-lane array blocks at width 16. The vector
// step calls the AVX2 kernels (fwdBack8AVX2, fwdBack16AVX2) instead.
// Per lane every path performs the multiplies, subtractions and
// reciprocal scalings of the single-lane walk in the same order, so
// lanes stay bit-identical at any width and on either step.
func (f *realLU) solveBatchInPlace(x []float64, lanes int) {
	n := f.n
	if lanes < 1 || len(x) != n*lanes {
		panic(fmt.Sprintf("pdn: solveBatchInPlace with len(x)=%d n=%d lanes=%d", len(x), n, lanes))
	}
	switch lanes {
	case DefaultBatchLanes:
		f.solveBatch8InPlace(x)
	case WideBatchLanes:
		solveWalk[*[WideBatchLanes]float64](f, x, WideBatchLanes)
	default:
		solveWalk[[]float64](f, x, lanes)
	}
}

// solveWalk is the element-wise in-place substitution over lane
// blocks of type P (lanes wide for the slice type; the array pointers
// carry their width). Instantiated at an array pointer, its lane loops
// carry no bounds checks.
func solveWalk[P laneBlock](f *realLU, x []float64, lanes int) {
	n := f.n
	lanes = blockLanes[P](lanes)
	for i := 1; i < n; i++ {
		xi := P(x[i*lanes : i*lanes+lanes])
		for k := f.lPtr[i]; k < f.lPtr[i+1]; k++ {
			v := f.lVal[k]
			j := int(f.lCol[k]) * lanes
			xj := P(x[j : j+lanes])
			for l := 0; l < len(xi); l++ {
				xi[l] -= float64(v * xj[l])
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		xi := P(x[i*lanes : i*lanes+lanes])
		for k := f.uPtr[i]; k < f.uPtr[i+1]; k++ {
			v := f.uVal[k]
			j := int(f.uCol[k]) * lanes
			xj := P(x[j : j+lanes])
			for l := 0; l < len(xi); l++ {
				xi[l] -= float64(v * xj[l])
			}
		}
		d := f.invDiag[i]
		for l := 0; l < len(xi); l++ {
			xi[l] *= d
		}
	}
}

// solveBatch8InPlace is the width-8 in-place substitution. It hoists
// each row's eight lane accumulators into locals, so they live in
// registers across the row's nonzero walk (x rows never self-alias —
// L touches only columns < i, U only columns > i — which the hoisting
// encodes and the compiler cannot know). fwdBack8AVX2 performs the
// identical IEEE multiplies and subtractions in the identical order
// (each 8-lane row is two 4-lane vectors; lanes are independent, so
// vectorizing across them reorders nothing within a lane) — results
// are bit-identical to this Go walk, as the equivalence tests pin.
func (f *realLU) solveBatch8InPlace(x []float64) {
	const B = DefaultBatchLanes
	n := f.n
	for i := 1; i < n; i++ {
		xi := (*[B]float64)(x[i*B : i*B+B])
		x0, x1, x2, x3, x4, x5, x6, x7 := xi[0], xi[1], xi[2], xi[3], xi[4], xi[5], xi[6], xi[7]
		for k := int(f.lPtr[i]); k < int(f.lPtr[i+1]); k++ {
			v := f.lVal[k]
			base := int(f.lCol[k]) * B
			xj := (*[B]float64)(x[base : base+B])
			x0 -= float64(v * xj[0])
			x1 -= float64(v * xj[1])
			x2 -= float64(v * xj[2])
			x3 -= float64(v * xj[3])
			x4 -= float64(v * xj[4])
			x5 -= float64(v * xj[5])
			x6 -= float64(v * xj[6])
			x7 -= float64(v * xj[7])
		}
		xi[0], xi[1], xi[2], xi[3], xi[4], xi[5], xi[6], xi[7] = x0, x1, x2, x3, x4, x5, x6, x7
	}
	for i := n - 1; i >= 0; i-- {
		xi := (*[B]float64)(x[i*B : i*B+B])
		x0, x1, x2, x3, x4, x5, x6, x7 := xi[0], xi[1], xi[2], xi[3], xi[4], xi[5], xi[6], xi[7]
		for k := int(f.uPtr[i]); k < int(f.uPtr[i+1]); k++ {
			v := f.uVal[k]
			base := int(f.uCol[k]) * B
			xj := (*[B]float64)(x[base : base+B])
			x0 -= float64(v * xj[0])
			x1 -= float64(v * xj[1])
			x2 -= float64(v * xj[2])
			x3 -= float64(v * xj[3])
			x4 -= float64(v * xj[4])
			x5 -= float64(v * xj[5])
			x6 -= float64(v * xj[6])
			x7 -= float64(v * xj[7])
		}
		d := f.invDiag[i]
		xi[0], xi[1], xi[2], xi[3], xi[4], xi[5], xi[6], xi[7] = x0*d, x1*d, x2*d, x3*d, x4*d, x5*d, x6*d, x7*d
	}
}
