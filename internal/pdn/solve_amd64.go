package pdn

// useAVX2 selects the vector step (BatchTransient.stepVector), which
// runs every hand-written AVX2 body: the batched step's assemble and
// scatter kernels and, between them, the width-8 and width-16 in-place
// substitution kernels. Each performs the identical IEEE-754
// multiplies, additions, subtractions and reciprocal scalings in the
// identical per-lane order as the Go walk it replaces (vectorization
// spans independent lanes, never reassociates within one; no FMA
// contraction; a right-hand side is zeroed and then added to, never
// first-written, since 0 + (-0) is +0), so enabling them cannot change
// a result bit — the equivalence tests and FuzzBatchStep run both
// paths and compare bytes. It is a variable, not a constant, so tests
// can force the Go fallback.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the host supports AVX2 and the OS has
// enabled YMM state (OSXSAVE + XCR0[2:1] == 11b), following the
// standard CPUID/XGETBV probe sequence.
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 { // XMM and YMM state both OS-enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// cpuid executes the CPUID instruction with the given EAX/ECX inputs.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// fwdBack8AVX2 runs the forward and back substitutions of
// solveBatch8InPlace over the 8-lane block x (row i at x[i*8:i*8+8])
// with AVX2 vectors: per nonzero, the coefficient broadcasts across a
// lane vector and each row's two 4-lane vectors accumulate the same
// multiply-then-subtract the scalar walk performs, rows in the same
// order, reciprocal scaling last. All slices must be the factor's own
// (lengths are not re-checked here).
//
//go:noescape
func fwdBack8AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64, uCol, uPtr []int32, invDiag, x []float64, n int)

// fwdBack16AVX2 is fwdBack8AVX2 for 16-lane blocks (four 4-lane
// vectors per row).
//
//go:noescape
func fwdBack16AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64, uCol, uPtr []int32, invDiag, x []float64, n int)

// stepAssemble8AVX2 builds the width-8 batched step's right-hand side
// from the compiled plan (see vecPlan). First it rolls each companion
// history forward, upd's nCap capacitors as hist = gv + (gv - hist)
// and the rest as hist = (gv + hist) + gv, with gv = geq * (pa - pb);
// then, for each permuted slot i, it starts two 4-lane vectors at +0,
// adds or subtracts the slot's terms in stream order and stores the
// sums at rhs row i. Offsets are trusted: the streams must come from
// compile over these very buffers.
//
//go:noescape
func stepAssemble8AVX2(rhs, src, pots, geq []float64, upd []int32, nCap int, rowEnd, terms []int32)

// stepAssemble16AVX2 is stepAssemble8AVX2 for 16-lane blocks (four
// 4-lane vectors per row).
//
//go:noescape
func stepAssemble16AVX2(rhs, src, pots, geq []float64, upd []int32, nCap int, rowEnd, terms []int32)

// stepScatter8AVX2 copies each solved width-8 rhs row i to pots at
// offset dst[i] and reports whether any copied value was NaN or ±Inf:
// it ORs v-v, which is +0 for every finite v, over all of them.
//
//go:noescape
func stepScatter8AVX2(pots, rhs []float64, dst []int32) (nonFinite bool)

// stepScatter16AVX2 is stepScatter8AVX2 for 16-lane rows.
//
//go:noescape
func stepScatter16AVX2(pots, rhs []float64, dst []int32) (nonFinite bool)
