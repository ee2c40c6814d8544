package pdn

import (
	"fmt"
	"math"
)

// vecPlan is the batched step plan compiled for the vector step:
// flat int32 streams of byte offsets, so the AVX2 kernels walk plain
// integers instead of stepElem structs. Every offset addresses the
// first lane of a lane-innermost block; the kernels reach a block's
// other 4-lane vectors at +32, +64 and +96 bytes.
type vecPlan struct {
	// ok reports that the stream is compiled: the width is one of the
	// specialized widths and every offset fits an int32.
	ok bool

	// upd holds one {hist, potential a, potential b, geq} offset
	// quadruple per reactive plan entry, the nCap capacitors first: a
	// companion update reads only the last solve's potentials and
	// writes only its own element's history, so grouping the updates
	// by kind reorders no lane's arithmetic. hist is an offset into
	// src, the potentials into pots, geq into geq.
	upd  []int32
	nCap int

	// The right-hand side row by row, in CSR form: permuted slot i
	// starts at +0 and applies terms[rowEnd[i-1]:rowEnd[i]] in order.
	// A term is the byte offset of its block in src, with bit 0 set
	// when it is subtracted (blocks are 64-byte multiples, so the bit
	// is free). Per row the terms keep the Go walk's order.
	rowEnd []int32
	terms  []int32

	// dst[i] is the offset in pots of the node solved at slot i.
	dst []int32
}

// compile derives the streams from t's plan, loads and buffers. It
// reuses the streams' storage, so a Reset allocates nothing.
func (v *vecPlan) compile(t *BatchTransient) {
	B := t.lanes
	v.ok = (B == DefaultBatchLanes || B == WideBatchLanes) &&
		8*len(t.src) <= math.MaxInt32 && 8*len(t.pots) <= math.MaxInt32
	if !v.ok {
		return
	}
	blk := int32(8 * B)
	v.upd = v.upd[:0]
	for _, kind := range [...]elementKind{kindCapacitor, kindInductor} {
		for pi := range t.plan {
			if pe := &t.plan[pi]; pe.kind == kind {
				v.upd = append(v.upd, int32(pe.ei)*blk, int32(pe.na)*blk, int32(pe.nb)*blk, int32(8*pe.ei))
			}
		}
		if kind == kindCapacitor {
			v.nCap = len(v.upd) / 4
		}
	}
	// Count each row's terms, turn the counts into row starts, then
	// place the terms, advancing each start to its row's end.
	v.rowEnd = resizeInt32(v.rowEnd, t.n)
	clear(v.rowEnd)
	t.rhsTerms(func(slot int, _ int32) { v.rowEnd[slot]++ })
	var start int32
	for i, c := range v.rowEnd {
		v.rowEnd[i] = start
		start += c
	}
	v.terms = resizeInt32(v.terms, int(start))
	t.rhsTerms(func(slot int, term int32) {
		v.terms[v.rowEnd[slot]] = term
		v.rowEnd[slot]++
	})
	v.dst = v.dst[:0]
	for _, node := range t.unkNode {
		v.dst = append(v.dst, node*blk)
	}
}

// resizeInt32 returns s resliced to length n, reallocated only when
// its capacity is short.
func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// rhsTerms calls emit for every right-hand-side term of a step, in the
// order stepWalk applies them to each row: the plan's fixed-node and
// history terms in element order, then the loads in insertion order.
// A term is the byte offset of its block in t.src, with bit 0 set when
// it is subtracted.
func (t *BatchTransient) rhsTerms(emit func(slot int, term int32)) {
	blk := int32(8 * t.lanes)
	fa := int32(len(t.c.elements))   // first planFA block in src
	fb := fa + int32(len(t.plan))    // first planFB block
	loads := fb + int32(len(t.plan)) // first loadCur block
	for pi := range t.plan {
		pe := &t.plan[pi]
		if pe.hasFA {
			emit(pe.iaP, (fa+int32(pi))*blk)
		}
		if pe.hasFB {
			emit(pe.ibP, (fb+int32(pi))*blk)
		}
		if pe.kind == kindResistor {
			continue
		}
		// A capacitor's history feeds +hist into node a's row and
		// -hist into node b's; an inductor's the opposite signs.
		h, subA, subB := int32(pe.ei)*blk, int32(0), int32(1)
		if pe.kind == kindInductor {
			subA, subB = 1, 0
		}
		if pe.iaP >= 0 {
			emit(pe.iaP, h|subA)
		}
		if pe.ibP >= 0 {
			emit(pe.ibP, h|subB)
		}
	}
	for k, i := range t.loadP {
		if i >= 0 {
			emit(i, (loads+int32(k))*blk|1)
		}
	}
}

// stepVector is stepWalk run by the AVX2 kernels at the specialized
// widths: stepAssemble rolls the companion state forward and builds
// every RHS row in registers, the substitution kernels solve in place,
// and stepScatter writes the potentials back while OR-reducing a
// non-finite mask. Per lane each kernel performs the Go walk's IEEE
// operations in its order, so the two paths agree to the bit; only a
// divergence returns to Go, to name the lane stepWalk names.
func (t *BatchTransient) stepVector() error {
	next := t.time + t.dt
	t.fill(next, t.loadCur)
	v := &t.vec
	upd, nCap := v.upd, v.nCap
	if t.step == 0 {
		upd, nCap = upd[:0], 0 // the DC point seeded hist already
	}
	var nonFinite bool
	if t.lanes == WideBatchLanes {
		stepAssemble16AVX2(t.rhs, t.src, t.pots, t.geq, upd, nCap, v.rowEnd, v.terms)
		fwdBack16AVX2(t.lu.lVal, t.lu.lCol, t.lu.lPtr, t.lu.uVal, t.lu.uCol, t.lu.uPtr, t.lu.invDiag, t.rhs, t.n)
		nonFinite = stepScatter16AVX2(t.pots, t.rhs, v.dst)
	} else {
		stepAssemble8AVX2(t.rhs, t.src, t.pots, t.geq, upd, nCap, v.rowEnd, v.terms)
		fwdBack8AVX2(t.lu.lVal, t.lu.lCol, t.lu.lPtr, t.lu.uVal, t.lu.uCol, t.lu.uPtr, t.lu.invDiag, t.rhs, t.n)
		nonFinite = stepScatter8AVX2(t.pots, t.rhs, v.dst)
	}
	if nonFinite {
		return divergedAt(next, lastNonFiniteLane(t.rhs, t.lanes))
	}
	t.time = next
	t.step++
	return nil
}

// lastNonFiniteLane returns the lane of the last NaN or ±Inf in the
// lane-innermost block x, in row-major order — the lane stepWalk's
// fused check reports.
func lastNonFiniteLane(x []float64, lanes int) int {
	bad := -1
	for i, v := range x {
		if v-v != 0 {
			bad = i % lanes
		}
	}
	return bad
}

// divergedAt is the batch engine's divergence error.
func divergedAt(t float64, lane int) error {
	return fmt.Errorf("pdn: integration diverged at t=%g (lane %d)", t, lane)
}
