package pdn

import (
	"fmt"
)

// BatchTransient advances B independent load lanes in lockstep through
// one shared circuit. Every lane sees the same topology and element
// values — the companion and DC matrices are stamped and LU-factored
// exactly once — but each lane draws its own load currents (written by
// the engine's LoadFill) and may pin fixed supplies to lane-specific
// potentials. The per-step solve becomes a multi-RHS forward/back
// substitution over a contiguous n×B block, and the step-plan walk and
// companion updates are amortized across all lanes, so a width-8 batch
// costs far less than 8 single-lane engines.
//
// Lane state is laid out lane-innermost (row i, lane l at i*B+l): the
// hot loops stream contiguous lane-width runs and carry B independent
// floating-point dependency chains where Transient carries one.
//
// Every lane is bit-identical to a single-lane Transient driven by the
// same loads: per lane, each step performs the same floating-point
// operations in the same order — batching interleaves work across
// lanes, never reorders it within one.
type BatchTransient struct {
	c     *Circuit
	dt    float64
	lanes int
	lu    *realLU
	dcLU  *realLU // DC operating-point factorization (inductors shorted)
	idx   []int   // NodeID -> unknown index or -1
	n     int     // number of unknowns

	// idxP maps NodeID -> permuted RHS slot (invPerm of idx) or -1, and
	// unkNode[i] is the node whose solution the in-place solve leaves at
	// slot i — together they let the step walk assemble the right-hand
	// sides directly in permuted row order and scatter the solutions
	// without touching fixed nodes (see Transient).
	idxP    []int
	unkNode []int32

	// fill writes every load's current for every lane into loadCur
	// (load k, lane l at k*B+l). loads is the circuit's load list as of
	// construction or the last Reset, and loadP[k] is load k's permuted
	// RHS slot, or -1 when its node is fixed (its row is then ignored).
	fill    LoadFill
	loads   []*Load
	loadP   []int
	loadCur []float64

	// Per-element companion state; the lane dimension is innermost.
	// vab/ibr hold the DC operating point only: past the first step,
	// branch state lives in hist and BranchCurrent derives currents on
	// demand from the node potentials (see Transient).
	geq  []float64 // companion conductance per element (shared by lanes)
	vab  []float64 // branch voltage per element x lane (DC point)
	ibr  []float64 // branch current per element x lane (a -> b, DC point)
	hist []float64 // companion history source per element x lane
	pots []float64 // node potentials per node x lane

	// src backs hist, planFA, planFB and loadCur, in that order: every
	// right-hand-side term the step adds or subtracts lies in this one
	// buffer, so the compiled plan addresses each by a byte offset from
	// one base.
	src []float64

	// fixedPot holds the per-lane potential of every fixed node
	// (node x lane), seeded from the circuit at construction. It is
	// engine-owned state: retune supplies with SetLaneFixed, not
	// Circuit.FixNode — later FixNode calls are not observed here.
	fixedPot []float64

	plan   []stepElem // per-step RHS contributors, in element order
	planFA []float64  // fixed-node contributions per plan entry x lane
	planFB []float64
	vec    vecPlan // plan compiled for the vector step (widths 8 and 16)

	// rhs holds the n x lanes right-hand sides, assembled directly in
	// permuted row order; the substitutions run in place in this buffer,
	// so no separate solution block exists.
	rhs []float64

	laneRHS []float64 // n-vector scratch for the per-lane DC init
	laneSol []float64

	time float64
	step int
}

// LoadFill writes the current of every load of a batch engine's
// circuit, at simulation time t, for every lane into dst: load k (in
// Circuit.Loads order), lane l at dst[k*lanes+l]. Storage is
// lane-innermost so the step walk subtracts each load's row from its
// RHS row in one contiguous pass. Rows of loads on fixed nodes are
// ignored. The engine calls the fill once per step, at the step's new
// time, and once per construction or Reset, at the start time; a fill
// that evaluates stateful sources must take each lane's samples in the
// same order as a single-lane engine would.
type LoadFill func(t float64, dst []float64)

// NewBatchTransient prepares a lockstep batch simulation of c with
// fixed timestep dt, starting at time zero. See NewBatchTransientAt.
func NewBatchTransient(c *Circuit, dt float64, lanes int, onLane func(lane int)) (*BatchTransient, error) {
	return NewBatchTransientAt(c, dt, 0, lanes, onLane)
}

// NewBatchTransientAt prepares a lockstep batch simulation of c with
// fixed timestep dt and the given lane count, starting at simulation
// time start. Loads are evaluated through their Current closures:
// onLane (may be nil) is invoked with the lane index immediately before
// that lane's loads are evaluated — during construction, Reset, and
// every Step — so load closures shared by all lanes can read lane-local
// workload state. Lanes are visited in ascending order and, within a
// lane, loads in insertion order; loads on fixed nodes are never
// called. The load list is read at construction and at every Reset, so
// a load attached later joins at the next Reset. Each lane is
// initialized to its own DC operating point, exactly as NewTransientAt
// does for a single lane.
func NewBatchTransientAt(c *Circuit, dt, start float64, lanes int, onLane func(lane int)) (*BatchTransient, error) {
	t, err := newBatchTransient(c, dt, start, lanes)
	if err != nil {
		return nil, err
	}
	t.fill = func(tm float64, dst []float64) {
		for l := 0; l < lanes; l++ {
			if onLane != nil {
				onLane(l)
			}
			for k, ld := range t.loads {
				if t.loadP[k] >= 0 {
					dst[k*lanes+l] = ld.Current(tm)
				}
			}
		}
	}
	return t, t.initState()
}

// NewBatchTransientFill prepares a lockstep batch simulation of c whose
// load currents come from fill (see LoadFill) rather than the loads'
// Current closures, which the engine then never calls: the circuit's
// loads only name the nodes the fill's rows feed. Otherwise it matches
// NewBatchTransientAt.
func NewBatchTransientFill(c *Circuit, dt, start float64, lanes int, fill LoadFill) (*BatchTransient, error) {
	if fill == nil {
		return nil, fmt.Errorf("pdn: nil batch load fill")
	}
	t, err := newBatchTransient(c, dt, start, lanes)
	if err != nil {
		return nil, err
	}
	t.fill = fill
	return t, t.initState()
}

// newBatchTransient builds everything but the load fill and the
// initial state.
func newBatchTransient(c *Circuit, dt, start float64, lanes int) (*BatchTransient, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("pdn: non-positive timestep %g", dt)
	}
	if lanes < 1 {
		return nil, fmt.Errorf("pdn: batch lane count %d, want >= 1", lanes)
	}
	idx, n := c.unknowns()
	if n == 0 {
		return nil, fmt.Errorf("pdn: circuit has no unknown nodes")
	}
	t := &BatchTransient{
		c: c, dt: dt, lanes: lanes, idx: idx, n: n, time: start,
		vab:      make([]float64, len(c.elements)*lanes),
		ibr:      make([]float64, len(c.elements)*lanes),
		pots:     make([]float64, c.NumNodes()*lanes),
		fixedPot: make([]float64, c.NumNodes()*lanes),
		rhs:      make([]float64, n*lanes),
		laneRHS:  make([]float64, n),
		laneSol:  make([]float64, n),
	}
	for node, i := range idx {
		if i >= 0 {
			continue
		}
		v := c.potentialOfFixed(NodeID(node))
		for l := 0; l < lanes; l++ {
			t.fixedPot[node*lanes+l] = v
		}
	}
	geq, lu, err := stampCompanion(c, dt, idx, n)
	if err != nil {
		return nil, err
	}
	t.geq, t.lu = geq, lu
	t.idxP, t.unkNode = permutedIndex(idx, lu)
	dcLU, err := factorDCMatrix(c, idx, n)
	if err != nil {
		return nil, err
	}
	t.dcLU = dcLU
	t.buildPlan()
	return t, nil
}

// Lanes returns the batch width.
func (t *BatchTransient) Lanes() int { return t.lanes }

// Time returns the current simulation time in seconds.
func (t *BatchTransient) Time() float64 { return t.time }

// Dt returns the fixed timestep.
func (t *BatchTransient) Dt() float64 { return t.dt }

// SetLaneFixed pins a fixed node to a lane-specific potential. The
// node must already be fixed in the circuit — fixed-node potentials
// enter only the right-hand side, so lanes can run at different supply
// settings against the same factored matrices. The new potential takes
// effect at the next Reset (matching Circuit.FixNode, which Transient
// also observes only through Reset).
func (t *BatchTransient) SetLaneFixed(lane int, n NodeID, volts float64) error {
	t.c.checkNode(n)
	if lane < 0 || lane >= t.lanes {
		return fmt.Errorf("pdn: lane %d out of range [0,%d)", lane, t.lanes)
	}
	if _, ok := t.c.FixedVoltage(n); !ok {
		return fmt.Errorf("pdn: SetLaneFixed on %q, which is not a fixed node", t.c.NodeName(n))
	}
	t.fixedPot[int(n)*t.lanes+lane] = volts
	return nil
}

// Voltage returns the potential of node n in the given lane at the
// current time. It panics on an unknown node or a lane outside
// [0, Lanes()).
func (t *BatchTransient) Voltage(lane int, n NodeID) float64 {
	t.c.checkNode(n)
	t.checkLane(lane)
	return t.pots[int(n)*t.lanes+lane]
}

// checkLane panics on a lane outside [0, Lanes()), as checkNode does
// on an unknown node: lane-innermost state would otherwise hand back a
// neighbouring node's lane as a valid reading.
func (t *BatchTransient) checkLane(lane int) {
	if lane < 0 || lane >= t.lanes {
		panic(fmt.Sprintf("pdn: lane %d out of range [0,%d)", lane, t.lanes))
	}
}

// LaneVoltages returns the potentials of node n for every lane, lane l
// at index l. The returned slice is a read-only view into engine state,
// valid until the next Step or Reset; it exists so per-step observers
// read a node's lanes with one bounds-checked call instead of one
// Voltage call per lane.
func (t *BatchTransient) LaneVoltages(n NodeID) []float64 {
	t.c.checkNode(n)
	return t.pots[int(n)*t.lanes : (int(n)+1)*t.lanes]
}

// BranchCurrent returns the current (a -> b) through element i in
// insertion order, for the given lane, which must lie in [0, Lanes()).
// Exported for white-box testing.
//
// Past the first step, currents are derived on demand from the node
// potentials and the cached history source — the exact expressions a
// per-step branch-state update would have stored, so readings are
// bit-identical to an engine that materialized them (and to
// Transient.BranchCurrent lane for lane). At the DC operating point
// (before the first Step, or right after Reset) the stored DC values
// are returned instead: initState computes resistor current as
// (va-vb)/R, which can differ from v*geq in the last ULP.
func (t *BatchTransient) BranchCurrent(lane, i int) float64 {
	t.checkLane(lane)
	if t.step == 0 {
		return t.ibr[i*t.lanes+lane]
	}
	e := t.c.elements[i]
	v := t.pots[int(e.a)*t.lanes+lane] - t.pots[int(e.b)*t.lanes+lane]
	switch e.kind {
	case kindCapacitor:
		return float64(t.geq[i]*v) - t.hist[i*t.lanes+lane]
	case kindInductor:
		return float64(t.geq[i]*v) + t.hist[i*t.lanes+lane]
	default: // resistor
		return v * t.geq[i]
	}
}

// Reset rewinds all lanes to the given start time and re-derives each
// lane's DC operating point from the circuit's current loads and the
// lane's fixed potentials. Neither nodal matrix is re-stamped or
// re-factored, so a batch session can retune lane supplies, swap what
// the load fill computes, and restart from here at the cost of one
// linear solve per lane.
func (t *BatchTransient) Reset(start float64) error {
	t.time = start
	t.step = 0
	t.buildPlan()
	return t.initState()
}

// buildPlan captures the per-step RHS contributions, snapshotting each
// lane's fixed-node potentials and the circuit's load list in effect
// now. The entry list (and so the accumulation order per lane) is
// identical to the single-lane plan: hasFA/hasFB depend only on
// topology, never on lane state.
func (t *BatchTransient) buildPlan() {
	t.loads = t.c.loads[:len(t.c.loads):len(t.c.loads)]
	t.loadP = t.loadP[:0]
	for _, ld := range t.loads {
		t.loadP = append(t.loadP, t.idxP[ld.Node])
	}
	t.plan = t.plan[:0]
	for ei, e := range t.c.elements {
		pe := stepElem{kind: e.kind, ei: ei, geq: t.geq[ei], na: int(e.a), nb: int(e.b), ia: t.idx[e.a], ib: t.idx[e.b]}
		pe.iaP, pe.ibP = t.idxP[e.a], t.idxP[e.b]
		pe.hasFA = pe.ia >= 0 && pe.ib < 0
		pe.hasFB = pe.ib >= 0 && pe.ia < 0
		if e.kind == kindResistor && !pe.hasFA && !pe.hasFB {
			continue // no history source, no fixed contribution
		}
		t.plan = append(t.plan, pe)
	}
	B := t.lanes
	nh, nf, nl := len(t.c.elements)*B, len(t.plan)*B, len(t.loads)*B
	if need := nh + 2*nf + nl; cap(t.src) < need {
		t.src = make([]float64, need) // initState, run after every buildPlan, re-derives hist
	} else {
		t.src = t.src[:need]
	}
	t.hist = t.src[:nh:nh]
	t.planFA = t.src[nh : nh+nf : nh+nf]
	t.planFB = t.src[nh+nf : nh+2*nf : nh+2*nf]
	t.loadCur = t.src[nh+2*nf : nh+2*nf+nl : nh+2*nf+nl]
	for pi := range t.plan {
		pe := &t.plan[pi]
		e := t.c.elements[pe.ei]
		for l := 0; l < B; l++ {
			if pe.hasFA {
				t.planFA[pi*B+l] = pe.geq * t.fixedPot[int(e.b)*B+l]
			}
			if pe.hasFB {
				t.planFB[pi*B+l] = pe.geq * t.fixedPot[int(e.a)*B+l]
			}
		}
	}
	t.vec.compile(t)
}

// initState derives each lane's initial condition from its DC
// operating point: loads filled at the current simulation time, each
// lane reading its own column, against the cached DC factorization.
// The per-lane arithmetic mirrors Transient.initState exactly.
func (t *BatchTransient) initState() error {
	c := t.c
	B := t.lanes
	t.fill(t.time, t.loadCur)
	for l := 0; l < B; l++ {
		rhs, sol := t.laneRHS, t.laneSol
		for i := range rhs {
			rhs[i] = 0
		}
		for _, e := range c.elements {
			ge, ok := dcConductance(e)
			if !ok {
				continue
			}
			ia, ib := t.idx[e.a], t.idx[e.b]
			if ia >= 0 && ib < 0 {
				rhs[ia] += float64(ge * t.fixedPot[int(e.b)*B+l])
			}
			if ib >= 0 && ia < 0 {
				rhs[ib] += float64(ge * t.fixedPot[int(e.a)*B+l])
			}
		}
		for k, ld := range t.loads {
			if i := t.idx[ld.Node]; i >= 0 {
				rhs[i] -= t.loadCur[k*B+l]
			}
		}
		t.dcLU.solveInto(sol, rhs)
		for node, i := range t.idx {
			if i >= 0 {
				t.pots[node*B+l] = sol[i]
			} else {
				t.pots[node*B+l] = t.fixedPot[node*B+l]
			}
		}
		// Branch states from the DC solution.
		for ei, e := range c.elements {
			va, vb := t.pots[int(e.a)*B+l], t.pots[int(e.b)*B+l]
			t.vab[ei*B+l] = va - vb
			switch e.kind {
			case kindResistor:
				t.ibr[ei*B+l] = (va - vb) / e.value
			case kindInductor:
				t.ibr[ei*B+l] = (va - vb) / dcShortOhms
				t.vab[ei*B+l] = 0 // an ideal inductor carries no DC voltage
			case kindCapacitor:
				t.ibr[ei*B+l] = 0
			}
		}
		// Seed the history sources the first Step will consume, with
		// the exact expressions the step walk uses thereafter.
		for ei, e := range c.elements {
			switch e.kind {
			case kindCapacitor:
				t.hist[ei*B+l] = float64(t.geq[ei]*t.vab[ei*B+l]) + t.ibr[ei*B+l]
			case kindInductor:
				t.hist[ei*B+l] = t.ibr[ei*B+l] + float64(t.geq[ei]*t.vab[ei*B+l])
			}
		}
	}
	return nil
}

// Step advances every lane by one timestep. It allocates nothing.
// The width dispatch is the engine's only per-width code: the
// specialized widths run the vector step on hosts with AVX2 and the
// one Go step walk over fixed-size lane blocks elsewhere.
func (t *BatchTransient) Step() error {
	if useAVX2 && t.vec.ok {
		return t.stepVector()
	}
	switch t.lanes {
	case DefaultBatchLanes:
		return stepWalk[*[DefaultBatchLanes]float64](t)
	case WideBatchLanes:
		return stepWalk[*[WideBatchLanes]float64](t)
	}
	return stepWalk[[]float64](t)
}

// stepWalk is the lockstep step over lane blocks of type P (see
// laneBlock), whose length must equal t.lanes. Per lane it performs
// the same floating-point operations in the same order as the
// single-lane Transient.Step, so lanes stay bit-identical to
// single-lane engines at every width. It is the reference the vector
// step (stepVector) is pinned to.
func stepWalk[P laneBlock](t *BatchTransient) error {
	B := blockLanes[P](t.lanes)
	next := t.time + t.dt
	// Loads filled at the new time (backward-looking sources keep the
	// trapezoidal solve linear). The fill reads no engine state, so it
	// runs first; its rows are subtracted after the plan's terms.
	t.fill(next, t.loadCur)
	rhs := t.rhs
	for i := range rhs {
		rhs[i] = 0
	}
	// History sources and fixed-node conductance contributions, from
	// the precomputed plan. Per lane this is the same element order and
	// the same arithmetic as the single-lane Step: past the first step
	// the walk rolls each reactive element's companion state forward
	// from the last solve's potentials in the same pass that feeds the
	// RHS (see Transient.Step for the derivation). RHS rows are
	// assembled at the permuted slots (iaP/ibP) so the solve can run in
	// place — the accumulation order per unknown is untouched.
	first := t.step == 0
	for pi := range t.plan {
		pe := &t.plan[pi]
		if pe.hasFA {
			fa := P(t.planFA[pi*B : pi*B+B])
			ra := P(rhs[pe.iaP*B : pe.iaP*B+B])
			for l := 0; l < len(ra); l++ {
				ra[l] += fa[l]
			}
		}
		if pe.hasFB {
			fb := P(t.planFB[pi*B : pi*B+B])
			rb := P(rhs[pe.ibP*B : pe.ibP*B+B])
			for l := 0; l < len(rb); l++ {
				rb[l] += fb[l]
			}
		}
		if pe.kind == kindResistor {
			continue
		}
		geq := pe.geq
		hist := P(t.hist[pe.ei*B : pe.ei*B+B])
		if !first {
			pa := P(t.pots[pe.na*B : pe.na*B+B])
			pb := P(t.pots[pe.nb*B : pe.nb*B+B])
			if pe.kind == kindCapacitor {
				for l := 0; l < len(hist); l++ {
					gv := float64(geq * (pa[l] - pb[l]))
					hist[l] = gv + (gv - hist[l])
				}
			} else {
				for l := 0; l < len(hist); l++ {
					gv := float64(geq * (pa[l] - pb[l]))
					hist[l] = (gv + hist[l]) + gv
				}
			}
		}
		// A capacitor's history source feeds +hist into node a's RHS
		// (i(t+dt) = geq*v(t+dt) - hist, hist = geq*v(t) + i(t)); an
		// inductor's feeds -hist (i(t+dt) = geq*v(t+dt) + hist,
		// hist = i(t) + geq*v(t)). Node b sees the opposite sign.
		capacitor := pe.kind == kindCapacitor
		switch {
		case pe.iaP >= 0 && pe.ibP >= 0:
			ra := P(rhs[pe.iaP*B : pe.iaP*B+B])
			rb := P(rhs[pe.ibP*B : pe.ibP*B+B])
			if capacitor {
				for l := 0; l < len(ra); l++ {
					ra[l] += hist[l]
					rb[l] -= hist[l]
				}
			} else {
				for l := 0; l < len(ra); l++ {
					ra[l] -= hist[l]
					rb[l] += hist[l]
				}
			}
		case pe.iaP >= 0:
			ra := P(rhs[pe.iaP*B : pe.iaP*B+B])
			if capacitor {
				for l := 0; l < len(ra); l++ {
					ra[l] += hist[l]
				}
			} else {
				for l := 0; l < len(ra); l++ {
					ra[l] -= hist[l]
				}
			}
		case pe.ibP >= 0:
			rb := P(rhs[pe.ibP*B : pe.ibP*B+B])
			if capacitor {
				for l := 0; l < len(rb); l++ {
					rb[l] -= hist[l]
				}
			} else {
				for l := 0; l < len(rb); l++ {
					rb[l] += hist[l]
				}
			}
		}
	}
	// Per lane each RHS row subtracts its loads in insertion order.
	for k, i := range t.loadP {
		if i < 0 {
			continue
		}
		cur := P(t.loadCur[k*B : k*B+B])
		r := P(rhs[i*B : i*B+B])
		for l := 0; l < len(r); l++ {
			r[l] -= cur[l]
		}
	}
	t.lu.solveBatchInPlace(rhs, B)
	// Scatter the solved unknowns (element-wise: an array assignment
	// lowers to a runtime.memmove call), checking for divergence in the
	// same pass — v-v is 0 for every finite v and NaN for NaN and ±Inf.
	// Fixed-node potentials are not rewritten here: they change only
	// through Reset, which re-scatters them via initState. On
	// divergence the engine state is abandoned with the error.
	bad := -1
	for i, node := range t.unkNode {
		po := P(t.pots[int(node)*B : int(node)*B+B])
		so := P(rhs[i*B : i*B+B])
		for l := 0; l < len(po); l++ {
			v := so[l]
			if v-v != 0 {
				bad = l
			}
			po[l] = v
		}
	}
	if bad >= 0 {
		return divergedAt(next, bad)
	}
	t.time = next
	t.step++
	return nil
}

// LaneFootprintBytes reports the engine state one lane streams through
// per step — companion state, potentials, right-hand side, plan
// contributions and load currents — for the width-calibration
// footprint gate: widths whose total working set outgrows cache stop
// paying for themselves.
func (t *BatchTransient) LaneFootprintBytes() int {
	perLane := 3*len(t.c.elements) + // vab, ibr, hist
		2*t.c.NumNodes() + // pots, fixedPot
		t.n + // rhs
		2*len(t.plan) + // planFA, planFB
		len(t.loads) // loadCur
	return 8 * perLane
}

// RunUntil advances all lanes until the given absolute time without
// recording anything. Useful for warm-up.
func (t *BatchTransient) RunUntil(until float64) error {
	for t.time < until-float64(t.dt/2) {
		if err := t.Step(); err != nil {
			return err
		}
	}
	return nil
}
