package pdn

import (
	"fmt"
	"math"

	"voltnoise/internal/signal"
)

// Transient integrates a circuit forward in time with the trapezoidal
// rule. Reactive elements are replaced by their companion models: a
// constant conductance (folded once into the nodal matrix, which is
// then LU-factored once) plus a history current source recomputed each
// step. This is the standard SPICE formulation and is A-stable, so
// resonant PDNs integrate robustly at any step size that resolves the
// waveforms of interest.
type Transient struct {
	c    *Circuit
	dt   float64
	lu   *realLU
	dcLU *realLU // DC operating-point factorization (inductors shorted)
	idx  []int   // NodeID -> unknown index or -1
	n    int     // number of unknowns

	// idxP maps NodeID to the unknown's slot in lu's permuted row
	// order (invPerm[idx[node]], or -1): Step assembles the right-hand
	// side directly in that order so the solve runs in place, skipping
	// the per-step gather copy. unkNode is the inverse scatter map —
	// unkNode[i] is the node whose solved potential sits at slot i
	// after the in-place substitutions (which, like solveInto, leave
	// unknown i's solution at slot i; only RHS assembly is permuted).
	idxP    []int
	unkNode []int32

	// Per-element companion state. vab/ibr hold the DC operating point
	// only: past the first step, branch state lives in hist (the
	// trapezoidal history source) and BranchCurrent derives currents on
	// demand from the node potentials.
	geq  []float64 // companion conductance per element (0 for resistors)
	vab  []float64 // branch voltage at the DC operating point
	ibr  []float64 // branch current at the DC operating point (a -> b)
	hist []float64 // companion history source for the NEXT step
	pots []float64 // node potentials at current time (all nodes)

	plan []stepElem // per-step RHS contributors, in element order

	rhs []float64
	sol []float64

	time float64
	step int
}

// stepElem is one element's per-step RHS work, precomputed so Step
// walks a compact list instead of re-deriving index lookups and
// fixed-node potentials every timestep. Resistors touching no fixed
// node contribute nothing to the RHS and are dropped from the plan;
// the remaining contributions keep element insertion order, so the
// floating-point accumulation is bit-identical to the naive loop.
type stepElem struct {
	kind         elementKind
	ei           int     // element index (companion state slot)
	geq          float64 // companion conductance
	na, nb       int     // node indices (for potential lookups)
	ia, ib       int     // unknown indices (-1: grounded or fixed)
	iaP, ibP     int     // unknown RHS slots in permuted row order (-1 alike)
	fa, fb       float64 // fixed-node RHS contributions (geq * fixed potential)
	hasFA, hasFB bool
}

// NewTransient prepares a transient simulation of c with fixed timestep
// dt, starting at time zero. See NewTransientAt.
func NewTransient(c *Circuit, dt float64) (*Transient, error) {
	return NewTransientAt(c, dt, 0)
}

// NewTransientAt prepares a transient simulation of c with fixed
// timestep dt, starting at simulation time start. The circuit's DC
// operating point (inductors shorted, capacitors open, loads evaluated
// at the start time) is used as the initial condition, so a well-formed
// circuit starts in steady state and shows no artificial start-up
// transient.
func NewTransientAt(c *Circuit, dt, start float64) (*Transient, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("pdn: non-positive timestep %g", dt)
	}
	idx, n := c.unknowns()
	if n == 0 {
		return nil, fmt.Errorf("pdn: circuit has no unknown nodes")
	}
	t := &Transient{
		c: c, dt: dt, idx: idx, n: n, time: start,
		vab:  make([]float64, len(c.elements)),
		ibr:  make([]float64, len(c.elements)),
		hist: make([]float64, len(c.elements)),
		pots: make([]float64, c.NumNodes()),
		rhs:  make([]float64, n),
		sol:  make([]float64, n),
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
	if err := t.initState(); err != nil {
		return nil, err
	}
	return t, nil
}

// Reset rewinds the simulation to the given start time and re-derives
// the DC operating point from the circuit's current loads and fixed
// potentials. Neither nodal matrix is re-stamped or re-factored — they
// depend only on element values and the timestep — so a measurement
// session can retune fixed supplies, let load closures change what
// they compute, and restart from here at the cost of one linear solve.
func (t *Transient) Reset(start float64) error {
	t.time = start
	t.step = 0
	t.buildPlan()
	return t.initState()
}

// permutedIndex derives the permuted-RHS maps for an engine solving in
// place against lu: nodeP[node] is the RHS slot of the node's unknown
// (invPerm[idx[node]], -1 for grounded/fixed nodes) and unkNode[i] is
// the node whose solution the substitutions leave at slot i.
func permutedIndex(idx []int, lu *realLU) (nodeP []int, unkNode []int32) {
	nodeP = make([]int, len(idx))
	unkNode = make([]int32, lu.n)
	for node, i := range idx {
		if i >= 0 {
			nodeP[node] = lu.invPerm[i]
			unkNode[i] = int32(node)
		} else {
			nodeP[node] = -1
		}
	}
	return nodeP, unkNode
}

// buildPlan captures the per-step RHS contributions, snapshotting the
// fixed-node potentials in effect now (Reset refreshes the snapshot
// after a FixNode retune).
func (t *Transient) buildPlan() {
	t.plan = t.plan[:0]
	for ei, e := range t.c.elements {
		pe := stepElem{kind: e.kind, ei: ei, geq: t.geq[ei], na: int(e.a), nb: int(e.b), ia: t.idx[e.a], ib: t.idx[e.b]}
		pe.iaP, pe.ibP = t.idxP[e.a], t.idxP[e.b]
		if pe.ia >= 0 && pe.ib < 0 {
			pe.fa = pe.geq * t.c.potentialOfFixed(e.b)
			pe.hasFA = true
		}
		if pe.ib >= 0 && pe.ia < 0 {
			pe.fb = pe.geq * t.c.potentialOfFixed(e.a)
			pe.hasFB = true
		}
		if e.kind == kindResistor && !pe.hasFA && !pe.hasFB {
			continue // no history source, no fixed contribution
		}
		t.plan = append(t.plan, pe)
	}
}

// stampCompanion computes the trapezoidal companion conductance of
// every element and folds the set into a freshly factored nodal
// matrix. The matrix depends only on element values and the timestep,
// so single-lane and batched engines over the same circuit derive
// identical factorizations from this one helper.
func stampCompanion(c *Circuit, dt float64, idx []int, n int) (geq []float64, lu *realLU, err error) {
	geq = make([]float64, len(c.elements))
	g := make([]float64, n*n)
	for ei, e := range c.elements {
		var ge float64
		switch e.kind {
		case kindResistor:
			ge = 1 / e.value
		case kindCapacitor:
			ge = 2 * e.value / dt
		case kindInductor:
			ge = dt / (2 * e.value)
		}
		geq[ei] = ge
		stampReal(g, n, idx, e.a, e.b, ge)
	}
	lu, err = factorReal(g, n)
	if err != nil {
		return nil, nil, fmt.Errorf("pdn: transient setup: %w", err)
	}
	return geq, lu, nil
}

// stampReal adds conductance ge between nodes a and b into the nodal
// matrix of unknowns (rows/cols indexed by idx).
func stampReal(g []float64, n int, idx []int, a, b NodeID, ge float64) {
	ia, ib := idx[a], idx[b]
	if ia >= 0 {
		g[ia*n+ia] += ge
	}
	if ib >= 0 {
		g[ib*n+ib] += ge
	}
	if ia >= 0 && ib >= 0 {
		g[ia*n+ib] -= ge
		g[ib*n+ia] -= ge
	}
}

// dcShortOhms is the tiny resistance standing in for an inductor in
// the DC operating-point solve.
const dcShortOhms = 1e-9

// dcConductance returns the element's conductance in the DC
// operating-point solve (capacitors are open and report ok=false).
func dcConductance(e element) (ge float64, ok bool) {
	switch e.kind {
	case kindResistor:
		return 1 / e.value, true
	case kindInductor:
		return 1 / dcShortOhms, true
	}
	return 0, false
}

// factorDCMatrix stamps and factors the DC operating-point matrix:
// inductors become tiny resistances, capacitors are open. The matrix
// depends only on element values, so it is factored once and reused by
// every initState, across runs and fixed-supply retunes alike.
func factorDCMatrix(c *Circuit, idx []int, n int) (*realLU, error) {
	g := make([]float64, n*n)
	for _, e := range c.elements {
		ge, ok := dcConductance(e)
		if !ok {
			continue
		}
		stampReal(g, n, idx, e.a, e.b, ge)
	}
	lu, err := factorReal(g, n)
	if err != nil {
		return nil, fmt.Errorf("pdn: DC operating point: %w (is every node connected to a source?)", err)
	}
	return lu, nil
}

// initState derives the initial condition from the DC operating point:
// loads evaluated at the current simulation time against the cached DC
// factorization.
func (t *Transient) initState() error {
	c := t.c
	for i := range t.rhs {
		t.rhs[i] = 0
	}
	for _, e := range c.elements {
		ge, ok := dcConductance(e)
		if !ok {
			continue
		}
		// Fixed-node contributions move to the RHS.
		t.stampFixedRHS(t.rhs, e.a, e.b, ge)
	}
	for _, l := range c.loads {
		if i := t.idx[l.Node]; i >= 0 {
			t.rhs[i] -= l.Current(t.time)
		}
	}
	t.dcLU.solveInto(t.sol, t.rhs)
	t.scatterPotentials(t.sol)
	// Branch states from the DC solution.
	for ei, e := range c.elements {
		va, vb := t.pots[e.a], t.pots[e.b]
		t.vab[ei] = va - vb
		switch e.kind {
		case kindResistor:
			t.ibr[ei] = (va - vb) / e.value
		case kindInductor:
			t.ibr[ei] = (va - vb) / dcShortOhms
			t.vab[ei] = 0 // an ideal inductor carries no DC voltage
		case kindCapacitor:
			t.ibr[ei] = 0
		}
	}
	// Seed the history sources the first Step will consume, with the
	// exact expressions the step walk uses thereafter.
	for ei, e := range c.elements {
		switch e.kind {
		case kindCapacitor:
			t.hist[ei] = float64(t.geq[ei]*t.vab[ei]) + t.ibr[ei]
		case kindInductor:
			t.hist[ei] = t.ibr[ei] + float64(t.geq[ei]*t.vab[ei])
		}
	}
	return nil
}

// stampFixedRHS accounts for a branch conductance touching a fixed
// node: the fixed potential's contribution moves to the RHS.
func (t *Transient) stampFixedRHS(rhs []float64, a, b NodeID, ge float64) {
	ia, ib := t.idx[a], t.idx[b]
	if ia >= 0 && ib < 0 {
		rhs[ia] += float64(ge * t.c.potentialOfFixed(b))
	}
	if ib >= 0 && ia < 0 {
		rhs[ib] += float64(ge * t.c.potentialOfFixed(a))
	}
}

// scatterPotentials writes the solved unknowns plus the fixed
// potentials into t.pots.
func (t *Transient) scatterPotentials(sol []float64) {
	for node, i := range t.idx {
		if i >= 0 {
			t.pots[node] = sol[i]
		} else {
			t.pots[node] = t.c.potentialOfFixed(NodeID(node))
		}
	}
}

// Time returns the current simulation time in seconds.
func (t *Transient) Time() float64 { return t.time }

// Dt returns the fixed timestep.
func (t *Transient) Dt() float64 { return t.dt }

// Voltage returns the potential of node n at the current time.
func (t *Transient) Voltage(n NodeID) float64 {
	t.c.checkNode(n)
	return t.pots[n]
}

// BranchCurrent returns the current (a -> b) through element i in
// insertion order. It is exported for white-box testing and
// element-level probing.
//
// Past the first step, currents are derived on demand from the node
// potentials and the cached history source — the exact expressions a
// per-step branch-state update would have stored, so readings are
// bit-identical to an engine that materialized them. At the DC
// operating point (before the first Step, or right after Reset) the
// stored DC values are returned instead: initState computes resistor
// current as (va-vb)/R, which can differ from v*geq in the last ULP.
func (t *Transient) BranchCurrent(i int) float64 {
	if t.step == 0 {
		return t.ibr[i]
	}
	e := t.c.elements[i]
	v := t.pots[e.a] - t.pots[e.b]
	switch e.kind {
	case kindCapacitor:
		return float64(t.geq[i]*v) - t.hist[i]
	case kindInductor:
		return float64(t.geq[i]*v) + t.hist[i]
	default: // resistor
		return v * t.geq[i]
	}
}

// Step advances the simulation by one timestep. It allocates nothing.
func (t *Transient) Step() error {
	c := t.c
	next := t.time + t.dt
	rhs := t.rhs
	for i := range rhs {
		rhs[i] = 0
	}
	// History sources and fixed-node conductance contributions, from
	// the precomputed plan (same element order, same arithmetic). On
	// every step after the first, the walk also rolls each reactive
	// element's companion state forward from the potentials the last
	// solve produced — the same multiplies, subtractions, and additions
	// a separate end-of-step update pass would perform, fused here so
	// each element's state streams through the cache once per step.
	// RHS writes land at the permuted slots (iaP/ibP) so the solve can
	// run in place: per unknown the accumulation order is untouched
	// (one unknown, one slot), only the slot's address moves.
	first := t.step == 0
	hist, pots := t.hist, t.pots
	for i := range t.plan {
		pe := &t.plan[i]
		if pe.hasFA {
			rhs[pe.iaP] += pe.fa
		}
		if pe.hasFB {
			rhs[pe.ibP] += pe.fb
		}
		switch pe.kind {
		case kindCapacitor:
			// i(t+dt) = geq*v(t+dt) - hist, hist = geq*v(t) + i(t).
			// Branch current a->b contributes +hist into node a's RHS.
			h := hist[pe.ei]
			if !first {
				gv := float64(pe.geq * (pots[pe.na] - pots[pe.nb]))
				h = gv + (gv - h)
				hist[pe.ei] = h
			}
			if pe.iaP >= 0 {
				rhs[pe.iaP] += h
			}
			if pe.ibP >= 0 {
				rhs[pe.ibP] -= h
			}
		case kindInductor:
			// i(t+dt) = geq*v(t+dt) + hist, hist = i(t) + geq*v(t).
			h := hist[pe.ei]
			if !first {
				gv := float64(pe.geq * (pots[pe.na] - pots[pe.nb]))
				h = (gv + h) + gv
				hist[pe.ei] = h
			}
			if pe.iaP >= 0 {
				rhs[pe.iaP] -= h
			}
			if pe.ibP >= 0 {
				rhs[pe.ibP] += h
			}
		}
	}
	// Loads evaluated at the new time (backward-looking sources keep
	// the trapezoidal solve linear).
	for _, l := range c.loads {
		if i := t.idxP[l.Node]; i >= 0 {
			rhs[i] -= l.Current(next)
		}
	}
	t.lu.solveInPlace(rhs)
	// Scatter the solved unknowns, checking for divergence in the same
	// pass (v-v is 0 for every finite v and NaN for NaN and ±Inf).
	// Fixed-node potentials are not rewritten here: they change only
	// through Reset, which re-scatters them via initState. On
	// divergence the engine state is abandoned with the error.
	bad := false
	for i, node := range t.unkNode {
		v := rhs[i]
		if v-v != 0 {
			bad = true
		}
		t.pots[node] = v
	}
	if bad {
		return fmt.Errorf("pdn: integration diverged at t=%g", next)
	}
	t.time = next
	t.step++
	return nil
}

// Run advances the simulation for the given duration, recording the
// potential of each probe node every step. The returned traces are
// indexed like probes and start at the pre-run simulation time.
func (t *Transient) Run(duration float64, probes []NodeID) ([]*signal.Trace, error) {
	if duration < 0 {
		return nil, fmt.Errorf("pdn: negative run duration %g", duration)
	}
	steps := int(math.Round(duration / t.dt))
	traces := make([]*signal.Trace, len(probes))
	for i, p := range probes {
		t.c.checkNode(p)
		tr := signal.NewTrace(t.dt, steps+1)
		tr.Start = t.time
		tr.Samples[0] = t.Voltage(p)
		traces[i] = tr
	}
	for s := 1; s <= steps; s++ {
		if err := t.Step(); err != nil {
			return nil, err
		}
		for i, p := range probes {
			traces[i].Samples[s] = t.Voltage(p)
		}
	}
	return traces, nil
}

// RunUntil advances the simulation until the given absolute time
// without recording anything. Useful for warm-up.
func (t *Transient) RunUntil(until float64) error {
	for t.time < until-float64(t.dt/2) {
		if err := t.Step(); err != nil {
			return err
		}
	}
	return nil
}
