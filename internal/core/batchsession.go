package core

import (
	"context"
	"fmt"
	"math"

	"voltnoise/internal/pdn"
	"voltnoise/internal/signal"
	"voltnoise/internal/skitter"
)

// BatchSession is the lockstep counterpart of Session: it owns one
// built ZEC12 circuit and one set of factored matrices but advances B
// independent measurement lanes through them per step, via
// pdn.BatchTransient. Each lane carries its own workload slots, supply
// bias, skitter macros and accumulators, so a width-B session replaces
// B sessions while paying the plan walk and the (latency-bound) LU
// substitution once per step instead of B times.
//
// Every lane's Measurement is bit-identical to running the same
// RunSpec alone on a single Session at the lane's bias: per lane the
// engine performs the same floating-point operations in the same
// order, batching only interleaves independent lanes.
//
// A BatchSession is NOT safe for concurrent use; parallel studies draw
// one per in-flight batch from a SessionPool.
type BatchSession struct {
	cfg   Config
	lanes int

	bias    []float64 // per lane, quantized as Platform.SetVoltageBias
	vnom    []float64 // per lane effective supply (PDN.Vnom * bias)
	uncoreI []float64 // per lane uncore current (UncorePower / vnom)

	circuit *pdn.Circuit
	nodes   pdn.ZEC12Nodes
	bt      *pdn.BatchTransient
	macros  [][NumCores]*skitter.Macro
	// gains holds each lane's effective per-core skitter gain
	// multipliers (default cfg.CoreGain). They live entirely in the
	// sensor macros, which is what lets chips that share an electrical
	// configuration but differ in sensitivity (aging drift, core-class
	// bases) ride separate lanes of one factored circuit.
	gains [][NumCores]float64

	idle Workload
	// wl holds each lane's current workloads. A slot is one (lane,
	// core) pair, numbered lane-major: lane*NumCores + core.
	wl [][NumCores]Workload
	// pw holds the power sample fillLoads took this step at every
	// source slot; the chip-power accumulators read it through src.
	pw []float64

	// The evaluation plan, rebuilt from wl (and the lane supplies) by
	// refreshAliases once per run. Every lane evaluates its loads at the
	// same instant, so an identical pure workload produces a
	// bit-identical power sample wherever it runs: each step samples
	// every distinct workload once (evals), divides each sample once
	// per distinct supply it feeds (quots, results at the head of q),
	// and every load row then reads its current from q — the uncore
	// rows from per-lane constants in q's tail.
	evals []powerEval
	quots []quotient
	q     []float64
	// src[g] is the lowest slot whose workload value is identical to
	// slot g's (g itself when none is). qOf is laid out like the fill's
	// rows (load k, lane l at k*lanes+l) and indexes the q entry holding
	// that current.
	src []int
	qOf []int

	// warm skips a constant-load warmup another run already integrated.
	warm warmStart
}

// powerEval samples workload w into pw[slot].
type powerEval struct {
	w    Workload
	slot int
}

// quotient divides pw[slot] by lane's effective supply.
type quotient struct{ slot, lane int }

// NewBatchSession builds a batch session with the given lane count,
// every lane at nominal voltage (bias 1.0).
func NewBatchSession(cfg Config, lanes int) (*BatchSession, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lanes < 1 {
		return nil, fmt.Errorf("core: batch lane count %d, want >= 1", lanes)
	}
	s := &BatchSession{
		cfg: cfg, lanes: lanes, idle: Idle(cfg.Core),
		bias:    make([]float64, lanes),
		vnom:    make([]float64, lanes),
		uncoreI: make([]float64, lanes),
		macros:  make([][NumCores]*skitter.Macro, lanes),
		gains:   make([][NumCores]float64, lanes),
		wl:      make([][NumCores]Workload, lanes),
		pw:      make([]float64, lanes*NumCores),
		evals:   make([]powerEval, 0, lanes*NumCores),
		quots:   make([]quotient, 0, lanes*NumCores),
		q:       make([]float64, lanes*(NumCores+1)),
		src:     make([]int, lanes*NumCores),
		qOf:     make([]int, lanes*(NumCores+1)),
	}
	for l := 0; l < lanes; l++ {
		s.bias[l] = 1.0
		s.vnom[l] = cfg.PDN.Vnom
		s.uncoreI[l] = cfg.UncorePower / s.vnom[l]
		s.gains[l] = cfg.CoreGain
		for i := range s.wl[l] {
			s.wl[l][i] = s.idle
		}
		if err := s.rebuildMacros(l); err != nil {
			return nil, err
		}
	}

	pdnCfg := cfg.PDN
	s.circuit, s.nodes = pdn.ZEC12(pdnCfg)
	// The loads only name the nodes fillLoads' rows feed — core0..5,
	// then uncore; the engine never calls their closures.
	filled := func(float64) float64 { panic("core: batch session loads come from fillLoads") }
	for i := 0; i < NumCores; i++ {
		s.circuit.AddLoad(fmt.Sprintf("core%d", i), s.nodes.Core[i], filled)
	}
	s.circuit.AddLoad("uncore", s.nodes.L3, filled)
	s.refreshAliases()

	bt, err := pdn.NewBatchTransientFill(s.circuit, cfg.Dt, 0, lanes, s.fillLoads)
	if err != nil {
		return nil, err
	}
	s.bt = bt
	return s, nil
}

// Config returns the session's platform configuration.
func (s *BatchSession) Config() Config { return s.cfg }

// Lanes returns the batch width.
func (s *BatchSession) Lanes() int { return s.lanes }

// LaneBias returns the lane's current (quantized) bias.
func (s *BatchSession) LaneBias(lane int) float64 { return s.bias[lane] }

// SetLaneBias retunes one lane's supply setpoint, quantized to the
// service element's 0.5% steps like Session.SetVoltageBias. Only the
// lane's fixed VRM potential and macro calibrations move — the
// factored matrices serve every lane at every bias, because fixed-node
// potentials enter the solve through the RHS only. This is what lets a
// Vmin walk probe several biases in one lockstep batch.
func (s *BatchSession) SetLaneBias(lane int, bias float64) error {
	if lane < 0 || lane >= s.lanes {
		return fmt.Errorf("core: lane %d out of range [0,%d)", lane, s.lanes)
	}
	q := math.Round(bias/BiasStep) * BiasStep
	if q < 0.70 || q > 1.10 {
		return fmt.Errorf("core: voltage bias %g outside [0.70, 1.10]", q)
	}
	if q == s.bias[lane] {
		return nil
	}
	s.bias[lane] = q
	s.vnom[lane] = s.cfg.PDN.Vnom * q
	s.uncoreI[lane] = s.cfg.UncorePower / s.vnom[lane]
	if err := s.bt.SetLaneFixed(lane, s.nodes.VRM, s.vnom[lane]); err != nil {
		return err
	}
	return s.rebuildMacros(lane)
}

// SetVoltageBias retunes every lane to the same bias.
func (s *BatchSession) SetVoltageBias(bias float64) error {
	for l := 0; l < s.lanes; l++ {
		if err := s.SetLaneBias(l, bias); err != nil {
			return err
		}
	}
	return nil
}

// refreshAliases rebuilds the evaluation plan from every lane's
// workload slots. A slot's source may be any earlier slot in lane-major
// order — an earlier core of its own lane, or any core of an earlier
// lane. The lowest matching slot is always a source itself, so scanning
// the sources found so far finds it, and evals stay in ascending slot
// order: lane-outer, the order lane-per-run sessions would sample in.
// A quotient is shared by every slot with the same source at the same
// supply, the division being bit-identical there. Lane supplies change
// only between runs, so the uncore currents are snapshotted here.
func (s *BatchSession) refreshAliases() {
	s.evals, s.quots = s.evals[:0], s.quots[:0]
	for l := 0; l < s.lanes; l++ {
		for i, w := range s.wl[l] {
			g := l*NumCores + i
			src := g
			for _, e := range s.evals {
				if sameWorkload(e.w, w) {
					src = e.slot
					break
				}
			}
			if src == g {
				s.evals = append(s.evals, powerEval{w: w, slot: g})
			}
			s.src[g] = src
			qi := i*s.lanes + l
			s.qOf[qi] = -1
			for k, d := range s.quots {
				if d.slot == src && s.vnom[d.lane] == s.vnom[l] {
					s.qOf[qi] = k
					break
				}
			}
			if s.qOf[qi] < 0 {
				s.qOf[qi] = len(s.quots)
				s.quots = append(s.quots, quotient{slot: src, lane: l})
			}
		}
	}
	n := len(s.quots)
	for l, cur := range s.uncoreI {
		s.q[n+l] = cur
		s.qOf[NumCores*s.lanes+l] = n + l
	}
}

// fillLoads is the engine's pdn.LoadFill: it runs the evaluation plan
// at time t and writes every load's row — each core's I = P/Vnom at its
// lane's effective supply (Session's linearization), then the uncore
// current.
func (s *BatchSession) fillLoads(t float64, dst []float64) {
	for _, e := range s.evals {
		s.pw[e.slot] = e.w.Power(t)
	}
	for k, d := range s.quots {
		s.q[k] = s.pw[d.slot] / s.vnom[d.lane]
	}
	dst = dst[:len(s.qOf)]
	for j, k := range s.qOf {
		dst[j] = s.q[k]
	}
}

// LaneGains returns one lane's effective per-core skitter gain
// multipliers.
func (s *BatchSession) LaneGains(lane int) [NumCores]float64 { return s.gains[lane] }

// SetLaneGains overrides one lane's per-core skitter gain multipliers,
// mirroring Session.SetCoreGains: the override lives entirely in the
// lane's sensor macros and never touches the shared circuit, so lanes
// carrying different chips (aging drift, heterogeneous core classes)
// still ride one factored matrix set. Per lane the macro construction
// performs the same floating-point operations as a single Session with
// the same gains, so lane results stay bit-identical to lane-per-run
// measurements. Setting the identical gains is free.
func (s *BatchSession) SetLaneGains(lane int, gains [NumCores]float64) error {
	if lane < 0 || lane >= s.lanes {
		return fmt.Errorf("core: lane %d out of range [0,%d)", lane, s.lanes)
	}
	if gains == s.gains[lane] {
		return nil
	}
	for i, g := range gains {
		if g <= 0 {
			return fmt.Errorf("core: non-positive gain %g for core %d", g, i)
		}
	}
	s.gains[lane] = gains
	return s.rebuildMacros(lane)
}

// rebuildMacros constructs one lane's per-core skitter macros with
// process-variation gains, calibrated at the lane's effective supply.
func (s *BatchSession) rebuildMacros(lane int) error {
	for i := range s.macros[lane] {
		sc := s.cfg.Skitter
		sc.Vnom = s.vnom[lane]
		sc.Gain *= s.gains[lane][i]
		m, err := skitter.NewMacro(sc)
		if err != nil {
			return err
		}
		s.macros[lane][i] = m
	}
	return nil
}

// LaneFootprintBytes reports the engine state one lane streams through
// per step, for the width-calibration footprint gate (see
// SessionPool.AutoBatchWidth). It is independent of this session's own
// width.
func (s *BatchSession) LaneFootprintBytes() int { return s.bt.LaneFootprintBytes() }

// RunBatch executes one measurement window on every lane. See
// RunBatchContext.
func (s *BatchSession) RunBatch(specs []RunSpec) ([]*Measurement, error) {
	return s.RunBatchContext(context.Background(), specs)
}

// RunBatchContext runs one spec per lane in lockstep and returns one
// Measurement per lane, in lane order. All lanes must share the same
// Start and Warmup — lockstep lanes advance through the same instants —
// while Durations, workloads, Record, and the lane biases may differ:
// the engine steps to the longest lane's end, and a lane whose window
// is over simply stops observing and accumulating (its trajectory up
// to its own end is unaffected by the extra steps, so every lane stays
// bit-identical to a lane-per-run measurement). A canceled context
// interrupts the integration mid-window and returns ctx.Err(); the
// session remains reusable afterwards.
func (s *BatchSession) RunBatchContext(ctx context.Context, specs []RunSpec) ([]*Measurement, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(specs) != s.lanes {
		return nil, fmt.Errorf("core: %d specs for a %d-lane batch", len(specs), s.lanes)
	}
	warmup := specs[0].Warmup
	if warmup == 0 {
		warmup = DefaultWarmup
	}
	if warmup < 0 {
		return nil, fmt.Errorf("core: negative warmup %g", specs[0].Warmup)
	}
	laneSteps := make([]int, s.lanes)
	maxSteps := 0
	for l := 0; l < s.lanes; l++ {
		if specs[l].Duration <= 0 {
			return nil, fmt.Errorf("core: lane %d non-positive measurement duration %g", l, specs[l].Duration)
		}
		if specs[l].Start != specs[0].Start || specs[l].Warmup != specs[0].Warmup {
			return nil, fmt.Errorf("core: lane %d window start/warmup (%g,%g) differs from lane 0 (%g,%g); lockstep lanes must share Start and Warmup",
				l, specs[l].Start, specs[l].Warmup, specs[0].Start, specs[0].Warmup)
		}
		laneSteps[l] = int(math.Round(specs[l].Duration / s.cfg.Dt))
		if laneSteps[l] > maxSteps {
			maxSteps = laneSteps[l]
		}
	}
	start := specs[0].Start
	defer func() {
		// Drop workload references, the plan's included, so pooled
		// sessions don't pin them — canceled and failed runs too.
		for l := range s.wl {
			for i := range s.wl[l] {
				s.wl[l][i] = s.idle
			}
		}
		s.refreshAliases()
	}()
	for l := 0; l < s.lanes; l++ {
		for i := range s.wl[l] {
			if specs[l].Workloads[i] == nil {
				s.wl[l][i] = s.idle
			} else {
				s.wl[l][i] = specs[l].Workloads[i]
			}
		}
	}
	s.refreshAliases()
	// Warmup settles the PDN, mirroring Session.RunContext: the plan's
	// evaluations are the distinct workloads.
	t0 := start - warmup
	s.warm.begin()
	for k := range s.evals {
		s.warm.add(&s.evals[k].w, s.evals[k].slot)
	}
	if err := s.warm.warmUp(ctx, s.bt, t0, start, s.cfg.Dt, s.vnom, s.src); err != nil {
		return nil, err
	}
	for l := 0; l < s.lanes; l++ {
		for _, m := range s.macros[l] {
			m.Reset()
		}
	}

	meas := make([]*Measurement, s.lanes)
	energy := make([]float64, s.lanes)
	for l := range meas {
		m := &Measurement{Start: start, Duration: specs[l].Duration}
		if specs[l].Record {
			for i := range m.Traces {
				t := signal.NewTrace(s.cfg.Dt, laneSteps[l]+1)
				t.Start = start
				m.Traces[i] = t
			}
		}
		for i := range m.VMin {
			m.VMin[i] = math.Inf(1)
			m.VMax[i] = math.Inf(-1)
		}
		meas[l] = m
	}
	observe := func(step int) {
		// Core-major: each core node's lane potentials are adjacent in
		// the engine, so one LaneVoltages view serves all lanes. Lane
		// and core observations are independent (per-macro sample order
		// is all that matters), so the loop nesting is free to follow
		// the memory layout.
		for i := 0; i < NumCores; i++ {
			row := s.bt.LaneVoltages(s.nodes.Core[i])
			for l := 0; l < s.lanes; l++ {
				if step > laneSteps[l] {
					continue // this lane's window is over
				}
				m := meas[l]
				v := row[l]
				s.macros[l][i].Sample(v)
				if v < m.VMin[i] {
					m.VMin[i] = v
				}
				if v > m.VMax[i] {
					m.VMax[i] = v
				}
				if specs[l].Record {
					m.Traces[i].Samples[step] = v
				}
			}
		}
	}
	observe(0)
	ctr := 0
	for st := 1; st <= maxSteps; st++ {
		if ctr++; ctr >= ctxCheckSteps {
			ctr = 0
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := s.bt.Step(); err != nil {
			return nil, err
		}
		observe(st)
		// Chip power per lane, from the samples fillLoads just took.
		for l := 0; l < s.lanes; l++ {
			if st > laneSteps[l] {
				continue
			}
			pw := s.cfg.UncorePower
			for _, g := range s.src[l*NumCores : (l+1)*NumCores] {
				pw += s.pw[g]
			}
			energy[l] += pw * s.cfg.Dt
		}
	}
	for l := 0; l < s.lanes; l++ {
		m := meas[l]
		for i, mac := range s.macros[l] {
			m.P2P[i] = mac.PeakToPeakPercent()
			m.PosMin[i], m.PosMax[i] = mac.PositionRange()
		}
		m.NominalPos = s.macros[l][0].Config().NominalPosition()
		m.ChipPowerMilliwatts = int64(math.Round(energy[l] / specs[l].Duration * 1000))
	}
	return meas, nil
}
