package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"voltnoise/internal/pdn"
	"voltnoise/internal/signal"
	"voltnoise/internal/skitter"
)

// Session is a reusable measurement engine for one platform
// configuration: it owns the built ZEC12 circuit, the factored nodal
// and DC matrices, the six skitter macros and every scratch buffer,
// so a campaign of near-identical runs pays the setup cost once.
// Between runs only the cheap state moves: load closures re-read the
// session's workload slots, Transient.Reset re-derives the DC
// operating point with the cached factorization, and the macros clear
// their sticky registers. A run whose warmup proves to repeat, load
// for load and instant for instant, the constant-load warmup an
// earlier run on the session integrated restores the state that
// warmup ended in instead of stepping (see warmStart). Results are
// bit-identical to a fresh Platform.Run for every run in the sequence.
//
// A Session is NOT safe for concurrent use; parallel studies draw one
// session per in-flight measurement from a SessionPool.
type Session struct {
	cfg     Config
	bias    float64           // quantized, as Platform.SetVoltageBias
	vnom    float64           // effective supply setpoint (PDN.Vnom * bias)
	uncoreI float64           // constant uncore current (UncorePower / vnom)
	gains   [NumCores]float64 // effective per-core skitter gains (default cfg.CoreGain)

	circuit *pdn.Circuit
	nodes   pdn.ZEC12Nodes
	tr      *pdn.Transient
	macros  [NumCores]*skitter.Macro

	idle Workload
	// wl holds the current run's workloads; the load closures
	// installed at construction read through it.
	wl [NumCores]Workload
	// pw is the per-step power scratch: the load closures record each
	// workload's power sample here so the chip-power accumulator
	// reuses it instead of re-evaluating Workload.Power.
	pw [NumCores]float64
	// src[i] is the lowest core index whose workload slot holds the
	// identical (pure) workload value as core i's, or i itself. The
	// engine evaluates loads in core order within a step, all at the
	// same instant, so core i's closure can copy pw[src[i]] instead of
	// re-evaluating the shared waveform — bit-identical by definition.
	// Refreshed from wl at the start of every run.
	src [NumCores]int
	// iq is the current scratch: the quotient p/vnom each source
	// core's closure just computed, reused verbatim by aliased cores
	// so the (bit-identical) division runs once per distinct workload
	// instead of once per core.
	iq [NumCores]float64

	// warm skips a constant-load warmup another run already integrated.
	warm warmStart
}

// NewSession builds a session at nominal voltage (bias 1.0).
func NewSession(cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Session{cfg: cfg, bias: 1.0, idle: Idle(cfg.Core), gains: cfg.CoreGain}
	s.vnom = cfg.PDN.Vnom
	s.uncoreI = cfg.UncorePower / s.vnom

	pdnCfg := cfg.PDN
	pdnCfg.Vnom = s.vnom
	s.circuit, s.nodes = pdn.ZEC12(pdnCfg)
	for i := range s.wl {
		s.wl[i] = s.idle
		s.src[i] = i
		// Loads model devices as nominal-voltage current sinks:
		// I(t) = P(t)/Vnom (the standard linearization for PDN noise
		// analysis). Each closure also parks the power sample in the
		// scratch slice for the chip-power accumulator. Cores sharing a
		// workload value reuse the sample an earlier core took at this
		// same instant (see src).
		i := i
		s.circuit.AddLoad(fmt.Sprintf("core%d", i), s.nodes.Core[i],
			func(t float64) float64 {
				if j := s.src[i]; j != i {
					// The source core (j < i) ran first this step: reuse
					// its power sample and its already-divided current.
					s.pw[i] = s.pw[j]
					return s.iq[j]
				}
				p := s.wl[i].Power(t)
				s.pw[i] = p
				q := p / s.vnom
				s.iq[i] = q
				return q
			})
	}
	s.circuit.AddLoad("uncore", s.nodes.L3, func(float64) float64 { return s.uncoreI })

	tr, err := pdn.NewTransientAt(s.circuit, cfg.Dt, 0)
	if err != nil {
		return nil, err
	}
	s.tr = tr
	if err := s.rebuildMacros(); err != nil {
		return nil, err
	}
	return s, nil
}

// Config returns the session's platform configuration.
func (s *Session) Config() Config { return s.cfg }

// VoltageBias returns the current (quantized) bias.
func (s *Session) VoltageBias() float64 { return s.bias }

// SetVoltageBias retunes the supply setpoint, quantized to the service
// element's 0.5% steps like Platform.SetVoltageBias. Only the fixed
// VRM potential and the macro calibrations move — the factored
// matrices are reused across the whole bias range, because fixed-node
// potentials enter the solve through the RHS only.
func (s *Session) SetVoltageBias(bias float64) error {
	q := math.Round(bias/BiasStep) * BiasStep
	if q < 0.70 || q > 1.10 {
		return fmt.Errorf("core: voltage bias %g outside [0.70, 1.10]", q)
	}
	if q == s.bias {
		return nil
	}
	s.bias = q
	s.vnom = s.cfg.PDN.Vnom * q
	s.uncoreI = s.cfg.UncorePower / s.vnom
	s.circuit.FixNode(s.nodes.VRM, s.vnom)
	return s.rebuildMacros()
}

// CoreGains returns the effective per-core skitter gain multipliers.
func (s *Session) CoreGains() [NumCores]float64 { return s.gains }

// SetCoreGains overrides the per-core skitter gain multipliers —
// the chip-individual process-variation-and-aging state a population
// study retunes per chip — and recalibrates the macros. The circuit
// and its factored matrices are untouched: gains live entirely in the
// sensors, which is what lets chips sharing an electrical configuration
// reuse one pooled session (or one lockstep batch lane) while each
// keeps its own sensitivity. A session built from cfg starts at
// cfg.CoreGain; setting the identical gains is free.
func (s *Session) SetCoreGains(gains [NumCores]float64) error {
	if gains == s.gains {
		return nil
	}
	for i, g := range gains {
		if g <= 0 {
			return fmt.Errorf("core: non-positive gain %g for core %d", g, i)
		}
	}
	s.gains = gains
	return s.rebuildMacros()
}

// refreshAliases recomputes src from the current workload slots. A
// core aliases the lowest earlier core holding the identical workload
// value, unless that core's node is fixed (the engine then skips its
// load, so no sample would be parked to reuse).
func (s *Session) refreshAliases() {
	for i := range s.wl {
		s.src[i] = i
		for j := 0; j < i; j++ {
			if !sameWorkload(s.wl[j], s.wl[i]) {
				continue
			}
			if _, fixed := s.circuit.FixedVoltage(s.nodes.Core[j]); fixed {
				continue
			}
			s.src[i] = j
			break
		}
	}
}

// rebuildMacros constructs the per-core skitter macros with
// process-variation gains, calibrated at the effective supply.
func (s *Session) rebuildMacros() error {
	for i := range s.macros {
		sc := s.cfg.Skitter
		sc.Vnom = s.vnom
		sc.Gain *= s.gains[i]
		m, err := skitter.NewMacro(sc)
		if err != nil {
			return err
		}
		s.macros[i] = m
	}
	return nil
}

// Run executes one measurement window on the session.
func (s *Session) Run(spec RunSpec) (*Measurement, error) {
	return s.RunContext(context.Background(), spec)
}

// ctxCheckSteps is how many integration steps pass between
// cancellation checks (~8 us of simulated time at the default Dt).
const ctxCheckSteps = 4096

// RunContext is Run with cancellation: a canceled context interrupts
// the integration mid-window and returns ctx.Err(). The session
// remains reusable afterwards — the next run re-derives all state.
func (s *Session) RunContext(ctx context.Context, spec RunSpec) (*Measurement, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if spec.Duration <= 0 {
		return nil, fmt.Errorf("core: non-positive measurement duration %g", spec.Duration)
	}
	warmup := spec.Warmup
	if warmup == 0 {
		warmup = DefaultWarmup
	}
	if warmup < 0 {
		return nil, fmt.Errorf("core: negative warmup %g", warmup)
	}
	defer func() {
		// Drop workload references so pooled sessions don't pin them —
		// canceled and failed runs too.
		for i := range s.wl {
			s.wl[i] = s.idle
		}
	}()
	for i := range s.wl {
		if spec.Workloads[i] == nil {
			s.wl[i] = s.idle
		} else {
			s.wl[i] = spec.Workloads[i]
		}
	}
	s.refreshAliases()
	// Warmup settles the PDN — or restores the state a proven-identical
	// warmup ended in.
	t0 := spec.Start - warmup
	s.warm.begin()
	for i := range s.wl {
		if s.src[i] == i {
			s.warm.add(&s.wl[i], i)
		}
	}
	vnom := [1]float64{s.vnom}
	if err := s.warm.warmUp(ctx, s.tr, t0, spec.Start, s.cfg.Dt, vnom[:], s.src[:]); err != nil {
		return nil, err
	}
	for _, m := range s.macros {
		m.Reset()
	}

	meas := &Measurement{Start: spec.Start, Duration: spec.Duration}
	steps := int(math.Round(spec.Duration / s.cfg.Dt))
	if spec.Record {
		for i := range meas.Traces {
			t := signal.NewTrace(s.cfg.Dt, steps+1)
			t.Start = spec.Start
			meas.Traces[i] = t
		}
	}
	for i := range meas.VMin {
		meas.VMin[i] = math.Inf(1)
		meas.VMax[i] = math.Inf(-1)
	}
	energy := 0.0
	observe := func(step int) {
		for i := 0; i < NumCores; i++ {
			v := s.tr.Voltage(s.nodes.Core[i])
			s.macros[i].Sample(v)
			if v < meas.VMin[i] {
				meas.VMin[i] = v
			}
			if v > meas.VMax[i] {
				meas.VMax[i] = v
			}
			if spec.Record {
				meas.Traces[i].Samples[step] = v
			}
		}
	}
	observe(0)
	ctr := 0
	for st := 1; st <= steps; st++ {
		if ctr++; ctr >= ctxCheckSteps {
			ctr = 0
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := s.tr.Step(); err != nil {
			return nil, err
		}
		observe(st)
		// Chip power: devices' draw (cores + uncore) at this instant,
		// from the samples the load closures just took.
		pw := s.cfg.UncorePower
		for i := 0; i < NumCores; i++ {
			pw += s.pw[i]
		}
		energy += pw * s.cfg.Dt
	}
	for i, m := range s.macros {
		meas.P2P[i] = m.PeakToPeakPercent()
		meas.PosMin[i], meas.PosMax[i] = m.PositionRange()
	}
	meas.NominalPos = s.macros[0].Config().NominalPosition()
	meas.ChipPowerMilliwatts = int64(math.Round(energy / spec.Duration * 1000))
	return meas, nil
}

// SessionPool recycles sessions for one platform configuration. It is
// safe for concurrent use; parallel studies Get a session per
// measurement and Put it back when done. Batch sessions are pooled
// alongside, keyed by lane width, so a sweep that packs its points
// into width-B batches pays each width's setup cost once.
type SessionPool struct {
	cfg  Config
	pool sync.Pool

	bmu   sync.Mutex
	batch map[int][]*BatchSession // free batch sessions by lane width

	autoOnce  sync.Once
	autoWidth int

	// Warm starts gathered from returned sessions (see WarmStarts).
	warmRuns, warmSkipped atomic.Int64
}

// NewSessionPool returns an empty pool for the configuration.
func NewSessionPool(cfg Config) *SessionPool {
	return &SessionPool{cfg: cfg}
}

// Get returns a session at the given bias, reusing a pooled one when
// available.
func (sp *SessionPool) Get(bias float64) (*Session, error) {
	s, _ := sp.pool.Get().(*Session)
	if s == nil {
		var err error
		if s, err = NewSession(sp.cfg); err != nil {
			return nil, err
		}
	}
	// A previous borrower may have overridden the sensor gains; restore
	// the configuration's gains so pooled reuse starts from a known
	// state (free when unchanged).
	if err := s.SetCoreGains(sp.cfg.CoreGain); err != nil {
		return nil, err
	}
	if err := s.SetVoltageBias(bias); err != nil {
		return nil, err
	}
	return s, nil
}

// Put returns a session to the pool. The session must not be used
// after Put.
func (sp *SessionPool) Put(s *Session) {
	if s != nil {
		sp.collect(&s.warm)
		sp.pool.Put(s)
	}
}

// WarmStarts reports how many runs on the pool's sessions restored a
// warm-start entry instead of integrating their warmup, and how many
// lane-steps those runs skipped (a width-B batch run skips B per warmup
// step). A session's counts are gathered when it comes back through
// Put or PutBatch, never inside a run.
func (sp *SessionPool) WarmStarts() (runs, laneSteps int64) {
	return sp.warmRuns.Load(), sp.warmSkipped.Load()
}

// collect moves a returned session's warm-start counts to the pool.
func (sp *SessionPool) collect(w *warmStart) {
	if w.hits == 0 {
		return
	}
	sp.warmRuns.Add(w.hits)
	sp.warmSkipped.Add(w.skipped)
	w.hits, w.skipped = 0, 0
}

// GetBatch returns a lockstep batch session of the given lane width
// with every lane retuned to the given bias, reusing a pooled session
// of the same width when available. Callers that need per-lane biases
// follow up with SetLaneBias.
func (sp *SessionPool) GetBatch(bias float64, lanes int) (*BatchSession, error) {
	sp.bmu.Lock()
	var s *BatchSession
	if free := sp.batch[lanes]; len(free) > 0 {
		s = free[len(free)-1]
		sp.batch[lanes] = free[:len(free)-1]
	}
	sp.bmu.Unlock()
	if s == nil {
		var err error
		if s, err = NewBatchSession(sp.cfg, lanes); err != nil {
			return nil, err
		}
	}
	// Restore configuration gains on every lane a previous borrower may
	// have overridden (free for untouched lanes).
	for l := 0; l < lanes; l++ {
		if err := s.SetLaneGains(l, sp.cfg.CoreGain); err != nil {
			return nil, err
		}
	}
	if err := s.SetVoltageBias(bias); err != nil {
		return nil, err
	}
	return s, nil
}

// AutoBatchWidth returns the calibrated lane width studies should use
// when their batch knob asks for auto (batch == 0): the fastest
// per-lane width among the register-blocked step kernels whose
// lockstep working set still fits in cache. The first call probes each
// candidate width with a few hundred idle engine steps on this
// machine; the result is cached for the pool's lifetime and concurrent
// callers share one calibration. Because every lane is bit-identical
// at every width, the choice moves only wall-clock time — a study's
// outputs never depend on what this returns.
func (sp *SessionPool) AutoBatchWidth() int {
	sp.autoOnce.Do(func() { sp.autoWidth = sp.calibrateWidth() })
	return sp.autoWidth
}

// calibrateWidth times the candidate widths and picks the best lane
// throughput, with a small hysteresis so the wider kernel must clearly
// win before it displaces the default: on hosts where the two are
// within noise of each other the narrower width keeps scheduling
// granularity fine and working sets small. Calibration failures fall
// back to the default width.
func (sp *SessionPool) calibrateWidth() int {
	const (
		calSteps    = 256
		cacheBudget = 1 << 20 // past ~1 MiB of lane state, wider widths thrash
		hysteresis  = 0.97    // wider must win by >3% per lane
	)
	best := pdn.DefaultBatchLanes
	bestPerLane := math.Inf(1)
	footprint := 0
	for _, w := range []int{pdn.DefaultBatchLanes, pdn.WideBatchLanes} {
		if footprint > 0 && w*footprint > cacheBudget {
			continue
		}
		s, err := sp.GetBatch(1.0, w)
		if err != nil {
			break
		}
		footprint = s.LaneFootprintBytes()
		if w*footprint > cacheBudget {
			sp.PutBatch(s)
			continue
		}
		specs := make([]RunSpec, w)
		for l := range specs {
			specs[l] = RunSpec{Start: 0, Warmup: sp.cfg.Dt, Duration: calSteps * sp.cfg.Dt}
		}
		perLane := math.Inf(1)
		for rep := 0; rep < 2; rep++ {
			t0 := time.Now()
			if _, err := s.RunBatch(specs); err != nil {
				perLane = math.Inf(1)
				break
			}
			if d := float64(time.Since(t0)) / float64(w); d < perLane {
				perLane = d
			}
		}
		sp.PutBatch(s)
		if perLane < hysteresis*bestPerLane {
			best, bestPerLane = w, perLane
		}
	}
	return best
}

// PutBatch returns a batch session to the pool. The session must not
// be used after PutBatch.
func (sp *SessionPool) PutBatch(s *BatchSession) {
	if s == nil {
		return
	}
	sp.collect(&s.warm)
	sp.bmu.Lock()
	if sp.batch == nil {
		sp.batch = make(map[int][]*BatchSession)
	}
	sp.batch[s.lanes] = append(sp.batch[s.lanes], s)
	sp.bmu.Unlock()
}
