package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"voltnoise/internal/core"
	"voltnoise/internal/epi"
	"voltnoise/internal/noise"
	"voltnoise/internal/pdn"
	"voltnoise/internal/population"
	"voltnoise/internal/progress"
	"voltnoise/internal/service"
	"voltnoise/internal/service/journal"
	"voltnoise/internal/skitter"
	"voltnoise/internal/stressmark"
	"voltnoise/internal/tod"
	"voltnoise/internal/vmin"
)

// Layer probes time calls into each module's public functions, from
// outside the program, with inputs drawn from the workload's seeded
// requests. Each repeats a fixed amount of work and reports the median
// of its repetitions.

const probeReps = 5

// medianOf runs fn reps times and returns the median of its results.
func medianOf(reps int, fn func() (float64, error)) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		x, err := fn()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// hostRefLoop is the host drift witness: a fixed pure-Go loop that
// calls no repository code. It returns ns per iteration.
func hostRefLoop() float64 {
	const iters = 4_000_000
	x, acc := uint64(88172645463325252), 0.0
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc = acc*0.999 + float64(x>>40)
	}
	d := time.Since(t0)
	if acc < 0 { // never true; keeps the loop from being removed
		fmt.Fprintln(os.Stderr, acc)
	}
	return float64(d) / iters
}

// newProbeLab builds a quick-search lab like the service's.
func newProbeLab() (*noise.Lab, error) {
	plat, err := core.New(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return noise.New(plat, noise.WithSearch(stressmark.QuickSearchConfig()))
}

// resonantCircuit builds the zEC12 network with one square-wave load
// per core at the ~2 MHz first-droop resonance; *lane selects the lane
// whose loads are evaluated (each lane runs a slightly detuned wave).
func resonantCircuit(cfg core.Config) (*pdn.Circuit, *int) {
	ckt, nodes := pdn.ZEC12(cfg.PDN)
	lane := new(int)
	for i, n := range nodes.Core {
		amps := 8 + float64(i)
		ckt.AddLoad(fmt.Sprintf("core%d", i), n, func(t float64) float64 {
			f := 2e6 * (1 + 0.01*float64(*lane))
			if _, frac := math.Modf(t * f); frac < 0.5 {
				return amps * 2.5
			}
			return amps
		})
	}
	return ckt, lane
}

// probePDN times the transient engines' constructors (plan, ordering,
// LU) and one step at lane widths 1, 4, 8 and 16.
func probePDN(m map[string]float64) error {
	cfg := core.DefaultConfig()
	ckt, lane := resonantCircuit(cfg)
	onLane := func(l int) { *lane = l }
	var err error
	if m["pdn.build_us.w1"], err = medianOf(probeReps, func() (float64, error) {
		t0 := time.Now()
		_, err := pdn.NewTransient(ckt, cfg.Dt)
		return float64(time.Since(t0)) / 1e3, err
	}); err != nil {
		return err
	}
	if m["pdn.build_us.w16"], err = medianOf(probeReps, func() (float64, error) {
		t0 := time.Now()
		_, err := pdn.NewBatchTransient(ckt, cfg.Dt, 16, onLane)
		return float64(time.Since(t0)) / 1e3, err
	}); err != nil {
		return err
	}
	tr, err := pdn.NewTransient(ckt, cfg.Dt)
	if err != nil {
		return err
	}
	const steps = 20000
	if m["pdn.step_ns.w1"], err = medianOf(probeReps, func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			if err := tr.Step(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)) / steps, nil
	}); err != nil {
		return err
	}
	for _, w := range []int{4, 8, 16} {
		bt, err := pdn.NewBatchTransient(ckt, cfg.Dt, w, onLane)
		if err != nil {
			return err
		}
		n := steps / w
		if m[fmt.Sprintf("pdn.step_ns_per_lane.w%d", w)], err = medianOf(probeReps, func() (float64, error) {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := bt.Step(); err != nil {
					return 0, err
				}
			}
			return float64(time.Since(t0)) / float64(n*w), nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// probeStart and probeWindow place the core and skitter probes' window
// around a synchronized burst, as a sweep point's window is.
const (
	probeStart  = -10e-6
	probeWindow = 100e-6
)

// windowSteps is the engine steps a run of the given warmup and
// duration takes (warmup 0 selects core.DefaultWarmup).
func windowSteps(dt, warmup, dur float64) float64 {
	if warmup == 0 {
		warmup = core.DefaultWarmup
	}
	return math.Round(warmup/dt) + math.Round(dur/dt)
}

// syncWorkloads instantiates the lab's maximum stressmark at f as
// TOD-synchronized bursts of 1000 events (fewer where the sync period
// cannot hold them), the workloads of a synchronized sweep point.
func syncWorkloads(lab *noise.Lab, f float64) ([core.NumCores]core.Workload, error) {
	spec := lab.MaxSpec(f)
	cond := tod.DefaultSync()
	spec.Sync = &cond
	spec.Events = min(1000, max(1, int(cond.Period()*0.9*f)))
	return stressmark.SyncWorkloads(spec, lab.Platform.Config().Core, lab.Search.Table, nil)
}

// probeCore times Session.RunContext (one lane) and
// BatchSession.RunBatchContext at the calibrated width, once with
// distinct-frequency lanes (a sweep chunk) and once with every lane
// sharing one workload at per-lane biases (a Vmin chunk), plus the
// skitter sample over the recorded resonant droop trace of the
// single-lane run. Workloads are synchronized maximum stressmarks, as
// in the sweeps.
func probeCore(ctx context.Context, lab *noise.Lab, width int, m map[string]float64) error {
	cfg := lab.Platform.Config()
	res, err := syncWorkloads(lab, 2e6)
	if err != nil {
		return err
	}
	steps := windowSteps(cfg.Dt, 0, probeWindow)
	s, err := core.NewSession(cfg)
	if err != nil {
		return err
	}
	rec, err := s.RunContext(ctx, core.RunSpec{Workloads: res, Start: probeStart, Duration: probeWindow, Record: true})
	if err != nil {
		return err
	}
	trace := rec.Traces[2].Samples // core 2: the noisiest sensor
	if m["core.run_ns_per_lane_step.w1"], err = medianOf(probeReps, func() (float64, error) {
		t0 := time.Now()
		if _, err := s.RunContext(ctx, core.RunSpec{Workloads: res, Start: probeStart, Duration: probeWindow}); err != nil {
			return 0, err
		}
		return float64(time.Since(t0)) / steps, nil
	}); err != nil {
		return err
	}

	sc := cfg.Skitter
	sc.Gain *= cfg.CoreGain[2]
	mac, err := skitter.NewMacro(sc)
	if err != nil {
		return err
	}
	if m["skitter.sample_ns"], err = medianOf(probeReps, func() (float64, error) {
		const passes = 10
		t0 := time.Now()
		for p := 0; p < passes; p++ {
			mac.Reset()
			for _, v := range trace {
				mac.Sample(v)
			}
		}
		return float64(time.Since(t0)) / float64(passes*len(trace)), nil
	}); err != nil {
		return err
	}

	bs, err := core.NewBatchSession(cfg, width)
	if err != nil {
		return err
	}
	distinct := make([]core.RunSpec, width)
	for l, f := range pdn.LogSpace(2e5, 5e6, width) {
		wl, err := syncWorkloads(lab, f)
		if err != nil {
			return err
		}
		distinct[l] = core.RunSpec{Workloads: wl, Start: probeStart, Duration: probeWindow}
	}
	shared := make([]core.RunSpec, width)
	for l := range shared {
		shared[l] = core.RunSpec{Workloads: res, Start: probeStart, Duration: probeWindow}
	}
	runBatch := func(specs []core.RunSpec) (float64, error) {
		return medianOf(3, func() (float64, error) {
			t0 := time.Now()
			if _, err := bs.RunBatchContext(ctx, specs); err != nil {
				return 0, err
			}
			return float64(time.Since(t0)) / (steps * float64(width)), nil
		})
	}
	if m["core.run_ns_per_lane_step.batched"], err = runBatch(distinct); err != nil {
		return err
	}
	for l := 0; l < width; l++ {
		if err := bs.SetLaneBias(l, 1-0.005*float64(l)); err != nil {
			return err
		}
	}
	m["core.run_ns_per_lane_step.shared"], err = runBatch(shared)
	return err
}

// reconciliation is one "run = lane-steps × step cost + overhead" line.
type reconciliation struct {
	study     string
	runMs     float64
	laneSteps float64
	stepNs    float64
	stepName  string
}

func (r reconciliation) overheadMs() float64 { return r.runMs - r.laneSteps*r.stepNs/1e6 }

func (r reconciliation) String() string {
	return fmt.Sprintf("reconcile %s: run_ms %.1f = %.4g lane-steps (computed: window / Dt x lanes) x %.1f ns (%s) + %.1f ms overhead",
		r.study, r.runMs, r.laneSteps, r.stepNs, r.stepName, r.overheadMs())
}

// probeNoise runs the workload's sweep directly through
// noise.Lab.FrequencySweep on one worker, counting lane-steps from the
// core.Measurements its progress sink emits.
func probeNoise(ctx context.Context, lab *noise.Lab, req *service.Request, m map[string]float64) (reconciliation, error) {
	p := req.FreqSweep
	l := *lab
	l.Workers = 1
	l.Batch = req.Batch
	dt := l.Platform.Config().Dt
	laneSteps := 0.0
	l.Progress = func(e progress.Event) {
		cr, ok := e.Payload.(noise.ChunkResult)
		if !ok {
			return
		}
		longest := 0.0
		for _, meas := range cr.Measurements {
			longest = max(longest, meas.Duration)
		}
		laneSteps += float64(len(cr.Measurements)) * windowSteps(dt, 0, longest)
	}
	t0 := time.Now()
	if _, err := l.FrequencySweep(ctx, pdn.LogSpace(p.LoHz, p.HiHz, p.Points), p.Sync, p.Events); err != nil {
		return reconciliation{}, err
	}
	runMs := float64(time.Since(t0)) / 1e6
	r := reconciliation{study: "noise.FrequencySweep", runMs: runMs, laneSteps: laneSteps,
		stepNs: m["core.run_ns_per_lane_step.batched"], stepName: "core.run_ns_per_lane_step.batched"}
	if req.Batch == 1 {
		r.stepNs, r.stepName = m["core.run_ns_per_lane_step.w1"], "core.run_ns_per_lane_step.w1"
	}
	m["noise.run_ms_per_point"] = runMs / float64(p.Points)
	m["noise.ns_per_lane_step"] = runMs * 1e6 / laneSteps
	m["noise.overhead_ms"] = r.overheadMs()
	return r, nil
}

// probeVmin runs a Vmin walk through noise.Lab.ConsecutiveEventStudy on
// one worker at the calibrated width. A serial walk simulates whole
// chunks up to the failing step, so the lanes simulated are computed
// as the reduced steps rounded up to whole chunks.
func probeVmin(ctx context.Context, lab *noise.Lab, req *service.Request, width int, m map[string]float64) error {
	p := req.VminWalk
	vcfg := vmin.DefaultConfig()
	vcfg.FailVoltage = p.FailVoltage
	vcfg.MinBias = p.MinBias
	vcfg.Workers = 1
	steps := 0
	vcfg.Progress = func(progress.Event) { steps++ }
	l := *lab
	l.Workers = 1
	t0 := time.Now()
	if _, err := l.ConsecutiveEventStudy(ctx, []float64{p.FreqHz}, []int{p.Events}, vcfg); err != nil {
		return err
	}
	m["vmin.walk_ms"] = float64(time.Since(t0)) / 1e6
	simulated := math.Ceil(float64(steps)/float64(width)) * float64(width)
	m["vmin.useful_lane_frac"] = float64(steps) / simulated
	return nil
}

// probePopulation runs the probe population directly through
// population.Run on one worker, counting lanes per chunk from its
// progress sink.
func probePopulation(ctx context.Context, req *service.Request, width int, m map[string]float64) (reconciliation, error) {
	p := req.Population
	cfg := population.Config{
		Base: core.DefaultConfig(), Chips: p.Chips, AgeYears: p.AgeYears, TechNode: p.TechNode,
		DecapScale: p.DecapScale, ExitHz: p.ExitHz, WarmupS: p.WarmupS, Seed: p.Seed,
		RLCBins: p.RLCBins, SafetyPercent: p.SafetyPercent, Workers: 1,
	}
	copy(cfg.Mix[:], p.Mix)
	perChip := windowSteps(cfg.Base.Dt, cfg.WarmupS, 2/cfg.ExitHz)
	batchedChips, singleChips := 0, 0
	cfg.Progress = func(e progress.Event) {
		chips, ok := e.Payload.([]population.ChipSummary)
		if !ok {
			return
		}
		if len(chips) > 1 {
			batchedChips += len(chips)
		} else {
			singleChips += len(chips)
		}
	}
	t0 := time.Now()
	if _, err := population.Run(ctx, cfg); err != nil {
		return reconciliation{}, err
	}
	runMs := float64(time.Since(t0)) / 1e6
	m["population.chip_us"] = runMs * 1e3 / float64(p.Chips)
	m["population.batched_chip_frac"] = float64(batchedChips) / float64(p.Chips)

	// The chips' own step cost: C-state exit lanes at the population's exit
	// rate and window, on the batched and the single-lane engine (a bin
	// with one chip left over runs single-lane).
	lane := func(l int) core.RunSpec {
		var wl [core.NumCores]core.Workload
		for i := range wl {
			wl[i] = population.CState{PSleep: 2, PActive: 20 + float64(l+i), Period: 1 / cfg.ExitHz, SleepFrac: 0.5}
		}
		return core.RunSpec{Workloads: wl, Warmup: cfg.WarmupS, Duration: 2 / cfg.ExitHz}
	}
	specs := make([]core.RunSpec, width)
	for l := range specs {
		specs[l] = lane(l)
	}
	bs, err := core.NewBatchSession(cfg.Base, width)
	if err != nil {
		return reconciliation{}, err
	}
	s, err := core.NewSession(cfg.Base)
	if err != nil {
		return reconciliation{}, err
	}
	batchedNs, err := medianOf(3, func() (float64, error) {
		t0 := time.Now()
		_, err := bs.RunBatchContext(ctx, specs)
		return float64(time.Since(t0)) / (perChip * float64(width)), err
	})
	if err != nil {
		return reconciliation{}, err
	}
	singleNs, err := medianOf(3, func() (float64, error) {
		t0 := time.Now()
		_, err := s.RunContext(ctx, specs[0])
		return float64(time.Since(t0)) / perChip, err
	})
	if err != nil {
		return reconciliation{}, err
	}
	batchedSteps := float64(batchedChips) * perChip
	singleSteps := float64(singleChips) * perChip
	return reconciliation{study: "population.Run", runMs: runMs, laneSteps: batchedSteps + singleSteps,
		stepNs:   (batchedSteps*batchedNs + singleSteps*singleNs) / (batchedSteps + singleSteps),
		stepName: fmt.Sprintf("C-state lanes: %.1f ns at width %d, %.1f ns single-lane", batchedNs, width, singleNs)}, nil
}

// probeEPI profiles the ISA through epi.Generate on one worker. The
// cycle rate is computed from the requested cycles per instruction.
func probeEPI(ctx context.Context, req *service.Request, m map[string]float64) error {
	p := req.EPIProfile
	cfg := epi.DefaultConfig()
	cfg.MeasureCycles = p.MeasureCycles
	cfg.WarmupCycles = p.WarmupCycles
	cfg.Workers = 1
	t0 := time.Now()
	prof, err := epi.Generate(ctx, cfg)
	if err != nil {
		return err
	}
	d := time.Since(t0)
	n := float64(len(prof.Entries))
	m["epi.instr_us"] = float64(d) / 1e3 / n
	m["uarch.cycles_per_s"] = n * float64(p.MeasureCycles+p.WarmupCycles) / d.Seconds()
	return nil
}

// probeHash times the server's acceptance arithmetic: Normalize then
// Hash, over the given requests.
func probeHash(reqs []*service.Request, m map[string]float64) error {
	const reps = 200
	var err error
	m["service.hash_us"], err = medianOf(probeReps, func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			n, err := reqs[i%len(reqs)].Normalize()
			if err != nil {
				return 0, err
			}
			if _, err := n.Hash(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)) / 1e3 / reps, nil
	})
	return err
}

// probeJournal times journal.Accept (an fsynced append) of the
// workload's requests in a scratch journal.
func probeJournal(dir string, reqs []*service.Request, m map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := journal.Open(filepath.Join(dir, "journal.wal"))
	if err != nil {
		return err
	}
	defer j.Close()
	xs := make([]float64, 0, 40)
	for i := 0; i < cap(xs); i++ {
		req := reqs[i%len(reqs)]
		raw, err := json.Marshal(req)
		if err != nil {
			return err
		}
		h, err := req.Hash()
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := j.Accept(fmt.Sprintf("p-%06d", i), h, raw); err != nil {
			return err
		}
		xs = append(xs, float64(time.Since(t0))/1e3)
	}
	m["journal.accept_us"] = median(xs)
	return nil
}

// probeSetupLayers times the two set-up layers: the quick stressmark
// search and a fresh session pool's width calibration.
func probeSetupLayers(m map[string]float64) error {
	var err error
	if m["stressmark.search_ms"], err = medianOf(3, func() (float64, error) {
		t0 := time.Now()
		_, err := stressmark.FindMaxPowerSequence(stressmark.QuickSearchConfig())
		return float64(time.Since(t0)) / 1e6, err
	}); err != nil {
		return err
	}
	m["core.calibrate_ms"], err = medianOf(3, func() (float64, error) {
		t0 := time.Now()
		core.NewSessionPool(core.DefaultConfig()).AutoBatchWidth()
		return float64(time.Since(t0)) / 1e6, nil
	})
	return err
}
