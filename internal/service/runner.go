package service

import (
	"context"
	"fmt"
	"sync"

	"voltnoise/internal/core"
	"voltnoise/internal/epi"
	"voltnoise/internal/noise"
	"voltnoise/internal/pdn"
	"voltnoise/internal/population"
	"voltnoise/internal/progress"
	"voltnoise/internal/stressmark"
	"voltnoise/internal/vmin"
)

// Runner executes a normalized request and returns the study payload
// (one of the *Result types). Implementations must be safe for
// concurrent use and deterministic: the same normalized request must
// always produce a payload that marshals to the same bytes.
type Runner interface {
	Run(ctx context.Context, req *Request) (any, error)
}

// RunnerFunc adapts a function to the Runner interface.
type RunnerFunc func(ctx context.Context, req *Request) (any, error)

// Run implements Runner.
func (f RunnerFunc) Run(ctx context.Context, req *Request) (any, error) { return f(ctx, req) }

// LabRunner is the production Runner: it lazily builds one
// characterization lab per search class (quick / full) on the
// calibrated platform and runs every study against it. Labs are
// expensive to construct (the stressmark search) and read-only once
// built, so they are shared by all concurrent jobs; each study run
// clones the platform per measurement (the same discipline the
// parallel studies already follow).
type LabRunner struct {
	mu   sync.Mutex
	labs map[bool]*noise.Lab // keyed by Quick
}

// NewLabRunner returns a runner on the calibrated default platform.
func NewLabRunner() *LabRunner {
	return &LabRunner{labs: make(map[bool]*noise.Lab)}
}

// searchConfig selects the facade's default or quick search preset.
func searchConfig(quick bool) stressmark.SearchConfig {
	if quick {
		return stressmark.QuickSearchConfig()
	}
	return stressmark.DefaultSearchConfig()
}

// lab returns the shared lab for the search class, building it on
// first use.
func (r *LabRunner) lab(quick bool) (*noise.Lab, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if l, ok := r.labs[quick]; ok {
		return l, nil
	}
	plat, err := core.New(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	l, err := noise.New(plat, noise.WithSearch(searchConfig(quick)))
	if err != nil {
		return nil, err
	}
	r.labs[quick] = l
	return l, nil
}

// jobLab returns a shallow per-job copy of the shared lab with the
// request's scheduling knobs applied, so concurrent jobs never race
// on the Workers/Batch fields.
func (r *LabRunner) jobLab(req *Request) (*noise.Lab, error) {
	shared, err := r.lab(req.Quick)
	if err != nil {
		return nil, err
	}
	l := *shared
	l.Workers = req.Workers
	l.Batch = req.Batch
	return &l, nil
}

// Run implements Runner for every supported study.
func (r *LabRunner) Run(ctx context.Context, req *Request) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch req.Study {
	case StudyFreqSweep:
		return r.runFreqSweep(ctx, req)
	case StudyVminWalk:
		return r.runVminWalk(ctx, req)
	case StudyEPIProfile:
		return runEPIProfile(ctx, req)
	case StudyGuardband:
		return r.runGuardband(ctx, req)
	case StudyPopulation:
		return runPopulation(ctx, req)
	default:
		return nil, fmt.Errorf("service: unknown study %q", req.Study)
	}
}

// partialSink returns a study's partial builder: it converts each
// library progress payload of type L (noise.ChunkResult,
// vmin.StepEvent, …) into the study's wire partial, appends the
// partial to *parts and forwards it to the job's stream sink when the
// context carries one. Every runner returns its study's fold over
// exactly *parts, so the result blob and the stream-assembled result
// come from the same partials and the same code.
func partialSink[L, P any](ctx context.Context, parts *[]P, build func(e progress.Event, l L) P) progress.Sink {
	stream := progress.FromContext(ctx)
	return func(e progress.Event) {
		l, ok := e.Payload.(L)
		if !ok {
			return
		}
		p := build(e, l)
		*parts = append(*parts, p)
		e.Payload = p
		stream.Emit(e)
	}
}

func (r *LabRunner) runFreqSweep(ctx context.Context, req *Request) (any, error) {
	p := req.FreqSweep
	l, err := r.jobLab(req)
	if err != nil {
		return nil, err
	}
	freqs := pdn.LogSpace(p.LoHz, p.HiHz, p.Points)
	var parts []FreqSweepPartial
	l.Progress = partialSink(ctx, &parts, func(_ progress.Event, cr noise.ChunkResult) FreqSweepPartial {
		part := FreqSweepPartial{Points: make([]IndexedFreqPoint, len(cr.Jobs))}
		for k, ji := range cr.Jobs {
			pt := noise.FreqPoint{Freq: freqs[ji], P2P: cr.Measurements[k].P2P}
			part.Points[k] = IndexedFreqPoint{Index: ji, Point: FreqSweepPoint{
				FreqHz: pt.Freq,
				P2P:    append([]float64(nil), pt.P2P[:]...),
				Worst:  pt.Worst(),
			}}
		}
		return part
	})
	if _, err := l.FrequencySweep(ctx, freqs, p.Sync, p.Events); err != nil {
		return nil, err
	}
	return foldFreqSweep(req, parts)
}

func (r *LabRunner) runVminWalk(ctx context.Context, req *Request) (any, error) {
	p := req.VminWalk
	l, err := r.jobLab(req)
	if err != nil {
		return nil, err
	}
	var parts []VminStepPartial
	vcfg := p.config(req.Workers, req.Batch)
	vcfg.Progress = partialSink(ctx, &parts, func(e progress.Event, se vmin.StepEvent) VminStepPartial {
		return VminStepPartial{Step: e.Done, Bias: se.Bias, MinV: se.MinV}
	})
	if _, err := l.ConsecutiveEventStudy(ctx, []float64{p.FreqHz}, []int{p.Events}, vcfg); err != nil {
		return nil, err
	}
	return foldVminWalk(req, parts)
}

func runEPIProfile(ctx context.Context, req *Request) (any, error) {
	var parts []EPIProfilePartial
	cfg := req.EPIProfile.config(req.Workers, req.Batch)
	cfg.Progress = partialSink(ctx, &parts, func(_ progress.Event, ce epi.ChunkEntries) EPIProfilePartial {
		part := EPIProfilePartial{Start: ce.Start, End: ce.End, Entries: make([]EPIPartialEntry, len(ce.Entries))}
		for i, en := range ce.Entries {
			part.Entries[i] = EPIPartialEntry{
				Mnemonic:   en.Instr.Mnemonic,
				Unit:       en.Instr.Unit.String(),
				PowerWatts: en.PowerWatts,
				IPC:        en.IPC,
			}
		}
		return part
	})
	if _, err := epi.Generate(ctx, cfg); err != nil {
		return nil, err
	}
	return foldEPIProfile(req, parts)
}

// runPopulation needs no lab (there is no stressmark search — the ΔI
// stimulus is the C-state exit itself), so it runs straight against
// the population engine. Every platform it builds is per-request and
// dropped afterwards: fleets are parameterized too widely to share
// lab-style state across jobs.
func runPopulation(ctx context.Context, req *Request) (any, error) {
	var parts []PopulationPartial
	cfg := req.Population.config(req.Workers, req.Batch)
	cfg.Progress = partialSink(ctx, &parts, func(_ progress.Event, chips []population.ChipSummary) PopulationPartial {
		return PopulationPartial{Chips: chips}
	})
	if _, err := population.Run(ctx, cfg); err != nil {
		return nil, err
	}
	return foldPopulation(req, parts)
}

// runGuardband streams its one partial, the droop vector: the
// request's when given, else the worst droop per active-core count of
// a mapping study.
func (r *LabRunner) runGuardband(ctx context.Context, req *Request) (any, error) {
	p := req.Guardband
	var part GuardbandPartial
	if len(p.Droops) > 0 {
		copy(part.Droops[:], p.Droops)
	} else {
		l, err := r.jobLab(req)
		if err != nil {
			return nil, err
		}
		runs, err := l.MappingStudy(ctx, p.FreqHz, p.Events, false)
		if err != nil {
			return nil, err
		}
		vnom := l.Platform.NominalVoltage()
		for _, run := range runs {
			n := run.ActiveCores()
			if pct := (vnom - run.MinVoltage) / vnom * 100; pct > part.Droops[n] {
				part.Droops[n] = pct
			}
		}
	}
	progress.FromContext(ctx).Emit(progress.Event{Done: 1, Total: 1, Payload: part})
	return foldGuardband(req, []GuardbandPartial{part})
}
