package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"voltnoise/internal/guardband"
	"voltnoise/internal/population"
	"voltnoise/internal/vmin"
)

// AssembleResult rebuilds the final result blob from a complete event
// stream: the hello event supplies the request, the partial events
// supply the study's partials, and the study's fold — the very
// function the runner returns its result from — reduces them. The
// returned bytes are therefore identical to the GET
// /v1/jobs/{id}/result body (and to the ResultHash of the done event)
// at every (workers, batch) setting. Partial order does not matter.
// Streams missing the hello or any partial, or carrying two partials
// that disagree, return an error.
func AssembleResult(events []*Event) ([]byte, error) {
	var hello *Request
	for _, e := range events {
		if e.Type == EventHello && e.Request != nil {
			hello = e.Request
			break
		}
	}
	if hello == nil {
		return nil, fmt.Errorf("service: assembling result: no hello event (replay the stream from seq 0)")
	}
	// The server echoes a normalized request, and normalizing is
	// idempotent; re-validating keeps every table the folds size from
	// the request within the bounds the server would accept.
	req, err := hello.Normalize()
	if err != nil {
		return nil, fmt.Errorf("service: assembling result: %w", err)
	}
	var res any
	switch req.Study {
	case StudyFreqSweep:
		res, err = assemble(req, events, foldFreqSweep)
	case StudyVminWalk:
		res, err = assemble(req, events, foldVminWalk)
	case StudyEPIProfile:
		res, err = assemble(req, events, foldEPIProfile)
	case StudyGuardband:
		res, err = assemble(req, events, foldGuardband)
	case StudyPopulation:
		res, err = assemble(req, events, foldPopulation)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// assemble decodes every partial event's payload as a P and folds
// them.
func assemble[P, R any](req *Request, events []*Event, fold func(*Request, []P) (R, error)) (any, error) {
	var parts []P
	for _, e := range events {
		if e.Type != EventPartial {
			continue
		}
		var p P
		if err := json.Unmarshal(e.Partial, &p); err != nil {
			return nil, fmt.Errorf("service: decoding partial seq %d: %w", e.Seq, err)
		}
		parts = append(parts, p)
	}
	return fold(req, parts)
}

// slots places keyed partial items into a table whose size comes from
// the request, never from the stream: a hostile key costs an error,
// not an allocation. Placing by key makes every fold independent of
// partial order.
type slots[T any] struct {
	what string // "<study> <item>", for errors
	v    []T
	set  []bool
	n    int
}

func newSlots[T any](what string, size int) *slots[T] {
	return &slots[T]{what: what, v: make([]T, size), set: make([]bool, size)}
}

// put stores v under key i. An exact duplicate (same wire encoding) is
// accepted; a different value for a filled key is an error.
func (s *slots[T]) put(i int, v T) error {
	if i < 0 || i >= len(s.v) {
		return fmt.Errorf("service: folding %s %d outside [0, %d)", s.what, i, len(s.v))
	}
	if s.set[i] {
		a, errA := json.Marshal(s.v[i])
		b, errB := json.Marshal(v)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			return fmt.Errorf("service: folding %s %d: conflicting partials", s.what, i)
		}
		return nil
	}
	s.v[i], s.set[i] = v, true
	s.n++
	return nil
}

// full returns the table once every key is filled.
func (s *slots[T]) full() ([]T, error) {
	if s.n != len(s.v) {
		return nil, fmt.Errorf("service: folding %s: stream carries %d of %d", s.what, s.n, len(s.v))
	}
	return s.v, nil
}

// foldFreqSweep places sweep points by Index.
func foldFreqSweep(req *Request, parts []FreqSweepPartial) (*FreqSweepResult, error) {
	p := req.FreqSweep
	pts := newSlots[FreqSweepPoint]("freq_sweep point", p.Points)
	for _, part := range parts {
		for _, ip := range part.Points {
			if err := pts.put(ip.Index, ip.Point); err != nil {
				return nil, err
			}
		}
	}
	points, err := pts.full()
	if err != nil {
		return nil, err
	}
	return &FreqSweepResult{Sync: p.Sync, Events: p.Events, Points: points}, nil
}

// foldVminWalk places bias steps by Step (1-based) and reduces them
// with vmin.Fold, which owns the margin rule and checks the steps
// against the walk's grid. There are never more distinct steps than
// partials, so the table is sized from the stream's length.
func foldVminWalk(req *Request, parts []VminStepPartial) (*VminWalkResult, error) {
	p := req.VminWalk
	placed := newSlots[VminStepPartial]("vmin_walk step", len(parts))
	for _, s := range parts {
		if err := placed.put(s.Step-1, s); err != nil {
			return nil, err
		}
	}
	steps := make([]vmin.StepEvent, placed.n)
	for i := range steps {
		if !placed.set[i] {
			return nil, fmt.Errorf("service: folding vmin_walk: step %d missing", i+1)
		}
		steps[i] = vmin.StepEvent{Bias: placed.v[i].Bias, MinV: placed.v[i].MinV}
	}
	r, err := vmin.Fold(p.config(0, 0), steps)
	if err != nil {
		return nil, fmt.Errorf("service: folding vmin_walk: %w", err)
	}
	return &VminWalkResult{FreqHz: p.FreqHz, Events: p.Events, Failed: r.Failed, MarginPercent: r.MarginPercent}, nil
}

// foldEPIProfile places entries by table position inside the profiled
// instruction table, then ranks exactly as the profiler does: stable
// sort by descending power (ties keep table order), relative power
// normalized to the profile minimum.
func foldEPIProfile(req *Request, parts []EPIProfilePartial) (*EPIProfileResult, error) {
	p := req.EPIProfile
	placed := newSlots[EPIPartialEntry]("epi_profile instruction", len(p.config(0, 0).Table.Instructions()))
	for _, part := range parts {
		if part.End-part.Start != len(part.Entries) {
			return nil, fmt.Errorf("service: folding epi_profile: chunk [%d, %d) carries %d entries", part.Start, part.End, len(part.Entries))
		}
		for i, e := range part.Entries {
			if err := placed.put(part.Start+i, e); err != nil {
				return nil, err
			}
		}
	}
	entries, err := placed.full()
	if err != nil {
		return nil, err
	}
	total := len(entries)
	order := make([]int, total)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return entries[order[a]].PowerWatts > entries[order[b]].PowerWatts
	})
	lowest := entries[order[total-1]].PowerWatts
	entry := func(rank, idx int) EPIEntry {
		e := entries[idx]
		return EPIEntry{
			Rank:       rank,
			Mnemonic:   e.Mnemonic,
			Unit:       e.Unit,
			PowerWatts: e.PowerWatts,
			RelPower:   e.PowerWatts / lowest,
			IPC:        e.IPC,
		}
	}
	topN := min(p.TopN, total)
	res := &EPIProfileResult{Total: total}
	for i := 0; i < topN; i++ {
		res.Top = append(res.Top, entry(i+1, order[i]))
	}
	for i := 0; i < topN; i++ {
		res.Bottom = append(res.Bottom, entry(total-topN+i+1, order[total-topN+i]))
	}
	return res, nil
}

// foldGuardband builds the margin table from the one droop vector,
// reads the controller's setpoint at every active-core count and
// replays the request's utilization trace against it.
func foldGuardband(req *Request, parts []GuardbandPartial) (*GuardbandResult, error) {
	p := req.Guardband
	placed := newSlots[GuardbandPartial]("guardband droop vector", 1)
	for _, part := range parts {
		if err := placed.put(0, part); err != nil {
			return nil, err
		}
	}
	droops, err := placed.full()
	if err != nil {
		return nil, err
	}
	table, err := guardband.FromDroops(droops[0].Droops, p.SafetyPercent)
	if err != nil {
		return nil, err
	}
	ctrl, err := guardband.NewController(table)
	if err != nil {
		return nil, err
	}
	res := &GuardbandResult{MarginPercent: table.MarginPercent}
	for n := range res.Bias {
		if res.Bias[n], err = ctrl.SetActiveCores(n); err != nil {
			return nil, err
		}
	}
	trace := make([]guardband.UtilizationPhase, len(p.Trace))
	for i, ph := range p.Trace {
		trace[i] = guardband.UtilizationPhase{ActiveCores: ph.ActiveCores, Duration: ph.DurationS}
	}
	s, err := guardband.Replay(ctrl, trace)
	if err != nil {
		return nil, err
	}
	res.MeanBias = s.MeanBias
	res.EnergySavedPercent = s.EnergySavedPercent
	res.TotalTimeS = s.TotalTime
	return res, nil
}

// foldPopulation places chip summaries by Chip and reduces them with
// the library fold on the configuration the runner builds.
// BatchedChunks is schedule-dependent but excluded from the canonical
// JSON, so the bytes match at every setting.
func foldPopulation(req *Request, parts []PopulationPartial) (*PopulationResult, error) {
	p := req.Population
	placed := newSlots[population.ChipSummary]("population chip", p.Chips)
	for _, part := range parts {
		for _, cs := range part.Chips {
			if err := placed.put(cs.Chip, cs); err != nil {
				return nil, err
			}
		}
	}
	summaries, err := placed.full()
	if err != nil {
		return nil, err
	}
	return population.Fold(p.config(0, 0), summaries), nil
}
