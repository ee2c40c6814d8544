package pdn

import "fmt"

// State is a snapshot of what stepping changes in an engine: the node
// potentials, the companion history sources, the simulation time and
// the step count. Everything else an engine integrates with — the
// factored matrices, the step plan and its fixed-node contributions,
// the load list — is derived from the circuit, the timestep and the
// supplies, and Reset re-derives it.
//
// A State lets a caller that can prove two runs integrate the same
// prefix (same circuit, timestep and supplies, same load currents at
// every instant from the same start) pay for that prefix once: Reset
// the engine to the prefix's start, then RestoreState a snapshot
// SaveState took at the prefix's end, and the engine continues exactly
// as if it had stepped there. SaveState reuses the snapshot's buffers,
// so a snapshot refreshed run after run allocates only once.
type State struct {
	pots, hist []float64
	time       float64
	step       int
}

func (s *State) save(pots, hist []float64, time float64, step int) {
	s.pots = append(s.pots[:0], pots...)
	s.hist = append(s.hist[:0], hist...)
	s.time, s.step = time, step
}

func (s *State) restore(pots, hist []float64) (time float64, step int, err error) {
	if len(s.pots) != len(pots) || len(s.hist) != len(hist) {
		return 0, 0, fmt.Errorf("pdn: state of %d potentials and %d history sources does not fit an engine with %d and %d",
			len(s.pots), len(s.hist), len(pots), len(hist))
	}
	copy(pots, s.pots)
	copy(hist, s.hist)
	return s.time, s.step, nil
}

// SaveState copies the engine's integration state into st.
func (t *Transient) SaveState(st *State) { st.save(t.pots, t.hist, t.time, t.step) }

// RestoreState sets the engine's integration state to st. Call it
// right after a Reset to the start of the run st was saved from, under
// the same supplies: it replaces what the steps since then would have
// changed and nothing Reset derives. It fails, leaving the engine
// untouched, on a snapshot from an engine of another shape.
func (t *Transient) RestoreState(st *State) error {
	tm, step, err := st.restore(t.pots, t.hist)
	if err != nil {
		return err
	}
	t.time, t.step = tm, step
	return nil
}

// SaveState copies every lane's integration state into st.
func (t *BatchTransient) SaveState(st *State) { st.save(t.pots, t.hist, t.time, t.step) }

// RestoreState sets every lane's integration state to st, under the
// same contract as Transient.RestoreState: right after a Reset to the
// start of the run st was saved from, with each lane at the supplies
// it had then.
func (t *BatchTransient) RestoreState(st *State) error {
	tm, step, err := st.restore(t.pots, t.hist)
	if err != nil {
		return err
	}
	t.time, t.step = tm, step
	return nil
}
