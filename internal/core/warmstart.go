package core

import (
	"context"
	"math"

	"voltnoise/internal/pdn"
)

// warmStart is a session's one-entry warm-start memo. A run's warmup
// integrates the PDN from the DC point at t0 = Start − Warmup up to
// Start. When every load is constant over it — a synchronized
// stressmark spins at one power until its sync match, so every point
// of a synchronized sweep shares the same warmup — the state it ends
// in depends only on t0, Start, the lane supplies and the constant
// powers. The memo keeps the engine state one such warmup ended in,
// with that key, and a later run proven to repeat the same computation
// restores it instead of stepping.
//
// The proof is a scan. Every distinct workload is sampled at t0 and
// then at every step instant of the warmup, with the step loop's own
// time arithmetic (next = t + Dt while t < Start − Dt/2), and each
// sample must be bit-equal to the workload's t0 sample (so a NaN never
// matches). The scan stops at the first instant where any sample
// differs, after sampling every workload there. Its samples are the
// run's samples: while the engine integrates the scanned instants it
// reads them through held stand-ins, so each workload is evaluated at
// most once per instant per run, hit or miss. That is also why
// Workload.Power must be a pure function of t.
//
// Skitter gains and windows stay out of the key: the macros reset at
// Start and see nothing of the warmup.
type warmStart struct {
	// The run's distinct workloads: refs[d] is where the engine reads
	// workload d from, slot[d] the (lane-major) core slot it feeds and
	// real[d] the workload itself, put back once the engine is past the
	// scanned instants.
	refs []*Workload
	slot []int
	real []Workload
	// held[d] is the stand-in installed in refs[d] while the engine
	// integrates scanned instants; last[d] is workload d's sample at
	// the first differing instant.
	held []heldPower
	last []float64
	// steps counts the warmup's step instants when the scan found every
	// load constant (stop == 0); otherwise stop is the first instant
	// (1-based) whose samples differ from t0's.
	steps, stop int

	key   []float64 // this run's key, when stop == 0
	entry []float64 // the key state was computed from
	saved bool
	state pdn.State

	// Warm starts and lane-steps skipped since the pool last collected
	// them (see SessionPool.WarmStarts).
	hits, skipped int64
}

// heldPower is a stand-in workload replaying a sample the scan took.
type heldPower struct{ p float64 }

func (h *heldPower) Power(float64) float64 { return h.p }
func (h *heldPower) Name() string          { return "held" }

// warmEngine is the integration surface the warmup drives: a
// pdn.Transient or a pdn.BatchTransient.
type warmEngine interface {
	Reset(start float64) error
	Step() error
	Time() float64
	SaveState(*pdn.State)
	RestoreState(*pdn.State) error
}

// begin starts a run with no distinct workloads.
func (w *warmStart) begin() {
	w.refs, w.slot, w.real = w.refs[:0], w.slot[:0], w.real[:0]
}

// add registers a distinct workload: the engine reads it from *from
// and it feeds core slot slot.
func (w *warmStart) add(from *Workload, slot int) {
	w.refs = append(w.refs, from)
	w.slot = append(w.slot, slot)
	w.real = append(w.real, *from)
}

// scan samples every registered workload at t0 and at each warmup step
// instant up to the first that differs, and reports whether none did.
func (w *warmStart) scan(t0, start, dt float64) bool {
	n := len(w.real)
	if cap(w.held) < n {
		w.held = make([]heldPower, n)
		w.last = make([]float64, n)
	}
	w.held, w.last = w.held[:n], w.last[:n]
	for d, wl := range w.real {
		w.held[d].p = wl.Power(t0)
	}
	w.steps, w.stop = 0, 0
	for t := t0; t < start-dt/2; {
		t += dt
		w.steps++
		differ := false
		for d, wl := range w.real {
			p := wl.Power(t)
			w.last[d] = p
			if !sameBits(p, w.held[d].p) {
				differ = true
			}
		}
		if differ {
			w.stop = w.steps
			return false
		}
	}
	return true
}

// sameBits reports whether a and b are the same number with the same
// bits: it tells +0 from −0 and never matches a NaN.
func sameBits(a, b float64) bool {
	return a == b && math.Float64bits(a) == math.Float64bits(b)
}

// fillKey builds the run's key after a constant scan: t0, Start, each
// lane's supply, then the constant power of every (lane, core) slot in
// lane-major order. A slot sharing another's workload takes its
// source's value, so runs whose slots group differently never match.
// vnom determines all a lane's supply sets: its fixed VRM potential
// and its core and uncore currents.
func (w *warmStart) fillKey(t0, start float64, vnom []float64, src []int) {
	need := 2 + len(vnom) + len(src)
	if cap(w.key) < need {
		w.key = make([]float64, need)
	}
	k := w.key[:need]
	k[0], k[1] = t0, start
	copy(k[2:], vnom)
	pw := k[2+len(vnom):]
	for d, g := range w.slot {
		pw[g] = w.held[d].p
	}
	for g, sg := range src {
		if sg != g {
			pw[g] = pw[sg]
		}
	}
	w.key = k
}

// hit reports whether the saved entry holds this run's warmup.
func (w *warmStart) hit() bool {
	if w.stop != 0 || w.steps == 0 || !w.saved || len(w.key) != len(w.entry) {
		return false
	}
	for i, v := range w.key {
		if !sameBits(v, w.entry[i]) {
			return false
		}
	}
	return true
}

// warmUp brings eng from the DC point at t0 to start for a run whose
// distinct workloads are registered, given each lane's supply and the
// slots' sources (src[g] is the lowest slot sharing slot g's workload).
// It scans the workloads and, on a hit, restores the entry's state;
// otherwise it steps as the engine always has, reading the scanned
// samples from the held stand-ins, and a constant warmup then becomes
// the entry. Every registered slot holds its real workload again when
// warmUp returns.
func (w *warmStart) warmUp(ctx context.Context, eng warmEngine, t0, start, dt float64, vnom []float64, src []int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if w.scan(t0, start, dt) {
		w.fillKey(t0, start, vnom, src)
	}
	for d, from := range w.refs {
		*from = &w.held[d]
	}
	defer w.release()
	if err := eng.Reset(t0); err != nil {
		return err
	}
	if w.hit() {
		if err := eng.RestoreState(&w.state); err != nil {
			return err
		}
		w.hits++
		w.skipped += int64(w.steps) * int64(len(vnom))
		return nil
	}
	ctr := 0
	for st := 1; eng.Time() < start-dt/2; st++ {
		switch {
		case st == w.stop:
			for d := range w.held {
				w.held[d].p = w.last[d]
			}
		case w.stop != 0 && st == w.stop+1:
			w.release()
		}
		if ctr++; ctr >= ctxCheckSteps {
			ctr = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := eng.Step(); err != nil {
			return err
		}
	}
	if w.stop == 0 && w.steps > 0 {
		eng.SaveState(&w.state)
		w.entry = append(w.entry[:0], w.key...)
		w.saved = true
	}
	return nil
}

// release puts every registered workload back in its engine slot.
func (w *warmStart) release() {
	for d, from := range w.refs {
		*from = w.real[d]
	}
}
