package pdn

import (
	"fmt"
	"math"
	"testing"
)

// batchWave returns the per-lane load waveform used by the batch
// bit-identity tests: same shape, lane-distinct period and magnitude
// so cross-lane contamination cannot cancel out.
func batchWave(lane int) func(float64) float64 {
	period := (0.8 + 0.2*float64(lane)) * 1e-6
	hi := 2 + 0.5*float64(lane)
	return func(t float64) float64 {
		if math.Mod(t, period) < period/2 {
			return hi
		}
		return 0.5
	}
}

// rlcWithLoad builds the loadedRLC network with the given load.
func rlcWithLoad(load func(float64) float64) (*Circuit, NodeID) {
	ckt := NewCircuit()
	src, mid, out := ckt.Node("src"), ckt.Node("mid"), ckt.Node("out")
	ckt.FixNode(src, 1.0)
	ckt.AddResistor("r", src, mid, 0.05)
	ckt.AddInductor("l", mid, out, 5e-9)
	ckt.AddCapacitor("c", out, Ground, 2e-6, 1e-3)
	ckt.AddLoad("load", out, load)
	return ckt, out
}

// newBatchRLC builds a batch engine over the RLC network whose single
// load closure reads the active lane's waveform through onLane.
func newBatchRLC(t *testing.T, lanes int, start float64) (*BatchTransient, NodeID) {
	t.Helper()
	cur := 0
	ckt, out := rlcWithLoad(func(tm float64) float64 {
		return batchWave(cur)(tm)
	})
	bt, err := NewBatchTransientAt(ckt, 1e-9, start, lanes, func(l int) { cur = l })
	if err != nil {
		t.Fatal(err)
	}
	return bt, out
}

// newBatchRLCFill is newBatchRLC with the lane waveforms written by a
// dense LoadFill; the engine must never call the load's closure.
func newBatchRLCFill(t *testing.T, lanes int, start float64) (*BatchTransient, NodeID) {
	t.Helper()
	ckt, out := rlcWithLoad(func(float64) float64 { panic("filled load's closure called") })
	waves := make([]func(float64) float64, lanes)
	for l := range waves {
		waves[l] = batchWave(l)
	}
	bt, err := NewBatchTransientFill(ckt, 1e-9, start, lanes, func(tm float64, dst []float64) {
		for l, w := range waves {
			dst[l] = w(tm)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return bt, out
}

// vectorModes lists the bodies a host can run: the vector kernels
// where available, and always the pure-Go fallback.
func vectorModes() []bool {
	if useAVX2 {
		return []bool{true, false}
	}
	return []bool{false}
}

// TestBatchLanesMatchSingleLane drives every lane of a batch with a
// lane-distinct load and checks each lane stays bit-identical to a
// dedicated single-lane Transient over thousands of steps — node
// potentials every step, and the companion state through the branch
// currents — at the generic and default widths, through both the
// vector step (assemble, solve and scatter kernels) and the pure-Go
// walk, from two start times. This is the core contract of the
// lockstep engine.
func TestBatchLanesMatchSingleLane(t *testing.T) {
	for _, lanes := range []int{3, 4, DefaultBatchLanes} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			checkWidthMatchesSingles(t, lanes)
		})
	}
}

// TestBatchWidthOneMatchesSingle pins the degenerate width-1 batch to
// the single-lane engine exactly, so callers can treat B=1 as just
// another width.
func TestBatchWidthOneMatchesSingle(t *testing.T) {
	checkWidthMatchesSingles(t, 1)
}

// TestBatch16LanesMatchSingleLane extends the core lockstep contract to
// the wide width, through both the vector step and the pure-Go walk.
func TestBatch16LanesMatchSingleLane(t *testing.T) {
	checkWidthMatchesSingles(t, WideBatchLanes)
}

// checkWidthMatchesSingles runs the lockstep contract for one batch
// width over every step body the host has, two start times, and both
// load paths: the onLane closure fill, then a dense LoadFill in the
// nested "dense" case.
func checkWidthMatchesSingles(t *testing.T, lanes int) {
	modes, saved := vectorModes(), useAVX2
	defer func() { useAVX2 = saved }()
	for _, vec := range modes {
		for _, start := range []float64{0, -3e-6} {
			t.Run(fmt.Sprintf("vector=%v/start=%g", vec, start), func(t *testing.T) {
				useAVX2 = vec
				checkBatchMatchesSingles(t, lanes, start, false)
				t.Run("dense", func(t *testing.T) {
					checkBatchMatchesSingles(t, lanes, start, true)
				})
			})
		}
	}
}

// checkBatchMatchesSingles runs one width/start/load-path case of the
// lockstep contract.
func checkBatchMatchesSingles(t *testing.T, lanes int, start float64, dense bool) {
	newBatch := newBatchRLC
	if dense {
		newBatch = newBatchRLCFill
	}
	bt, _ := newBatch(t, lanes, start)
	singles := make([]*Transient, lanes)
	for l := range singles {
		ckt, _ := rlcWithLoad(batchWave(l))
		tr, err := NewTransientAt(ckt, 1e-9, start)
		if err != nil {
			t.Fatal(err)
		}
		singles[l] = tr
	}
	// The batch and single circuits are built by the same code, so
	// node and element numbering agree.
	check := func(step int) {
		t.Helper()
		for l, tr := range singles {
			for n := 0; n < bt.c.NumNodes(); n++ {
				if got, want := bt.Voltage(l, NodeID(n)), tr.Voltage(NodeID(n)); got != want {
					t.Fatalf("step %d lane %d node %d: %v != single %v", step, l, n, got, want)
				}
			}
			for ei := range bt.c.elements {
				if got, want := bt.BranchCurrent(l, ei), tr.BranchCurrent(ei); got != want {
					t.Fatalf("step %d lane %d element %d current: %v != single %v", step, l, ei, got, want)
				}
			}
		}
	}
	check(0)
	for i := 1; i <= 4000; i++ {
		if err := bt.Step(); err != nil {
			t.Fatal(err)
		}
		for _, tr := range singles {
			if err := tr.Step(); err != nil {
				t.Fatal(err)
			}
		}
		check(i)
	}
}

// TestBatchLaneFixedMatchesRefixedSingle retunes each lane's supply to
// a different potential (the vmin bias-walk pattern) and checks every
// lane tracks a single-lane engine re-fixed to the same potential —
// per-lane fixed potentials enter only the RHS, so one factorization
// serves all biases.
func TestBatchLaneFixedMatchesRefixedSingle(t *testing.T) {
	const lanes = 3
	bt, out := newBatchRLC(t, lanes, 0)
	src := bt.c.Node("src")
	for l := 0; l < lanes; l++ {
		if err := bt.SetLaneFixed(l, src, 1.0-0.05*float64(l)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Reset(0); err != nil {
		t.Fatal(err)
	}
	singles := make([]*Transient, lanes)
	outs := make([]NodeID, lanes)
	for l := 0; l < lanes; l++ {
		ckt, o := rlcWithLoad(batchWave(l))
		ckt.FixNode(ckt.Node("src"), 1.0-0.05*float64(l))
		tr, err := NewTransientAt(ckt, 1e-9, 0)
		if err != nil {
			t.Fatal(err)
		}
		singles[l], outs[l] = tr, o
	}
	for i := 0; i < 3000; i++ {
		if err := bt.Step(); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < lanes; l++ {
			if err := singles[l].Step(); err != nil {
				t.Fatal(err)
			}
			if got, want := bt.Voltage(l, out), singles[l].Voltage(outs[l]); got != want {
				t.Fatalf("step %d lane %d: %v != %v", i, l, got, want)
			}
		}
	}
}

// TestBatchSetLaneFixedRejects covers the argument validation: lanes
// out of range and nodes that are not fixed supplies.
func TestBatchSetLaneFixedRejects(t *testing.T) {
	bt, out := newBatchRLC(t, 2, 0)
	src := bt.c.Node("src")
	if err := bt.SetLaneFixed(2, src, 1.0); err == nil {
		t.Error("lane out of range accepted")
	}
	if err := bt.SetLaneFixed(-1, src, 1.0); err == nil {
		t.Error("negative lane accepted")
	}
	if err := bt.SetLaneFixed(0, out, 1.0); err == nil {
		t.Error("SetLaneFixed on an unknown node accepted")
	}
}

// TestBatchResetMatchesFresh steps a batch far from its start, resets
// it, and checks every lane of every subsequent step is bit-identical
// to a freshly built batch.
func TestBatchResetMatchesFresh(t *testing.T) {
	const lanes = 3
	bt, out := newBatchRLC(t, lanes, 0)
	for i := 0; i < 4000; i++ {
		if err := bt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Reset(0); err != nil {
		t.Fatal(err)
	}
	fresh, fout := newBatchRLC(t, lanes, 0)
	for i := 0; i < 4000; i++ {
		if err := bt.Step(); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Step(); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < lanes; l++ {
			if got, want := bt.Voltage(l, out), fresh.Voltage(l, fout); got != want {
				t.Fatalf("step %d lane %d: reset %v != fresh %v", i, l, got, want)
			}
		}
	}
}

// TestBatchRejectsBadArgs covers constructor validation and the lane
// range checks of the per-lane readers: a lane outside [0, Lanes())
// must panic, not read a neighbouring node's lane.
func TestBatchRejectsBadArgs(t *testing.T) {
	ckt, out := rlcWithLoad(func(float64) float64 { return 1 })
	if _, err := NewBatchTransient(ckt, 0, 4, nil); err == nil {
		t.Error("zero timestep accepted")
	}
	if _, err := NewBatchTransient(ckt, 1e-9, 0, nil); err == nil {
		t.Error("zero lanes accepted")
	}
	if _, err := NewBatchTransientFill(ckt, 1e-9, 0, 4, nil); err == nil {
		t.Error("nil load fill accepted")
	}
	const lanes = 3
	bt, err := NewBatchTransient(ckt, 1e-9, lanes, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(label string, read func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", label)
			}
		}()
		read()
	}
	for _, steps := range []int{0, 1} {
		for i := 0; i < steps; i++ {
			if err := bt.Step(); err != nil {
				t.Fatal(err)
			}
		}
		for _, lane := range []int{-1, lanes} {
			mustPanic(fmt.Sprintf("step %d Voltage(lane %d)", steps, lane), func() { bt.Voltage(lane, out) })
			mustPanic(fmt.Sprintf("step %d BranchCurrent(lane %d)", steps, lane), func() { bt.BranchCurrent(lane, 0) })
		}
	}
}

// TestBatchStepDoesNotAllocate pins the lockstep step loop as
// allocation-free, alongside the single-lane guard: the batch engine
// must run entirely on preallocated state whatever the width, on the
// vector step and the Go walk, through the closure and the dense fill.
func TestBatchStepDoesNotAllocate(t *testing.T) {
	modes, saved := vectorModes(), useAVX2
	defer func() { useAVX2 = saved }()
	for _, lanes := range []int{1, 3, 4, DefaultBatchLanes, WideBatchLanes} {
		for _, vec := range modes {
			useAVX2 = vec
			for _, dense := range []bool{false, true} {
				newBatch := newBatchRLC
				if dense {
					newBatch = newBatchRLCFill
				}
				bt, _ := newBatch(t, lanes, 0)
				if allocs := testing.AllocsPerRun(100, func() {
					if err := bt.Step(); err != nil {
						t.Fatal(err)
					}
				}); allocs != 0 {
					t.Errorf("lanes=%d vector=%v dense=%v: Step allocates %v objects per call, want 0", lanes, vec, dense, allocs)
				}
			}
		}
	}
}

// TestBatchStepDetectsDivergence injects NaN and ±Inf load currents
// into each lane alone, then into pairs of lanes, at a generic and
// both specialized widths, and requires every step body to fail the
// first step past the trip time with the same error: that step's time
// and the lane of the last non-finite solution in row-major order —
// the highest poisoned lane, since the poison reaches every unknown of
// its lane.
func TestBatchStepDetectsDivergence(t *testing.T) {
	const trip = 0.5e-6
	modes, saved := vectorModes(), useAVX2
	defer func() { useAVX2 = saved }()
	for _, lanes := range []int{3, DefaultBatchLanes, WideBatchLanes} {
		for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, poisoned := range poisonedLanes(lanes) {
				t.Run(fmt.Sprintf("lanes=%d/load=%v/poisoned=%v", lanes, poison, poisoned), func(t *testing.T) {
					var first string
					for _, vec := range modes {
						useAVX2 = vec
						bt := newPoisonedBatch(t, lanes, trip, poison, poisoned)
						err := bt.RunUntil(2 * trip)
						if err == nil {
							t.Fatalf("vector=%v: poisoned lanes %v survived the run", vec, poisoned)
						}
						if bt.Time() > trip || bt.Time()+bt.Dt() <= trip {
							t.Errorf("vector=%v: failed at t=%g, want the first step past %g", vec, bt.Time()+bt.Dt(), trip)
						}
						want := fmt.Sprintf("pdn: integration diverged at t=%g (lane %d)", bt.Time()+bt.Dt(), poisoned[len(poisoned)-1])
						if err.Error() != want {
							t.Errorf("vector=%v: error %q, want %q", vec, err, want)
						}
						if first == "" {
							first = err.Error()
						} else if err.Error() != first {
							t.Errorf("vector=%v: error %q differs from the other path's %q", vec, err, first)
						}
					}
				})
			}
		}
	}
}

// poisonedLanes lists the lane sets the divergence test poisons: every
// lane alone (so each vector of a lane block must raise the mask),
// then pairs that straddle vectors.
func poisonedLanes(lanes int) [][]int {
	var sets [][]int
	for l := 0; l < lanes; l++ {
		sets = append(sets, []int{l})
	}
	return append(sets, []int{0, lanes - 1}, []int{1, lanes / 2})
}

// newPoisonedBatch is newBatchRLCFill whose poisoned lanes draw the
// poison current from the first step past trip on.
func newPoisonedBatch(t *testing.T, lanes int, trip, poison float64, poisoned []int) *BatchTransient {
	t.Helper()
	ckt, _ := rlcWithLoad(func(float64) float64 { panic("filled load's closure called") })
	bt, err := NewBatchTransientFill(ckt, 1e-9, 0, lanes, func(tm float64, dst []float64) {
		for l := range dst {
			dst[l] = batchWave(l)(tm)
		}
		if tm > trip {
			for _, l := range poisoned {
				dst[l] = poison
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// BenchmarkBatchStep measures the per-step cost of the multi-RHS
// engine on the calibrated zEC12 network at the production widths and
// reports it per lane-step, the unit of BenchmarkTransientStep. The
// LanesN cases evaluate each (lane, load) through its Current closure;
// the Dense/LanesN cases write a cheap lane-distinct square wave
// through a LoadFill (NewBatchTransientFill, the path core.BatchSession
// takes), so they time the step itself: the plan walk, the solve and
// the scatter. Batching pays only where Dense ns/lane-step falls below
// BenchmarkTransientStep's ns/op. The AllocsPerRun guard above keeps
// both loops at 0 allocs/step.
func BenchmarkBatchStep(b *testing.B) {
	for _, lanes := range []int{1, 4, 8, 16} {
		name := fmt.Sprintf("Lanes%d", lanes)
		b.Run(name, func(b *testing.B) {
			ckt, nodes := ZEC12(DefaultZEC12Config())
			cur := 0
			for i := range nodes.Core {
				i := i
				ckt.AddLoad("core", nodes.Core[i], func(tm float64) float64 {
					return batchWave(cur)(tm) * float64(i+1)
				})
			}
			bt, err := NewBatchTransient(ckt, 2e-9, lanes, func(l int) { cur = l })
			if err != nil {
				b.Fatal(err)
			}
			benchLaneSteps(b, bt)
		})
		b.Run("Dense/"+name, func(b *testing.B) {
			ckt, nodes := ZEC12(DefaultZEC12Config())
			for i := range nodes.Core {
				ckt.AddLoad("core", nodes.Core[i], func(float64) float64 { panic("filled load's closure called") })
			}
			bt, err := NewBatchTransientFill(ckt, 2e-9, 0, lanes, squareFill(len(nodes.Core), lanes))
			if err != nil {
				b.Fatal(err)
			}
			benchLaneSteps(b, bt)
		})
	}
}

// benchLaneSteps times bt.Step and reports ns per lane-step.
func benchLaneSteps(b *testing.B, bt *BatchTransient) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bt.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bt.Lanes()), "ns/lane-step")
}

// squareFill returns a LoadFill driving load k of lane l with a square
// wave of amplitude 2+0.5l amperes times k+1 and a lane-distinct
// half-period of 200+50l calls, counted per call rather than computed
// from the time so that the fill costs a few ns per step.
func squareFill(loads, lanes int) LoadFill {
	left := make([]int, lanes)
	level := make([]float64, lanes)
	return func(_ float64, dst []float64) {
		for l := range left {
			if left[l]--; left[l] <= 0 {
				left[l] = 200 + 50*l
				if level[l] == 0.5 {
					level[l] = 2 + 0.5*float64(l)
				} else {
					level[l] = 0.5
				}
			}
		}
		for k := 0; k < loads; k++ {
			for l, v := range level {
				dst[k*lanes+l] = v * float64(k+1)
			}
		}
	}
}
