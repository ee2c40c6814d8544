package pdn

import "testing"

// TestRestoreStateResumesBitIdentical: stepping a prefix, saving, and
// later resetting to the prefix's start and restoring must continue
// exactly as an engine that stepped straight through — for the
// single-lane engine and for a batch at the generic and fixed-block
// widths — and restoring also makes BranchCurrent read the stepped
// values, not the DC point's.
func TestRestoreStateResumesBitIdentical(t *testing.T) {
	const start, prefix, tail = -2e-6, 1500, 1500
	t.Run("transient", func(t *testing.T) {
		ckt, out := loadedRLC()
		tr, err := NewTransientAt(ckt, 1e-9, start)
		if err != nil {
			t.Fatal(err)
		}
		var st State
		for i := 0; i < prefix; i++ {
			if err := tr.Step(); err != nil {
				t.Fatal(err)
			}
		}
		tr.SaveState(&st)
		saved := tr.Time()
		want := make([]float64, tail)
		for i := range want {
			if err := tr.Step(); err != nil {
				t.Fatal(err)
			}
			want[i] = tr.Voltage(out)
		}
		wantI := tr.BranchCurrent(1)
		if err := tr.Reset(start); err != nil {
			t.Fatal(err)
		}
		if err := tr.RestoreState(&st); err != nil {
			t.Fatal(err)
		}
		if tr.Time() != saved {
			t.Fatalf("restored time %g, want %g", tr.Time(), saved)
		}
		for i, w := range want {
			if err := tr.Step(); err != nil {
				t.Fatal(err)
			}
			if got := tr.Voltage(out); got != w {
				t.Fatalf("step %d after restore: %v != %v", i, got, w)
			}
		}
		if got := tr.BranchCurrent(1); got != wantI {
			t.Errorf("inductor current after restore %v != %v", got, wantI)
		}
	})
	for _, lanes := range []int{3, DefaultBatchLanes, WideBatchLanes} {
		ckt, out := loadedRLC()
		// Lane l scales the circuit's load by 1+l/4, so lanes differ.
		base := ckt.loads[0].Current
		cur := 0
		ckt.loads[0].Current = func(tm float64) float64 { return base(tm) * (1 + float64(cur)/4) }
		bt, err := NewBatchTransientAt(ckt, 1e-9, start, lanes, func(l int) { cur = l })
		if err != nil {
			t.Fatal(err)
		}
		var st State
		for i := 0; i < prefix; i++ {
			if err := bt.Step(); err != nil {
				t.Fatal(err)
			}
		}
		bt.SaveState(&st)
		want := make([]float64, tail*lanes)
		for i := 0; i < tail; i++ {
			if err := bt.Step(); err != nil {
				t.Fatal(err)
			}
			copy(want[i*lanes:], bt.LaneVoltages(out))
		}
		if err := bt.Reset(start); err != nil {
			t.Fatal(err)
		}
		if err := bt.RestoreState(&st); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tail; i++ {
			if err := bt.Step(); err != nil {
				t.Fatal(err)
			}
			for l, v := range bt.LaneVoltages(out) {
				if w := want[i*lanes+l]; v != w {
					t.Fatalf("lanes=%d: step %d lane %d after restore: %v != %v", lanes, i, l, v, w)
				}
			}
		}
	}
}

// TestRestoreStateRejectsOtherShapes: a snapshot only fits an engine
// of the same circuit and width, and a refused restore leaves the
// engine untouched.
func TestRestoreStateRejectsOtherShapes(t *testing.T) {
	ckt, out := loadedRLC()
	bt, err := NewBatchTransient(ckt, 1e-9, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var st State
	bt.SaveState(&st)
	tr, err := NewTransient(ckt, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Voltage(out)
	if err := tr.RestoreState(&st); err == nil {
		t.Fatal("width-4 snapshot restored into a single-lane engine")
	}
	if tr.Voltage(out) != before || tr.Time() != 0 {
		t.Error("refused restore changed the engine")
	}
	var empty State
	if err := tr.RestoreState(&empty); err == nil {
		t.Error("empty snapshot restored")
	}
}

// TestSaveStateReusesBuffers: refreshing a snapshot run after run
// allocates nothing once its buffers are sized.
func TestSaveStateReusesBuffers(t *testing.T) {
	ckt, _ := loadedRLC()
	tr, err := NewTransient(ckt, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	var st State
	tr.SaveState(&st)
	if allocs := testing.AllocsPerRun(50, func() {
		tr.SaveState(&st)
		if err := tr.RestoreState(&st); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("SaveState/RestoreState allocate %v objects per call, want 0", allocs)
	}
}
