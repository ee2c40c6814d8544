package core

import (
	"context"
	"math"
	"testing"
)

// oscWorkload is a 2MHz square wave: the noisiest simple stimulus, so
// reuse bugs that perturb circuit state show up in every observable.
func oscWorkload() Workload {
	return FuncWorkload{Label: "osc", Fn: func(t float64) float64 {
		if floorMod(t, 0.5e-6) < 0.25e-6 {
			return 50
		}
		return 16
	}}
}

// floorMod is t modulo period in [0, period) for negative t too: the
// test square waves keep toggling through warmups before t = 0, where
// math.Mod, which takes t's sign, would hold them high.
func floorMod(t, period float64) float64 {
	r := math.Mod(t, period)
	if r < 0 {
		r += period
	}
	return r
}

// identicalMeasurements compares every field of two measurements
// bit-for-bit (traces included).
func identicalMeasurements(t *testing.T, label string, got, want *Measurement) {
	t.Helper()
	for i := 0; i < NumCores; i++ {
		if got.P2P[i] != want.P2P[i] {
			t.Errorf("%s: core %d P2P %v != %v", label, i, got.P2P[i], want.P2P[i])
		}
		if got.PosMin[i] != want.PosMin[i] || got.PosMax[i] != want.PosMax[i] {
			t.Errorf("%s: core %d PosMin/PosMax differ", label, i)
		}
		if got.VMin[i] != want.VMin[i] || got.VMax[i] != want.VMax[i] {
			t.Errorf("%s: core %d VMin/VMax %v/%v != %v/%v",
				label, i, got.VMin[i], got.VMax[i], want.VMin[i], want.VMax[i])
		}
		if (got.Traces[i] == nil) != (want.Traces[i] == nil) {
			t.Fatalf("%s: core %d trace presence differs", label, i)
		}
		if got.Traces[i] != nil {
			for k, v := range got.Traces[i].Samples {
				if v != want.Traces[i].Samples[k] {
					t.Fatalf("%s: core %d trace sample %d: %v != %v",
						label, i, k, v, want.Traces[i].Samples[k])
				}
			}
		}
	}
	if got.ChipPowerMilliwatts != want.ChipPowerMilliwatts {
		t.Errorf("%s: chip power %d != %d", label, got.ChipPowerMilliwatts, want.ChipPowerMilliwatts)
	}
	if got.NominalPos != want.NominalPos {
		t.Errorf("%s: nominal pos %d != %d", label, got.NominalPos, want.NominalPos)
	}
}

// TestSessionReuseBitIdentical is the core session-reuse determinism
// guarantee: a sequence of heterogeneous runs on ONE session (changing
// workloads, windows and bias along the way) must be bit-identical to
// running each spec on a fresh platform.
func TestSessionReuseBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var osc [NumCores]Workload
	for i := range osc {
		osc[i] = oscWorkload()
	}
	var half [NumCores]Workload
	for i := 0; i < NumCores; i += 2 {
		half[i] = Steady("steady", 40)
	}
	seq := []struct {
		name string
		bias float64
		spec RunSpec
	}{
		{"osc", 1.0, RunSpec{Workloads: osc, Duration: 20e-6, Record: true}},
		{"idle", 1.0, RunSpec{Duration: 10e-6}},
		{"half-low-bias", 0.92, RunSpec{Workloads: half, Start: -5e-6, Duration: 15e-6}},
		{"osc-again", 1.0, RunSpec{Workloads: osc, Duration: 20e-6, Record: true}},
	}
	for _, tc := range seq {
		if err := s.SetVoltageBias(tc.bias); err != nil {
			t.Fatal(err)
		}
		got, err := s.Run(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.SetVoltageBias(tc.bias); err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		identicalMeasurements(t, tc.name, got, want)
	}
}

// TestSessionPoolReuseMatchesFresh drains and reuses pooled sessions
// across bias changes and checks the recycled path stays bit-identical.
func TestSessionPoolReuseMatchesFresh(t *testing.T) {
	cfg := DefaultConfig()
	pool := NewSessionPool(cfg)
	var wl [NumCores]Workload
	for i := range wl {
		wl[i] = oscWorkload()
	}
	spec := RunSpec{Workloads: wl, Duration: 10e-6}
	for _, bias := range []float64{1.0, 0.95, 1.0} {
		s, err := pool.Get(bias)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(s)
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.SetVoltageBias(bias); err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		identicalMeasurements(t, "pooled", got, want)
	}
}

func TestSessionBiasQuantizationMatchesPlatform(t *testing.T) {
	s, err := NewSession(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, _ := New(DefaultConfig())
	for _, b := range []float64{0.913, 1.0499, 0.70, 1.10} {
		if err := s.SetVoltageBias(b); err != nil {
			t.Fatal(err)
		}
		if err := p.SetVoltageBias(b); err != nil {
			t.Fatal(err)
		}
		if s.VoltageBias() != p.VoltageBias() {
			t.Errorf("bias %g: session %g != platform %g", b, s.VoltageBias(), p.VoltageBias())
		}
	}
	for _, b := range []float64{0.5, 1.2} {
		if err := s.SetVoltageBias(b); err == nil {
			t.Errorf("bias %g accepted", b)
		}
	}
}

func TestSessionRunValidation(t *testing.T) {
	s, err := NewSession(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(RunSpec{Duration: 0}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := s.Run(RunSpec{Duration: 1e-6, Warmup: -1}); err == nil {
		t.Error("negative warmup accepted")
	}
}

func TestSessionRunContextCancel(t *testing.T) {
	s, err := NewSession(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx, RunSpec{Duration: 100e-6}); err != context.Canceled {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	// The session must remain usable after a canceled run.
	m, err := s.Run(RunSpec{Duration: 5e-6})
	if err != nil {
		t.Fatal(err)
	}
	if m.ChipPowerMilliwatts <= 0 {
		t.Error("no chip power after recovery run")
	}
}

// TestSessionSteadyStateAllocs bounds the per-run allocations of a
// reused session: the hot path (warmup + measurement stepping) must
// not allocate at all, leaving only the Measurement result object.
func TestSessionSteadyStateAllocs(t *testing.T) {
	s, err := NewSession(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var wl [NumCores]Workload
	for i := range wl {
		wl[i] = Steady("steady", 30)
	}
	spec := RunSpec{Workloads: wl, Warmup: 1e-6, Duration: 2e-6}
	if _, err := s.Run(spec); err != nil { // prime
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := s.Run(spec); err != nil {
			t.Fatal(err)
		}
	})
	// One Measurement plus small constant overhead; the ~1900-step
	// integration itself must be allocation-free.
	if allocs > 4 {
		t.Errorf("steady-state Run allocates %v objects per run, want <= 4", allocs)
	}
}

// TestSessionCancellationIdlesSlots: a canceled run leaves every
// workload slot back at idle, so a pooled session pins nothing of the
// run — the Session twin of TestBatchSessionCancellation.
func TestSessionCancellationIdlesSlots(t *testing.T) {
	s, err := NewSession(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var wl [NumCores]Workload
	for i := range wl {
		wl[i] = Steady("stress", 30+float64(i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx, RunSpec{Workloads: wl, Duration: 10e-6}); err != context.Canceled {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	for i, w := range s.wl {
		if w != s.idle {
			t.Errorf("core %d still holds %q after a canceled run", i, w.Name())
		}
	}
}
