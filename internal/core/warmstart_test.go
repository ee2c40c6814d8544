package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// syncMark models a TOD-synchronized stressmark: it spins at a constant
// power until the sync instant, then runs a square wave at its stimulus
// period. Comparable, so cores holding the same mark share one sample.
type syncMark struct{ spin, hi, lo, period, sync float64 }

func (w syncMark) Power(t float64) float64 {
	if t < w.sync {
		return w.spin
	}
	if math.Mod(t-w.sync, w.period) < w.period/2 {
		return w.hi
	}
	return w.lo
}
func (w syncMark) Name() string { return "sync" }

// syncPoint is one synchronized sweep point at stimulus frequency f:
// every core runs the same mark, which spins through any warmup ending
// at or before the sync instant 1 µs.
func syncPoint(f float64) [NumCores]Workload {
	var wl [NumCores]Workload
	m := syncMark{spin: 24, hi: 50, lo: 16, period: 1 / f, sync: 1e-6}
	for i := range wl {
		wl[i] = m
	}
	return wl
}

// warmupInstants returns the instants a run's warmup samples its loads
// at — t0, then every step instant, with the step loop's arithmetic.
func warmupInstants(start, warmup, dt float64) []float64 {
	t := start - warmup
	out := []float64{t}
	for t < start-dt/2 {
		t += dt
		out = append(out, t)
	}
	return out
}

// blipAt is a constant-power workload that differs at exactly one
// instant. Pure, but a FuncWorkload, so never shared between slots.
func blipAt(watts, at float64) Workload {
	return FuncWorkload{Label: "blip", Fn: func(t float64) float64 {
		if t == at {
			return watts + 100
		}
		return watts
	}}
}

// constFunc is a constant FuncWorkload.
func constFunc(watts float64) Workload {
	return FuncWorkload{Label: "const", Fn: func(float64) float64 { return watts }}
}

// warmRun is one run of a warm-start case, for any lane of any width.
type warmRun struct {
	wl            func(lane int) [NumCores]Workload
	bias          func(lane int) float64 // nil: 1.0
	aged          bool                   // gains scaled by 1.07
	start, warmup float64
	dur           float64
}

func (r warmRun) spec(lane int) RunSpec {
	return RunSpec{Workloads: r.wl(lane), Start: r.start, Warmup: r.warmup, Duration: r.dur}
}

func (r warmRun) laneBias(lane int) float64 {
	if r.bias == nil {
		return 1.0
	}
	return r.bias(lane)
}

func (r warmRun) gains(cfg Config) [NumCores]float64 {
	g := cfg.CoreGain
	if r.aged {
		for i := range g {
			g[i] *= 1.07
		}
	}
	return g
}

// warmCase primes a pooled session with one run, then runs a probe that
// must (hit) or must not restore the primed warmup.
type warmCase struct {
	name         string
	prime, probe warmRun
	hit          bool
	// differs: the probe's fresh result differs from the prime's, so a
	// wrong hit could not go unnoticed in the bytes.
	differs bool
}

// warmCases builds the hit and miss cases for a width-lanes session
// (lanes 1: a Session). Lane-local changes go to the last lane.
func warmCases(lanes int) []warmCase {
	const start, warmup, dur = 0.0, 4e-6, 4e-6
	dt := DefaultConfig().Dt
	last := lanes - 1
	point := func(l int) [NumCores]Workload { return syncPoint(1e6 + 0.25e6*float64(l)) }
	other := func(l int) [NumCores]Workload { return syncPoint(3e6 - 0.25e6*float64(l)) }
	base := warmRun{wl: point, start: start, warmup: warmup, dur: dur}
	with := func(f func(r *warmRun)) warmRun { r := base; f(&r); return r }
	constRun := with(func(r *warmRun) {
		r.wl = func(int) [NumCores]Workload { return [NumCores]Workload{constFunc(30)} }
	})
	inst := warmupInstants(start, warmup, dt)
	blip := func(at float64) warmRun {
		return with(func(r *warmRun) {
			r.wl = func(l int) [NumCores]Workload {
				if l == last {
					return [NumCores]Workload{blipAt(30, at)}
				}
				return [NumCores]Workload{constFunc(30)}
			}
		})
	}
	a, b := Steady("a", 30), Steady("b", 40)
	return []warmCase{
		{name: "hit", prime: base, probe: with(func(r *warmRun) { r.wl = other }), hit: true, differs: true},
		{name: "hit-gains", prime: base, probe: with(func(r *warmRun) { r.wl, r.aged = other, true }), hit: true, differs: true},
		{name: "blip-last-instant", prime: constRun, probe: blip(inst[len(inst)-1]), differs: true},
		{name: "blip-t0-instant", prime: constRun, probe: blip(inst[0]), differs: true},
		{name: "bias", prime: base, probe: with(func(r *warmRun) {
			r.bias = func(l int) float64 {
				if l == last {
					return 0.95
				}
				return 1.0
			}
		}), differs: true},
		{name: "start", prime: base, probe: with(func(r *warmRun) { r.start = -1e-6 }), differs: true},
		{name: "warmup", prime: base, probe: with(func(r *warmRun) { r.warmup = warmup + 1e-6 })},
		{name: "alias-split", prime: with(func(r *warmRun) {
			r.wl = func(int) [NumCores]Workload { return [NumCores]Workload{a, b, a, b, a, b} }
		}), probe: with(func(r *warmRun) {
			r.wl = func(int) [NumCores]Workload { return [NumCores]Workload{a, a, a, a, a, a} }
		}), differs: true},
		{name: "alias-zero", prime: with(func(r *warmRun) {
			r.wl = func(int) [NumCores]Workload { return [NumCores]Workload{a, a, a, a, a, a} }
		}), probe: with(func(r *warmRun) {
			z := Steady("zero", 0)
			r.wl = func(int) [NumCores]Workload { return [NumCores]Workload{a, z, z, z, z, z} }
		}), differs: true},
		{name: "nan", prime: constRun, probe: with(func(r *warmRun) {
			r.wl = func(int) [NumCores]Workload {
				return [NumCores]Workload{FuncWorkload{Label: "nan", Fn: func(float64) float64 { return math.NaN() }}}
			}
		})},
	}
}

// warmSteps is the number of warmup steps a run of r skips on a hit.
func warmSteps(r warmRun, dt float64) int64 {
	return int64(len(warmupInstants(r.start, r.warmup, dt)) - 1)
}

// freshSessionRun measures r on a newly built session.
func freshSessionRun(cfg Config, r warmRun) (*Measurement, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.SetVoltageBias(r.laneBias(0)); err != nil {
		return nil, err
	}
	if err := s.SetCoreGains(r.gains(cfg)); err != nil {
		return nil, err
	}
	return s.Run(r.spec(0))
}

// freshBatchRun measures r on a newly built width-lanes batch session.
func freshBatchRun(cfg Config, lanes int, r warmRun) ([]*Measurement, error) {
	bs, err := NewBatchSession(cfg, lanes)
	if err != nil {
		return nil, err
	}
	if err := setupBatch(bs, cfg, r); err != nil {
		return nil, err
	}
	return bs.RunBatch(batchSpecs(lanes, r))
}

func setupBatch(bs *BatchSession, cfg Config, r warmRun) error {
	for l := 0; l < bs.Lanes(); l++ {
		if err := bs.SetLaneBias(l, r.laneBias(l)); err != nil {
			return err
		}
		if err := bs.SetLaneGains(l, r.gains(cfg)); err != nil {
			return err
		}
	}
	return nil
}

func batchSpecs(lanes int, r warmRun) []RunSpec {
	specs := make([]RunSpec, lanes)
	for l := range specs {
		specs[l] = r.spec(l)
	}
	return specs
}

// sameMeasurement reports whether two measurements are bit-identical in
// every field identicalMeasurements checks.
func sameMeasurement(a, b *Measurement) bool {
	return a.P2P == b.P2P && a.PosMin == b.PosMin && a.PosMax == b.PosMax &&
		a.VMin == b.VMin && a.VMax == b.VMax &&
		a.ChipPowerMilliwatts == b.ChipPowerMilliwatts && a.NominalPos == b.NominalPos
}

// sameErr reports whether two run errors match (both nil, or both with
// the same message).
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// checkWarmCounts asserts the pool gathered exactly the warm starts a
// case should have taken.
func checkWarmCounts(t *testing.T, pool *SessionPool, c warmCase, lanes int) {
	t.Helper()
	var wantRuns, wantSkipped int64
	if c.hit {
		wantRuns, wantSkipped = 1, warmSteps(c.probe, pool.cfg.Dt)*int64(lanes)
	}
	if runs, skipped := pool.WarmStarts(); runs != wantRuns || skipped != wantSkipped {
		t.Errorf("%s: pool counted %d warm starts skipping %d lane-steps, want %d and %d",
			c.name, runs, skipped, wantRuns, wantSkipped)
	}
}

// TestWarmStartSessionDeterminism primes a pooled Session, then runs a
// probe on it: every probe must be bit-identical to a fresh session,
// and the pool's counters must show the memo hit exactly where the
// warmups are the same computation.
func TestWarmStartSessionDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	for _, c := range warmCases(1) {
		t.Run(c.name, func(t *testing.T) {
			pool := NewSessionPool(cfg)
			s, err := pool.Get(1.0)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []warmRun{c.prime, c.probe} {
				if err := s.SetVoltageBias(r.laneBias(0)); err != nil {
					t.Fatal(err)
				}
				if err := s.SetCoreGains(r.gains(cfg)); err != nil {
					t.Fatal(err)
				}
				got, gotErr := s.Run(r.spec(0))
				want, wantErr := freshSessionRun(cfg, r)
				if !sameErr(gotErr, wantErr) {
					t.Fatalf("run error %v, fresh session %v", gotErr, wantErr)
				}
				if gotErr == nil {
					identicalMeasurements(t, c.name, got, want)
				}
			}
			pool.Put(s)
			checkWarmCounts(t, pool, c, 1)
			if c.differs {
				p, err1 := freshSessionRun(cfg, c.prime)
				q, err2 := freshSessionRun(cfg, c.probe)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if sameMeasurement(p, q) {
					t.Errorf("%s: prime and probe measure identically; the case cannot catch a wrong hit", c.name)
				}
			}
		})
	}
}

// TestWarmStartBatchDeterminism is the BatchSession twin at the ragged
// width and the two fixed-block widths: lane-local changes (a blip, a
// single-lane bias) must miss, and a hit must leave every lane
// bit-identical to a fresh batch session.
func TestWarmStartBatchDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	for _, lanes := range batchTestWidths {
		for _, c := range warmCases(lanes) {
			t.Run(fmt.Sprintf("lanes=%d/%s", lanes, c.name), func(t *testing.T) {
				pool := NewSessionPool(cfg)
				bs, err := pool.GetBatch(1.0, lanes)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range []warmRun{c.prime, c.probe} {
					if err := setupBatch(bs, cfg, r); err != nil {
						t.Fatal(err)
					}
					got, gotErr := bs.RunBatch(batchSpecs(lanes, r))
					want, wantErr := freshBatchRun(cfg, lanes, r)
					if !sameErr(gotErr, wantErr) {
						t.Fatalf("run error %v, fresh batch session %v", gotErr, wantErr)
					}
					for l := range got {
						identicalMeasurements(t, fmt.Sprintf("%s lane %d", c.name, l), got[l], want[l])
					}
				}
				pool.PutBatch(bs)
				checkWarmCounts(t, pool, c, lanes)
				if c.differs {
					p, err1 := freshBatchRun(cfg, lanes, c.prime)
					q, err2 := freshBatchRun(cfg, lanes, c.probe)
					if err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
					same := true
					for l := range p {
						same = same && sameMeasurement(p[l], q[l])
					}
					if same {
						t.Errorf("%s: prime and probe measure identically; the case cannot catch a wrong hit", c.name)
					}
				}
			})
		}
	}
}

// TestWarmStartBatchSweepPointsHit: two synchronized sweep points run on
// one pooled session share the spin-wait warmup, so the second skips
// the default warmup's 15,000 steps — the memo must really engage, or
// the identity tests above would pass on a memo that never hits.
func TestWarmStartBatchSweepPointsHit(t *testing.T) {
	cfg := DefaultConfig()
	pool := NewSessionPool(cfg)
	s, err := pool.Get(1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{1.5e6, 2e6} {
		spec := RunSpec{Workloads: syncPoint(f), Start: -10e-6, Duration: 12e-6}
		got, err := s.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		identicalMeasurements(t, fmt.Sprintf("point %g", f), got, want)
	}
	if runs, _ := pool.WarmStarts(); runs != 0 {
		t.Errorf("pool counted %d warm starts before the session came back", runs)
	}
	pool.Put(s)
	if runs, skipped := pool.WarmStarts(); runs != 1 || skipped != 15000 {
		t.Errorf("two sweep points: %d warm starts skipping %d steps, want 1 and 15000", runs, skipped)
	}
}

// TestWarmStartBatchPoolCountsConcurrentPuts: sessions returned from
// several goroutines at once each hand the pool their own counts, and
// none is lost. Every session is drawn before any is returned, so each
// starts cold and its second sweep point is its one warm start.
func TestWarmStartBatchPoolCountsConcurrentPuts(t *testing.T) {
	const workers = 4
	cfg := DefaultConfig()
	pool := NewSessionPool(cfg)
	spec := func(f float64) RunSpec {
		return RunSpec{Workloads: syncPoint(f), Start: 0, Warmup: 2e-6, Duration: 1e-6}
	}
	sessions := make([]*Session, workers)
	for i := range sessions {
		s, err := pool.Get(1.0)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			for _, f := range []float64{1e6 + 1e5*float64(i), 2e6} {
				if _, err := s.Run(spec(f)); err != nil {
					t.Error(err)
					return
				}
			}
			pool.Put(s)
		}(i, s)
	}
	wg.Wait()
	steps := int64(len(warmupInstants(0, 2e-6, cfg.Dt)) - 1)
	if runs, skipped := pool.WarmStarts(); runs != workers || skipped != workers*steps {
		t.Errorf("pool counted %d warm starts skipping %d steps, want %d and %d", runs, skipped, workers, workers*steps)
	}
}

// TestWarmStartBatchEvaluatesOnce: the scan's samples are the run's
// samples — a constant warmup samples each distinct workload once per
// instant whether it hits or misses, and a warmup that stops being
// constant halfway does not sample its scanned prefix twice.
func TestWarmStartBatchEvaluatesOnce(t *testing.T) {
	cfg := DefaultConfig()
	const start, warmup, dur = 0.0, 2e-6, 1e-6
	instants := int64(len(warmupInstants(start, warmup, cfg.Dt)))
	window := int64(math.Round(dur / cfg.Dt))
	var count int64
	counting := func(f func(t float64) float64) Workload {
		return FuncWorkload{Label: "counted", Fn: func(t float64) float64 { count++; return f(t) }}
	}
	steady := counting(func(float64) float64 { return 30 })
	mid := warmupInstants(start, warmup, cfg.Dt)[instants/2]
	step := counting(func(t float64) float64 {
		if t >= mid {
			return 40
		}
		return 30
	})
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := NewBatchSession(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		w    Workload
	}{{"constant-miss", steady}, {"constant-hit", steady}, {"step-halfway", step}} {
		spec := RunSpec{Workloads: [NumCores]Workload{tc.w}, Start: start, Warmup: warmup, Duration: dur}
		count = 0
		if _, err := s.Run(spec); err != nil {
			t.Fatal(err)
		}
		if want := instants + window; count != want {
			t.Errorf("session %s: workload sampled %d times over %d instants", tc.name, count, want)
		}
		count = 0
		if _, err := bs.RunBatch([]RunSpec{spec, {Start: start, Warmup: warmup, Duration: dur}, spec}); err != nil {
			t.Fatal(err)
		}
		// The batch evaluation plan never merges FuncWorkloads: lanes 0
		// and 2 each sample their own copy.
		if want := 2 * (instants + window); count != want {
			t.Errorf("batch %s: workload sampled %d times over %d instants of two lanes", tc.name, count, want/2)
		}
	}
}
