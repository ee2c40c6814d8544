package core

import (
	"fmt"
	"testing"
)

// fuzzRun decodes one run of a FuzzWarmStart sequence from five bytes:
// workload kind (low two bits; the high bit ages the gains), bias,
// start, warmup, and a parameter steering the workload. Workloads are
// idle, steady, a synchronized dI/dt mark (whose sync instant may fall
// inside the warmup) or a steady load that blips at one warmup instant.
func fuzzRun(b []byte, dt float64) (spec RunSpec, bias float64, aged bool, label string) {
	kind, param := b[0]%4, b[4]
	bias = [...]float64{1.0, 0.95, 1.05, 0.9}[b[1]%4]
	spec.Start = [...]float64{0, -1e-6, 2e-6}[b[2]%3]
	spec.Warmup = [...]float64{1e-6, 1.5e-6, 2e-6}[b[3]%3]
	spec.Duration = 1e-6
	aged = b[0]&0x80 != 0
	switch kind {
	case 0:
		label = "idle"
	case 1:
		w := Steady("steady", 10+10*float64(param%4))
		for i := range spec.Workloads {
			spec.Workloads[i] = w
		}
		label = fmt.Sprintf("steady %s", w.Name())
	case 2:
		// The sync instant sits 0.5 µs after Start, or inside the
		// warmup when the parameter's high bit is set.
		sync := spec.Start + 0.5e-6
		if param&0x80 != 0 {
			sync = spec.Start - 0.5e-6
		}
		m := syncMark{spin: 24, hi: 50, lo: 16, period: 1 / (1e6 + 0.5e6*float64(param%8)), sync: sync}
		for i := 0; i <= int(param/8)%NumCores; i++ {
			spec.Workloads[i] = m
		}
		label = fmt.Sprintf("sync %+v", m)
	case 3:
		inst := warmupInstants(spec.Start, spec.Warmup, dt)
		at := inst[int(param)%len(inst)]
		spec.Workloads[int(param)%NumCores] = blipAt(30, at)
		label = fmt.Sprintf("blip at instant %d", int(param)%len(inst))
	}
	return spec, bias, aged, label
}

// FuzzWarmStart runs random sequences of runs on one reused session —
// idle, steady, synchronized and one-instant-blip workloads at random
// biases, gains, starts and warmups, so warm starts hit and miss in
// every order — and requires each run to match a fresh session bit for
// bit, errors included.
func FuzzWarmStart(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 1, 2, 0, 0, 0, 5, 2, 0, 0, 0, 9})
	f.Add([]byte{1, 0, 1, 2, 0, 3, 0, 1, 2, 7, 1, 1, 1, 2, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 1, 0x81, 2, 0, 0, 1, 0x82, 130, 0, 0, 1, 3})
	cfg := DefaultConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxRuns = 6
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < maxRuns && len(data) >= 5*(r+1); r++ {
			spec, bias, aged, label := fuzzRun(data[5*r:5*r+5], cfg.Dt)
			gains := cfg.CoreGain
			if aged {
				for i := range gains {
					gains[i] *= 1.07
				}
			}
			if err := s.SetVoltageBias(bias); err != nil {
				t.Fatal(err)
			}
			if err := s.SetCoreGains(gains); err != nil {
				t.Fatal(err)
			}
			got, gotErr := s.Run(spec)
			fresh, err := NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.SetVoltageBias(bias); err != nil {
				t.Fatal(err)
			}
			if err := fresh.SetCoreGains(gains); err != nil {
				t.Fatal(err)
			}
			want, wantErr := fresh.Run(spec)
			if !sameErr(gotErr, wantErr) {
				t.Fatalf("run %d (%s): error %v, fresh session %v", r, label, gotErr, wantErr)
			}
			if gotErr == nil {
				identicalMeasurements(t, fmt.Sprintf("run %d (%s)", r, label), got, want)
			}
		}
		t.Logf("%d warm starts", s.warm.hits)
	})
}
