package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// foldSeeds names the fold seed corpus: testdata/fold/<study>.json is
// the full event stream of one real job of that study, as a client
// watching from seq 0 receives it (hello, status, partials, done).
var foldSeeds = []Study{StudyFreqSweep, StudyVminWalk, StudyEPIProfile, StudyGuardband, StudyPopulation}

func loadStream(t testing.TB, study Study) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "fold", string(study)+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFoldSeedsAreRealStreams pins the fold seed corpus to the server:
// each stream assembles to the bytes its done event fingerprints.
func TestFoldSeedsAreRealStreams(t *testing.T) {
	for _, study := range foldSeeds {
		var evs []*Event
		if err := json.Unmarshal(loadStream(t, study), &evs); err != nil {
			t.Fatal(err)
		}
		done := evs[len(evs)-1]
		if evs[0].Request == nil || evs[0].Request.Study != study || done.Type != EventDone {
			t.Fatalf("%s: not a complete %s stream", study, study)
		}
		got, err := AssembleResult(evs)
		if err != nil {
			t.Fatalf("%s: %v", study, err)
		}
		if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != done.ResultHash || len(got) != done.ResultBytes {
			t.Fatalf("%s: assembled %d bytes do not match the done event's fingerprint", study, len(got))
		}
	}
}

// partialEvent wraps a wire partial in a stream event.
func partialEvent(t testing.TB, p any) *Event {
	t.Helper()
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return &Event{Type: EventPartial, Partial: raw}
}

// TestAssembleStreamCases covers streams the determinism grid never
// sends: reordered, conflicting and out-of-range partials.
func TestAssembleStreamCases(t *testing.T) {
	hello := func(req *Request) *Event { return &Event{Type: EventHello, Request: req} }
	// A three-step walk (1.0, 0.995, 0.99) failing at the last step:
	// the margin is the last safe bias's, 0.5 %.
	vminReq := &Request{Study: StudyVminWalk, VminWalk: &VminWalkParams{FreqHz: 2e6, FailVoltage: 0.875, MinBias: 0.99}}
	steps := []VminStepPartial{
		{Step: 1, Bias: 1.0, MinV: 0.90},
		{Step: 2, Bias: 0.995, MinV: 0.88},
		{Step: 3, Bias: 0.99, MinV: 0.87},
		{Step: 2, Bias: 0.995, MinV: 0.86}, // conflicts with steps[1]
	}
	vminStream := func(order ...int) []*Event {
		evs := []*Event{hello(vminReq)}
		for _, i := range order {
			evs = append(evs, partialEvent(t, steps[i]))
		}
		return evs
	}
	lastSafe := steps[1].Bias // runtime arithmetic, as the fold does it
	wantVmin, err := json.Marshal(&VminWalkResult{FreqHz: 2e6, Failed: true, MarginPercent: (1 - lastSafe) * 100})
	if err != nil {
		t.Fatal(err)
	}
	sweepReq := &Request{Study: StudyFreqSweep, FreqSweep: &FreqSweepParams{LoHz: 1e6, HiHz: 2e6, Points: 1}}
	point := func(worst float64) FreqSweepPartial {
		return FreqSweepPartial{Points: []IndexedFreqPoint{{Index: 0, Point: FreqSweepPoint{FreqHz: 1e6, P2P: []float64{worst}, Worst: worst}}}}
	}
	epiReq := &Request{Study: StudyEPIProfile, EPIProfile: &EPIProfileParams{}}
	cases := []struct {
		name   string
		events []*Event
		want   []byte // nil: an error is expected
	}{
		{"vmin in order", vminStream(0, 1, 2), wantVmin},
		{"vmin permuted", vminStream(2, 0, 1), wantVmin},
		{"vmin exact duplicate", vminStream(0, 1, 1, 2), wantVmin},
		{"vmin missing step", vminStream(0, 2), nil},
		{"vmin conflicting step", vminStream(0, 1, 2, 3), nil},
		{"vmin step after the failure", vminStream(0, 3, 2), nil},
		{"vmin truncated walk", vminStream(0, 1), nil},
		{"freq_sweep conflicting index", []*Event{hello(sweepReq), partialEvent(t, point(10)), partialEvent(t, point(11))}, nil},
		{"freq_sweep index out of range", []*Event{hello(sweepReq), partialEvent(t, FreqSweepPartial{Points: []IndexedFreqPoint{{Index: 1}}})}, nil},
		// Sized from the stream, this chunk would demand a 2^40-entry
		// table; sized from the profiled table it is out of range.
		{"epi chunk outside table", []*Event{hello(epiReq), partialEvent(t, EPIProfilePartial{
			Start: 1 << 40, End: 1<<40 + 1, Entries: []EPIPartialEntry{{Mnemonic: "AR", Unit: "FXU", PowerWatts: 1, IPC: 1}},
		})}, nil},
		{"epi chunk length mismatch", []*Event{hello(epiReq), partialEvent(t, EPIProfilePartial{Start: 0, End: 2})}, nil},
		{"guardband no partial", []*Event{hello(&Request{Study: StudyGuardband, Guardband: &GuardbandParams{
			Droops: make([]float64, 7), Trace: []UtilizationPhase{{ActiveCores: 1, DurationS: 1}},
		}})}, nil},
		{"no hello", vminStream(0, 1, 2)[1:], nil},
	}
	for _, tc := range cases {
		got, err := AssembleResult(tc.events)
		switch {
		case tc.want == nil && err == nil:
			t.Errorf("%s: assembled %s, want an error", tc.name, got)
		case tc.want != nil && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != nil && !bytes.Equal(got, tc.want):
			t.Errorf("%s: assembled %s, want %s", tc.name, got, tc.want)
		}
	}
}

// recipe drives mutate: each next() consumes one byte, cycling, and
// an empty recipe reads zeros.
type recipe struct {
	b []byte
	i int
}

func (r *recipe) next() int {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[r.i%len(r.b)]
	r.i++
	return int(v)
}

// mutate returns a copy of evs with its partial events duplicated,
// permuted and possibly truncated as the recipe directs; the other
// events keep their places ahead of the partials. truncated reports
// whether partials were dropped.
func mutate(evs []*Event, rb []byte) (out []*Event, truncated bool) {
	var parts []*Event
	for _, e := range evs {
		if e.Type == EventPartial {
			parts = append(parts, e)
		} else {
			out = append(out, e)
		}
	}
	if len(parts) == 0 {
		return out, false
	}
	r := &recipe{b: rb}
	for n := r.next() % (len(parts) + 1); n > 0; n-- {
		parts = append(parts, parts[r.next()%len(parts)])
	}
	for i := len(parts) - 1; i > 0; i-- {
		j := r.next() % (i + 1)
		parts[i], parts[j] = parts[j], parts[i]
	}
	if r.next()%4 == 3 {
		parts = parts[:r.next()%(len(parts)+1)]
		truncated = true
	}
	return append(out, parts...), truncated
}

// FuzzFold feeds event streams, seeded with the five real streams
// above, through AssembleResult and checks the fold contract:
//
//   - no input panics or allocates from a stream-supplied size;
//   - a permuted and duplicated stream assembles to the same bytes as
//     the stream as given, or fails like it; a truncated one to the
//     same bytes or an error;
//   - folding the decoded (typed) partials and folding them after a
//     json.Marshal → json.Unmarshal round trip give identical bytes —
//     the property that makes the runner's blob, folded from typed
//     partials, equal the bytes assembled from the wire.
func FuzzFold(f *testing.F) {
	for _, study := range foldSeeds {
		raw := loadStream(f, study)
		f.Add(raw, []byte{})
		f.Add(raw, []byte{3, 1, 4, 1, 5, 9, 2, 6})
		f.Add(raw, []byte{1, 0, 7, 3})
	}
	f.Fuzz(func(t *testing.T, raw, rb []byte) {
		var evs []*Event
		if err := json.Unmarshal(raw, &evs); err != nil {
			return
		}
		for _, e := range evs {
			if e == nil {
				return
			}
		}
		ref, refErr := AssembleResult(evs)
		mutated, truncated := mutate(evs, rb)
		got, err := AssembleResult(mutated)
		switch {
		case err == nil && refErr != nil:
			if !truncated {
				t.Fatalf("reordered stream assembles (%s) where the original fails: %v", got, refErr)
			}
		case err == nil && !bytes.Equal(got, ref):
			t.Fatalf("mutated stream assembles to different bytes:\n%s\n%s", got, ref)
		case err != nil && refErr == nil && !truncated:
			t.Fatalf("reordered stream fails where the original assembles: %v", err)
		}
		checkRoundTrip(t, evs)
	})
}

// checkRoundTrip folds the stream's decoded partials directly and
// after a JSON round trip and demands identical outcomes.
func checkRoundTrip(t *testing.T, evs []*Event) {
	var hello *Request
	for _, e := range evs {
		if e.Type == EventHello && e.Request != nil {
			hello = e.Request
			break
		}
	}
	if hello == nil {
		return
	}
	req, err := hello.Normalize()
	if err != nil {
		return
	}
	switch req.Study {
	case StudyFreqSweep:
		roundTrip(t, req, evs, foldFreqSweep)
	case StudyVminWalk:
		roundTrip(t, req, evs, foldVminWalk)
	case StudyEPIProfile:
		roundTrip(t, req, evs, foldEPIProfile)
	case StudyGuardband:
		roundTrip(t, req, evs, foldGuardband)
	case StudyPopulation:
		roundTrip(t, req, evs, foldPopulation)
	}
}

func roundTrip[P, R any](t *testing.T, req *Request, evs []*Event, fold func(*Request, []P) (R, error)) {
	var typed, round []P
	for _, e := range evs {
		if e.Type != EventPartial {
			continue
		}
		var p, q P
		if json.Unmarshal(e.Partial, &p) != nil {
			return
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("decoded partial does not re-encode: %v", err)
		}
		if err := json.Unmarshal(b, &q); err != nil {
			t.Fatalf("re-encoded partial does not decode: %v", err)
		}
		typed, round = append(typed, p), append(round, q)
	}
	encode := func(parts []P) ([]byte, error) {
		res, err := fold(req, parts)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}
	a, errA := encode(typed)
	b, errB := encode(round)
	if (errA == nil) != (errB == nil) || !bytes.Equal(a, b) {
		t.Fatalf("JSON round trip changes the fold: %s (%v) vs %s (%v)", a, errA, b, errB)
	}
}
