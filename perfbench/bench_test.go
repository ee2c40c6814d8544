package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"voltnoise/internal/service"
)

func hashes(t *testing.T, reqs []*service.Request) []string {
	t.Helper()
	out := make([]string, len(reqs))
	for i, r := range reqs {
		h, err := r.Hash()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = h
	}
	return out
}

// sequences returns every seeded request sequence a run draws.
func sequences(seed int64) map[string][]*service.Request {
	out := map[string][]*service.Request{}
	g, l := newGen(seed), newGen(seed)
	for i := 0; i < 24; i++ {
		out[wlSweepBatched] = append(out[wlSweepBatched], g.sweep(0))
		out[wlSweepLane] = append(out[wlSweepLane], l.sweep(1))
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	a, b, c := sequences(7), sequences(7), sequences(8)
	for name := range a {
		ha, hb, hc := hashes(t, a[name]), hashes(t, b[name]), hashes(t, c[name])
		if !reflect.DeepEqual(ha, hb) {
			t.Errorf("%s: seed 7 drew two different sequences", name)
		}
		if reflect.DeepEqual(ha, hc) {
			t.Errorf("%s: seeds 7 and 8 drew the same sequence", name)
		}
		seen := map[string]bool{}
		for _, h := range ha {
			if seen[h] {
				t.Errorf("%s: request %s drawn twice; every cold job must be distinct", name, h[:12])
			}
			seen[h] = true
		}
	}
	// The two sweep workloads differ only in the batch knob, which the
	// hash excludes: they share one digest set.
	if !reflect.DeepEqual(hashes(t, a[wlSweepBatched]), hashes(t, a[wlSweepLane])) {
		t.Error("sweep-lane and sweep-batched drew different request hashes")
	}
	for _, r := range a[wlSweepLane] {
		if r.Batch != 1 {
			t.Fatalf("sweep-lane request with batch %d", r.Batch)
		}
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	if _, _, ok := tail(make([]float64, tailMinBeyond)); ok {
		t.Error("tail of 10 samples reported a percentile")
	}
	for n := tailMinBeyond + 1; n <= 200; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i * 7919) % n) // a permutation of 0..n-1
		}
		v, pct, ok := tail(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailMinBeyond {
			t.Fatalf("n=%d: %d samples beyond the tail, want exactly %d", n, beyond, tailMinBeyond)
		}
		if want := float64(n-1-tailMinBeyond) / float64(n-1) * 100; math.Abs(pct-want) > 1e-9 {
			t.Fatalf("n=%d: percentile %g, want %g", n, pct, want)
		}
	}
	// Ties at the cut may not count as beyond it.
	xs := []float64{1, 2, 3, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}
	v, _, ok := tail(xs)
	if !ok || v != 4 {
		t.Errorf("tail with ties = %v, %v; want 4 (the 11 fives lie beyond it)", v, ok)
	}
}

func TestFlippedByteFailsDigest(t *testing.T) {
	blob := []byte(`{"sync":true,"points":[{"freq_hz":2000000,"p2p":[1,2,3,4,5,6],"worst":6}]}`)
	good := sum(blob)
	if err := checkBlob(blob, good, good, good); err != nil {
		t.Fatalf("intact blob: %v", err)
	}
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x01
		if checkBlob(bad, good, "", "") == nil {
			t.Fatalf("byte %d flipped passed the done-event check", i)
		}
		if checkBlob(bad, "", good, "") == nil {
			t.Fatalf("byte %d flipped passed the committed-digest check", i)
		}
		if checkBlob(bad, "", "", good) == nil {
			t.Fatalf("byte %d flipped passed the earlier-in-run check", i)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Name: "job", Start: 0, End: 10}
	kids := []span{
		{ID: 2, Parent: 1, Start: 1, End: 3},
		{ID: 3, Parent: 1, Start: 2, End: 5},  // overlaps the first: [1,5] counts once
		{ID: 4, Parent: 1, Start: 8, End: 12}, // clipped to the parent's end
	}
	if got := selfTime(parent, kids); got != 4 {
		t.Errorf("self time %g, want 10 - (4 + 2) = 4", got)
	}
	all := append([]span{parent}, kids...)
	all = append(all, span{ID: 5, Parent: 3, Name: "leaf", Start: 2.5, End: 3})
	self := selfTimes(all)
	if got := self["job"]; len(got) != 1 || got[0] != 4 {
		t.Errorf("selfTimes[job] = %v, want [4]", got)
	}
	if got := self["leaf"]; len(got) != 1 || got[0] != 0.5 {
		t.Errorf("selfTimes[leaf] = %v, want [0.5]", got)
	}
}

func TestServiceTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 9000},
		{ID: 2, Parent: 1, Name: "store.get", Start: 100, End: 200},
		{ID: 3, Parent: 1, Name: "runner", Start: 1200, End: 8000},
		{ID: 4, Parent: 1, Name: "store.get", Start: 8500, End: 8600}, // a later lookup, not the acceptance
	}
	queue, run, deliver := serviceTimes(spans)
	if !reflect.DeepEqual(queue, []float64{1}) || !reflect.DeepEqual(run, []float64{6.8}) || !reflect.DeepEqual(deliver, []float64{1}) {
		t.Errorf("queue %v run %v deliver %v; want [1] [6.8] [1] ms", queue, run, deliver)
	}
}

func TestCommittedDigestsParse(t *testing.T) {
	d, err := parseDigests(digestsFile)
	if err != nil {
		t.Fatal(err)
	}
	h, err := warmupRequest().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if d[h] == "" {
		t.Error("the set-up sweep has no committed digest")
	}
	if _, err := parseDigests("abc def\n"); err == nil {
		t.Error("malformed digest line accepted")
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the
// metrics the program prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	if !reflect.DeepEqual(wls, workloadNames) {
		t.Errorf("workloads %v, program runs %v", wls, workloadNames)
	}
	if len(spec.EndToEnd) != len(endToEndUnits) {
		t.Errorf("%d end-to-end metrics listed, program prints %d", len(spec.EndToEnd), len(endToEndUnits))
	}
	for i, m := range spec.EndToEnd {
		if i < len(endToEndUnits) && (m.Name != endToEndUnits[i].name || m.Unit != endToEndUnits[i].unit) {
			t.Errorf("end-to-end %d: listed %s (%s), program prints %s (%s)", i, m.Name, m.Unit, endToEndUnits[i].name, endToEndUnits[i].unit)
		}
	}
	var listed, printed []string
	for _, m := range spec.PerLayer {
		listed = append(listed, m.Name)
		if layerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer %s: listed unit %q, program prints %q", m.Name, m.Unit, layerUnits[m.Name])
		}
	}
	for n := range layerUnits {
		printed = append(printed, n)
	}
	sort.Strings(listed)
	sort.Strings(printed)
	if !reflect.DeepEqual(listed, printed) {
		t.Errorf("per-layer metrics listed %v\nprogram prints %v", listed, printed)
	}
}
