// Command perfbench is voltnoise's benchmark. It starts an in-process
// voltnoised (service.NewServer behind a loopback listener), drives it
// with the repository's own service/client from the same process in a
// closed loop, verifies every result's bytes, and prints the
// end-to-end metrics; with -trace 1 it prints the per-layer metrics
// instead. Run it from the repository root:
//
//	bash perfbench/run.sh --workload sweep-batched --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. BENCHMARK.json lists
// the workloads and metrics; perfbench/METRICS.md documents them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"voltnoise/internal/pdn"
	"voltnoise/internal/service"
)

// setupReps is how many deployments a run sets up, one after another;
// set-up time is the median, and the measured rounds rotate over all of
// them.
const setupReps = 10

// workDir holds every file a run writes, inside the checkout.
const workDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 25, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	record := fs.String("record-digests", "", "seed range like 1-10: print the committed-digest lines of those seeds instead of measuring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *workload) && *record == "" {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	digests, err := parseDigests(digestsFile)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	ctx := context.Background()
	if *record != "" {
		if err := recordDigests(ctx, *record, digests, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	res, err := measure(ctx, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, digests, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measure runs one benchmark run: set-up (several times), the measured
// closed loop, and in traced runs the layer probes.
func measure(ctx context.Context, workload string, seed int64, window time.Duration, traced bool, digests map[string]string, out io.Writer) (*result, error) {
	refStart := hostRefLoop()
	runDir := filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	var setups []float64
	var deps []*deployment
	defer func() {
		for _, d := range deps {
			d.close()
		}
	}()
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		dep, err := deploy(ctx, digests, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		deps = append(deps, dep)
	}
	if tr != nil {
		tr.mu.Lock()
		tr.getUs, tr.putUs, tr.hits = nil, nil, 0 // count the measured window's store calls only
		tr.mu.Unlock()
	}

	b := &bench{deps: deps, digests: digests, tr: tr, rec: newRecorder()}
	if traced {
		// The traced run splits its window between traffic (traced and
		// untraced operations alternate) and the layer probes.
		window /= 2
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	b.drive(ctx, workload, seed, t0.Add(window))
	elapsed := time.Since(t0).Seconds()
	cpu := (cpuTime() - cpu0).Seconds()
	rec := b.rec

	fmt.Fprintf(out, "workload %s seed %d: %d operations in %.2f s (%d cold jobs), set-up runs %s s\n",
		workload, seed, rec.attempted, elapsed, rec.cold, fmtList(setups))
	fmt.Fprintf(out, "error_rate %.4g (%d failed of %d attempted)\n", float64(rec.failed)/float64(max(rec.attempted, 1)), rec.failed, rec.attempted)
	for _, e := range rec.errs {
		fmt.Fprintf(out, "  error: %s\n", e)
	}
	fmt.Fprintf(out, "digests: %d results checked against committed digests, %d without one (seed not recorded); every result checked against its done event\n",
		rec.committed, rec.uncommitted)
	fmt.Fprintf(out, "core.calibrated_width %v lanes (most points per chunk in each set-up sweep's stream; rounds rotate over these servers)\n", widths(deps))

	res := &result{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: map[string]metric{}}
	set := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(out, "%s: no samples\n", name)
			res.Correct = false
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	}
	if !traced {
		jobTail, jobPct := tailOrMax(rec.job, "job_tail_ms", out)
		hitTail, hitPct := tailOrMax(rec.hit, "hit_tail_ms", out)
		set("setup_s", median(setups))
		jobMs := func(r round) float64 { return r.jobMs }
		jobP50, _ := rec.roundMedian(0, jobMs)
		perRound := func(f func(round) float64) float64 {
			v, _ := rec.roundMedian(0, f)
			return v
		}
		set("job_p50_ms", jobP50)
		set("job_tail_ms", jobTail)
		set("jobs_per_s", perRound(func(r round) float64 { return float64(r.jobs) / r.wall.Seconds() }))
		set("hit_p50_ms", median(rec.hit))
		set("hit_tail_ms", hitTail)
		set("replay_p50_ms", median(rec.replay))
		set("ops_per_s", perRound(func(r round) float64 { return float64(r.ops) / r.wall.Seconds() }))
		set("cpu_ms_per_op", perRound(func(r round) float64 { return r.cpu.Seconds() * 1e3 / float64(r.ops) }))
		fmt.Fprintf(out, "rounds: %d measured; whole window: %.4f jobs/s, %.4f ops/s, %.4f cpu ms/op, cold-job median %.4f ms\n",
			len(rec.rounds), float64(rec.cold)/elapsed, float64(rec.completed())/elapsed, cpu*1e3/float64(max(rec.completed(), 1)), median(rec.job))
		set("rss_peak_mb", peakRSSMB())
		studies := make([]string, 0, len(rec.byStudy))
		for st := range rec.byStudy {
			studies = append(studies, string(st))
		}
		sort.Strings(studies)
		for _, st := range studies {
			xs := rec.byStudy[service.Study(st)]
			fmt.Fprintf(out, "cold %s: median %.3f ms over %d jobs\n", st, median(xs), len(xs))
		}
		// The lane width is calibrated per server, so rounds split by it.
		for _, w := range []int{pdn.DefaultBatchLanes, pdn.WideBatchLanes} {
			if v, n := rec.roundMedian(w, jobMs); n > 0 {
				fmt.Fprintf(out, "job_p50_ms %.3f over %d rounds at calibrated width %d\n", v, n, w)
			}
		}
		fmt.Fprintf(out, "job_tail_ms is p%.1f of %d cold jobs; hit_tail_ms is p%.1f of %d hits; replay_p50_ms over %d replays\n",
			jobPct, len(rec.job), hitPct, len(rec.hit), len(rec.replay))
	} else {
		if err := layerMetrics(ctx, workload, seed, b, runDir, set, out); err != nil {
			return nil, err
		}
	}
	refEnd := hostRefLoop()
	if traced {
		set("host.ref_ns", (refStart+refEnd)/2)
	}
	fmt.Fprintf(out, "host.ref_ns start %.4f end %.4f (fixed pure-Go loop, ns per iteration; printed only)\n", refStart, refEnd)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-36s %12.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// tailOrMax is tail, falling back to the largest sample (and saying
// so) when too few samples support any percentile.
func tailOrMax(xs []float64, name string, out io.Writer) (float64, float64) {
	if v, pct, ok := tail(xs); ok {
		return v, pct
	}
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	fmt.Fprintf(out, "%s: only %d samples, fewer than %d beyond any percentile; reporting the maximum\n", name, len(xs), tailMinBeyond+1)
	return sorted(xs)[len(xs)-1], 100
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// workloadRequests returns the seeded requests the layer probes use:
// the workload's first sweep, and a population, a Vmin walk and an EPI
// profile drawn from the same seed.
func workloadRequests(workload string, seed int64) (sweep, vminReq, pop, epiReq *service.Request) {
	batch := 0
	if workload == wlSweepLane {
		batch = 1
	}
	sweep = newGen(seed).sweep(batch)
	g := newGen(seed)
	return sweep, g.vmin(), g.population(100, 199, 4), g.epi()
}

// layerMetrics computes the traced run's per-layer metrics from the
// traffic just driven, its spans, and the layer probes.
func layerMetrics(ctx context.Context, workload string, seed int64, b *bench, runDir string, set func(string, float64), out io.Writer) error {
	rec, tr := b.rec, b.tr
	path := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err := tr.writeSpans(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	getUs, putUs, hits := tr.getUs, tr.putUs, tr.hits
	tr.mu.Unlock()
	self := selfTimes(spans)
	selfNames := make([]string, 0, len(self))
	for n := range self {
		selfNames = append(selfNames, n)
	}
	sort.Strings(selfNames)
	for _, n := range selfNames {
		fmt.Fprintf(out, "self time %-10s median %10.3f ms over %d spans\n", n, median(self[n])/1e3, len(self[n]))
	}

	queue, runMs, deliver := serviceTimes(spans)
	set("service.accept_ms", median(tr.named("accept")))
	set("service.queue_ms", median(queue))
	set("service.run_ms", median(runMs))
	set("service.deliver_ms", median(deliver))
	set("service.sse_replay_ms", median(tr.named("sse")))
	set("service.assemble_ms", median(tr.named("assemble")))
	set("service.events_per_job", mean(rec.eventsPerJob))
	set("store.get_us", median(getUs))
	set("store.put_us", median(putUs))
	set("store.hit_ratio", float64(hits)/float64(max(len(getUs), 1)))
	set("exec.lane_fill", mean(rec.laneFill))
	set("exec.chunks_per_job", mean(rec.chunksPerJob))
	set("core.calibrated_width", mean(widths(b.deps)))
	set("trace.overhead_frac", median(rec.jobT)/median(rec.job)-1)
	set("trace.overhead_frac.hit", median(rec.hitT)/median(rec.hit)-1)

	m := map[string]float64{}
	sweep, vminReq, pop, epiReq := workloadRequests(workload, seed)
	if err := probeSetupLayers(m); err != nil {
		return fmt.Errorf("probing stressmark/core set-up: %w", err)
	}
	if err := probePDN(m); err != nil {
		return fmt.Errorf("probing pdn: %w", err)
	}
	lab, err := newProbeLab()
	if err != nil {
		return err
	}
	width := lab.Platform.Sessions().AutoBatchWidth()
	if err := probeCore(ctx, lab, width, m); err != nil {
		return fmt.Errorf("probing core: %w", err)
	}
	stepW := m["pdn.step_ns_per_lane.w16"]
	if v, ok := m[fmt.Sprintf("pdn.step_ns_per_lane.w%d", width)]; ok {
		stepW = v
	}
	m["core.outside_step_frac"] = 1 - stepW/m["core.run_ns_per_lane_step.batched"]
	if workload == wlSweepLane {
		m["core.outside_step_frac"] = 1 - m["pdn.step_ns.w1"]/m["core.run_ns_per_lane_step.w1"]
	}
	recNoise, err := probeNoise(ctx, lab, sweep, m)
	if err != nil {
		return fmt.Errorf("probing noise: %w", err)
	}
	if err := probeVmin(ctx, lab, vminReq, width, m); err != nil {
		return fmt.Errorf("probing vmin: %w", err)
	}
	recPop, err := probePopulation(ctx, pop, width, m)
	if err != nil {
		return fmt.Errorf("probing population: %w", err)
	}
	if err := probeEPI(ctx, epiReq, m); err != nil {
		return fmt.Errorf("probing epi: %w", err)
	}
	reqs := []*service.Request{sweep, vminReq, pop, epiReq}
	if err := probeHash(reqs, m); err != nil {
		return fmt.Errorf("probing service hash: %w", err)
	}
	if err := probeJournal(filepath.Join(runDir, "probe-journal"), reqs, m); err != nil {
		return fmt.Errorf("probing journal: %w", err)
	}
	fmt.Fprintf(out, "probe lab calibrated width %d lanes\n", width)
	fmt.Fprintln(out, recNoise)
	fmt.Fprintln(out, recPop)
	for n, v := range m {
		set(n, v)
	}
	return nil
}
