package main

// endToEndUnits lists the untraced run's metrics with their units, in
// BENCHMARK.json's order.
var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"hit_p50_ms", "ms"},
	{"hit_tail_ms", "ms"},
	{"replay_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
}

// layerUnits lists the traced run's per-layer metrics with their units;
// perfbench/METRICS.md says what each measures and what it should move.
var layerUnits = map[string]string{
	"pdn.step_ns.w1":                    "ns",
	"pdn.step_ns_per_lane.w4":           "ns",
	"pdn.step_ns_per_lane.w8":           "ns",
	"pdn.step_ns_per_lane.w16":          "ns",
	"pdn.build_us.w1":                   "us",
	"pdn.build_us.w16":                  "us",
	"skitter.sample_ns":                 "ns",
	"core.run_ns_per_lane_step.w1":      "ns",
	"core.run_ns_per_lane_step.batched": "ns",
	"core.run_ns_per_lane_step.shared":  "ns",
	"core.outside_step_frac":            "frac",
	"core.calibrate_ms":                 "ms",
	"core.calibrated_width":             "lanes",
	"exec.lane_fill":                    "frac",
	"exec.chunks_per_job":               "count",
	"noise.run_ms_per_point":            "ms",
	"noise.ns_per_lane_step":            "ns",
	"noise.overhead_ms":                 "ms",
	"vmin.walk_ms":                      "ms",
	"vmin.useful_lane_frac":             "frac",
	"population.chip_us":                "us",
	"population.batched_chip_frac":      "frac",
	"epi.instr_us":                      "us",
	"uarch.cycles_per_s":                "1/s",
	"stressmark.search_ms":              "ms",
	"service.accept_ms":                 "ms",
	"service.queue_ms":                  "ms",
	"service.run_ms":                    "ms",
	"service.deliver_ms":                "ms",
	"service.hash_us":                   "us",
	"service.sse_replay_ms":             "ms",
	"service.assemble_ms":               "ms",
	"service.events_per_job":            "count",
	"store.get_us":                      "us",
	"store.put_us":                      "us",
	"store.hit_ratio":                   "frac",
	"journal.accept_us":                 "us",
	"trace.overhead_frac":               "frac",
	"trace.overhead_frac.hit":           "frac",
	"host.ref_ns":                       "ns",
}

// unitOf returns a metric's unit; an unlisted name is a bug.
func unitOf(name string) string {
	for _, m := range endToEndUnits {
		if m.name == name {
			return m.unit
		}
	}
	if u, ok := layerUnits[name]; ok {
		return u
	}
	panic("perfbench: unlisted metric " + name)
}
