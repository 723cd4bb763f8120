package main

// metricDoc describes one reported metric. For an end-to-end metric,
// about says what it measures; for a per-layer metric, which end-to-end
// metric it should move and on which workload. BENCHMARK.json lists the
// same names, units and directions, and a test holds the two together.
type metricDoc struct {
	name, unit, better, about string
}

// endToEnd lists the metrics every untraced run prints.
var endToEnd = []metricDoc{
	{"svm_p50_cpu_ms", "ms", "lower", "median svm-adult request latency on the moused CPU clock, send to full reply"},
	{"bnn_p50_cpu_ms", "ms", "lower", "median bnn-hidden16 request latency on the moused CPU clock, send to full reply"},
	{"samples_per_cpu_s", "1/s", "higher", "correctly answered samples per moused CPU second"},
	{"sweeps_per_cpu_s", "1/s", "higher", "unobserved Fig. 9 grids per CPU second"},
	{"observed_sweeps_per_cpu_s", "1/s", "higher", "probe-observed Fig. 9 grids per CPU second"},
	{"setup_s", "s", "lower", "CPU seconds of set-up before the timed phase (median of several)"},
	{"peak_rss_mb", "MB", "lower", "VmHWM of moused (serve-*) or of the benchmark (sim-sweep)"},
}

// perLayer lists the metrics every traced run prints.
var perLayer = []metricDoc{
	{"moused.roundtrip_ms", "ms", "lower", "the printed wall-clock p50 on serve-sparse, serve-bulk"},
	{"moused.http_ms", "ms", "lower", "bnn_p50_cpu_ms, samples_per_cpu_s on serve-bulk (small on serve-sparse)"},
	{"moused.decode_ms", "ms", "lower", "samples_per_cpu_s on serve-bulk"},
	{"fleet.infer_ms", "ms", "lower", "svm_p50_cpu_ms, bnn_p50_cpu_ms on serve-sparse"},
	{"fleet.wait_ms", "ms", "lower", "the printed wall-clock p50 on serve-sparse; linger burns no CPU (small on serve-bulk)"},
	{"fleet.samples_per_batch", "count", "higher", "samples_per_cpu_s on serve-sparse"},
	{"fleet.lane_fill", "ratio", "higher", "samples_per_cpu_s on serve-sparse (about 1 on serve-bulk)"},
	{"fleet.rejected", "count", "lower", "the failed share on serve-sparse, serve-bulk"},
	{"workload.classify_ms", "ms", "lower", "svm_p50_cpu_ms, bnn_p50_cpu_ms, samples_per_cpu_s on serve-sparse, serve-bulk"},
	{"workload.compile_ms", "ms", "lower", "setup_s on serve-sparse, serve-bulk"},
	{"mtj.switchword_ns", "ns", "lower", "samples_per_cpu_s on serve-bulk (nothing on sim-sweep)"},
	{"loadgen.late_ms", "ms", "lower", "nothing: diagnostic of the open-loop generator on serve-sparse"},
	{"loadgen.late_max_ms", "ms", "lower", "nothing: diagnostic of the open-loop generator on serve-sparse"},
	{"workload.phases_ms", "ms", "lower", "setup_s on sim-sweep"},
	{"energy.precost_ms", "ms", "lower", "sweeps_per_cpu_s on sim-sweep"},
	{"sim.segment_ms", "ms", "lower", "sweeps_per_cpu_s on sim-sweep"},
	{"sim.stepping_ms", "ms", "lower", "observed_sweeps_per_cpu_s on sim-sweep"},
	{"probe.observer_ms", "ms", "lower", "observed_sweeps_per_cpu_s on sim-sweep"},
	{"baseline.sonic_ms", "ms", "lower", "sweeps_per_cpu_s, observed_sweeps_per_cpu_s on sim-sweep"},
	{"sim.instructions", "count", "lower", "nothing: exact per-grid count, the denominator of ns per instruction"},
	{"sim.restarts", "count", "lower", "nothing: exact per-grid count, must repeat from run to run"},
}
