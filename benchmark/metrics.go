package main

// metricDef is one metric the benchmark reports. BENCHMARK.json at
// the repository root lists the same metrics; a test keeps the two in
// step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the baseline median by which an
	// end-to-end metric may worsen before a change counts as a
	// regression. Per-layer metrics have none.
	bound float64
}

// endToEnd are the metrics a revnic user sees. Every workload reports
// all of them from an untraced run. The timing bounds are the largest
// a BENCHMARK.json bound may be: run-to-run spreads on a shared 2-vCPU
// VM range from 5% to 25% with the host's load (README.md). Coverage is
// exact, so it may not drop at all.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "ops/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"coverage_pct", "%", "higher", 0},
}

// perLayer are the metrics of single layers, from the traced run.
// Counters are exact; a layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{name: "symexec.explore_ms", unit: "ms", better: "lower"},
	{name: "symexec.executed_blocks", unit: "count/op", better: "lower"},
	{name: "symexec.forks", unit: "count/op", better: "lower"},
	{name: "symexec.killed_loops", unit: "count/op", better: "lower"},
	{name: "symexec.shards_effective", unit: "count/op", better: "higher"},
	{name: "symexec.shard_collapses", unit: "count/op", better: "lower"},
	{name: "ir.translated_blocks", unit: "count/op", better: "lower"},
	{name: "expr.arena_nodes", unit: "count/op", better: "lower"},
	{name: "solver.queries", unit: "count/op", better: "lower"},
	{name: "solver.cache_hits", unit: "count/op", better: "higher"},
	{name: "solver.model_hits", unit: "count/op", better: "higher"},
	{name: "solver.hit_ratio", unit: "ratio", better: "higher"},
	{name: "cfg.build_ms", unit: "ms", better: "lower"},
	{name: "cfg.static_ms", unit: "ms", better: "lower"},
	{name: "cfg.blocks", unit: "count/op", better: "higher"},
	{name: "cfg.funcs", unit: "count/op", better: "higher"},
	{name: "synth.generate_ms", unit: "ms", better: "lower"},
	{name: "synth.code_bytes", unit: "bytes/op", better: "lower"},
	{name: "template.instantiate_ms", unit: "ms", better: "lower"},
	{name: "core.equivalence_ms", unit: "ms", better: "lower"},
	{name: "difffuzz.fuzz_ms", unit: "ms", better: "lower"},
	{name: "difffuzz.schedules_per_s", unit: "1/s", better: "higher"},
	{name: "difffuzz.schedules", unit: "count/op", better: "higher"},
	{name: "difffuzz.coverage_keys", unit: "count/op", better: "higher"},
	{name: "difffuzz.corpus", unit: "count/op", better: "higher"},
	{name: "difffuzz.unexplored", unit: "count/op", better: "lower"},
	{name: "difffuzz.divergences", unit: "count/op", better: "lower"},
	{name: "jobsvc.submit_ms", unit: "ms", better: "lower"},
	{name: "jobsvc.queue_wait_ms", unit: "ms", better: "lower"},
	{name: "jobsvc.run_ms", unit: "ms", better: "lower"},
	{name: "jobsvc.fetch_ms", unit: "ms", better: "lower"},
	{name: "jobsvc.rejected", unit: "count", better: "lower"},
	{name: "jobsvc.failed", unit: "count", better: "lower"},
	{name: "go.alloc_mb_per_op", unit: "MB/op", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// spanMetrics are the per-layer timings read off the traced run: the
// mean self time of the spans of that name.
var spanMetrics = []string{
	"symexec.explore", "cfg.build", "cfg.static", "synth.generate",
	"template.instantiate", "core.equivalence", "difffuzz.fuzz",
	"jobsvc.submit", "jobsvc.queue_wait", "jobsvc.run", "jobsvc.fetch",
}
