package main

// layerMetric is one per-layer metric the traced run reports.
type layerMetric struct{ name, unit string }

// perLayer lists every metric --trace 1 reports, on every workload; a
// layer a workload does not exercise reads 0. The list must match
// BENCHMARK.json's per_layer list (TestBenchmarkJSONMatches). Totals are
// per operation: one engine run (winter-batch, winter-monitored), one
// sharded winter plus one econ sweep (fleet), one ladder pass (ops-serve).
var perLayer = buildPerLayer()

func buildPerLayer() []layerMetric {
	var out []layerMetric
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, layerMetric{n, unit})
		}
	}
	// CPU profile attribution.
	for _, m := range profiledModules {
		add("s", m+".self_s")
	}
	add("s", "bench.self_s", "runtime.gc_s", "runtime.sched_s", "other.self_s", "profile.cpu_s")
	add("ratio", "profile.other_share")
	// Spans around the engines' public calls.
	add("s", "core.new_s", "core.run_s", "core.save_s")
	// Work counts from the engines' telemetry registries and Results.
	add("count", "simkernel.events", "core.weather_ticks", "core.failure_ticks",
		"workload.cycles", "workload.bad_hashes")
	add("h", "sim.host_hours")
	add("bytes", "delta.bytes_scanned")
	add("ratio", "delta.literal_ratio")
	add("count", "monitor.rounds", "monitor.host_collections", "tsdb.samples")
	add("bits", "tsdb.bits_per_sample")
	// Rules engine.
	add("us", "rules.eval_us_p50", "rules.eval_us_p99")
	add("count", "rules.evals", "rules.incidents")
	// Collection plane under serving load.
	add("ms", "monitor.round_ms_p50", "monitor.round_ms_p99")
	add("ratio", "monitor.pool_hit_ratio", "monitor.ingest_shed_ratio")
	add("us", "tsdb.ingest_us_p50")
	// Dashboard routes, handler time only.
	for _, r := range routeNames {
		add("ms", "dash."+r+"_ms_p50", "dash."+r+"_ms_p99")
	}
	add("ratio", "dash.cache_hit_ratio")
	add("count", "dash.rejected")
	add("ms", "loadgen.lateness_ms_p99")
	// Scale and multi-site engines.
	add("s", "core.sharded_run_s")
	add("ratio", "core.shard_busy_spread")
	add("s", "campaign.econ_cell_s_p50", "campaign.econ_cell_s_max")
	add("us", "core.multisite_step_us_p50", "core.multisite_step_us_p99")
	// Runtime.
	add("count", "runtime.gc_cycles")
	add("ms", "runtime.gc_pause_ms")
	add("count", "os.page_faults")
	// Tracing and run accounting.
	add("ratio", "trace.overhead_ratio")
	add("count", "bench.ops")
	add("ms", "bench.calib_ms")
	// Ops-serve's user-facing figures, from the untraced half.
	add("ms", "serve.query_p50_ms", "serve.query_p99_ms")
	add("count", "serve.query_samples")
	add("1/s", "serve.max_rate_rps")
	add("ms", "serve.round_p99_ms")
	add("ratio", "serve.error_rate")
	return out
}
