package main

// perLayer is the traced run's metric set. A metric outside a workload's
// scope reads 0 on it: that workload does not run the layer. The
// <module>.cpu_share figures come from the CPU profile and are added by
// run.py, which owns the profile's attribution.
var perLayer = map[string]metricDef{
	// internal/serve, from Server.Summarize and the replay's decode timing.
	"serve.service_p50_us": {"us", "lower", servedOnly},
	"serve.service_p99_us": {"us", "lower", servedOnly},
	"serve.outside_p50_us": {"us", "lower", servedOnly},
	"serve.decode_ns":      {"ns", "lower", servedOnly},

	// internal/stm: TM.RunCached per op class in the replay (0 for a class
	// the mix lacks), attempts from the replay's TxObserver and the live
	// engine counters, aborts on the simulated machine.
	"stm.get_ns":                  {"ns", "lower", servedOnly},
	"stm.put_ns":                  {"ns", "lower", servedOnly},
	"stm.del_ns":                  {"ns", "lower", servedOnly},
	"stm.resv_ns":                 {"ns", "lower", servedOnly},
	"stm.bill_ns":                 {"ns", "lower", servedOnly},
	"stm.attempts_per_tx":         {"count", "lower", servedOnly},
	"stm.tag_abort_frac":          {"ratio", "lower", servedOnly},
	"stm.kv.attempts_per_commit":  {"count", "lower", servedOnly},
	"stm.res.attempts_per_commit": {"count", "lower", servedOnly},
	"stm.sim_aborts_per_tx":       {"count", "lower", simOnly},

	// internal/vtags, through the counting wrapper in the replay and the
	// live engine's tag statistics.
	"vtags.validate_per_tx":    {"count", "lower", servedOnly},
	"vtags.validate_ns_per_tx": {"ns", "lower", servedOnly},
	"vtags.addtag_per_tx":      {"count", "lower", servedOnly},
	"vtags.addtag_ns_per_tx":   {"ns", "lower", servedOnly},
	"vtags.load_per_tx":        {"count", "lower", servedOnly},
	"vtags.validate_share":     {"ratio", "lower", servedOnly},
	"vtags.overflows_per_kreq": {"count", "lower", servedOnly},
	"vtags.evictions_per_kreq": {"count", "lower", servedOnly},

	// internal/skiplist: the set-plane calls in the replay.
	"skiplist.insert_ns":   {"ns", "lower", servedOnly},
	"skiplist.contains_ns": {"ns", "lower", servedOnly},
	"skiplist.delete_ns":   {"ns", "lower", servedOnly},

	// internal/reclaim: Engine.PoolStats after Shutdown (0 without
	// reclamation).
	"reclaim.kv.high_water_lines":  {"lines", "lower", servedOnly},
	"reclaim.set.high_water_lines": {"lines", "lower", servedOnly},
	"reclaim.pending_objs":         {"count", "lower", servedOnly},

	// internal/telemetry: Stream.Tick+Histogram.Observe and
	// SpanRecorder.Begin/End timed in the replay; the kept share of
	// recorded spans.
	"telemetry.tick_ns":         {"ns", "lower", servedOnly},
	"telemetry.span_ns":         {"ns", "lower", servedOnly},
	"telemetry.spans_kept_frac": {"ratio", "lower", servedOnly},

	// internal/machine and internal/cachemodel: Snapshot deltas around the
	// timed batches.
	"machine.l1_miss_pct":         {"%", "lower", simOnly},
	"machine.accesses_per_tx":     {"count", "lower", simOnly},
	"machine.remote_fills_per_tx": {"count", "lower", simOnly},
	"machine.inv_per_tx":          {"count", "lower", simOnly},
	"machine.validates_per_tx":    {"count", "lower", simOnly},
	"machine.validate_fail_pct":   {"%", "lower", simOnly},
	"machine.energy_per_tx":       {"units", "lower", simOnly},
	"sim_ktx_s":                   {"ktx/s", "higher", simOnly},
	"host_us_per_sim_tx":          {"us", "lower", simOnly},

	// The traced run's own figures: client latency samples, and the
	// replay's cost per request without and with the tracing wrappers.
	"load.samples":                   {"count", "higher", everyWorkload},
	"trace.replay_ns_per_req":        {"ns", "lower", servedOnly},
	"trace.replay_traced_ns_per_req": {"ns", "lower", servedOnly},
	"trace.overhead_frac":            {"ratio", "lower", servedOnly},
}
