package main

// metricDef names one metric. Moves lists the "end_to_end_metric@workload"
// pairs a gain in this layer metric is predicted to show in; NotMoves lists
// the pairs where the prediction is no change. Later issues are held to these
// predictions; main_test.go checks they name metrics and workloads that exist.
type metricDef struct {
	Name     string
	Unit     string
	Better   string
	Moves    []string
	NotMoves []string
}

// endToEnd are the metrics reported per workload with tracing off. The
// regression bounds live in BENCHMARK.json.
var endToEnd = []metricDef{
	{Name: "trials_per_s", Unit: "trials/s", Better: "higher"},
	{Name: "allocs_per_trial", Unit: "allocs", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

const (
	tpsLU     = "trials_per_s@lu_recovery"
	tpsLulesh = "trials_per_s@lulesh_dense"
	tpsMG     = "trials_per_s@mg_faults_nested"
	tpsKV     = "trials_per_s@kv_oracle"
	tpsShard  = "trials_per_s@lu_sharded"
	apsLulesh = "allocs_per_trial@lulesh_dense"
	apsKV     = "allocs_per_trial@kv_oracle"
)

var (
	inProcessTPS = []string{tpsLU, tpsLulesh, tpsMG, tpsKV}
	faultsOff    = []string{tpsLU, tpsLulesh, tpsKV}
	forkMoves    = []string{tpsLulesh, apsLulesh, tpsKV, apsKV}
	everySetup   = []string{"setup_s@lu_recovery", "setup_s@lulesh_dense", "setup_s@mg_faults_nested", "setup_s@kv_oracle", "setup_s@lu_sharded"}
	notKVOthers  = []string{tpsLU, tpsLulesh, tpsMG, tpsShard}
	flushMoves   = []string{tpsMG, tpsKV}
	flushNoMoves = []string{tpsLU, tpsLulesh}
)

// perLayer are the metrics of the traced pass, named <module>.<metric>. A
// metric that does not apply to a workload (faultmodel.* with faults off,
// pmemkv.* outside kv_oracle, campaignd.* outside lu_sharded, core.* outside
// mg_faults_nested) reads 0 there.
var perLayer = []metricDef{
	{Name: "mem.read_block_ns", Unit: "ns", Better: "lower", Moves: []string{tpsLU}, NotMoves: []string{tpsKV}},
	{Name: "mem.write_block_ns", Unit: "ns", Better: "lower", Moves: []string{tpsLU}, NotMoves: []string{tpsKV}},
	{Name: "mem.write_block_hooked_ns", Unit: "ns", Better: "lower", Moves: []string{tpsMG}, NotMoves: []string{tpsLU}},
	{Name: "mem.fork_us", Unit: "us", Better: "lower", Moves: forkMoves, NotMoves: []string{tpsLU}},
	{Name: "mem.restore_snapshot_us", Unit: "us", Better: "lower", Moves: forkMoves, NotMoves: []string{tpsLU}},
	{Name: "mem.reset_prefix_us", Unit: "us", Better: "lower", Moves: forkMoves, NotMoves: []string{tpsLU}},

	{Name: "cachesim.load_hit_ns", Unit: "ns", Better: "lower", Moves: []string{tpsLU}, NotMoves: []string{tpsLulesh}},
	{Name: "cachesim.store_hit_ns", Unit: "ns", Better: "lower", Moves: []string{tpsLU}, NotMoves: []string{tpsLulesh}},
	{Name: "cachesim.cold_fill_ns", Unit: "ns", Better: "lower", Moves: []string{tpsLU, tpsMG}, NotMoves: []string{tpsKV}},
	{Name: "cachesim.evict_fill_ns", Unit: "ns", Better: "lower", Moves: []string{tpsLU, tpsMG}, NotMoves: []string{tpsKV}},
	{Name: "cachesim.run_ns_per_elem", Unit: "ns", Better: "lower", Moves: []string{tpsLU}, NotMoves: []string{tpsKV}},
	{Name: "cachesim.stream_ns_per_elem", Unit: "ns", Better: "lower", Moves: []string{tpsLU}, NotMoves: []string{tpsKV}},
	{Name: "cachesim.flush_dirty_ns_per_block", Unit: "ns", Better: "lower", Moves: flushMoves, NotMoves: flushNoMoves},
	{Name: "cachesim.flush_clean_ns_per_block", Unit: "ns", Better: "lower", Moves: flushMoves, NotMoves: flushNoMoves},
	{Name: "cachesim.writeback_all_us", Unit: "us", Better: "lower", Moves: flushMoves, NotMoves: flushNoMoves},
	{Name: "cachesim.snapshot_us", Unit: "us", Better: "lower", Moves: []string{tpsLulesh}, NotMoves: []string{tpsLU}},
	{Name: "cachesim.resume_us", Unit: "us", Better: "lower", Moves: []string{tpsLulesh}, NotMoves: []string{tpsLU}},
	{Name: "cachesim.reset_us", Unit: "us", Better: "lower", Moves: []string{tpsLulesh}, NotMoves: []string{tpsLU}},
	{Name: "cachesim.dirty_bytes_in_us", Unit: "us", Better: "lower", Moves: []string{tpsLulesh}, NotMoves: []string{tpsLU}},

	// Simulated counts of the reference run: exact, and must repeat on every
	// commit — a simulator speed-up leaves them identical.
	{Name: "cachesim.sim.loads", Unit: "count", Better: "lower"},
	{Name: "cachesim.sim.stores", Unit: "count", Better: "lower"},
	{Name: "cachesim.sim.l1_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cachesim.sim.llc_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cachesim.sim.fills", Unit: "count", Better: "lower"},
	{Name: "cachesim.sim.eviction_writebacks", Unit: "count", Better: "lower"},
	{Name: "cachesim.sim.dirty_flushes", Unit: "count", Better: "lower"},
	{Name: "cachesim.sim.clean_flushes", Unit: "count", Better: "lower"},

	{Name: "sim.scalar_ns_per_elem", Unit: "ns", Better: "lower", Moves: []string{tpsLU}, NotMoves: []string{tpsKV}},
	{Name: "sim.run_ns_per_elem", Unit: "ns", Better: "lower", Moves: []string{tpsLU}, NotMoves: []string{tpsKV}},
	{Name: "sim.stream_ns_per_elem", Unit: "ns", Better: "lower", Moves: []string{tpsLU}, NotMoves: []string{tpsKV}},
	{Name: "sim.fork_us", Unit: "us", Better: "lower", Moves: []string{tpsLulesh, apsLulesh}, NotMoves: []string{tpsLU}},
	{Name: "sim.resume_us", Unit: "us", Better: "lower", Moves: []string{tpsLulesh, apsLulesh}, NotMoves: []string{tpsLU}},
	{Name: "sim.reset_us", Unit: "us", Better: "lower", Moves: []string{tpsLulesh, apsLulesh}, NotMoves: []string{tpsLU}},
	{Name: "sim.flush_object_us", Unit: "us", Better: "lower", Moves: []string{tpsMG}, NotMoves: []string{tpsLU}},
	{Name: "sim.crash_with_faults_us", Unit: "us", Better: "lower", Moves: []string{tpsMG}, NotMoves: []string{tpsLU}},

	{Name: "faultmodel.observe_write_ns", Unit: "ns", Better: "lower", Moves: []string{tpsMG}, NotMoves: faultsOff},
	{Name: "faultmodel.apply_crash_us", Unit: "us", Better: "lower", Moves: []string{tpsMG}, NotMoves: faultsOff},
	{Name: "faultmodel.replay_crash_us", Unit: "us", Better: "lower", Moves: []string{tpsMG}, NotMoves: faultsOff},

	{Name: "apps.kernel_run_ms", Unit: "ms", Better: "lower", Moves: []string{tpsLU, tpsMG}, NotMoves: []string{tpsKV}},
	{Name: "apps.sim_accesses", Unit: "count", Better: "lower"},
	{Name: "apps.host_ns_per_sim_access", Unit: "ns", Better: "lower", Moves: []string{tpsLU, tpsMG}, NotMoves: []string{tpsKV}},

	{Name: "pmemkv.run_ms", Unit: "ms", Better: "lower", Moves: []string{tpsKV}, NotMoves: notKVOthers},
	{Name: "pmemkv.post_restart_us", Unit: "us", Better: "lower", Moves: []string{tpsKV}, NotMoves: notKVOthers},
	{Name: "pmemkv.audit_us", Unit: "us", Better: "lower", Moves: []string{tpsKV}, NotMoves: notKVOthers},

	{Name: "nvct.golden_run_ms", Unit: "ms", Better: "lower", Moves: append([]string{tpsLulesh}, everySetup...), NotMoves: []string{tpsLU}},
	{Name: "nvct.reference_run_ms", Unit: "ms", Better: "lower", Moves: append([]string{tpsLulesh}, everySetup...), NotMoves: []string{tpsLU}},
	{Name: "nvct.prefix_share", Unit: "ratio", Better: "lower"},
	{Name: "nvct.live_trial_p50_ms", Unit: "ms", Better: "lower", Moves: []string{tpsLU}},
	{Name: "nvct.live_trial_p90_ms", Unit: "ms", Better: "lower", Moves: []string{tpsLU}},
	{Name: "nvct.share_factor", Unit: "ratio", Better: "higher", Moves: []string{tpsLU}},
	{Name: "nvct.report_json_ms", Unit: "ms", Better: "lower", Moves: []string{tpsShard, tpsKV}, NotMoves: []string{tpsLU}},
	{Name: "nvct.report_bytes", Unit: "bytes", Better: "lower", Moves: []string{tpsShard, tpsKV}, NotMoves: []string{tpsLU}},
	{Name: "nvct.shard_run_ms", Unit: "ms", Better: "lower", Moves: []string{tpsShard}, NotMoves: inProcessTPS},
	{Name: "nvct.merge_shards_ms", Unit: "ms", Better: "lower", Moves: []string{tpsShard}, NotMoves: inProcessTPS},
	{Name: "nvct.parse_shard_ms", Unit: "ms", Better: "lower", Moves: []string{tpsShard}, NotMoves: inProcessTPS},
	{Name: "nvct.shard_work_inflation", Unit: "ratio", Better: "lower", Moves: []string{tpsShard}, NotMoves: inProcessTPS},
	{Name: "nvct.alloc_mb_per_campaign", Unit: "MB", Better: "lower", Moves: []string{apsLulesh}},
	{Name: "nvct.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "nvct.outcome.S1", Unit: "count", Better: "higher"},
	{Name: "nvct.outcome.S2", Unit: "count", Better: "higher"},
	{Name: "nvct.outcome.S3", Unit: "count", Better: "lower"},
	{Name: "nvct.outcome.S4", Unit: "count", Better: "lower"},
	{Name: "nvct.outcome.DUE", Unit: "count", Better: "lower"},
	{Name: "nvct.outcome.ERR", Unit: "count", Better: "lower"},
	{Name: "nvct.outcome.VIOL", Unit: "count", Better: "lower"},
	{Name: "nvct.recomputability", Unit: "ratio", Better: "higher"},
	{Name: "nvct.parallel2_speedup", Unit: "ratio", Better: "higher"},

	{Name: "campaignd.run_s", Unit: "s", Better: "lower", Moves: []string{tpsShard}, NotMoves: inProcessTPS},
	{Name: "campaignd.cold_start_ms", Unit: "ms", Better: "lower", Moves: []string{tpsShard}, NotMoves: inProcessTPS},
	{Name: "campaignd.overhead_s", Unit: "s", Better: "lower", Moves: []string{tpsShard}, NotMoves: inProcessTPS},
	{Name: "campaignd.classify_failures_ms", Unit: "ms", Better: "lower", Moves: []string{tpsShard}},
	{Name: "campaignd.run_dir_kb", Unit: "KB", Better: "lower", Moves: []string{tpsShard}},
	{Name: "campaignd.retries", Unit: "count", Better: "lower", Moves: []string{tpsShard}},

	// Recorded so the four-step workflow has a number; none of the five
	// workloads is predicted to follow them.
	{Name: "core.select_objects_ms", Unit: "ms", Better: "lower"},
	{Name: "core.workflow_s", Unit: "s", Better: "lower"},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}
