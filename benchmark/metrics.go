package main

// metricDef names one metric of BENCHMARK.json. The table below is the
// single source of those names: `-schema` prints BENCHMARK.json from it
// and TestSchemaMatchesBenchmarkJSON fails when the two disagree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening of the median, as a share
	// Exact marks a count that repeats exactly on one commit and seed;
	// -compare demands identity rather than a ratio within a bound.
	Exact bool `json:"-"`
}

// endToEnd are the metrics a user of the simulator pays, per workload,
// in host time and host memory. Simulated results are not metrics: they
// are the correctness check.
//
// A bound holds for every workload, so the noisiest row sets it. They
// come from the spread (quartile distance over median) of ten-run series
// in the driver's form on the reference host, tabulated per row in
// README.md: the two times reached 20 % on acc_alltoall, 14 % on
// wide_world and 12 % on tce_ga, which leaves only the contract's
// ceiling above them; peak RSS stayed below 9 % on every row; set-up
// carries the largest bound, as the contract asks.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
func exact(name, unit string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "lower", Exact: true}
}

// workloadLayerDefs are the per-workload (W) layer metrics, taken from
// the traced pass of the workload being run.
func workloadLayerDefs() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, lower(l+".ns_per_event", "ns"))
	}
	for _, l := range layers {
		out = append(out, lower(l+".cpu_share", "share"))
	}
	return append(out,
		exact("sim.events", "count"),
		higher("sim.events_per_s", "1/s"),
		higher("sim.inlined_share", "share"),
		lower("sim.peak_queue_residency", "count"),
		lower("sim.shard_rounds", "count"),
		higher("sim.events_per_shard_round", "count"),
		lower("runtime.mallocs_per_event", "count"),
		lower("runtime.alloc_bytes_per_event", "B"),
		lower("runtime.gc_cycles", "count"),
		lower("runtime.gc_pause_ms", "ms"),
		lower("runtime.heap_after_mb", "MB"),
		lower("runtime.goroutines_leaked", "count"),
		lower("trace_overhead_pct", "%"),
	)
}

// probeDefs are the workload-independent (P) layer metrics: probes that
// time calls into one layer's public functions on worlds the benchmark
// builds itself. Each name is emitted by exactly one probe in probes_*.go.
var probeDefs = []metricDef{
	// sim: bare Engine / ShardGroup.
	lower("sim.hold_ns_per_event.w1k", "ns"),
	lower("sim.hold_ns_per_event.w32k", "ns"),
	lower("sim.proc_switch_ns", "ns"),
	lower("sim.inline_advance_ns", "ns"),
	lower("sim.completion_wake_ns", "ns"),
	lower("sim.server_ns_per_job", "ns"),
	lower("sim.spawn_us_per_proc", "us"),
	lower("sim.shard_round_ns", "ns"),
	lower("sim.shard_inject_ns", "ns"),
	// netmodel / cluster.
	lower("netmodel.transfer_memo_ns", "ns"),
	lower("netmodel.transfer_raw_ns", "ns"),
	lower("netmodel.amcost_ns", "ns"),
	lower("cluster.placement_ns", "ns"),
	// mpi: plain NewWorld / Launch / Run.
	lower("mpi.acc_ns_per_op", "ns"),
	lower("mpi.put_hw_ns_per_op", "ns"),
	lower("mpi.get_ns_per_op", "ns"),
	lower("mpi.acc_vector_ns_per_kb", "ns"),
	lower("mpi.acc_large_ns_per_kb", "ns"),
	lower("mpi.sendrecv_ns_per_msg", "ns"),
	lower("mpi.barrier_ns_per_rank", "ns"),
	lower("mpi.fence_ns_per_rank", "ns"),
	lower("mpi.pscw_ns_per_epoch", "ns"),
	lower("mpi.lock_ns_per_epoch", "ns"),
	exact("mpi.events_per_acc", "count"),
	lower("mpi.world_setup_us_per_rank", "us"),
	lower("mpi.world_bytes_per_rank", "B"),
	lower("mpi.reliable_acc_ns_per_op", "ns"),
	lower("mpi.flow_acc_ns_per_op", "ns"),
	lower("mpi.validate_acc_ns_per_op", "ns"),
	// core: the same rank programs through core.Init.
	lower("core.acc_ns_per_op", "ns"),
	lower("core.put_ns_per_op", "ns"),
	lower("core.self_ns_per_op", "ns"),
	lower("core.redirect_overhead_x", "x"),
	exact("core.events_per_acc", "count"),
	lower("core.init_us_per_rank", "us"),
	lower("core.win_alloc_us_per_rank", "us"),
	lower("core.dynbind_acc_ns_per_op", "ns"),
	// application libraries, fault and trace.
	lower("ga.acc_ns_per_kb", "ns"),
	lower("ga.get_ns_per_kb", "ns"),
	lower("tce.host_us_per_task", "us"),
	lower("stencil.host_us_per_sweep", "us"),
	lower("gups.host_ns_per_update", "ns"),
	lower("fault.decide_ns", "ns"),
	lower("trace.record_ns", "ns"),
	// the experiment harness itself.
	lower("bench.gomaxprocs2_slowdown_x", "x"),
	higher("bench.parallel_speedup_x", "x"),
	lower("bench.render_ms", "ms"),
}

// perLayer is every per-layer metric, W then P.
func perLayer() []metricDef { return append(workloadLayerDefs(), probeDefs...) }
