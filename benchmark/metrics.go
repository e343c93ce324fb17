package main

// metricDef names one reported number. BENCHMARK.json lists the same names
// and units (stats_test.go checks the two against each other); the bound
// of an end-to-end metric lives only there.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the numbers a user of the system sees and the benchmark
// bounds. The contract wants each on every workload, which is why the
// recovery metrics of a steady workload come from a recovery probe under
// that workload's checkpoint mode (run.go); and it wants them steadier
// than this host's wall-clock rates are, which is why the iteration rate
// itself is a layer metric (lanczos.iters_per_s_p50) and the bounded
// numbers are a ratio within one job, two timer-dominated latencies, a
// median of many launches and a memory mark.
var endToEnd = []metricDef{
	{"solve_slowdown", "x"},
	{"ttr_ms_p75", "ms"},
	{"catchup_ms_p75", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced pass's numbers, one layer per prefix.
var perLayer = []metricDef{
	{"fabric.msgs_per_iter", "count"},
	{"fabric.bytes_per_iter", "B"},
	{"fabric.fast_delivered_frac", "frac"},
	{"fabric.doorbell_wakes_per_msg", "ratio"},
	{"fabric.nacks", "count"},
	{"fabric.dropped", "count"},

	{"gaspi.post_us", "us"},
	{"gaspi.posts_per_iter", "count"},
	{"gaspi.wait_queue_us", "us"},
	{"gaspi.notify_wait_us", "us"},
	{"gaspi.allreduce_us", "us"},
	{"gaspi.allreduces_per_iter", "count"},
	{"gaspi.pingpong_us_p50", "us"},
	{"gaspi.barrier_us_p50", "us"},
	{"gaspi.allreduce4_us_p50", "us"},

	{"spmvm.step_self_us", "us"},
	{"spmvm.fastpath_iter_frac", "frac"},
	{"spmvm.flops_per_iter", "flop"},
	{"spmvm.bytes_per_iter_computed", "B"},

	{"lanczos.iters_per_s_p50", "1/s"},
	{"lanczos.iters_per_s_p25", "1/s"},
	{"lanczos.iters_per_s_p90", "1/s"},
	{"lanczos.serial_iters_per_s", "1/s"},
	{"lanczos.ql_ms", "ms"},
	{"lanczos.eig0_rel_err", "ratio"},
	{"lanczos.iter_us_p50", "us"},
	{"lanczos.iter_us_p99", "us"},

	{"checkpoint.visible_us_p50", "us"},
	{"checkpoint.serialize_us_p50", "us"},
	{"checkpoint.bytes_per_cp", "B"},
	{"checkpoint.dirty_chunk_frac", "frac"},
	{"checkpoint.delta_bytes_frac", "frac"},
	{"checkpoint.flush_errors", "count"},
	{"checkpoint.off_iters_per_s", "1/s"},

	{"ft.fd_scan_us", "us"},
	{"ft.fd_pings_per_scan", "count"},
	{"ft.hc_off_iters_per_s", "1/s"},
	{"ft.cpstream_bytes_per_cp", "B"},
	{"ft.shadow_frames_per_iter", "count"},
	{"ft.detect_ms_p50", "ms"},
	{"ft.ack_ms_p50", "ms"},
	{"ft.repair_ms_p50", "ms"},
	{"ft.ttr_ms_p50", "ms"},
	{"ft.ttr_ms_p90", "ms"},
	{"ft.ttr_fast_mode_frac", "frac"},
	{"ft.failover_success_frac", "frac"},
	{"ft.epoch_restarts", "count"},

	{"core.rebuild_ms_p50", "ms"},
	{"core.reload_ms_p50", "ms"},
	{"core.rescue_init_ms_p50", "ms"},
	{"core.first_step_ms_p50", "ms"},
	{"core.catchup_ms_p50", "ms"},
	{"core.redo_iters_per_kill", "count"},
	{"core.gap_us", "us"},
	{"core.tiling_residual_steady", "frac"},
	{"core.tiling_residual_kill", "frac"},

	{"cluster.launch_ms", "ms"},
	{"apps.init_ms", "ms"},
	{"apps.rebuild_ms", "ms"},
	{"matrix.build_ms", "ms"},

	{"host.calib_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// reportOnly are printed in the traced report but are not part of the
// contract's per-layer list, because on some workloads they are exactly
// zero by construction (no async writer on a Sync workload; catch-up equals
// TTR after a failover) and the contract wants measured, moving numbers.
var reportOnly = []metricDef{
	{"checkpoint.stall_us_per_cp", "us"},
	{"checkpoint.flush_us_per_cp", "us"},
	{"core.redo_ms_p50", "ms"},
}
