package main

// metric names one reported figure with its unit and the direction in
// which it is better. Per-layer metrics also carry the prediction the
// benchmark is built around: which end-to-end metric, on which
// workloads, a change to the layer should move, and where it should
// leave the numbers alone.
type metric struct {
	name, unit, better string
	moves, still       string
}

// endToEnd are the host metrics a user of the simulator sees on every
// workload; the untraced run reports exactly these, and BENCHMARK.json
// lists them with their regression bounds.
var endToEnd = []metric{
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "records_per_s", unit: "records/s", better: "higher"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "alloc_mb", unit: "MiB", better: "lower"},
}

// simulated are the end-to-end figures that are either zero by design
// or defined on only some workloads. They are printed by name on every
// workload where they apply, but left out of the result object: a
// regression bound is a share of the parent's value, which a metric
// that is 0 or absent cannot have. The simulated ones are deterministic
// for a seed and already guarded exactly by the output digests;
// error_rate travels as the result's failed/attempted.
var simulated = []metric{
	{name: "error_rate", unit: "fraction", better: "lower"},
	{name: "sim_stms_speedup", unit: "ratio", better: "higher"},
	{name: "sim_stms_coverage", unit: "fraction", better: "higher"},
	{name: "sim_meta_overhead", unit: "reads/read", better: "lower"},
	{name: "sample_err_pct", unit: "%", better: "lower"},
}

const (
	allFour   = "fig8-timed, sampled-oltp, stream-baseline, remote-ckpt"
	notStream = "stream-baseline"
)

// perLayer are the traced run's metrics, one group per module of the
// repository, measured by timing calls into each module's public API
// from this benchmark's own code.
var perLayer = []metric{
	{"trace.gen_ns_per_record", "ns/record", "lower", "wall_s on fig8-timed; setup_s on sampled-oltp and stream-baseline", "records_per_s on stream-baseline"},
	{"trace.decode_ns_per_record", "ns/record", "lower", "records_per_s on fig8-timed", "records_per_s on stream-baseline"},
	{"trace.tape_bytes_per_record", "B/record", "lower", "peak_rss_mb on fig8-timed", "records_per_s on stream-baseline"},

	{"cpu.ns_per_record", "ns/record", "lower", "records_per_s on fig8-timed and sampled-oltp", notStream},
	{"event.ns_per_event", "ns/event", "lower", "records_per_s on fig8-timed and sampled-oltp", notStream},
	{"dram.ns_per_request", "ns/request", "lower", "records_per_s on fig8-timed", notStream},
	{"dram.meta_traffic_share", "fraction", "lower", "sim_meta_overhead on fig8-timed", notStream},

	{"cache.l1_ns_per_access", "ns/access", "lower", "records_per_s on " + allFour, "-"},
	{"cache.l2_ns_per_access", "ns/access", "lower", "records_per_s on " + allFour, "-"},
	{"cache.mshr_ns_per_op", "ns/op", "lower", "records_per_s on " + allFour, "-"},
	{"cache.l1_hit_ratio", "fraction", "higher", "records_per_s on " + allFour, "-"},
	{"cache.l2_hit_ratio", "fraction", "higher", "records_per_s on " + allFour, "-"},

	{"mem.blockmap_ns_per_op", "ns/op", "lower", "records_per_s on " + allFour, "-"},

	{"core.index_lookup_ns", "ns/op", "lower", "records_per_s on fig8-timed", notStream},
	{"core.index_update_ns", "ns/op", "lower", "records_per_s on fig8-timed; wall_s on sampled-oltp", notStream},
	{"core.lookup_hit_ratio", "fraction", "higher", "sim_stms_coverage on fig8-timed", notStream},

	{"prefetch.buffer_ns_per_op", "ns/op", "lower", "records_per_s on fig8-timed", notStream},
	{"prefetch.history_ns_per_op", "ns/op", "lower", "records_per_s on fig8-timed", notStream},
	{"prefetch.accuracy", "fraction", "higher", "sim_stms_coverage on fig8-timed", notStream},
	{"prefetch.evicted_unused_ratio", "fraction", "lower", "sim_meta_overhead on fig8-timed", notStream},

	{"sim.timed_ns_per_record.baseline", "ns/record", "lower", "records_per_s on fig8-timed and remote-ckpt", notStream},
	{"sim.timed_ns_per_record.ideal", "ns/record", "lower", "records_per_s on fig8-timed", notStream},
	{"sim.timed_ns_per_record.stms", "ns/record", "lower", "records_per_s on fig8-timed, sampled-oltp and remote-ckpt", notStream},
	{"sim.functional_ns_per_record.baseline", "ns/record", "lower", "records_per_s on stream-baseline", "-"},
	{"sim.functional_ns_per_record.stms", "ns/record", "lower", "wall_s on sampled-oltp (functional warming)", "-"},
	{"sim.sampled_over_exact", "ratio", "lower", "wall_s on sampled-oltp", "fig8-timed, stream-baseline, remote-ckpt"},

	{"lab.cell_wall_ms", "ms", "lower", "wall_s on fig8-timed and remote-ckpt", notStream},
	{"lab.tape_hit_ratio", "fraction", "higher", "wall_s on fig8-timed", notStream},

	{"stream.encode_ns_per_frame", "ns/frame", "lower", "records_per_s on stream-baseline", "fig8-timed, sampled-oltp, remote-ckpt"},
	{"stream.decode_ns_per_frame", "ns/frame", "lower", "records_per_s on stream-baseline", "fig8-timed, sampled-oltp, remote-ckpt"},
	{"stream.wire_bytes_per_record", "B/record", "lower", "records_per_s on stream-baseline", "fig8-timed, sampled-oltp, remote-ckpt"},
	{"stream.resent_frame_ratio", "fraction", "lower", "records_per_s on stream-baseline", "fig8-timed, sampled-oltp, remote-ckpt"},
	{"stream.reconnects", "count", "lower", "records_per_s on stream-baseline", "fig8-timed, sampled-oltp, remote-ckpt"},

	{"ckpt.seal_ns_per_mb", "ns/MiB", "lower", "wall_s on remote-ckpt and sampled-oltp", "fig8-timed, stream-baseline"},
	{"ckpt.open_ns_per_mb", "ns/MiB", "lower", "wall_s on remote-ckpt and sampled-oltp", "fig8-timed, stream-baseline"},
	{"ckpt.snapshot_bytes", "B", "lower", "alloc_mb on remote-ckpt and sampled-oltp", "fig8-timed, stream-baseline"},
	{"ckpt.write_overhead_pct", "%", "lower", "wall_s on remote-ckpt", "fig8-timed, stream-baseline"},
	{"ckpt.resume_ms", "ms", "lower", "wall_s on remote-ckpt", "fig8-timed, stream-baseline"},

	{"dist.job_ms", "ms", "lower", "wall_s on remote-ckpt", "fig8-timed, sampled-oltp, stream-baseline"},
	{"dist.rpc_overhead_ms", "ms", "lower", "wall_s on remote-ckpt", "fig8-timed, sampled-oltp, stream-baseline"},
	{"dist.ckpt_push_mb", "MiB", "lower", "alloc_mb on remote-ckpt", "fig8-timed, sampled-oltp, stream-baseline"},
	{"dist.store_hit_ratio", "fraction", "higher", "wall_s on remote-ckpt", "fig8-timed, sampled-oltp, stream-baseline"},
	{"dist.tape_fetches", "count", "lower", "wall_s on remote-ckpt", "fig8-timed, sampled-oltp, stream-baseline"},
	{"dist.retries", "count", "lower", "wall_s on remote-ckpt", "fig8-timed, sampled-oltp, stream-baseline"},

	{"bench.tracing_overhead_s", "s", "lower", "none: the cost of the traced run's own spans (traced - untraced wall_s)", "every end-to-end metric"},
}

func metricByName(list []metric, name string) (metric, bool) {
	for _, m := range list {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}
