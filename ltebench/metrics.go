package main

// metricDef names one reported metric: its unit and which direction is
// better. The tables below are the benchmark's contract with
// BENCHMARK.json (TestMetricTablesMatchBenchmarkJSON keeps them equal).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the receiver or the serving layer
// sees. Every workload reports all of them with --trace 0.
//
// decoded_frac is 1 - fail_frac (users decoded / users offered) and
// crc_pass_frac is 1 - BLER (CRC passes / users decoded): the complements
// are reported because a metric must never read 0, and rx-* never sheds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sf_per_s", "sf/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"latency_p50_ms.2x", "ms", "lower"},
	{"latency_p99_ms.2x", "ms", "lower"},
	{"decoded_frac", "ratio", "higher"},
	{"crc_pass_frac", "ratio", "higher"},
	{"mem_mb", "MiB", "lower"},
}

// perLayer are the single-layer metrics of the traced run. A layer a
// workload does not exercise reads 0 (e.g. sched.* on rx-pass, fleet.*
// everywhere but serve-migrate).
var perLayer = []metricDef{
	{"uplink.init.self_ms", "ms/sf", "lower"},
	{"uplink.chanest.self_ms", "ms/sf", "lower"},
	{"uplink.weights.self_ms", "ms/sf", "lower"},
	{"uplink.combine.self_ms", "ms/sf", "lower"},
	{"uplink.backend.self_ms", "ms/sf", "lower"},
	{"uplink.init.ns_per_bit", "ns/bit", "lower"},
	{"uplink.chanest.ns_per_bit", "ns/bit", "lower"},
	{"uplink.weights.ns_per_bit", "ns/bit", "lower"},
	{"uplink.combine.ns_per_bit", "ns/bit", "lower"},
	{"uplink.backend.ns_per_bit", "ns/bit", "lower"},
	{"modulation.demap_ms", "ms/sf", "lower"},
	{"modulation.evm_ms", "ms/sf", "lower"},
	{"uplink.decode_ms", "ms/sf", "lower"},
	{"uplink.decode.ns_per_bit", "ns/bit", "lower"},
	{"uplink.backend.other_ms", "ms/sf", "lower"},
	{"turbo.half_iters_per_user", "count", "lower"},
	{"uplink.ledger_cover", "ratio", "higher"},
	{"trace.overhead", "ratio", "lower"},
	{"cost.share_err.chanest", "ratio", "lower"},
	{"cost.share_err.weights", "ratio", "lower"},
	{"cost.share_err.combine", "ratio", "lower"},
	{"cost.share_err.backend", "ratio", "lower"},
	{"cost.cycles_per_ns", "cycles/ns", "higher"},
	{"sched.busy_frac", "ratio", "higher"},
	{"sched.steals", "count/sf", "lower"},
	{"sched.steal_hit", "ratio", "higher"},
	{"sched.tasks", "count/sf", "lower"},
	{"sched.par_eff", "ratio", "higher"},
	{"gen.lag_p99_ms", "ms", "lower"},
	{"gen.write_p50_ms", "ms", "lower"},
	{"gen.write_p99_ms", "ms", "lower"},
	{"gen.wire_mb_s", "MiB/s", "higher"},
	{"fronthaul.ack_wait_p50_ms", "ms", "lower"},
	{"fronthaul.ack_wait_p99_ms", "ms", "lower"},
	{"fronthaul.decode_us", "us", "lower"},
	{"fronthaul.encode_us", "us", "lower"},
	{"admission.decide_us", "us", "lower"},
	{"fronthaul.deadline_miss_frac", "ratio", "lower"},
	{"fronthaul.frames_shed", "count", "lower"},
	{"fronthaul.users_rejected", "count", "lower"},
	{"admission.pred_over_meas", "ratio", "lower"},
	{"fleet.migrate_ms.p50", "ms", "lower"},
	{"fleet.migrate_ms.max", "ms", "lower"},
	{"fleet.checkpoint_ms.p50", "ms", "lower"},
	{"fleet.snapshot_kb", "KiB", "lower"},
	{"fleet.redirects", "count", "lower"},
	{"fleet.replays", "count", "lower"},
	{"go.gc_pause_ms", "ms/s", "lower"},
	{"go.alloc_bytes_per_sf", "B/sf", "lower"},
}
