package main

// metricDef names one reported number. BENCHMARK.json repeats these
// tables; bench_test.go checks the two agree.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	bound float64
}

// endToEndMetrics are measured with tracing off, per workload. setup_s is
// the median of a handful of set-ups where the others rest on dozens of
// requests, so it has the widest bound.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "throughput_rps", unit: "1/s", better: "higher", bound: 0.10},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.10},
	{name: "alloc_mb_per_req", unit: "MB", better: "lower", bound: 0.10},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.10},
}

// perLayerMetrics come from the traced pass. Every traced run reports all
// of them; one that does not apply to the workload (a backend it does not
// use, the engine on a session workload) reads 0.
var perLayerMetrics = []metricDef{
	// Client crypto.
	{name: "protocol.encrypt_ms", unit: "ms", better: "lower"},
	{name: "paillier.encrypt_us_per_ct", unit: "us", better: "lower"},
	{name: "protocol.nonlinear_ms", unit: "ms", better: "lower"},
	{name: "paillier.decrypt_us_per_ct", unit: "us", better: "lower"},
	{name: "protocol.nonlinear_decrypt_ms_est", unit: "ms", better: "lower"},
	{name: "protocol.nonlinear_reencrypt_ms_est", unit: "ms", better: "lower"},
	// Server kernel.
	{name: "protocol.linear_ms", unit: "ms", better: "lower"},
	{name: "paillier.kernel_ms_per_req", unit: "ms", better: "lower"},
	{name: "protocol.permute_ms", unit: "ms", better: "lower"},
	// Exact-repeat operation counts behind the timings above.
	{name: "paillier.modexps_per_req", unit: "count", better: "lower"},
	{name: "paillier.mulmods_per_req", unit: "count", better: "lower"},
	{name: "paillier.modinverses_per_req", unit: "count", better: "lower"},
	{name: "paillier.encrypts_per_req", unit: "count", better: "lower"},
	{name: "paillier.decrypts_per_req", unit: "count", better: "lower"},
	{name: "paillier.pool_hit_ratio", unit: "ratio", better: "higher"},
	// Wire.
	{name: "protocol.towire_ms", unit: "ms", better: "lower"},
	{name: "protocol.fromwire_ms", unit: "ms", better: "lower"},
	{name: "stream.send_recv_ms_per_req", unit: "ms", better: "lower"},
	{name: "stream.frames_per_req", unit: "count", better: "lower"},
	{name: "stream.alloc_mb_per_req", unit: "MB", better: "lower"},
	// Backends (heart-mixed).
	{name: "backend.kernel_ms.paillier-he", unit: "ms", better: "lower"},
	{name: "backend.kernel_ms.ss-gc", unit: "ms", better: "lower"},
	{name: "backend.kernel_ms.clear", unit: "ms", better: "lower"},
	{name: "backend.nonlinear_ms.ss-gc", unit: "ms", better: "lower"},
	{name: "backend.gc_gates_per_req", unit: "count", better: "lower"},
	{name: "backend.triples_per_req", unit: "count", better: "lower"},
	{name: "backend.ext_ots_per_req", unit: "count", better: "lower"},
	{name: "backend.plain_ops_per_req", unit: "count", better: "lower"},
	// Serving runtime: session.
	{name: "protocol.session_overhead_ms", unit: "ms", better: "lower"},
	{name: "protocol.server_queue_ms", unit: "ms", better: "lower"},
	{name: "protocol.client_queue_ms", unit: "ms", better: "lower"},
	// Serving runtime: engine (conv-engine).
	{name: "core.plan_ms", unit: "ms", better: "lower"},
	{name: "core.pipeline_overhead_ms", unit: "ms", better: "lower"},
	{name: "core.stage_busy_ms_linear", unit: "ms", better: "lower"},
	{name: "core.stage_busy_ms_nonlinear", unit: "ms", better: "lower"},
	{name: "core.stage_wait_ms", unit: "ms", better: "lower"},
	{name: "core.bottleneck_stage_share", unit: "ratio", better: "lower"},
	// Telemetry cost (heart-seq) and the cost of the traced pass itself.
	{name: "obs.session_overhead_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	// User-visible numbers that cannot be end-to-end metrics of
	// BENCHMARK.json (see README.md): p90 does not hold a bound on this
	// host, and the other two are 0 on some workload.
	{name: "serve.latency_p90_ms", unit: "ms", better: "lower"},
	{name: "serve.wire_bytes_per_req", unit: "B", better: "lower"},
	{name: "serve.fail_share", unit: "ratio", better: "lower"},
}
