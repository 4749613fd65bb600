//! The metric catalogue: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` lists the same names; a test keeps the two in
//! step.

use std::collections::BTreeMap;

/// The four workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 4] = ["serve_cold", "serve_warm", "discover_wide", "lake_refresh"];

/// A metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may worsen
    /// before it counts as a regression (0 for per-layer metrics, which are
    /// not gated).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The seven end-to-end metrics, printed by every workload with tracing off.
///
/// The bounds are set from what this two-core host repeats (see
/// `REPEATABILITY.md`): it runs at one of two speeds some 15 % apart for
/// minutes at a time, so sets of runs of one binary show interquartile
/// spreads of 4–20 % on the timing metrics, and a tighter bound could only
/// ever report "unresolved". The exact metrics vary by seed alone.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("op_p50_ms", "ms", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("cpu_ms_per_op", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.10),
    e2e("recall_at_10", "share", "higher", 0.03),
    e2e("stored_bytes_per_input_byte", "ratio", "lower", 0.03),
    e2e("setup_s", "s", "lower", 0.25),
];

/// The per-layer metrics of the traced run. A metric that does not exist on
/// a workload (no socket on `discover_wide`, no append on `serve_*`) reads 0
/// there; `benchmark/README.md` says which is defined where.
pub const PER_LAYER: [MetricDef; 54] = [
    layer("serve.http.roundtrip_ms", "ms", "lower"),
    layer("serve.http.connects_per_op", "count", "lower"),
    layer("serve.json.parse_ms", "ms", "lower"),
    layer("serve.json.request_bytes", "bytes", "lower"),
    layer("serve.json.response_bytes", "bytes", "lower"),
    layer("serve.wire.decode_ms", "ms", "lower"),
    layer("serve.wire.fingerprint_ms", "ms", "lower"),
    layer("serve.wire.to_query_ms", "ms", "lower"),
    layer("serve.wire.encode_ms", "ms", "lower"),
    layer("serve.shard.execute_ms", "ms", "lower"),
    layer("serve.shard.merge_rank_ms", "ms", "lower"),
    layer("serve.server.unattributed_ms", "ms", "lower"),
    layer("serve.guard.result_cache_hit_share", "share", "higher"),
    layer("serve.daemon.ready_ms", "ms", "lower"),
    layer("discovery.query.build_sketch_ms", "ms", "lower"),
    layer("discovery.index.probe_ms", "ms", "lower"),
    layer("discovery.index.hits_per_op", "count", "lower"),
    layer("discovery.query.execute_ms", "ms", "lower"),
    layer("discovery.query.engine_self_ms", "ms", "lower"),
    layer("discovery.query.scored_per_op", "count", "lower"),
    layer("discovery.query.early_stopped_per_op", "count", "higher"),
    layer("discovery.query.pruned_per_op", "count", "higher"),
    layer("discovery.query.screened_share", "share", "higher"),
    layer("discovery.cache.estimate_hit_share", "share", "higher"),
    layer("discovery.cache.join_hit_share", "share", "higher"),
    layer("discovery.cache.evictions_per_op", "count", "lower"),
    layer("discovery.cache.resident_mb", "MiB", "lower"),
    layer("sketch.join_ms_per_op", "ms", "lower"),
    layer("sketch.join_pairs_per_op", "count", "lower"),
    layer("sketch.append_ms_per_krow", "ms", "lower"),
    layer("estimators.estimate_ms_per_op", "ms", "lower"),
    layer("estimators.calls_per_op", "count", "lower"),
    layer("estimators.mle_us_per_call", "us", "lower"),
    layer("estimators.ksg_us_per_call", "us", "lower"),
    layer("estimators.posterior_us_per_call", "us", "lower"),
    layer("par.execute_speedup_t2", "ratio", "higher"),
    layer("par.add_tables_speedup_t2", "ratio", "higher"),
    layer("discovery.repository.add_tables_ms_per_krow", "ms", "lower"),
    layer("discovery.persist.save_ms", "ms", "lower"),
    layer("discovery.persist.append_to_ms", "ms", "lower"),
    layer("discovery.persist.compact_ms", "ms", "lower"),
    layer("discovery.persist.open_ms", "ms", "lower"),
    layer("discovery.persist.load_ms", "ms", "lower"),
    layer("discovery.persist.first_answer_ms", "ms", "lower"),
    layer(
        "discovery.persist.decoded_candidates_per_op",
        "count",
        "lower",
    ),
    layer("store.write_calls_per_op", "count", "lower"),
    layer("store.fsyncs_per_op", "count", "lower"),
    layer("store.read_calls_per_op", "count", "lower"),
    layer("store.bytes_written_per_appended_byte", "ratio", "lower"),
    layer("store.file_bytes_per_input_byte_peak", "ratio", "lower"),
    layer("loadgen.op_p95_ms", "ms", "lower"),
    layer("loadgen.slice_ops_per_s_min", "1/s", "higher"),
    layer("loadgen.slice_ops_per_s_max", "1/s", "higher"),
    layer("trace.overhead_pct", "%", "lower"),
];

/// Values of one run's metrics, by name.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Every per-layer metric at 0, to be overwritten as it is measured.
    #[must_use]
    pub fn per_layer_zeroed() -> Self {
        Self(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    /// Records `value` under `name`, which must be a declared metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
            "undeclared metric {name}"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The value recorded under `name` (0 when none was).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `(definition, value)` for every metric of `defs`, in their order.
    #[must_use]
    pub fn in_order(&self, defs: &'static [MetricDef]) -> Vec<(MetricDef, f64)> {
        defs.iter().map(|def| (*def, self.get(def.name))).collect()
    }
}

/// `numerator / denominator`, 0 when the denominator is.
#[must_use]
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}
