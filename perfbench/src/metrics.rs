//! Metric names, units and directions, and the result line.
//!
//! These lists are the single source of what a run emits; the tests
//! check them against `BENCHMARK.json` and a run refuses to print a
//! result whose names differ from them.

use std::collections::BTreeMap;

use lrd_trace::json::Json;

use crate::setup::VARIANTS;

/// Serve metrics emitted once per variant, as `(stem, unit)`.
pub const SERVE_METRICS: [(&str, &str); 5] = [
    ("tok_s", "tok/s"),
    ("ttft_p50_ms", "ms"),
    ("ttft_p95_ms", "ms"),
    ("tpot_p50_ms", "ms"),
    ("tpot_p99_ms", "ms"),
];

/// Decode batch heights of the per-step decode probe.
pub const DECODE_HEIGHTS: [usize; 3] = [1, 8, 32];

/// Decode batch heights of the per-operator walk.
pub const WALK_HEIGHTS: [usize; 2] = [1, 32];

/// Operators of the per-operator walk, per decode step.
pub const OPS: [&str; 11] = [
    "embed",
    "norm",
    "q",
    "k",
    "v",
    "o",
    "attn_core",
    "gate",
    "up",
    "down",
    "lm_head",
];

/// One declared metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// Emitted name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

fn spec(name: impl Into<String>, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name: name.into(),
        unit,
        better,
    }
}

/// `stem.<variant>` for every variant.
fn per_variant(out: &mut Vec<Spec>, stem: &str, unit: &'static str, better: &'static str) {
    for v in VARIANTS {
        out.push(spec(format!("{stem}.{v}"), unit, better));
    }
}

/// A benchmark's display name as a metric-name component.
pub fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// The end-to-end metrics every untraced run emits.
pub fn end_to_end() -> Vec<Spec> {
    let mut out = Vec::new();
    for (stem, unit) in SERVE_METRICS {
        let better = if stem == "tok_s" { "higher" } else { "lower" };
        per_variant(&mut out, stem, unit, better);
    }
    out.push(spec("points_per_s", "points/s", "higher"));
    out.push(spec("setup_s", "s", "lower"));
    out
}

/// The per-layer metrics every traced run emits.
pub fn per_layer() -> Vec<Spec> {
    let mut out = Vec::new();
    per_variant(&mut out, "serve.steps_per_token", "steps/token", "lower");
    per_variant(&mut out, "serve.mean_batch", "sessions", "higher");
    per_variant(&mut out, "serve.failed_share", "ratio", "lower");
    for m in DECODE_HEIGHTS {
        per_variant(&mut out, &format!("nn.decode_step_ms.m{m}"), "ms", "lower");
    }
    for op in OPS {
        for m in WALK_HEIGHTS {
            per_variant(&mut out, &format!("nn.op_us.{op}.m{m}"), "us", "lower");
        }
    }
    per_variant(&mut out, "nn.forward_ms.b64", "ms", "lower");
    out.push(spec("nn.latency_saved_per_param_pct", "ratio", "higher"));
    for m in WALK_HEIGHTS {
        per_variant(
            &mut out,
            &format!("nn.trace_overhead_ms.m{m}"),
            "ms",
            "lower",
        );
    }
    per_variant(
        &mut out,
        "tensor.gemm_calls_per_token",
        "calls/token",
        "lower",
    );
    per_variant(
        &mut out,
        "tensor.gemm_flops_per_token",
        "flop/token",
        "lower",
    );
    per_variant(
        &mut out,
        "tensor.bytes_packed_per_token",
        "B/token",
        "lower",
    );
    out.push(spec("tensor.bytes_packed_per_sample", "B/sample", "lower"));
    out.push(spec("tensor.svd_jacobi_sweeps", "count", "lower"));
    out.push(spec("tensor.tucker2_us", "us", "lower"));
    out.push(spec("core.decompose_ms.cold", "ms", "lower"));
    out.push(spec("core.decompose_ms.warm", "ms", "lower"));
    out.push(spec("core.cache_hit_rate", "ratio", "higher"));
    out.push(spec("core.executor_queue_wait_share", "ratio", "lower"));
    out.push(spec("core.points_failed", "count", "lower"));
    out.push(spec("core.retries", "count", "lower"));
    out.push(spec("core.self_share", "ratio", "lower"));
    for b in lrd_eval::tasks::registry() {
        out.push(spec(
            format!("eval.score_ms.{}", slug(b.name())),
            "ms",
            "lower",
        ));
    }
    out.push(spec("eval.samples_per_s", "samples/s", "higher"));
    out
}

/// Measured values by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Records one value.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result line: the last line a run prints. `correct` is true
/// exactly when no operation failed.
///
/// # Errors
///
/// Refuses values whose names are not exactly those of `specs`, or that
/// are not finite.
pub fn result_line(
    specs: &[Spec],
    values: &Values,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let extra: Vec<&String> = values
        .0
        .keys()
        .filter(|n| !specs.iter().any(|s| &s.name == *n))
        .collect();
    if !extra.is_empty() {
        return Err(format!("undeclared metrics measured: {extra:?}"));
    }
    let mut metrics = Vec::with_capacity(specs.len());
    for s in specs {
        let v = values
            .get(&s.name)
            .ok_or_else(|| format!("declared metric {} was not measured", s.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", s.name));
        }
        metrics.push((
            s.name.clone(),
            Json::obj([("value", Json::num(v)), ("unit", Json::str(s.unit))]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::uint(attempted.max(1))),
        ("failed", Json::uint(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render_compact())
}
