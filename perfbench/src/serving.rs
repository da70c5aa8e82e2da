//! Serve trials: one replay of the workload's trace on one variant.
//!
//! Traffic model: arrivals are keyed to virtual decode steps (see
//! `lrd_serve::traffic`), so in wall-clock terms the load is a closed
//! loop: a slower server receives the same trace more slowly. TTFT is
//! measured from admission, so it excludes queue wait.

use lrd_nn::TransformerLm;
use lrd_serve::{serve, Request, ServeConfig, ServeOutcome};

/// In-flight sessions per decode batch.
pub const MAX_BATCH: usize = 32;

/// Fault-free serving with an admission queue that holds the whole
/// trace, so no session is ever rejected.
pub fn config(sessions: usize) -> ServeConfig {
    ServeConfig {
        max_batch: MAX_BATCH,
        queue_cap: sessions.max(1),
        ..ServeConfig::default()
    }
}

/// End-to-end figures of one trial.
#[derive(Debug, Clone, Copy)]
pub struct Trial {
    /// Generated tokens per second.
    pub tok_s: f64,
    /// Median time to first token, from admission, ms.
    pub ttft_p50_ms: f64,
    /// 95th-percentile time to first token, ms.
    pub ttft_p95_ms: f64,
    /// Median decode-step time per emitted token, ms.
    pub tpot_p50_ms: f64,
    /// 99th-percentile decode-step time per emitted token, ms.
    pub tpot_p99_ms: f64,
}

impl Trial {
    /// The figures of `outcome`'s report.
    pub fn of(outcome: &ServeOutcome) -> Trial {
        let r = &outcome.report;
        Trial {
            tok_s: r.tokens_per_s,
            ttft_p50_ms: r.ttft_ms.p50,
            ttft_p95_ms: r.ttft_ms.p95,
            tpot_p50_ms: r.per_token_ms.p50,
            tpot_p99_ms: r.per_token_ms.p99,
        }
    }

    /// The figures at the reference host speed, for a trial that ran
    /// `slowdown` times slower than nominal (see [`crate::host`]).
    pub fn at_reference_speed(self, slowdown: f64) -> Trial {
        Trial {
            tok_s: self.tok_s * slowdown,
            ttft_p50_ms: self.ttft_p50_ms / slowdown,
            ttft_p95_ms: self.ttft_p95_ms / slowdown,
            tpot_p50_ms: self.tpot_p50_ms / slowdown,
            tpot_p99_ms: self.tpot_p99_ms / slowdown,
        }
    }

    /// The values in [`crate::metrics::SERVE_METRICS`] order.
    pub fn values(&self) -> [f64; 5] {
        [
            self.tok_s,
            self.ttft_p50_ms,
            self.ttft_p95_ms,
            self.tpot_p50_ms,
            self.tpot_p99_ms,
        ]
    }
}

/// Replays `requests` on `model`.
pub fn replay(model: &TransformerLm, requests: &[Request], label: &str) -> ServeOutcome {
    serve(model, requests, &config(requests.len()), label)
}
