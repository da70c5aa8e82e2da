//! The correctness gate. Nothing here is timed; every check returns the
//! number of operations it found wrong, and a run with any reports
//! `correct: false` and exits non-zero.

use lrd_core::study::StudyPoint;
use lrd_nn::TransformerLm;
use lrd_serve::{serve_sequential, Completion, Request, ServeConfig, ServeOutcome};
use lrd_tensor::rng::Rng64;

/// Sessions replayed through `serve_sequential` per variant.
pub const SUBSET: usize = 8;

/// Sessions of `outcome` that did not complete (rejected, failed, shed or
/// timed out). Every session of a fault-free trace must complete.
pub fn incomplete(outcome: &ServeOutcome) -> u64 {
    outcome.report.offered - outcome.report.completed.min(outcome.report.offered)
}

/// Sessions of `expected` whose token stream is missing from `got` or
/// differs from it, compared token by token (never through a checksum).
pub fn stream_mismatches(expected: &[Completion], got: &[Completion]) -> usize {
    expected
        .iter()
        .filter(|e| !got.iter().any(|g| g.id == e.id && g.tokens == e.tokens))
        .count()
}

/// A seeded choice of `k` distinct request indices out of `n`.
pub fn subset(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    Rng64::new(seed).shuffle(&mut idx);
    idx.truncate(k.min(n));
    idx.sort_unstable();
    idx
}

/// Replays the sessions `picked` of `requests` one at a time with
/// `serve_sequential` and counts those whose stream differs from the
/// batched run `batched` of the whole trace.
pub fn sequential_mismatches(
    model: &TransformerLm,
    requests: &[Request],
    picked: &[usize],
    cfg: &ServeConfig,
    batched: &ServeOutcome,
) -> usize {
    let chosen: Vec<Request> = picked.iter().map(|&i| requests[i].clone()).collect();
    let sequential = serve_sequential(model, &chosen, cfg, "sequential");
    let missing = chosen.len() - sequential.completions.len().min(chosen.len());
    missing + stream_mismatches(&sequential.completions, &batched.completions)
}

/// Failed operations of one sweep repetition: failed points, plus one if
/// the scored-sample count is not points × benchmarks × samples, plus
/// every point whose label, reduction or accuracies differ bit for bit
/// from the first repetition `reference`.
pub fn sweep_failures(
    points: &[StudyPoint],
    samples_scored: u64,
    benches: usize,
    samples: usize,
    reference: Option<&[StudyPoint]>,
) -> usize {
    let failed = points.iter().filter(|p| p.is_failed()).count();
    let expected = (points.len() * benches * samples) as u64;
    let miscounted = usize::from(samples_scored != expected);
    let differing = reference.map_or(0, |r| {
        let unmatched = r.len().abs_diff(points.len());
        unmatched
            + r.iter()
                .zip(points)
                .filter(|(a, b)| {
                    a.label != b.label
                        || a.results != b.results
                        || a.param_reduction_pct.to_bits() != b.param_reduction_pct.to_bits()
                })
                .count()
    });
    failed + miscounted + differing
}
