//! The untraced run: every end-to-end metric of one workload.

use std::time::Instant;

use lrd_core::study::StudyPoint;
use lrd_serve::{generate, Request, ServeOutcome};

use crate::gate;
use crate::host::Reference;
use crate::metrics::{Values, SERVE_METRICS};
use crate::serving::{self, Trial};
use crate::setup::{Variants, VARIANTS};
use crate::stats::median;
use crate::sweep;
use crate::workload::{derive_seed, eval_options, Stream, Workload, SERVE_SHARE, TRACES};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Sessions of the trace replayed once per variant, untimed, before
/// measuring.
const WARMUP_SESSIONS: usize = 16;

/// What a run measured and how many of its operations failed the gate.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metric values.
    pub values: Values,
    /// Operations attempted: served sessions, sweep points and replayed
    /// gate sessions.
    pub attempted: u64,
    /// Operations that failed the correctness gate.
    pub failed: u64,
}

/// Measures `workload` for about `seconds` of wall time.
///
/// Serve trials alternate the variant order (dense first, then f96
/// first) so host drift, which lasts seconds, hits both alike; sweep
/// repetitions are interleaved with them so each activity keeps its
/// [`SERVE_SHARE`] of the window. Every timed activity is reported at the
/// reference host speed (see [`crate::host`]), and each metric is the
/// median over the run's trials, repetitions or [`SETUPS`] set-ups.
///
/// # Errors
///
/// Set-up failures.
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let reference = Reference::default();
    let mut slowdowns = Vec::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut variants = None;
    for _ in 0..SETUPS {
        let (built, raw_s, slowdown) = reference.bracket(1, Variants::build);
        setups.push(raw_s / slowdown);
        slowdowns.push(slowdown);
        variants = Some(built?);
    }
    let variants = variants.ok_or("no set-up ran")?;
    let traces: Vec<Vec<Request>> = (0..TRACES)
        .map(|k| generate(&workload.traffic(seed, k)))
        .collect();
    let world = sweep::world();
    let benches = lrd_eval::tasks::registry();
    let opts = eval_options(seed);
    // The sweep's evaluation spreads over every CPU, so it is calibrated
    // on as many.
    let sweep_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    for (name, model) in variants.all() {
        serving::replay(
            model,
            &traces[0][..WARMUP_SESSIONS.min(traces[0].len())],
            name,
        );
    }

    let mut out = Outcome::default();
    let mut trials: [Vec<Trial>; 2] = Default::default();
    // The first outcome of each (variant, trace): later trials of the
    // same trace must reproduce its streams.
    let mut first: [Vec<Option<ServeOutcome>>; 2] = Default::default();
    for f in &mut first {
        f.resize_with(TRACES, || None);
    }
    let mut rates = Vec::new();
    let mut first_rep: Option<Vec<StudyPoint>> = None;
    let (mut serve_s, mut sweep_s) = (0.0f64, 0.0f64);
    let start = Instant::now();
    let mut pairs = 0usize;
    let (mut last_pair_s, mut last_rep_s) = (0.0f64, 0.0f64);
    loop {
        // At least one serve pair and two sweep repetitions, so every
        // metric and the repeat check have data; after that, an activity
        // starts only if at least half of it fits in the window.
        let serve_next =
            pairs == 0 || (rates.len() >= 2 && serve_s <= SERVE_SHARE * (serve_s + sweep_s));
        let next_s = if serve_next { last_pair_s } else { last_rep_s };
        let minimums = pairs > 0 && rates.len() >= 2;
        if minimums && start.elapsed().as_secs_f64() + next_s / 2.0 > seconds {
            break;
        }
        let t = Instant::now();
        if serve_next {
            let order = if pairs.is_multiple_of(2) {
                [0, 1]
            } else {
                [1, 0]
            };
            let k = pairs % TRACES;
            for i in order {
                let (name, model) = variants.all()[i];
                let (outcome, raw_s, slowdown) =
                    reference.bracket(1, || serving::replay(model, &traces[k], name));
                serve_s += raw_s;
                slowdowns.push(slowdown);
                out.attempted += outcome.report.offered;
                out.failed += gate::incomplete(&outcome);
                trials[i].push(Trial::of(&outcome).at_reference_speed(slowdown));
                match &first[i][k] {
                    Some(f) => {
                        out.failed +=
                            gate::stream_mismatches(&f.completions, &outcome.completions) as u64;
                    }
                    None => first[i][k] = Some(outcome),
                }
            }
            pairs += 1;
            last_pair_s = t.elapsed().as_secs_f64();
        } else {
            let (rep, raw_s, slowdown) = reference.bracket(sweep_cpus, || {
                sweep::run(&variants.dense, &world, &opts, &benches)
            });
            sweep_s += raw_s;
            slowdowns.push(slowdown);
            out.attempted += rep.points.len() as u64;
            out.failed += gate::sweep_failures(
                &rep.points,
                rep.samples_scored,
                benches.len(),
                opts.n_samples,
                first_rep.as_deref(),
            ) as u64;
            rates.push(rep.points_per_s() * slowdown);
            first_rep.get_or_insert(rep.points);
            last_rep_s = t.elapsed().as_secs_f64();
        }
    }

    for (k, requests) in traces.iter().enumerate() {
        let picked = gate::subset(
            derive_seed(seed, Stream::Subset).wrapping_add(k as u64),
            requests.len(),
            gate::SUBSET,
        );
        let cfg = serving::config(requests.len());
        for (i, (_, model)) in variants.all().into_iter().enumerate() {
            if let Some(f) = &first[i][k] {
                out.attempted += picked.len() as u64;
                out.failed += gate::sequential_mismatches(model, requests, &picked, &cfg, f) as u64;
            }
        }
    }

    for (j, (stem, _)) in SERVE_METRICS.iter().enumerate() {
        for (i, v) in VARIANTS.iter().enumerate() {
            let values: Vec<f64> = trials[i].iter().map(|t| t.values()[j]).collect();
            out.values.push(format!("{stem}.{v}"), median(&values));
        }
    }
    out.values.push("points_per_s", median(&rates));
    out.values.push("setup_s", median(&setups));
    eprintln!(
        "perfbench: {pairs} serve pairs, {} sweep repetitions, host slowdown median {:.3} (range {:.3}-{:.3})",
        rates.len(),
        median(&slowdowns),
        slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
        slowdowns.iter().copied().fold(0.0, f64::max),
    );
    Ok(out)
}
