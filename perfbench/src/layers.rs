//! The traced run: per-layer metrics of `serve`, `nn`, `tensor`, `core`
//! and `eval`, measured from outside through their public functions.
//!
//! Counts are deltas of the process-global `lrd_trace` counters taken
//! around each call; nothing else runs while they are taken. Times of
//! single operators come from a walk of `TransformerLm::blocks` that must
//! reproduce `decode_step_many`'s logits bit for bit, or the run errors.

use std::hint::black_box;
use std::time::Instant;

use lrd_core::decompose::decompose_model_cached;
use lrd_core::executor::DecompositionCache;
use lrd_eval::vocab::PAD;
use lrd_eval::World;
use lrd_nn::act::silu;
use lrd_nn::attention::KvCache;
use lrd_nn::block::TransformerBlock;
use lrd_nn::model::FinalNorm;
use lrd_nn::{DecodeState, TransformerLm};
use lrd_serve::generate;
use lrd_tensor::rng::Rng64;
use lrd_tensor::tucker::tucker2;
use lrd_tensor::Tensor;
use lrd_trace::counters::{gemm_snapshot, get, Counter};
use lrd_trace::span::{self, SpanRecord};

use crate::gate;
use crate::metrics::{slug, DECODE_HEIGHTS, OPS, WALK_HEIGHTS};
use crate::run::Outcome;
use crate::serving;
use crate::setup::{f96_config, Variants};
use crate::stats::{median, ratio};
use crate::sweep;
use crate::workload::{derive_seed, eval_options, Stream, Workload};

/// Decode steps per probe repetition (positions 0..STEPS).
const STEPS: usize = 32;

/// Repetitions of every timed probe; each probe reports the median.
const REPS: usize = 5;

/// Rows of the multiple-choice scoring batch (the harness's batch size).
const SCORING_ROWS: usize = 64;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// GEMM calls, GEMM FLOPs and packed bytes so far, process-wide.
fn gemm_totals() -> [u64; 3] {
    let cells = gemm_snapshot();
    [
        cells.iter().map(|c| c.calls).sum(),
        cells.iter().map(|c| c.flops).sum(),
        get(Counter::GemmBytesPacked),
    ]
}

/// Seeded teacher-forced decode inputs: `STEPS` rows of `m` tokens.
fn probe_tokens(seed: u64, m: usize, vocab: usize) -> Vec<Vec<usize>> {
    let mut rng = Rng64::new(derive_seed(seed, Stream::Probe) ^ m as u64);
    (0..STEPS)
        .map(|_| (0..m).map(|_| rng.below(vocab)).collect())
        .collect()
}

/// Median wall time of one `decode_step_many` call over positions
/// `0..STEPS`, ms.
fn decode_step_ms(model: &TransformerLm, tokens: &[Vec<usize>]) -> Result<f64, String> {
    let mut reps = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut states: Vec<DecodeState> =
            tokens[0].iter().map(|_| model.new_decode_state()).collect();
        let mut total = 0.0;
        for step in tokens {
            let mut refs: Vec<&mut DecodeState> = states.iter_mut().collect();
            let t = Instant::now();
            black_box(model.decode_step_many(step, &mut refs).map_err(err)?);
            total += secs(t);
        }
        reps.push(total * 1e3 / tokens.len() as f64);
    }
    Ok(median(&reps))
}

/// Indices into [`OPS`].
const EMBED: usize = 0;
const NORM: usize = 1;
const Q: usize = 2;
const K: usize = 3;
const V: usize = 4;
const O: usize = 5;
const ATTN_CORE: usize = 6;
const GATE: usize = 7;
const UP: usize = 8;
const DOWN: usize = 9;
const LM_HEAD: usize = 10;

/// Per-step results of the operator walk.
#[derive(Debug, Clone, Copy)]
struct Walk {
    /// Time per decode step of each operator in [`OPS`], summed over
    /// layers, µs.
    op_us: [f64; 11],
    /// Wall time of one walked decode step, ms.
    step_ms: f64,
}

/// One decode step composed from the model's public parts, in the order
/// `DecoderBlock::decode_step_many` runs them. Accumulates operator
/// seconds into `acc` (attention as a whole into `acc[ATTN_CORE]`) and
/// returns the logits plus each layer's attention input.
fn walk_step(
    model: &TransformerLm,
    tokens: &[usize],
    caches: &mut [Vec<KvCache>],
    positions: &[usize],
    acc: &mut [f64; 11],
) -> Result<(Tensor, Vec<Tensor>), String> {
    let t = Instant::now();
    let mut x = model.tok_embed.value.gather_rows(tokens);
    acc[EMBED] += secs(t);
    let mut attn_inputs = Vec::with_capacity(model.blocks.len());
    for (l, block) in model.blocks.iter().enumerate() {
        let TransformerBlock::Decoder(b) = block else {
            return Err("the walk needs a decoder model".into());
        };
        let t = Instant::now();
        let nx = b.norm1.infer(&x);
        acc[NORM] += secs(t);
        let mut layer: Vec<&mut KvCache> = caches.iter_mut().map(|c| &mut c[l]).collect();
        let t = Instant::now();
        let ax = b
            .attn
            .decode_step_many(&nx, positions, &mut layer)
            .map_err(err)?;
        acc[ATTN_CORE] += secs(t);
        let h = x.add(&ax).map_err(err)?;
        let t = Instant::now();
        let nh = b.norm2.infer(&h);
        acc[NORM] += secs(t);
        let t = Instant::now();
        let g = b.mlp.gate.infer(&nh);
        acc[GATE] += secs(t);
        let t = Instant::now();
        let u = b.mlp.up.infer(&nh);
        acc[UP] += secs(t);
        let gu = g.zip(&u, |g, u| silu(g) * u).map_err(err)?;
        let t = Instant::now();
        let mx = b.mlp.down.infer(&gu);
        acc[DOWN] += secs(t);
        x = h.add(&mx).map_err(err)?;
        attn_inputs.push(nx);
    }
    let t = Instant::now();
    let nx = match &model.final_norm {
        FinalNorm::Rms(n) => n.infer(&x),
        FinalNorm::Layer(n) => n.infer(&x),
    };
    acc[NORM] += secs(t);
    let t = Instant::now();
    let logits = model.lm_head.infer(&nx);
    acc[LM_HEAD] += secs(t);
    Ok((logits, attn_inputs))
}

fn bit_equal(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Walks `STEPS` decode steps of `tokens.len()` sessions operator by
/// operator. The four attention projections are timed again, on the
/// same inputs, outside the walked step; `attn_core` is the attention
/// total minus them.
///
/// # Errors
///
/// Any step whose logits differ from `decode_step_many`'s in a single
/// bit, and any decode error.
fn walk(model: &TransformerLm, tokens: &[Vec<usize>]) -> Result<Walk, String> {
    let cfg = model.config();
    let width = cfg.n_kv_heads * (cfg.d_model / cfg.n_heads);
    let m = tokens[0].len();
    let mut reps: Vec<Walk> = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut caches: Vec<Vec<KvCache>> = (0..m)
            .map(|_| {
                (0..cfg.n_layers)
                    .map(|_| KvCache::with_bounds(cfg.max_seq, width))
                    .collect()
            })
            .collect();
        let mut states: Vec<DecodeState> = (0..m).map(|_| model.new_decode_state()).collect();
        let mut acc = [0.0f64; 11];
        let mut walked = 0.0;
        for (pos, step) in tokens.iter().enumerate() {
            let positions = vec![pos; m];
            let t = Instant::now();
            let (logits, attn_inputs) = walk_step(model, step, &mut caches, &positions, &mut acc)?;
            walked += secs(t);
            for (block, nx) in model.blocks.iter().zip(&attn_inputs) {
                let TransformerBlock::Decoder(b) = block else {
                    return Err("the walk needs a decoder model".into());
                };
                for (op, lin) in [
                    (Q, &b.attn.wq),
                    (K, &b.attn.wk),
                    (V, &b.attn.wv),
                    (O, &b.attn.wo),
                ] {
                    let t = Instant::now();
                    black_box(lin.infer(nx));
                    acc[op] += secs(t);
                }
            }
            let mut refs: Vec<&mut DecodeState> = states.iter_mut().collect();
            let expected = model.decode_step_many(step, &mut refs).map_err(err)?;
            if !bit_equal(&expected, &logits) {
                return Err(format!(
                    "operator walk diverged from decode_step_many at position {pos}, batch {m}"
                ));
            }
        }
        acc[ATTN_CORE] -= acc[Q] + acc[K] + acc[V] + acc[O];
        let steps = tokens.len() as f64;
        reps.push(Walk {
            op_us: acc.map(|s| s * 1e6 / steps),
            step_ms: walked * 1e3 / steps,
        });
    }
    let mut op_us = [0.0; 11];
    for (i, v) in op_us.iter_mut().enumerate() {
        *v = median(&reps.iter().map(|w| w.op_us[i]).collect::<Vec<_>>());
    }
    Ok(Walk {
        op_us,
        step_ms: median(&reps.iter().map(|w| w.step_ms).collect::<Vec<_>>()),
    })
}

/// The harness's multiple-choice scoring shape: the first
/// [`SCORING_ROWS`] (prompt ++ choice) rows of ARC-Easy samples, padded
/// to the longest. Returns the flat tokens.
fn scoring_batch(world: &World, seed: u64) -> Vec<usize> {
    let samples = lrd_eval::Benchmark::samples(
        &lrd_eval::tasks::ArcEasy,
        world,
        SCORING_ROWS,
        derive_seed(seed, Stream::Eval),
    );
    let rows: Vec<Vec<usize>> = samples
        .iter()
        .flat_map(|s| {
            s.choices.iter().map(|c| {
                let mut r = s.prompt.clone();
                r.extend_from_slice(c);
                r
            })
        })
        .take(SCORING_ROWS)
        .collect();
    let len = rows.iter().map(Vec::len).max().unwrap_or(1);
    rows.iter()
        .flat_map(|r| r.iter().copied().chain(std::iter::repeat(PAD)).take(len))
        .collect()
}

/// Median wall time of `TransformerLm::logits` on `flat`, ms.
fn forward_ms(model: &TransformerLm, flat: &[usize]) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(model.logits(flat, SCORING_ROWS));
            secs(t) * 1e3
        })
        .collect();
    median(&reps)
}

/// Mean wall time of one rank-1 `tucker2` over every weight the f96
/// preset decomposes, µs.
fn tucker2_us(dense: &TransformerLm) -> Result<f64, String> {
    let cfg = f96_config()?;
    let mut model = dense.clone();
    let weights: Vec<Tensor> = model
        .visit_linears()
        .into_iter()
        .filter(|(layer, _, _)| cfg.layers.contains(layer))
        .map(|(_, _, lin)| lin.effective_weight())
        .collect();
    let mut total = 0.0;
    for w in &weights {
        let t = Instant::now();
        black_box(tucker2(w, 1).map_err(err)?);
        total += secs(t);
    }
    Ok(total * 1e6 / weights.len().max(1) as f64)
}

/// Median cold (fresh cache) and warm (same cache again) wall time of
/// decomposing the f96 variant through the core's factor cache, ms.
fn decompose_ms(dense: &TransformerLm) -> Result<(f64, f64), String> {
    let cfg = f96_config()?;
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let cache = DecompositionCache::new();
        for times in [&mut cold, &mut warm] {
            let mut m = dense.clone();
            let t = Instant::now();
            decompose_model_cached(&mut m, &cfg, &cache).map_err(err)?;
            times.push(secs(t) * 1e3);
        }
    }
    Ok((median(&cold), median(&warm)))
}

/// Total length of the union of `[start, start + dur)` intervals, µs.
fn covered_us(spans: &[&SpanRecord]) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start_us, s.start_us + s.dur_us))
        .collect();
    iv.sort_unstable();
    let (mut total, mut end) = (0u64, 0u64);
    for (a, b) in iv {
        if b > end {
            total += b - a.max(end);
            end = b;
        }
    }
    total
}

/// Measures every per-layer metric of `workload`.
///
/// # Errors
///
/// Set-up failures, decode errors, and a walk that is not bit-identical.
pub fn traced(workload: Workload, seed: u64) -> Result<Outcome, String> {
    let variants = Variants::build()?;
    let mut out = Outcome::default();
    serve_layer(&variants, workload, seed, &mut out);
    nn_layer(&variants, seed, &mut out)?;
    out.values
        .push("tensor.tucker2_us", tucker2_us(&variants.dense)?);
    let (cold, warm) = decompose_ms(&variants.dense)?;
    out.values.push("core.decompose_ms.cold", cold);
    out.values.push("core.decompose_ms.warm", warm);
    sweep_layers(&variants, seed, &mut out);
    Ok(out)
}

/// `serve` metrics, and `tensor` counts per served token, from one replay
/// of the workload's trace per variant.
fn serve_layer(variants: &Variants, workload: Workload, seed: u64, out: &mut Outcome) {
    let requests = generate(&workload.traffic(seed, 0));
    let picked = gate::subset(
        derive_seed(seed, Stream::Subset),
        requests.len(),
        gate::SUBSET,
    );
    let cfg = serving::config(requests.len());
    for (name, model) in variants.all() {
        let before = gemm_totals();
        let outcome = serving::replay(model, &requests, name);
        let after = gemm_totals();
        let r = &outcome.report;
        let tokens = r.tokens as f64;
        let v = &mut out.values;
        v.push(
            format!("serve.steps_per_token.{name}"),
            ratio(r.batches as f64, tokens),
        );
        v.push(format!("serve.mean_batch.{name}"), r.mean_batch);
        let lost = r.failed + r.rejected + r.shed + r.timed_out;
        v.push(
            format!("serve.failed_share.{name}"),
            ratio(lost as f64, r.offered as f64),
        );
        let stems = [
            "gemm_calls_per_token",
            "gemm_flops_per_token",
            "bytes_packed_per_token",
        ];
        for (i, stem) in stems.iter().enumerate() {
            let delta = (after[i] - before[i]) as f64;
            v.push(format!("tensor.{stem}.{name}"), ratio(delta, tokens));
        }
        out.attempted += r.offered + picked.len() as u64;
        out.failed += gate::incomplete(&outcome)
            + gate::sequential_mismatches(model, &requests, &picked, &cfg, &outcome) as u64;
    }
}

/// `nn` metrics: whole decode steps, the operator walk and its tracing
/// overhead, full-sequence scoring, and the paper's slope.
fn nn_layer(variants: &Variants, seed: u64, out: &mut Outcome) -> Result<(), String> {
    let vocab = variants.dense.config().vocab_size;
    let v = &mut out.values;
    let mut step_ms = Vec::new();
    for m in DECODE_HEIGHTS {
        let tokens = probe_tokens(seed, m, vocab);
        let mut per_variant = [0.0; 2];
        for (i, (name, model)) in variants.all().into_iter().enumerate() {
            per_variant[i] = decode_step_ms(model, &tokens)?;
            v.push(format!("nn.decode_step_ms.m{m}.{name}"), per_variant[i]);
        }
        step_ms.push((m, per_variant));
    }
    let plain = |m: usize, i: usize| {
        step_ms
            .iter()
            .find(|(h, _)| *h == m)
            .map_or(0.0, |(_, ms)| ms[i])
    };
    for m in WALK_HEIGHTS {
        let tokens = probe_tokens(seed, m, vocab);
        for (i, (name, model)) in variants.all().into_iter().enumerate() {
            let w = walk(model, &tokens)?;
            for (op, us) in OPS.iter().zip(w.op_us) {
                v.push(format!("nn.op_us.{op}.m{m}.{name}"), us);
            }
            v.push(
                format!("nn.trace_overhead_ms.m{m}.{name}"),
                w.step_ms - plain(m, i),
            );
            out.attempted += STEPS as u64;
        }
    }
    let flat = scoring_batch(&sweep::world(), seed);
    for (name, model) in variants.all() {
        v.push(
            format!("nn.forward_ms.b64.{name}"),
            forward_ms(model, &flat),
        );
    }
    let (dense, f96) = (plain(32, 0), plain(32, 1));
    let cut_pct =
        100.0 * (1.0 - variants.f96.param_count() as f64 / variants.dense.param_count() as f64);
    let saved_pct = 100.0 * ratio(dense - f96, dense);
    v.push("nn.latency_saved_per_param_pct", ratio(saved_pct, cut_pct));
    Ok(())
}

/// `core`, `eval` and `tensor` metrics of one cold sweep, read through
/// counters and the spans the executor and harness record.
fn sweep_layers(variants: &Variants, seed: u64, out: &mut Outcome) {
    let world = sweep::world();
    let benches = lrd_eval::tasks::registry();
    let opts = eval_options(seed);
    let spans0 = span::snapshot().len();
    let sweeps0 = get(Counter::SvdJacobiSweeps);
    let packed0 = get(Counter::GemmBytesPacked);
    let retries0 = get(Counter::SweepRetries);
    let rep = sweep::run(&variants.dense, &world, &opts, &benches);
    let spans: Vec<SpanRecord> = span::snapshot().split_off(spans0);
    let samples = rep.samples_scored as f64;
    let v = &mut out.values;
    let packed = (get(Counter::GemmBytesPacked) - packed0) as f64;
    v.push("tensor.bytes_packed_per_sample", ratio(packed, samples));
    let sweeps = get(Counter::SvdJacobiSweeps) - sweeps0;
    v.push("tensor.svd_jacobi_sweeps", sweeps as f64);
    v.push("core.cache_hit_rate", rep.cache.hit_rate());
    // `run_jobs_isolated` keeps no queue counters, so queue wait comes
    // from the point spans: a point waits from the pool's first claim
    // until a worker claims it.
    let points: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "point").collect();
    let pool_start = points.iter().map(|s| s.start_us).min().unwrap_or(0);
    let wait: u64 = points.iter().map(|s| s.start_us - pool_start).sum();
    let busy: u64 = points.iter().map(|s| s.dur_us).sum();
    v.push(
        "core.executor_queue_wait_share",
        ratio(wait as f64, (wait + busy) as f64),
    );
    let failed_points = rep.points.iter().filter(|p| p.is_failed()).count();
    v.push("core.points_failed", failed_points as f64);
    v.push(
        "core.retries",
        (get(Counter::SweepRetries) - retries0) as f64,
    );
    let timed: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.name == "decompose" || s.name == "eval")
        .collect();
    let covered_s = covered_us(&timed) as f64 * 1e-6;
    v.push(
        "core.self_share",
        (1.0 - ratio(covered_s, rep.wall_s)).max(0.0),
    );
    let mut scoring_s = 0.0;
    for b in &benches {
        let durs_ms: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "score" && s.label == b.name())
            .map(|s| s.dur_us as f64 * 1e-3)
            .collect();
        let total_ms: f64 = durs_ms.iter().sum();
        scoring_s += total_ms * 1e-3;
        v.push(
            format!("eval.score_ms.{}", slug(b.name())),
            ratio(total_ms, durs_ms.len() as f64),
        );
    }
    v.push("eval.samples_per_s", ratio(samples, scoring_s));
    out.attempted += rep.points.len() as u64;
    out.failed += gate::sweep_failures(
        &rep.points,
        rep.samples_scored,
        benches.len(),
        opts.n_samples,
        None,
    ) as u64;
}
