//! The two workloads and the inputs each one generates from `--seed`.
//!
//! The program under test only ever sees what these functions generate:
//! a `lrd_serve` request trace and an evaluation sampling seed. Every
//! input is a pure function of `(workload, seed)`.

use lrd_eval::harness::EvalOptions;
use lrd_serve::TrafficConfig;
use lrd_tensor::rng::Rng64;

/// Sessions per serve trace. One trial replays one whole trace, so each
/// trial's TTFT p95 rests on 200 samples with 10 beyond it.
pub const SESSIONS: usize = 200;

/// Distinct serve traces per run. Serve trials cycle through them, so a
/// run's medians average over several batch compositions instead of
/// hanging on one trace's.
pub const TRACES: usize = 5;

/// Share of the measured window spent serving; the rest runs sweeps.
/// Every run reports every end-to-end metric, so both workloads run
/// both activities.
pub const SERVE_SHARE: f64 = 0.8;

/// Evaluation samples per benchmark in each sweep repetition.
pub const SWEEP_SAMPLES: usize = 16;

/// Independent random streams drawn from one workload seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// The serve request trace.
    Trace = 1,
    /// The evaluation sampling seed of the sweep.
    Eval = 2,
    /// Which sessions the sequential-equivalence gate replays.
    Subset = 3,
    /// Token inputs of the per-layer decode probes.
    Probe = 4,
}

/// Derives the seed of one input stream from the workload seed.
pub fn derive_seed(seed: u64, stream: Stream) -> u64 {
    Rng64::new(seed ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// One benchmark workload: a serve trace shape. Both workloads also run
/// the same case-study sweep for the rest of the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Short prompts, long generations: token generation dominates.
    Decode,
    /// Long prompts, one or two generated tokens: prompt feeding dominates.
    Prefill,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Decode, Workload::Prefill];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Decode => "decode",
            Workload::Prefill => "prefill",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generator parameters of the run's serve trace number `trace`.
    pub fn traffic(self, seed: u64, trace: usize) -> TrafficConfig {
        let model = lrd_models::tiny::tiny_llama_config();
        let mut t = TrafficConfig::for_model(
            SESSIONS,
            derive_seed(seed, Stream::Trace).wrapping_add(trace as u64),
            model.vocab_size,
            model.max_seq,
        );
        match self {
            Workload::Decode => {
                t.prompt_len = (2, 8);
                t.gen_len = (40, 56);
                t.mean_interarrival_steps = 3.5;
            }
            Workload::Prefill => {
                // No bursts and a slow arrival rate: the running set
                // rarely fills, so queue wait (which TTFT, measured from
                // admission, would hide) stays near zero.
                t.prompt_len = (40, 60);
                t.gen_len = (1, 2);
                t.mean_interarrival_steps = 4.0;
                t.burst_every = 0;
            }
        }
        t
    }
}

/// Evaluation options of the sweep. `threads: 0` lets the executor split
/// the host's available parallelism between workers and per-evaluation
/// threads, so neither exceeds `nproc`.
pub fn eval_options(seed: u64) -> EvalOptions {
    EvalOptions {
        n_samples: SWEEP_SAMPLES,
        seed: derive_seed(seed, Stream::Eval),
        batch_size: 64,
        threads: 0,
    }
}
