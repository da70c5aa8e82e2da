//! Sweep repetitions: the Table-4 case study over every benchmark.
//!
//! Each repetition builds a fresh `StudyExecutor`, so its decomposition
//! cache starts cold. The accuracies come from an untrained model and
//! carry no meaning for the paper; they only have to repeat bit for bit.

use std::time::Instant;

use lrd_core::executor::CacheStats;
use lrd_core::faults::FaultPlan;
use lrd_core::study::{DynBenchmark, StudyExecutor, StudyPoint};
use lrd_eval::harness::EvalOptions;
use lrd_eval::World;
use lrd_nn::TransformerLm;
use lrd_trace::counters::{get, Counter};

/// Seed of the synthetic knowledge world the benchmarks draw from.
pub const WORLD_SEED: u64 = 0x5EED_0A11;

/// The evaluation world.
pub fn world() -> World {
    World::new(WORLD_SEED)
}

/// One timed case-study sweep.
pub struct Rep {
    /// The settled points, in preset order.
    pub points: Vec<StudyPoint>,
    /// Wall time of the sweep, seconds.
    pub wall_s: f64,
    /// Samples the harness scored during the sweep.
    pub samples_scored: u64,
    /// Decomposition-cache statistics of the sweep's executor.
    pub cache: CacheStats,
}

impl Rep {
    /// Sweep points settled per second.
    pub fn points_per_s(&self) -> f64 {
        self.points.len() as f64 / self.wall_s
    }
}

/// Runs the case study once on `base` with a cold cache. Fault injection
/// is pinned off, whatever the environment says.
pub fn run(
    base: &TransformerLm,
    world: &World,
    opts: &EvalOptions,
    benches: &[DynBenchmark],
) -> Rep {
    let scored0 = get(Counter::EvalSamplesScored);
    let t = Instant::now();
    let exec = StudyExecutor::new(base, world, opts).with_faults(FaultPlan::default());
    let points = exec.case_study(benches);
    let wall_s = t.elapsed().as_secs_f64();
    Rep {
        points,
        wall_s,
        samples_scored: get(Counter::EvalSamplesScored) - scored0,
        cache: exec.cache_stats(),
    }
}
