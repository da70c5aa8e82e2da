//! Host-speed calibration.
//!
//! Other tenants of a shared machine slow throughput-bound code by up to
//! 2× for tens of seconds at a time: more than the effects under study.
//! So every timed activity is bracketed by a fixed reference kernel, and
//! its time is reported at the reference speed: the raw time divided by
//! how much slower than [`NOMINAL_S`] the kernel ran around it.
//!
//! The kernel belongs to this package and calls nothing of the program
//! under test, so no program change can move it. It is a plain f32
//! matrix product over a 4 MB working set, close to the dense model's
//! 2.6 MB of weights, so it contends for the same caches and vector
//! units.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Wall time of one reference pass on an uncontended 2-vCPU AVX2 host,
/// seconds. It only fixes the unit: reported times are what the activity
/// would take on a host that runs the kernel this fast.
pub const NOMINAL_S: f64 = 0.0075;

/// Passes per calibration; the median is used.
const PASSES: usize = 5;

const K: usize = 40;
const N: usize = 112;
const MATRICES: usize = 224;
const ROWS: usize = 20;

/// The reference kernel's inputs.
pub struct Reference {
    weights: Vec<f32>,
    x: Vec<f32>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            weights: (0..MATRICES * K * N)
                .map(|i| (i % 17) as f32 * 0.01)
                .collect(),
            x: (0..ROWS * K).map(|i| (i % 13) as f32 * 0.1).collect(),
        }
    }
}

impl Reference {
    /// One pass: a `ROWS × K` activation block times each `K × N`
    /// matrix, four times over. Returns its wall time, seconds.
    fn pass(&self) -> f64 {
        let t = Instant::now();
        let mut out = vec![0f32; ROWS * N];
        for _ in 0..4 {
            for w in black_box(&self.weights).chunks_exact(K * N) {
                for (xr, orow) in self.x.chunks_exact(K).zip(out.chunks_exact_mut(N)) {
                    for (&a, wr) in xr.iter().zip(w.chunks_exact(N)) {
                        for (o, &b) in orow.iter_mut().zip(wr) {
                            *o += a * b;
                        }
                    }
                }
            }
        }
        black_box(&out);
        t.elapsed().as_secs_f64()
    }

    /// How much slower than nominal the host runs the kernel now, on
    /// `threads` CPUs at once: the mean over threads of each one's median
    /// pass.
    fn slowdown(&self, threads: usize) -> f64 {
        let median_pass = || median(&(0..PASSES).map(|_| self.pass()).collect::<Vec<_>>());
        let per_thread: Vec<f64> = if threads <= 1 {
            vec![median_pass()]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads).map(|_| s.spawn(median_pass)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("reference kernel thread panicked"))
                    .collect()
            })
        };
        per_thread.iter().sum::<f64>() / per_thread.len() as f64 / NOMINAL_S
    }

    /// Runs `f`, which keeps `threads` CPUs busy, between two
    /// calibrations on as many CPUs. Returns its result, its raw wall time
    /// in seconds, and the mean host slowdown around it.
    pub fn bracket<T>(&self, threads: usize, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.slowdown(threads);
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        let after = self.slowdown(threads);
        (out, raw_s, (before + after) / 2.0)
    }
}
