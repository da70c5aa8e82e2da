//! # perfbench
//!
//! The repository's benchmark: end-to-end serving and sweep metrics of
//! the tiny Llama and its Table-4 "96%" factored variant, and a separate
//! traced run with per-layer metrics of `serve`, `nn`, `tensor`, `core`
//! and `eval`. It drives the crates only through their public functions.
//! See `README.md` for the workloads, the traffic model and the metric
//! catalogue.

pub mod gate;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod serving;
pub mod setup;
pub mod stats;
pub mod sweep;
pub mod workload;
