//! Set-up: the model under test and its factored serving variant.
//!
//! The weights are the seeded, untrained tiny Llama. Latency depends on
//! shapes, not on trained values, and an untrained model needs no
//! training run or cached checkpoint, either of which would make set-up
//! time bimodal.

use lrd_core::decompose::decompose_model;
use lrd_core::select::{preset_config, table4_presets};
use lrd_core::space::DecompositionConfig;
use lrd_models::tiny::build_tiny_llama;
use lrd_nn::TransformerLm;

/// Seed of the model weights; fixed, so every run measures one model.
pub const MODEL_SEED: u64 = 0x11A3_0001;

/// Serving variants, in the order every per-variant metric is emitted.
pub const VARIANTS: [&str; 2] = ["dense", "f96"];

/// The Table-4 "96%" preset: all 32 layers, all 7 tensors, rank 1.
pub fn f96_config() -> Result<DecompositionConfig, String> {
    table4_presets()
        .into_iter()
        .find(|(label, _, _)| *label == "96%")
        .map(|(_, _, layers)| preset_config(&layers))
        .ok_or_else(|| "Table-4 preset \"96%\" is missing".to_string())
}

/// The dense model and its `f96` decomposition.
pub struct Variants {
    /// The undecomposed model.
    pub dense: TransformerLm,
    /// The model decomposed with [`f96_config`].
    pub f96: TransformerLm,
}

impl Variants {
    /// Builds the model and decomposes the `f96` variant.
    pub fn build() -> Result<Variants, String> {
        let dense = build_tiny_llama(MODEL_SEED);
        let mut f96 = dense.clone();
        decompose_model(&mut f96, &f96_config()?).map_err(|e| format!("f96 decompose: {e}"))?;
        Ok(Variants { dense, f96 })
    }

    /// `(name, model)` pairs in [`VARIANTS`] order.
    pub fn all(&self) -> [(&'static str, &TransformerLm); 2] {
        [(VARIANTS[0], &self.dense), (VARIANTS[1], &self.f96)]
    }
}
