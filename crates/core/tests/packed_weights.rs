//! Packed inference weights never go stale. Every linear packs its weight
//! panels once and `infer` reuses them, so after each path that changes a
//! model's weights — an optimizer step, fake quantization, magnitude
//! pruning, a checkpoint load, a decomposition swap, and mutating a clone —
//! every slot's `infer` must equal a freshly packed `matmul` or
//! `factored_matmul` bit for bit.

use lrd_core::baselines::{prune_model, quantize_model};
use lrd_core::decompose::decompose_model;
use lrd_core::space::DecompositionConfig;
use lrd_nn::checkpoint::{load_model, save_model};
use lrd_nn::linear::AnyLinear;
use lrd_nn::train::{Batch, TrainConfig, Trainer};
use lrd_nn::{ArchKind, TransformerConfig, TransformerLm};
use lrd_tensor::matmul::{factored_matmul, matmul};
use lrd_tensor::rng::Rng64;
use lrd_tensor::Tensor;

const TOKENS: [usize; 8] = [3, 1, 4, 1, 5, 9, 2, 6];

fn model(seed: u64) -> TransformerLm {
    let cfg = TransformerConfig {
        kind: ArchKind::Decoder,
        vocab_size: 32,
        d_model: 16,
        n_layers: 2,
        n_heads: 2,
        n_kv_heads: 2,
        d_ff: 40,
        max_seq: 16,
    };
    TransformerLm::new(cfg, &mut Rng64::new(seed))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Logits of a fixed sequence; running them packs every linear's panels.
fn logits(model: &TransformerLm) -> Vec<u32> {
    bits(&model.logits(&TOKENS, 1))
}

/// Asserts that every slot's `infer` equals the product packed afresh
/// from the slot's current weights.
fn assert_fresh(model: &mut TransformerLm, what: &str) {
    let mut rng = Rng64::new(77);
    for (layer, name, slot) in model.visit_linears() {
        let x = Tensor::randn(&[5, slot.fan_in()], &mut rng);
        let fresh = match &*slot {
            AnyLinear::Dense(l) => {
                assert!(l.b.is_none(), "the test model has no biases");
                matmul(&x, &l.w.value)
            }
            AnyLinear::Factored(f) => {
                assert!(f.b.is_none(), "the test model has no biases");
                factored_matmul(&x, &f.u1.value, &f.core.value, &f.u2.value)
            }
        };
        assert_eq!(
            bits(&slot.infer(&x)),
            bits(&fresh),
            "{what}: layer {layer} {name} served stale panels"
        );
    }
}

#[test]
fn optimizer_step_repacks() {
    let mut m = model(1);
    let before = logits(&m);
    let batch = Batch::next_token(&[TOKENS.to_vec(), TOKENS.iter().rev().copied().collect()]);
    let mut trainer = Trainer::new(TrainConfig {
        warmup: 0,
        ..TrainConfig::default()
    });
    trainer.step(&mut m, &batch);
    assert_ne!(logits(&m), before, "the step must change the weights");
    assert_fresh(&mut m, "optimizer step");
}

#[test]
fn quantize_model_repacks() {
    let mut m = model(2);
    let before = logits(&m);
    quantize_model(&mut m, 4);
    assert_ne!(logits(&m), before);
    assert_fresh(&mut m, "quantize_model");
}

#[test]
fn prune_model_repacks() {
    let mut m = model(3);
    let before = logits(&m);
    prune_model(&mut m, 0.5);
    assert_ne!(logits(&m), before);
    assert_fresh(&mut m, "prune_model");
}

#[test]
fn checkpoint_load_serves_the_loaded_weights() {
    let mut m = model(4);
    let want = logits(&m);
    let path = std::env::temp_dir().join(format!("lrd_packed_weights_{}.ckpt", std::process::id()));
    save_model(&path, &mut m).unwrap();
    let loaded = load_model(&path);
    std::fs::remove_file(&path).unwrap();
    let mut loaded = loaded.unwrap();
    assert_eq!(logits(&loaded), want);
    assert_fresh(&mut loaded, "checkpoint load");
}

#[test]
fn decomposition_swap_repacks_only_what_it_replaces() {
    let mut m = model(5);
    let before = logits(&m);
    let cfg = DecompositionConfig::uniform(&[1], &[0, 3, 5], 2);
    decompose_model(&mut m, &cfg).unwrap();
    assert_ne!(logits(&m), before);
    assert_fresh(&mut m, "decomposition swap");
}

#[test]
fn mutating_a_clone_leaves_the_original_alone() {
    let mut original = model(6);
    let want = logits(&original);
    let mut clone = original.clone();
    quantize_model(&mut clone, 3);
    decompose_model(&mut clone, &DecompositionConfig::uniform(&[0], &[6], 1)).unwrap();
    assert_ne!(logits(&clone), want);
    assert_fresh(&mut clone, "mutated clone");
    assert_eq!(logits(&original), want, "the original kept its panels");
    assert_fresh(&mut original, "original of a mutated clone");
}
