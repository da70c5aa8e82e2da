//! Multi-head self-attention with manual backpropagation.
//!
//! Supports causal (decoder) and bidirectional (encoder) masking, grouped-
//! query attention, and rotary position embeddings. The four projection
//! weights `W_Q`, `W_K`, `W_V`, `W_SO` are the attention-side decomposable
//! tensors of the paper (Fig. 4) and are held in [`AnyLinear`] slots so the
//! decomposer can factor them in place.

use crate::act::{softmax_rows, softmax_rows_backward};
use crate::decode::DecodeError;
use crate::linear::{AnyLinear, AnyLinearCache};
use crate::param::Param;
use crate::rope::Rope;
use lrd_tensor::kernel::{self, Backend};
use lrd_tensor::matmul::{matmul, matmul_transa, matmul_transb};
use lrd_tensor::rng::Rng64;
use lrd_tensor::Tensor;

/// Per-layer key/value cache for incremental decoding of one session.
///
/// Storage is a pair of flat `f32` buffers allocated at their full
/// `max_seq · width` size up front, so appending a token in the serving
/// hot loop never reallocates — clones included, since a clone copies the
/// whole buffer — and a session can never grow past its hard `max_seq`
/// bound: [`KvCache::push`] returns a typed error instead.
///
/// Keys (post-RoPE) are stored column-major: element `j` of position
/// `t`'s key row lives at `k[j · max_seq + t]`, so one key dimension over
/// every cached position is contiguous and the score kernel runs across
/// positions in SIMD lanes. Values stay row-major (`v[t · width + j]`),
/// the layout the weighted sum runs across in lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct KvCache {
    /// Cached keys, column-major `width × max_seq`.
    k: Vec<f32>,
    /// Cached value rows, row-major `max_seq × width`.
    v: Vec<f32>,
    /// Row width, `n_kv_heads · head_dim`.
    width: usize,
    /// Hard bound on cached positions.
    max_seq: usize,
    /// Cached positions so far.
    len: usize,
}

impl KvCache {
    /// An empty cache bounded at `max_seq` positions of `width`-wide rows,
    /// with its full storage allocated immediately.
    pub fn with_bounds(max_seq: usize, width: usize) -> Self {
        KvCache {
            k: vec![0.0; max_seq * width],
            v: vec![0.0; max_seq * width],
            width,
            max_seq,
            len: 0,
        }
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The hard bound on cached positions.
    pub fn max_seq(&self) -> usize {
        self.max_seq
    }

    /// Checks that a token at position `pos` with `width`-wide rows can
    /// be appended next, without touching the cache.
    ///
    /// # Errors
    ///
    /// [`DecodeError::PositionMismatch`] if `pos` is not the cached
    /// length, [`DecodeError::CacheFull`] at the `max_seq` bound,
    /// [`DecodeError::BatchMismatch`] if `width` is not the row width.
    pub(crate) fn check_append(&self, pos: usize, width: usize) -> Result<(), DecodeError> {
        if pos != self.len {
            return Err(DecodeError::PositionMismatch {
                pos,
                cached: self.len,
            });
        }
        if self.len >= self.max_seq {
            return Err(DecodeError::CacheFull {
                max_seq: self.max_seq,
            });
        }
        if width != self.width {
            return Err(DecodeError::BatchMismatch {
                what: "kv row width",
                expected: self.width,
                got: width,
            });
        }
        Ok(())
    }

    /// Appends one position's key/value rows.
    ///
    /// # Errors
    ///
    /// [`DecodeError::CacheFull`] at the `max_seq` bound;
    /// [`DecodeError::BatchMismatch`] if a row is not `width` wide. The
    /// cache is unchanged on error.
    pub fn push(&mut self, k: &[f32], v: &[f32]) -> Result<(), DecodeError> {
        if self.len >= self.max_seq {
            return Err(DecodeError::CacheFull {
                max_seq: self.max_seq,
            });
        }
        for row in [k, v] {
            if row.len() != self.width {
                return Err(DecodeError::BatchMismatch {
                    what: "kv row width",
                    expected: self.width,
                    got: row.len(),
                });
            }
        }
        let t = self.len;
        for (j, &kj) in k.iter().enumerate() {
            self.k[j * self.max_seq + t] = kj;
        }
        self.v[t * self.width..(t + 1) * self.width].copy_from_slice(v);
        self.len += 1;
        Ok(())
    }

    /// The key block of KV head `kv_head`: `head_dim` column-major rows
    /// of stride `max_seq`, one per key dimension.
    fn keys(&self, kv_head: usize, head_dim: usize) -> &[f32] {
        &self.k[kv_head * head_dim * self.max_seq..]
    }

    /// The value block of KV head `kv_head`: rows of stride `width`
    /// starting at the head's first column.
    fn values(&self, kv_head: usize, head_dim: usize) -> &[f32] {
        &self.v[kv_head * head_dim..]
    }

    /// The storage addresses of the two buffers.
    #[cfg(test)]
    pub(crate) fn buffer_ptrs(&self) -> [*const f32; 2] {
        [self.k.as_ptr(), self.v.as_ptr()]
    }

    /// Position `t`'s key row for one KV head, gathered from the
    /// column-major store.
    #[cfg(test)]
    fn key_row(&self, t: usize, kv_head: usize, head_dim: usize) -> Vec<f32> {
        (0..head_dim)
            .map(|d| self.k[(kv_head * head_dim + d) * self.max_seq + t])
            .collect()
    }

    /// Position `t`'s value row for one KV head.
    #[cfg(test)]
    fn value_slice(&self, t: usize, kv_head: usize, head_dim: usize) -> &[f32] {
        let base = t * self.width + kv_head * head_dim;
        &self.v[base..base + head_dim]
    }
}

/// `scores ← softmax(scores)` with `f32::exp`, normalized by division.
fn softmax_in_place(scores: &mut [f32]) {
    let max = scores.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let mut sum = 0.0f32;
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
        sum += *s;
    }
    for s in scores.iter_mut() {
        *s /= sum;
    }
}

/// Multi-head self-attention module.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHeadAttention {
    /// Query projection, `d × (n_heads · head_dim)`.
    pub wq: AnyLinear,
    /// Key projection, `d × (n_kv_heads · head_dim)`.
    pub wk: AnyLinear,
    /// Value projection, `d × (n_kv_heads · head_dim)`.
    pub wv: AnyLinear,
    /// Output projection, `(n_heads · head_dim) × d`.
    pub wo: AnyLinear,
    n_heads: usize,
    n_kv_heads: usize,
    head_dim: usize,
    causal: bool,
    rope: Option<Rope>,
}

/// Cached forward state for [`MultiHeadAttention::forward`].
#[derive(Debug, Clone)]
pub struct AttentionCache {
    q_cache: AnyLinearCache,
    k_cache: AnyLinearCache,
    v_cache: AnyLinearCache,
    o_cache: AnyLinearCache,
    /// Rotated queries, `(B·T) × (H·hd)`.
    q: Tensor,
    /// Rotated keys, `(B·T) × (Hkv·hd)`.
    k: Tensor,
    /// Values, `(B·T) × (Hkv·hd)`.
    v: Tensor,
    /// Attention probabilities per (batch, head), each `T × T`.
    probs: Vec<Tensor>,
    batch: usize,
    seq: usize,
}

impl MultiHeadAttention {
    /// Creates a randomly initialized attention module.
    ///
    /// `use_rope = false` corresponds to BERT-style attention whose position
    /// information comes from learned embeddings at the model level.
    ///
    /// # Panics
    ///
    /// Panics if head counts are inconsistent.
    #[allow(clippy::too_many_arguments)] // mirrors the architecture hyper-parameter list
    pub fn new(
        d_model: usize,
        n_heads: usize,
        n_kv_heads: usize,
        max_seq: usize,
        causal: bool,
        use_rope: bool,
        bias: bool,
        rng: &mut Rng64,
    ) -> Self {
        assert!(
            d_model.is_multiple_of(n_heads),
            "d_model must divide by n_heads"
        );
        assert!(
            n_heads.is_multiple_of(n_kv_heads),
            "n_kv_heads must divide n_heads"
        );
        let head_dim = d_model / n_heads;
        MultiHeadAttention {
            wq: AnyLinear::dense(d_model, n_heads * head_dim, bias, rng),
            wk: AnyLinear::dense(d_model, n_kv_heads * head_dim, bias, rng),
            wv: AnyLinear::dense(d_model, n_kv_heads * head_dim, bias, rng),
            wo: AnyLinear::dense(n_heads * head_dim, d_model, bias, rng),
            n_heads,
            n_kv_heads,
            head_dim,
            causal,
            rope: use_rope.then(|| Rope::new(head_dim, max_seq)),
        }
    }

    /// Number of parameters across the four projections.
    pub fn param_count(&self) -> usize {
        self.wq.param_count()
            + self.wk.param_count()
            + self.wv.param_count()
            + self.wo.param_count()
    }

    /// Extracts the `T × head_dim` block for `(batch b, head h)` from a flat
    /// `(B·T) × (H·hd)` activation.
    fn head_block(flat: &Tensor, b: usize, h: usize, seq: usize, head_dim: usize) -> Tensor {
        let mut out = Tensor::zeros(&[seq, head_dim]);
        for t in 0..seq {
            let src = &flat.row(b * seq + t)[h * head_dim..(h + 1) * head_dim];
            out.row_mut(t).copy_from_slice(src);
        }
        out
    }

    /// Adds a `T × head_dim` block back into a flat activation gradient.
    fn add_head_block(
        flat: &mut Tensor,
        block: &Tensor,
        b: usize,
        h: usize,
        seq: usize,
        head_dim: usize,
    ) {
        for t in 0..seq {
            let dst = &mut flat.row_mut(b * seq + t)[h * head_dim..(h + 1) * head_dim];
            for (d, &s) in dst.iter_mut().zip(block.row(t)) {
                *d += s;
            }
        }
    }

    /// Incremental decode: processes one new token (batch 1) at absolute
    /// position `pos`, appending its key/value rows to `cache` and
    /// attending over the whole cache. Returns the attention output
    /// (`1 × d`).
    ///
    /// # Errors
    ///
    /// [`DecodeError::BatchMismatch`] if `x` is not a single row, plus the
    /// [`MultiHeadAttention::decode_step_many`] failure modes.
    pub fn decode_step(
        &self,
        x: &Tensor,
        pos: usize,
        cache: &mut KvCache,
    ) -> Result<Tensor, DecodeError> {
        if x.rows() != 1 {
            return Err(DecodeError::BatchMismatch {
                what: "input rows",
                expected: 1,
                got: x.rows(),
            });
        }
        self.decode_step_many(x, &[pos], &mut [cache])
    }

    /// Continuous-batching decode: processes one new token for each of `S`
    /// independent sessions at once. Row `i` of `xs` is session `i`'s token
    /// activation at absolute position `positions[i]`, extending
    /// `caches[i]`. All four projections run as single `S × d` GEMMs; the
    /// per-session attention over each session's own cache is unchanged
    /// from the batch-1 path, so row `i` of the output is bit-identical to
    /// a [`MultiHeadAttention::decode_step`] call for session `i` alone
    /// (the packed GEMM engine's per-row accumulation order does not
    /// depend on the batch height — see DESIGN.md §13).
    ///
    /// # Errors
    ///
    /// [`DecodeError::BatchMismatch`] if `positions`/`caches` disagree with
    /// `xs.rows()` or a cache's row width is not `n_kv_heads · head_dim`,
    /// [`DecodeError::PositionMismatch`] if a position is not
    /// its cache's length, [`DecodeError::CacheFull`] at a session's
    /// `max_seq` bound. All sessions are validated before any cache is
    /// mutated, so no cache is extended on error.
    pub fn decode_step_many(
        &self,
        xs: &Tensor,
        positions: &[usize],
        caches: &mut [&mut KvCache],
    ) -> Result<Tensor, DecodeError> {
        let s_count = xs.rows();
        if positions.len() != s_count {
            return Err(DecodeError::BatchMismatch {
                what: "positions",
                expected: s_count,
                got: positions.len(),
            });
        }
        if caches.len() != s_count {
            return Err(DecodeError::BatchMismatch {
                what: "caches",
                expected: s_count,
                got: caches.len(),
            });
        }
        let width = self.n_kv_heads * self.head_dim;
        for (&pos, cache) in positions.iter().zip(caches.iter()) {
            cache.check_append(pos, width)?;
        }

        let mut q = self.wq.infer(xs);
        let mut k = self.wk.infer(xs);
        let v = self.wv.infer(xs);
        if let Some(rope) = &self.rope {
            for (i, &pos) in positions.iter().enumerate() {
                let qrow = q.row_mut(i);
                for h in 0..self.n_heads {
                    rope.apply(&mut qrow[h * self.head_dim..(h + 1) * self.head_dim], pos);
                }
                let krow = k.row_mut(i);
                for h in 0..self.n_kv_heads {
                    rope.apply(&mut krow[h * self.head_dim..(h + 1) * self.head_dim], pos);
                }
            }
        }
        for (i, cache) in caches.iter_mut().enumerate() {
            cache.push(k.row(i), v.row(i))?;
        }

        let ctx = self.attend(&q, caches);
        Ok(self.wo.infer(&ctx))
    }

    /// The attention core of a decode step: row `i` of the result holds,
    /// for every query head of session `i`, the softmax-weighted sum of
    /// the session's cached values under the scaled scores of its query
    /// row in `q` against the session's cached keys.
    ///
    /// Scores run across cached positions in SIMD lanes over the
    /// column-major keys, and the value sum keeps 8 outputs per register
    /// across positions; one scores buffer serves every (session, head).
    /// Every element keeps the accumulation order of the scalar loop
    /// (`attend_oracle`) — multiply then add, no FMA, same `f32::exp`
    /// softmax — so the result is bit-identical to it on every backend.
    fn attend(&self, q: &Tensor, caches: &[&mut KvCache]) -> Tensor {
        let backend = Backend::active();
        let hd = self.head_dim;
        let scale = 1.0 / (hd as f32).sqrt();
        let group = self.n_heads / self.n_kv_heads;
        let mut ctx = Tensor::zeros(&[caches.len(), self.n_heads * hd]);
        let longest = caches.iter().map(|c| c.len()).max().unwrap_or(0);
        let mut buf = vec![0.0f32; longest];
        for (i, cache) in caches.iter().enumerate() {
            let scores = &mut buf[..cache.len()];
            let ctx_row = ctx.row_mut(i);
            for h in 0..self.n_heads {
                let kv_h = h / group;
                let qh = &q.row(i)[h * hd..(h + 1) * hd];
                kernel::attn_scores(
                    backend,
                    qh,
                    cache.keys(kv_h, hd),
                    cache.max_seq,
                    scale,
                    scores,
                );
                softmax_in_place(scores);
                kernel::attn_weighted_sum(
                    backend,
                    scores,
                    cache.values(kv_h, hd),
                    cache.width,
                    &mut ctx_row[h * hd..(h + 1) * hd],
                );
            }
        }
        ctx
    }

    /// The scalar attention loop [`MultiHeadAttention::attend`] must match
    /// bit for bit.
    #[cfg(test)]
    fn attend_oracle(&self, q: &Tensor, caches: &[&mut KvCache]) -> Tensor {
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let group = self.n_heads / self.n_kv_heads;
        let mut ctx = Tensor::zeros(&[caches.len(), self.n_heads * self.head_dim]);
        for (i, cache) in caches.iter().enumerate() {
            let ctx_len = cache.len();
            for h in 0..self.n_heads {
                let kv_h = h / group;
                let qh = &q.row(i)[h * self.head_dim..(h + 1) * self.head_dim];
                // Scores against every cached key of this session.
                let mut scores = Vec::with_capacity(ctx_len);
                for t in 0..ctx_len {
                    let kh = cache.key_row(t, kv_h, self.head_dim);
                    let dot: f32 = qh.iter().zip(&kh).map(|(&a, &b)| a * b).sum();
                    scores.push(dot * scale);
                }
                // Softmax.
                let max = scores.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
                let mut sum = 0.0f32;
                for s in &mut scores {
                    *s = (*s - max).exp();
                    sum += *s;
                }
                for s in &mut scores {
                    *s /= sum;
                }
                // Weighted value sum.
                let out = &mut ctx.row_mut(i)[h * self.head_dim..(h + 1) * self.head_dim];
                for (t, &s) in scores.iter().enumerate().take(ctx_len) {
                    let vh = cache.value_slice(t, kv_h, self.head_dim);
                    for (o, &vv) in out.iter_mut().zip(vh) {
                        *o += s * vv;
                    }
                }
            }
        }
        ctx
    }

    /// Forward pass over `x ((B·T) × d)` laid out batch-major.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != batch · seq`.
    pub fn forward(&self, x: &Tensor, batch: usize, seq: usize) -> (Tensor, AttentionCache) {
        assert_eq!(x.rows(), batch * seq, "attention input rows != batch*seq");
        let (mut q, q_cache) = self.wq.forward(x);
        let (mut k, k_cache) = self.wk.forward(x);
        let (v, v_cache) = self.wv.forward(x);

        if let Some(rope) = &self.rope {
            for b in 0..batch {
                for t in 0..seq {
                    let qrow = q.row_mut(b * seq + t);
                    for h in 0..self.n_heads {
                        rope.apply(&mut qrow[h * self.head_dim..(h + 1) * self.head_dim], t);
                    }
                    let krow = k.row_mut(b * seq + t);
                    for h in 0..self.n_kv_heads {
                        rope.apply(&mut krow[h * self.head_dim..(h + 1) * self.head_dim], t);
                    }
                }
            }
        }

        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let group = self.n_heads / self.n_kv_heads;
        let mut ctx = Tensor::zeros(&[batch * seq, self.n_heads * self.head_dim]);
        let mut probs = Vec::with_capacity(batch * self.n_heads);
        for b in 0..batch {
            for h in 0..self.n_heads {
                let kv_h = h / group;
                let qb = Self::head_block(&q, b, h, seq, self.head_dim);
                let kb = Self::head_block(&k, b, kv_h, seq, self.head_dim);
                let vb = Self::head_block(&v, b, kv_h, seq, self.head_dim);
                let mut scores = matmul_transb(&qb, &kb).scale(scale);
                if self.causal {
                    for t in 0..seq {
                        let row = scores.row_mut(t);
                        for entry in row.iter_mut().take(seq).skip(t + 1) {
                            *entry = f32::NEG_INFINITY;
                        }
                    }
                }
                let p = softmax_rows(&scores);
                let c = matmul(&p, &vb);
                Self::add_head_block(&mut ctx, &c, b, h, seq, self.head_dim);
                probs.push(p);
            }
        }

        let (y, o_cache) = self.wo.forward(&ctx);
        (
            y,
            AttentionCache {
                q_cache,
                k_cache,
                v_cache,
                o_cache,
                q,
                k,
                v,
                probs,
                batch,
                seq,
            },
        )
    }

    /// Inference-only forward: no projection caches, no retained attention
    /// probabilities — each head's score matrix is dropped as soon as its
    /// context rows are accumulated.
    pub fn infer(&self, x: &Tensor, batch: usize, seq: usize) -> Tensor {
        assert_eq!(x.rows(), batch * seq, "attention input rows != batch*seq");
        let mut q = self.wq.infer(x);
        let mut k = self.wk.infer(x);
        let v = self.wv.infer(x);

        if let Some(rope) = &self.rope {
            for b in 0..batch {
                for t in 0..seq {
                    let qrow = q.row_mut(b * seq + t);
                    for h in 0..self.n_heads {
                        rope.apply(&mut qrow[h * self.head_dim..(h + 1) * self.head_dim], t);
                    }
                    let krow = k.row_mut(b * seq + t);
                    for h in 0..self.n_kv_heads {
                        rope.apply(&mut krow[h * self.head_dim..(h + 1) * self.head_dim], t);
                    }
                }
            }
        }

        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let group = self.n_heads / self.n_kv_heads;
        let mut ctx = Tensor::zeros(&[batch * seq, self.n_heads * self.head_dim]);
        for b in 0..batch {
            for h in 0..self.n_heads {
                let kv_h = h / group;
                let qb = Self::head_block(&q, b, h, seq, self.head_dim);
                let kb = Self::head_block(&k, b, kv_h, seq, self.head_dim);
                let vb = Self::head_block(&v, b, kv_h, seq, self.head_dim);
                let mut scores = matmul_transb(&qb, &kb).scale(scale);
                if self.causal {
                    for t in 0..seq {
                        let row = scores.row_mut(t);
                        for entry in row.iter_mut().take(seq).skip(t + 1) {
                            *entry = f32::NEG_INFINITY;
                        }
                    }
                }
                let p = softmax_rows(&scores);
                let c = matmul(&p, &vb);
                Self::add_head_block(&mut ctx, &c, b, h, seq, self.head_dim);
            }
        }

        self.wo.infer(&ctx)
    }

    /// Backward pass; returns `dx`.
    pub fn backward(&mut self, cache: &AttentionCache, dy: &Tensor) -> Tensor {
        let (batch, seq) = (cache.batch, cache.seq);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let group = self.n_heads / self.n_kv_heads;

        let dctx = self.wo.backward(&cache.o_cache, dy);

        let mut dq = Tensor::zeros(&[batch * seq, self.n_heads * self.head_dim]);
        let mut dk = Tensor::zeros(&[batch * seq, self.n_kv_heads * self.head_dim]);
        let mut dv = Tensor::zeros(&[batch * seq, self.n_kv_heads * self.head_dim]);

        for b in 0..batch {
            for h in 0..self.n_heads {
                let kv_h = h / group;
                let p = &cache.probs[b * self.n_heads + h];
                let dcb = Self::head_block(&dctx, b, h, seq, self.head_dim);
                let kb = Self::head_block(&cache.k, b, kv_h, seq, self.head_dim);
                let vb = Self::head_block(&cache.v, b, kv_h, seq, self.head_dim);
                let qb = Self::head_block(&cache.q, b, h, seq, self.head_dim);

                // dP = dC · Vᵀ ; dV = Pᵀ · dC
                let dp = matmul_transb(&dcb, &vb);
                let dvb = matmul_transa(p, &dcb);
                // dS = softmax'(P, dP); masked entries have P = 0 so they
                // produce zero gradient automatically.
                let ds = softmax_rows_backward(p, &dp).scale(scale);
                let dqb = matmul(&ds, &kb);
                let dkb = matmul_transa(&ds, &qb);

                Self::add_head_block(&mut dq, &dqb, b, h, seq, self.head_dim);
                Self::add_head_block(&mut dk, &dkb, b, kv_h, seq, self.head_dim);
                Self::add_head_block(&mut dv, &dvb, b, kv_h, seq, self.head_dim);
            }
        }

        if let Some(rope) = &self.rope {
            for b in 0..batch {
                for t in 0..seq {
                    let qrow = dq.row_mut(b * seq + t);
                    for h in 0..self.n_heads {
                        rope.apply_inverse(
                            &mut qrow[h * self.head_dim..(h + 1) * self.head_dim],
                            t,
                        );
                    }
                    let krow = dk.row_mut(b * seq + t);
                    for h in 0..self.n_kv_heads {
                        rope.apply_inverse(
                            &mut krow[h * self.head_dim..(h + 1) * self.head_dim],
                            t,
                        );
                    }
                }
            }
        }

        let mut dx = self.wq.backward(&cache.q_cache, &dq);
        dx.axpy(1.0, &self.wk.backward(&cache.k_cache, &dk));
        dx.axpy(1.0, &self.wv.backward(&cache.v_cache, &dv));
        dx
    }

    /// Visits the four projection slots as `(name, slot)` pairs — the hook
    /// used by the decomposer.
    pub fn visit_linears<'a>(&'a mut self, out: &mut Vec<(&'static str, &'a mut AnyLinear)>) {
        out.push(("wq", &mut self.wq));
        out.push(("wk", &mut self.wk));
        out.push(("wv", &mut self.wv));
        out.push(("wo", &mut self.wo));
    }

    /// Visits parameters as `(name, param)` pairs.
    pub fn visit_params<'a>(&'a mut self, prefix: &str, out: &mut Vec<(String, &'a mut Param)>) {
        self.wq.visit_params(&format!("{prefix}.wq"), out);
        self.wk.visit_params(&format!("{prefix}.wk"), out);
        self.wv.visit_params(&format!("{prefix}.wv"), out);
        self.wo.visit_params(&format!("{prefix}.wo"), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attn(causal: bool, rope: bool, seed: u64) -> MultiHeadAttention {
        let mut rng = Rng64::new(seed);
        MultiHeadAttention::new(8, 2, 2, 16, causal, rope, false, &mut rng)
    }

    #[test]
    fn forward_shape() {
        let a = attn(true, true, 1);
        let mut rng = Rng64::new(10);
        let x = Tensor::randn(&[2 * 5, 8], &mut rng);
        let (y, _) = a.forward(&x, 2, 5);
        assert_eq!(y.dims(), &[10, 8]);
    }

    #[test]
    fn causal_mask_blocks_future() {
        // Changing a future token must not affect earlier outputs.
        let a = attn(true, true, 2);
        let mut rng = Rng64::new(11);
        let mut x = Tensor::randn(&[6, 8], &mut rng);
        let (y1, _) = a.forward(&x, 1, 6);
        // Perturb the last token.
        for v in x.row_mut(5) {
            *v += 1.0;
        }
        let (y2, _) = a.forward(&x, 1, 6);
        for t in 0..5 {
            for j in 0..8 {
                assert!(
                    (y1.get(&[t, j]) - y2.get(&[t, j])).abs() < 1e-5,
                    "future token leaked into position {t}"
                );
            }
        }
    }

    #[test]
    fn bidirectional_attends_everywhere() {
        let a = attn(false, false, 3);
        let mut rng = Rng64::new(12);
        let mut x = Tensor::randn(&[4, 8], &mut rng);
        let (y1, _) = a.forward(&x, 1, 4);
        for v in x.row_mut(3) {
            *v += 1.0;
        }
        let (y2, _) = a.forward(&x, 1, 4);
        // Early positions change in an encoder.
        let diff: f32 = (0..8)
            .map(|j| (y1.get(&[0, j]) - y2.get(&[0, j])).abs())
            .sum();
        assert!(diff > 1e-4);
    }

    #[test]
    fn batches_are_independent() {
        let a = attn(true, true, 4);
        let mut rng = Rng64::new(13);
        let x1 = Tensor::randn(&[3, 8], &mut rng);
        let x2 = Tensor::randn(&[3, 8], &mut rng);
        // Concatenate into a batch of 2.
        let mut both = Vec::new();
        both.extend_from_slice(x1.data());
        both.extend_from_slice(x2.data());
        let xb = Tensor::from_vec(&[6, 8], both);
        let (yb, _) = a.forward(&xb, 2, 3);
        let (y1, _) = a.forward(&x1, 1, 3);
        for t in 0..3 {
            for j in 0..8 {
                assert!((yb.get(&[t, j]) - y1.get(&[t, j])).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn backward_dx_matches_finite_difference() {
        let mut a = attn(true, true, 5);
        let mut rng = Rng64::new(14);
        let x = Tensor::randn(&[4, 8], &mut rng);
        let dy = Tensor::randn(&[4, 8], &mut rng);
        let (_, cache) = a.forward(&x, 1, 4);
        let dx = a.backward(&cache, &dy);
        let ac = a.clone();
        let h = 1e-2;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let fd =
                (ac.forward(&xp, 1, 4).0.dot(&dy) - ac.forward(&xm, 1, 4).0.dot(&dy)) / (2.0 * h);
            assert!(
                (dx.data()[i] - fd).abs() < 3e-2,
                "dx[{i}]: {} vs {fd}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn backward_weight_grads_match_finite_difference() {
        let mut a = attn(false, false, 6);
        let mut rng = Rng64::new(15);
        let x = Tensor::randn(&[3, 8], &mut rng);
        let dy = Tensor::randn(&[3, 8], &mut rng);
        let (_, cache) = a.forward(&x, 1, 3);
        a.backward(&cache, &dy);
        // Check a handful of entries of W_Q and W_O.
        let h = 1e-2;
        let grads: Vec<f32> = match &a.wq {
            AnyLinear::Dense(l) => l.w.grad.data().to_vec(),
            _ => unreachable!(),
        };
        for &i in &[0usize, 5, 17, 33] {
            let mut ap = a.clone();
            let mut am = a.clone();
            if let (AnyLinear::Dense(lp), AnyLinear::Dense(lm)) = (&mut ap.wq, &mut am.wq) {
                lp.w.value.data_mut()[i] += h;
                lm.w.value.data_mut()[i] -= h;
            }
            let fd =
                (ap.forward(&x, 1, 3).0.dot(&dy) - am.forward(&x, 1, 3).0.dot(&dy)) / (2.0 * h);
            assert!(
                (grads[i] - fd).abs() < 2e-2,
                "dWq[{i}]: {} vs {fd}",
                grads[i]
            );
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    /// Drives `sessions` caches of one attention geometry from empty to
    /// full with seeded random rows — session `i` starts `i % 3` rows ahead
    /// — and after every step checks the SIMD core against the scalar
    /// oracle bit for bit on a fresh random query batch. Every context
    /// length from 1 to `max_seq` is checked.
    fn check_attend_against_oracle(
        head_dim: usize,
        n_heads: usize,
        n_kv_heads: usize,
        max_seq: usize,
        sessions: usize,
        magnitude: f32,
        seed: u64,
    ) {
        let mut rng = Rng64::new(seed);
        let a = MultiHeadAttention::new(
            n_heads * head_dim,
            n_heads,
            n_kv_heads,
            max_seq,
            true,
            false,
            false,
            &mut rng,
        );
        let width = n_kv_heads * head_dim;
        let mut caches: Vec<KvCache> = (0..sessions)
            .map(|_| KvCache::with_bounds(max_seq, width))
            .collect();
        let row = |rng: &mut Rng64| Tensor::randn_scaled(&[width], magnitude, rng);
        for (i, c) in caches.iter_mut().enumerate() {
            for _ in 0..(i % 3).min(max_seq - 1) {
                let (k, v) = (row(&mut rng), row(&mut rng));
                c.push(k.data(), v.data()).unwrap();
            }
        }
        let mut seen = vec![false; max_seq + 1];
        while caches.iter().any(|c| c.len() < max_seq) {
            for c in caches.iter_mut().filter(|c| c.len() < max_seq) {
                let (k, v) = (row(&mut rng), row(&mut rng));
                c.push(k.data(), v.data()).unwrap();
                seen[c.len()] = true;
            }
            let q = Tensor::randn_scaled(&[sessions, n_heads * head_dim], magnitude, &mut rng);
            let refs: Vec<&mut KvCache> = caches.iter_mut().collect();
            assert_eq!(
                bits(&a.attend(&q, &refs)),
                bits(&a.attend_oracle(&q, &refs)),
                "hd {head_dim}, heads {n_heads}/{n_kv_heads}, max_seq {max_seq}, \
                 {sessions} sessions, lengths {:?}",
                refs.iter().map(|c| c.len()).collect::<Vec<_>>()
            );
        }
        assert!(seen[1..].iter().all(|&s| s), "every context length checked");
    }

    #[test]
    fn attend_matches_oracle_at_ragged_head_dims_and_gqa() {
        for (hd, heads, kv) in [(3, 2, 2), (10, 4, 4), (17, 3, 1), (8, 4, 2), (10, 6, 3)] {
            check_attend_against_oracle(hd, heads, kv, 20, 5, 1.0, hd as u64);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn attend_is_bit_identical_to_the_scalar_oracle(
            hd in 1usize..=18,
            kv in 1usize..=3,
            group in 1usize..=3,
            max_seq in 1usize..=40,
            sessions in 1usize..=33,
            magnitude_pick in 0usize..3,
            seed in proptest::prelude::any::<u64>(),
        ) {
            // Magnitudes from near-uniform softmax to saturated scores.
            let magnitude = [0.05f32, 1.0, 12.0][magnitude_pick];
            check_attend_against_oracle(hd, kv * group, kv, max_seq, sessions, magnitude, seed);
        }
    }

    #[test]
    fn gqa_shares_kv_heads() {
        let mut rng = Rng64::new(7);
        let a = MultiHeadAttention::new(8, 4, 2, 16, true, true, false, &mut rng);
        assert_eq!(a.wk.fan_out(), 2 * 2); // n_kv_heads * head_dim
        assert_eq!(a.wq.fan_out(), 4 * 2);
        let x = Tensor::randn(&[4, 8], &mut rng);
        let (y, _) = a.forward(&x, 1, 4);
        assert_eq!(y.dims(), &[4, 8]);
    }

    #[test]
    fn gqa_backward_matches_finite_difference() {
        let mut rng = Rng64::new(8);
        let mut a = MultiHeadAttention::new(8, 4, 2, 16, true, true, false, &mut rng);
        let x = Tensor::randn(&[3, 8], &mut rng);
        let dy = Tensor::randn(&[3, 8], &mut rng);
        let (_, cache) = a.forward(&x, 1, 3);
        let dx = a.backward(&cache, &dy);
        let ac = a.clone();
        let h = 1e-2;
        for &i in &[0usize, 7, 13, 20] {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let fd =
                (ac.forward(&xp, 1, 3).0.dot(&dy) - ac.forward(&xm, 1, 3).0.dot(&dy)) / (2.0 * h);
            assert!((dx.data()[i] - fd).abs() < 3e-2);
        }
    }
}
