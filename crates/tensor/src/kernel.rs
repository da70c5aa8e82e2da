//! Micro-kernels and runtime SIMD dispatch for the packed GEMM engine.
//!
//! The engine computes `C += A · B` one `MR × NR` register tile at a time
//! from panels packed by [`crate::pack`]. Two kernel implementations share
//! that contract:
//!
//! * an explicit AVX2+FMA kernel (`x86_64` only), selected at runtime via
//!   `is_x86_feature_detected!`, and
//! * a portable scalar kernel with the identical accumulation order, used
//!   as the fallback and as the reference side of the scalar-vs-SIMD
//!   property tests.
//!
//! Setting `LRD_FORCE_SCALAR=1` in the environment pins dispatch to the
//! scalar kernel (CI runs the suite both ways so the portable path cannot
//! rot).

use crate::dtype::{decode_u16, KernelDtype};
use std::sync::OnceLock;

/// Micro-tile height: rows of C updated per kernel invocation.
pub const MR: usize = 6;

/// Micro-tile width: columns of C updated per kernel invocation. Two AVX2
/// vectors of 8 lanes each.
pub const NR: usize = 16;

/// Which kernel implementation executes the micro-tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar kernel (always available).
    Scalar,
    /// AVX2 + FMA kernel (`x86_64` with runtime feature detection).
    Avx2Fma,
}

impl Backend {
    /// The best SIMD backend the running CPU supports, if any.
    pub fn detect_simd() -> Option<Backend> {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Some(Backend::Avx2Fma);
            }
        }
        None
    }

    /// The backend every public matmul entry point uses: the detected SIMD
    /// kernel, unless `LRD_FORCE_SCALAR=1` pins the scalar fallback.
    /// Resolved once per process.
    pub fn active() -> Backend {
        static ACTIVE: OnceLock<Backend> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            let forced = std::env::var("LRD_FORCE_SCALAR")
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(false);
            if forced {
                Backend::Scalar
            } else {
                Backend::detect_simd().unwrap_or(Backend::Scalar)
            }
        })
    }

    /// Human-readable backend name (benchmark reports).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2Fma => "avx2+fma",
        }
    }
}

/// Whether the CPU has the F16C half↔single converter instructions. The
/// `f16` panel kernel needs `vcvtph2ps`; without it, `f16` panels run
/// through the portable decoder. Resolved once per process.
pub fn has_f16c() -> bool {
    static F16C: OnceLock<bool> = OnceLock::new();
    *F16C.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("f16c")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Executes one micro-tile: `C[0..MR][0..NR] += Apanel · Bpanel` over `kc`
/// packed steps, where `c` addresses the tile's top-left element and `ldc`
/// is C's row stride. The caller guarantees the full tile lies inside C
/// (edge tiles go through a local buffer with `ldc = NR`).
///
/// `a` holds `kc` groups of `MR` values (one A column step per group); `b`
/// holds `kc` groups of `NR` values (one B row step per group).
#[inline]
pub fn microkernel(backend: Backend, kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
    debug_assert!(a.len() >= kc * MR);
    debug_assert!(b.len() >= kc * NR);
    debug_assert!(kc == 0 || c.len() >= (MR - 1) * ldc + NR);
    match backend {
        Backend::Scalar => microkernel_scalar(kc, a, b, c, ldc),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only ever constructed after runtime detection.
        Backend::Avx2Fma => unsafe { microkernel_avx2(kc, a, b, c, ldc) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2Fma => microkernel_scalar(kc, a, b, c, ldc),
    }
}

/// Portable reference micro-kernel. Accumulates each C element over `kc` in
/// the same order as the SIMD kernel so the two differ only by FMA's
/// missing intermediate rounding.
fn microkernel_scalar(kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..kc {
        let ap = &a[kk * MR..kk * MR + MR];
        let bp = &b[kk * NR..kk * NR + NR];
        for (accr, &ar) in acc.iter_mut().zip(ap) {
            for (av, &bv) in accr.iter_mut().zip(bp) {
                *av += ar * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let crow = &mut c[r * ldc..r * ldc + NR];
        for (cv, &av) in crow.iter_mut().zip(accr) {
            *cv += av;
        }
    }
}

/// AVX2+FMA micro-kernel: 12 YMM accumulators (6 rows × 2 vectors), one
/// broadcast per A element, two loads per B step.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA, and that the slice
/// bounds documented on [`microkernel`] hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_avx2(kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
    use core::arch::x86_64::*;
    // SAFETY: the caller upholds this fn's contract — AVX2+FMA are
    // present and the slice bounds documented on `microkernel` hold — so
    // every pointer formed below stays inside `a`, `b`, or `c`.
    unsafe {
        let mut c00 = _mm256_setzero_ps();
        let mut c01 = _mm256_setzero_ps();
        let mut c10 = _mm256_setzero_ps();
        let mut c11 = _mm256_setzero_ps();
        let mut c20 = _mm256_setzero_ps();
        let mut c21 = _mm256_setzero_ps();
        let mut c30 = _mm256_setzero_ps();
        let mut c31 = _mm256_setzero_ps();
        let mut c40 = _mm256_setzero_ps();
        let mut c41 = _mm256_setzero_ps();
        let mut c50 = _mm256_setzero_ps();
        let mut c51 = _mm256_setzero_ps();
        let mut ap = a.as_ptr();
        let mut bp = b.as_ptr();
        for _ in 0..kc {
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            let a0 = _mm256_broadcast_ss(&*ap);
            c00 = _mm256_fmadd_ps(a0, b0, c00);
            c01 = _mm256_fmadd_ps(a0, b1, c01);
            let a1 = _mm256_broadcast_ss(&*ap.add(1));
            c10 = _mm256_fmadd_ps(a1, b0, c10);
            c11 = _mm256_fmadd_ps(a1, b1, c11);
            let a2 = _mm256_broadcast_ss(&*ap.add(2));
            c20 = _mm256_fmadd_ps(a2, b0, c20);
            c21 = _mm256_fmadd_ps(a2, b1, c21);
            let a3 = _mm256_broadcast_ss(&*ap.add(3));
            c30 = _mm256_fmadd_ps(a3, b0, c30);
            c31 = _mm256_fmadd_ps(a3, b1, c31);
            let a4 = _mm256_broadcast_ss(&*ap.add(4));
            c40 = _mm256_fmadd_ps(a4, b0, c40);
            c41 = _mm256_fmadd_ps(a4, b1, c41);
            let a5 = _mm256_broadcast_ss(&*ap.add(5));
            c50 = _mm256_fmadd_ps(a5, b0, c50);
            c51 = _mm256_fmadd_ps(a5, b1, c51);
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let cp = c.as_mut_ptr();
        let rows = [
            (c00, c01),
            (c10, c11),
            (c20, c21),
            (c30, c31),
            (c40, c41),
            (c50, c51),
        ];
        for (r, (lo, hi)) in rows.into_iter().enumerate() {
            let dst = cp.add(r * ldc);
            _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), lo));
            _mm256_storeu_ps(dst.add(8), _mm256_add_ps(_mm256_loadu_ps(dst.add(8)), hi));
        }
    }
}

/// Executes one micro-tile against a reduced-precision B panel:
/// `C[0..MR][0..NR] += Apanel · decode(Bpanel)` over `kc` packed steps.
/// The A panel stays `f32`; the B panel holds `bf16` or `f16` bit patterns
/// (per `dtype`) that are widened to `f32` in registers before the FMA, so
/// the accumulation order — and therefore the determinism contract — is
/// identical to [`microkernel`] on pre-widened panels.
///
/// `f16` panels use the F16C converter when the CPU has it; otherwise they
/// fall back to the portable decoder (slow but correct, and bit-identical
/// because both decode exactly).
#[inline]
pub fn microkernel_u16(
    backend: Backend,
    dtype: KernelDtype,
    kc: usize,
    a: &[f32],
    b: &[u16],
    c: &mut [f32],
    ldc: usize,
) {
    debug_assert!(a.len() >= kc * MR);
    debug_assert!(b.len() >= kc * NR);
    debug_assert!(kc == 0 || c.len() >= (MR - 1) * ldc + NR);
    debug_assert!(dtype != KernelDtype::F32, "f32 panels use microkernel");
    match (backend, dtype) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only ever constructed after runtime detection.
        (Backend::Avx2Fma, KernelDtype::Bf16) => unsafe { microkernel_avx2_bf16(kc, a, b, c, ldc) },
        #[cfg(target_arch = "x86_64")]
        (Backend::Avx2Fma, KernelDtype::F16) if has_f16c() => {
            // SAFETY: guarded by runtime detection of avx2+fma (backend)
            // and f16c (the branch condition).
            unsafe { microkernel_avx2_f16(kc, a, b, c, ldc) }
        }
        _ => microkernel_scalar_u16(dtype, kc, a, b, c, ldc),
    }
}

/// Portable reduced-precision micro-kernel: decodes each B value with the
/// software converter, then accumulates in the same order as
/// [`microkernel_scalar`].
fn microkernel_scalar_u16(
    dtype: KernelDtype,
    kc: usize,
    a: &[f32],
    b: &[u16],
    c: &mut [f32],
    ldc: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    let mut brow = [0.0f32; NR];
    for kk in 0..kc {
        let ap = &a[kk * MR..kk * MR + MR];
        for (w, &bits) in brow.iter_mut().zip(&b[kk * NR..kk * NR + NR]) {
            *w = decode_u16(dtype, bits);
        }
        for (accr, &ar) in acc.iter_mut().zip(ap) {
            for (av, &bv) in accr.iter_mut().zip(&brow) {
                *av += ar * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let crow = &mut c[r * ldc..r * ldc + NR];
        for (cv, &av) in crow.iter_mut().zip(accr) {
            *cv += av;
        }
    }
}

/// AVX2+FMA micro-kernel over a `bf16` B panel: each k-step loads 16
/// halves as two `__m128i`, widens them to `f32` with a 16-bit shift
/// (`bf16` is a truncated `f32`), and proceeds exactly like the `f32`
/// kernel. Two extra integer ops per B vector against half the B traffic.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA, and that the slice
/// bounds documented on [`microkernel_u16`] hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_avx2_bf16(kc: usize, a: &[f32], b: &[u16], c: &mut [f32], ldc: usize) {
    use core::arch::x86_64::*;
    // SAFETY: the caller upholds this fn's contract — AVX2+FMA are present
    // and the slice bounds hold — so every pointer below stays in bounds.
    unsafe {
        let mut c00 = _mm256_setzero_ps();
        let mut c01 = _mm256_setzero_ps();
        let mut c10 = _mm256_setzero_ps();
        let mut c11 = _mm256_setzero_ps();
        let mut c20 = _mm256_setzero_ps();
        let mut c21 = _mm256_setzero_ps();
        let mut c30 = _mm256_setzero_ps();
        let mut c31 = _mm256_setzero_ps();
        let mut c40 = _mm256_setzero_ps();
        let mut c41 = _mm256_setzero_ps();
        let mut c50 = _mm256_setzero_ps();
        let mut c51 = _mm256_setzero_ps();
        let mut ap = a.as_ptr();
        let mut bp = b.as_ptr();
        for _ in 0..kc {
            let raw0 = _mm_loadu_si128(bp as *const __m128i);
            let raw1 = _mm_loadu_si128(bp.add(8) as *const __m128i);
            let b0 = _mm256_castsi256_ps(_mm256_slli_epi32::<16>(_mm256_cvtepu16_epi32(raw0)));
            let b1 = _mm256_castsi256_ps(_mm256_slli_epi32::<16>(_mm256_cvtepu16_epi32(raw1)));
            let a0 = _mm256_broadcast_ss(&*ap);
            c00 = _mm256_fmadd_ps(a0, b0, c00);
            c01 = _mm256_fmadd_ps(a0, b1, c01);
            let a1 = _mm256_broadcast_ss(&*ap.add(1));
            c10 = _mm256_fmadd_ps(a1, b0, c10);
            c11 = _mm256_fmadd_ps(a1, b1, c11);
            let a2 = _mm256_broadcast_ss(&*ap.add(2));
            c20 = _mm256_fmadd_ps(a2, b0, c20);
            c21 = _mm256_fmadd_ps(a2, b1, c21);
            let a3 = _mm256_broadcast_ss(&*ap.add(3));
            c30 = _mm256_fmadd_ps(a3, b0, c30);
            c31 = _mm256_fmadd_ps(a3, b1, c31);
            let a4 = _mm256_broadcast_ss(&*ap.add(4));
            c40 = _mm256_fmadd_ps(a4, b0, c40);
            c41 = _mm256_fmadd_ps(a4, b1, c41);
            let a5 = _mm256_broadcast_ss(&*ap.add(5));
            c50 = _mm256_fmadd_ps(a5, b0, c50);
            c51 = _mm256_fmadd_ps(a5, b1, c51);
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let cp = c.as_mut_ptr();
        let rows = [
            (c00, c01),
            (c10, c11),
            (c20, c21),
            (c30, c31),
            (c40, c41),
            (c50, c51),
        ];
        for (r, (lo, hi)) in rows.into_iter().enumerate() {
            let dst = cp.add(r * ldc);
            _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), lo));
            _mm256_storeu_ps(dst.add(8), _mm256_add_ps(_mm256_loadu_ps(dst.add(8)), hi));
        }
    }
}

/// AVX2+FMA+F16C micro-kernel over an `f16` B panel: `vcvtph2ps` widens 8
/// halves per load, otherwise identical to the `f32` kernel.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2, FMA, *and* F16C, and that the
/// slice bounds documented on [`microkernel_u16`] hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
unsafe fn microkernel_avx2_f16(kc: usize, a: &[f32], b: &[u16], c: &mut [f32], ldc: usize) {
    use core::arch::x86_64::*;
    // SAFETY: the caller upholds this fn's contract — AVX2+FMA+F16C are
    // present and the slice bounds hold — so every pointer below stays in
    // bounds.
    unsafe {
        let mut c00 = _mm256_setzero_ps();
        let mut c01 = _mm256_setzero_ps();
        let mut c10 = _mm256_setzero_ps();
        let mut c11 = _mm256_setzero_ps();
        let mut c20 = _mm256_setzero_ps();
        let mut c21 = _mm256_setzero_ps();
        let mut c30 = _mm256_setzero_ps();
        let mut c31 = _mm256_setzero_ps();
        let mut c40 = _mm256_setzero_ps();
        let mut c41 = _mm256_setzero_ps();
        let mut c50 = _mm256_setzero_ps();
        let mut c51 = _mm256_setzero_ps();
        let mut ap = a.as_ptr();
        let mut bp = b.as_ptr();
        for _ in 0..kc {
            let b0 = _mm256_cvtph_ps(_mm_loadu_si128(bp as *const __m128i));
            let b1 = _mm256_cvtph_ps(_mm_loadu_si128(bp.add(8) as *const __m128i));
            let a0 = _mm256_broadcast_ss(&*ap);
            c00 = _mm256_fmadd_ps(a0, b0, c00);
            c01 = _mm256_fmadd_ps(a0, b1, c01);
            let a1 = _mm256_broadcast_ss(&*ap.add(1));
            c10 = _mm256_fmadd_ps(a1, b0, c10);
            c11 = _mm256_fmadd_ps(a1, b1, c11);
            let a2 = _mm256_broadcast_ss(&*ap.add(2));
            c20 = _mm256_fmadd_ps(a2, b0, c20);
            c21 = _mm256_fmadd_ps(a2, b1, c21);
            let a3 = _mm256_broadcast_ss(&*ap.add(3));
            c30 = _mm256_fmadd_ps(a3, b0, c30);
            c31 = _mm256_fmadd_ps(a3, b1, c31);
            let a4 = _mm256_broadcast_ss(&*ap.add(4));
            c40 = _mm256_fmadd_ps(a4, b0, c40);
            c41 = _mm256_fmadd_ps(a4, b1, c41);
            let a5 = _mm256_broadcast_ss(&*ap.add(5));
            c50 = _mm256_fmadd_ps(a5, b0, c50);
            c51 = _mm256_fmadd_ps(a5, b1, c51);
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let cp = c.as_mut_ptr();
        let rows = [
            (c00, c01),
            (c10, c11),
            (c20, c21),
            (c30, c31),
            (c40, c41),
            (c50, c51),
        ];
        for (r, (lo, hi)) in rows.into_iter().enumerate() {
            let dst = cp.add(r * ldc);
            _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), lo));
            _mm256_storeu_ps(dst.add(8), _mm256_add_ps(_mm256_loadu_ps(dst.add(8)), hi));
        }
    }
}

/// Dot product `a · b` on the dispatched backend — the GEMV kernel.
#[inline]
pub fn dot(backend: Backend, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    match backend {
        Backend::Scalar => dot_scalar(a, b),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only ever constructed after runtime detection.
        Backend::Avx2Fma => unsafe { dot_avx2(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2Fma => dot_scalar(a, b),
    }
}

/// Portable dot product with 4 independent accumulation lanes (matches the
/// lane-then-reduce order of the SIMD kernel closely enough for the shared
/// tolerance).
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        for l in 0..4 {
            acc[l] += a[i * 4 + l] * b[i * 4 + l];
        }
    }
    let mut tail = 0.0f32;
    for i in chunks * 4..a.len() {
        tail += a[i] * b[i];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// AVX2+FMA dot product: two 8-lane accumulators, horizontal reduction at
/// the end.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA and `a.len() == b.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    use core::arch::x86_64::*;
    // SAFETY: the caller upholds this fn's contract — AVX2+FMA are
    // present and `a.len() == b.len()` — so every `i` indexed below is
    // in bounds for both slices.
    unsafe {
        let n = a.len();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut i = 0usize;
        while i + 16 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 8)),
                _mm256_loadu_ps(bp.add(i + 8)),
                acc1,
            );
            i += 16;
        }
        while i + 8 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            i += 8;
        }
        let acc = _mm256_add_ps(acc0, acc1);
        let hi = _mm256_extractf128_ps(acc, 1);
        let lo = _mm256_castps256_ps128(acc);
        let sum4 = _mm_add_ps(lo, hi);
        let sum2 = _mm_add_ps(sum4, _mm_movehl_ps(sum4, sum4));
        let sum1 = _mm_add_ss(sum2, _mm_shuffle_ps(sum2, sum2, 0x1));
        let mut total = _mm_cvtss_f32(sum1);
        while i < n {
            total += *ap.add(i) * *bp.add(i);
            i += 1;
        }
        total
    }
}

/// `y += alpha · x` on the dispatched backend — the row-streaming kernel
/// behind [`crate::matmul::matvec_transb`]. Both slices must have equal
/// length.
#[inline]
pub fn axpy(backend: Backend, alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    match backend {
        Backend::Scalar => axpy_scalar(alpha, x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only ever constructed after runtime detection.
        Backend::Avx2Fma => unsafe { axpy_avx2(alpha, x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2Fma => axpy_scalar(alpha, x, y),
    }
}

/// Portable axpy. Element-wise, so scalar and SIMD agree except for FMA's
/// missing intermediate rounding.
fn axpy_scalar(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// AVX2+FMA axpy: one broadcast, 8 lanes per FMA.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA and
/// `x.len() == y.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn axpy_avx2(alpha: f32, x: &[f32], y: &mut [f32]) {
    use core::arch::x86_64::*;
    // SAFETY: the caller upholds this fn's contract — AVX2+FMA are present
    // and `x.len() == y.len()` — so every index below is in bounds.
    unsafe {
        let n = y.len();
        let av = _mm256_set1_ps(alpha);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0usize;
        while i + 8 <= n {
            let acc = _mm256_fmadd_ps(av, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
            _mm256_storeu_ps(yp.add(i), acc);
            i += 8;
        }
        while i < n {
            *yp.add(i) += alpha * *xp.add(i);
            i += 1;
        }
    }
}

/// Attention scores of one query head against a column-major key block:
/// `out[t] = (Σ_d q[d] · k[d·ldk + t]) · scale` for every `t < out.len()`,
/// where column `t` of the block is the key of cached position `t`.
///
/// Each sum runs over `d` in increasing order from the first product, one
/// multiply and one add per step and never an FMA — the value
/// `q.iter().zip(key).map(|(a, b)| a * b).sum::<f32>()` has, since `f32`
/// sums start from `-0.0`. The SIMD path puts 8 positions in the lanes of
/// one vector, so every backend produces exactly those bits.
///
/// # Panics
///
/// Panics if `k` ends before `k[(q.len() - 1) · ldk + out.len() - 1]`.
pub fn attn_scores(
    backend: Backend,
    q: &[f32],
    k: &[f32],
    ldk: usize,
    scale: f32,
    out: &mut [f32],
) {
    if out.is_empty() {
        return;
    }
    if q.is_empty() {
        out.fill(-0.0 * scale);
        return;
    }
    assert!(
        block_fits(q.len(), ldk, out.len(), k.len()),
        "attn_scores: key block too short"
    );
    match backend {
        Backend::Scalar => attn_scores_scalar(q, k, ldk, scale, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only ever constructed after runtime detection
        // of AVX2, and the bound on `k` was checked above.
        Backend::Avx2Fma => unsafe { attn_scores_avx2(q, k, ldk, scale, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2Fma => attn_scores_scalar(q, k, ldk, scale, out),
    }
}

/// Whether `rows` rows of stride `ld`, read `width` wide, fit in `len`
/// elements: `(rows - 1) · ld + width <= len`, without overflow. The SIMD
/// attention kernels' memory safety rests on this check.
fn block_fits(rows: usize, ld: usize, width: usize, len: usize) -> bool {
    (rows - 1)
        .checked_mul(ld)
        .and_then(|start| start.checked_add(width))
        .is_some_and(|end| end <= len)
}

/// Portable [`attn_scores`]: `out` accumulates every position's sum in
/// the same `d` order as the SIMD lanes.
fn attn_scores_scalar(q: &[f32], k: &[f32], ldk: usize, scale: f32, out: &mut [f32]) {
    let n = out.len();
    for (o, &kv) in out.iter_mut().zip(&k[..n]) {
        *o = q[0] * kv;
    }
    for (d, &qd) in q.iter().enumerate().skip(1) {
        for (o, &kv) in out.iter_mut().zip(&k[d * ldk..d * ldk + n]) {
            *o += qd * kv;
        }
    }
    for o in out {
        *o *= scale;
    }
}

/// AVX2 [`attn_scores`]: 8 positions per vector, the last partial group
/// through masked loads and stores.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2, `q` is non-empty, and
/// `(q.len() - 1) · ldk + out.len() <= k.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn attn_scores_avx2(q: &[f32], k: &[f32], ldk: usize, scale: f32, out: &mut [f32]) {
    use core::arch::x86_64::*;
    let n = out.len();
    let full = n - n % 8;
    // SAFETY: every load reads lanes `d·ldk + t .. d·ldk + t + 8` with
    // `t + 8 <= n` (or masks off the lanes at or past `n`), which the
    // caller's bound keeps inside `k`; stores stay inside `out` the same
    // way.
    unsafe {
        let sv = _mm256_set1_ps(scale);
        let kp = k.as_ptr();
        let op = out.as_mut_ptr();
        for t in (0..full).step_by(8) {
            let acc = score_lanes::<false>(q, kp.add(t), ldk, _mm256_setzero_si256());
            _mm256_storeu_ps(op.add(t), _mm256_mul_ps(acc, sv));
        }
        if full < n {
            let mask = lane_mask(n - full);
            let acc = score_lanes::<true>(q, kp.add(full), ldk, mask);
            _mm256_maskstore_ps(op.add(full), mask, _mm256_mul_ps(acc, sv));
        }
    }
}

/// Unscaled scores of 8 consecutive positions whose first-row keys start
/// at `kp`; with `MASKED`, only the lanes set in `mask` are loaded.
///
/// # Safety
///
/// AVX2 must be available and every loaded lane must lie inside the key
/// block.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn score_lanes<const MASKED: bool>(
    q: &[f32],
    kp: *const f32,
    ldk: usize,
    mask: core::arch::x86_64::__m256i,
) -> core::arch::x86_64::__m256 {
    use core::arch::x86_64::*;
    // SAFETY: the caller guarantees every loaded lane is in bounds.
    unsafe {
        let mut acc = _mm256_setzero_ps();
        for (d, &qd) in q.iter().enumerate() {
            let row = kp.add(d * ldk);
            let kv = if MASKED {
                _mm256_maskload_ps(row, mask)
            } else {
                _mm256_loadu_ps(row)
            };
            let prod = _mm256_mul_ps(_mm256_set1_ps(qd), kv);
            acc = if d == 0 {
                prod
            } else {
                _mm256_add_ps(acc, prod)
            };
        }
        acc
    }
}

/// The mask of the first `live` (< 8) lanes.
///
/// # Safety
///
/// AVX2 must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn lane_mask(live: usize) -> core::arch::x86_64::__m256i {
    use core::arch::x86_64::*;
    _mm256_cmpgt_epi32(
        _mm256_set1_epi32(live as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    )
}

/// Probability-weighted sum of row-major value rows:
/// `out[j] = Σ_t p[t] · v[t·ldv + j]` for every `j < out.len()`.
///
/// Each sum starts from `+0.0` and runs over `t` in increasing order, one
/// multiply and one add per step and never an FMA — the bits of
/// accumulating `*o += p[t] * v` into a zeroed row. The SIMD path keeps 8
/// outputs in the lanes of one register across the whole `t` loop.
///
/// # Panics
///
/// Panics if `v` ends before `v[(p.len() - 1) · ldv + out.len() - 1]`.
pub fn attn_weighted_sum(backend: Backend, p: &[f32], v: &[f32], ldv: usize, out: &mut [f32]) {
    if out.is_empty() {
        return;
    }
    if p.is_empty() {
        out.fill(0.0);
        return;
    }
    assert!(
        block_fits(p.len(), ldv, out.len(), v.len()),
        "attn_weighted_sum: value block too short"
    );
    match backend {
        Backend::Scalar => attn_weighted_sum_scalar(p, v, ldv, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only ever constructed after runtime detection
        // of AVX2, and the bound on `v` was checked above.
        Backend::Avx2Fma => unsafe { attn_weighted_sum_avx2(p, v, ldv, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2Fma => attn_weighted_sum_scalar(p, v, ldv, out),
    }
}

/// Portable [`attn_weighted_sum`].
fn attn_weighted_sum_scalar(p: &[f32], v: &[f32], ldv: usize, out: &mut [f32]) {
    let n = out.len();
    out.fill(0.0);
    for (t, &pt) in p.iter().enumerate() {
        for (o, &vv) in out.iter_mut().zip(&v[t * ldv..t * ldv + n]) {
            *o += pt * vv;
        }
    }
}

/// AVX2 [`attn_weighted_sum`]: one register of 8 outputs per pass over
/// `t`, the last partial group through masked loads and stores.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2, `p` is non-empty, and
/// `(p.len() - 1) · ldv + out.len() <= v.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn attn_weighted_sum_avx2(p: &[f32], v: &[f32], ldv: usize, out: &mut [f32]) {
    use core::arch::x86_64::*;
    let n = out.len();
    // SAFETY: every load reads lanes `t·ldv + j .. t·ldv + j + 8` with
    // `j + 8 <= n` (or masks off the lanes at or past `n`), which the
    // caller's bound keeps inside `v`; stores stay inside `out` the same
    // way.
    unsafe {
        let vp = v.as_ptr();
        let op = out.as_mut_ptr();
        let full = n - n % 8;
        for j in (0..full).step_by(8) {
            let acc = weighted_lanes::<false>(p, vp.add(j), ldv, _mm256_setzero_si256());
            _mm256_storeu_ps(op.add(j), acc);
        }
        if full < n {
            let mask = lane_mask(n - full);
            let acc = weighted_lanes::<true>(p, vp.add(full), ldv, mask);
            _mm256_maskstore_ps(op.add(full), mask, acc);
        }
    }
}

/// Weighted sums of 8 consecutive outputs whose first-row values start at
/// `vp`; with `MASKED`, only the lanes set in `mask` are loaded.
///
/// # Safety
///
/// AVX2 must be available and every loaded lane must lie inside the value
/// block.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn weighted_lanes<const MASKED: bool>(
    p: &[f32],
    vp: *const f32,
    ldv: usize,
    mask: core::arch::x86_64::__m256i,
) -> core::arch::x86_64::__m256 {
    use core::arch::x86_64::*;
    // SAFETY: the caller guarantees every loaded lane is in bounds.
    unsafe {
        let mut acc = _mm256_setzero_ps();
        for (t, &pt) in p.iter().enumerate() {
            let row = vp.add(t * ldv);
            let vv = if MASKED {
                _mm256_maskload_ps(row, mask)
            } else {
                _mm256_loadu_ps(row)
            };
            acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(pt), vv));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_tile(kc: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; MR * NR];
        for kk in 0..kc {
            for r in 0..MR {
                for j in 0..NR {
                    c[r * NR + j] += a[kk * MR + r] * b[kk * NR + j];
                }
            }
        }
        c
    }

    fn packed_inputs(kc: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..kc * MR)
            .map(|i| ((i * 7 % 23) as f32) * 0.13 - 1.0)
            .collect();
        let b: Vec<f32> = (0..kc * NR)
            .map(|i| ((i * 5 % 19) as f32) * 0.11 - 0.9)
            .collect();
        (a, b)
    }

    #[test]
    fn scalar_kernel_matches_naive() {
        for kc in [0usize, 1, 3, 17, 64] {
            let (a, b) = packed_inputs(kc.max(1));
            let mut c = vec![0.0f32; MR * NR];
            microkernel(Backend::Scalar, kc, &a, &b, &mut c, NR);
            let want = naive_tile(kc, &a, &b);
            for (x, y) in c.iter().zip(&want) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn simd_kernel_matches_scalar() {
        let Some(simd) = Backend::detect_simd() else {
            return;
        };
        for kc in [1usize, 2, 7, 40, 256] {
            let (a, b) = packed_inputs(kc);
            let mut cs = vec![0.5f32; MR * NR];
            let mut cv = vec![0.5f32; MR * NR];
            microkernel(Backend::Scalar, kc, &a, &b, &mut cs, NR);
            microkernel(simd, kc, &a, &b, &mut cv, NR);
            for (x, y) in cs.iter().zip(&cv) {
                assert!((x - y).abs() <= 1e-4 * (1.0 + x.abs()), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn kernel_respects_row_stride() {
        let (a, b) = packed_inputs(5);
        let ldc = NR + 3;
        let mut c = vec![0.0f32; MR * ldc];
        microkernel(Backend::Scalar, 5, &a, &b, &mut c, ldc);
        let want = naive_tile(5, &a, &b);
        for r in 0..MR {
            for j in 0..NR {
                assert!((c[r * ldc + j] - want[r * NR + j]).abs() < 1e-4);
            }
            for j in NR..ldc.min(NR + 3) {
                if r * ldc + j < c.len() {
                    assert_eq!(c[r * ldc + j], 0.0, "stride gap must stay untouched");
                }
            }
        }
    }

    #[test]
    fn dot_kernels_agree() {
        let a: Vec<f32> = (0..103).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..103).map(|i| (i as f32 * 0.21).cos()).collect();
        let s = dot(Backend::Scalar, &a, &b);
        let naive: f32 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
        assert!((s - naive).abs() < 1e-3);
        if let Some(simd) = Backend::detect_simd() {
            let v = dot(simd, &a, &b);
            assert!((s - v).abs() <= 1e-4 * (1.0 + s.abs()));
        }
    }

    #[test]
    fn u16_scalar_kernel_matches_widened_f32_kernel() {
        use crate::dtype::{decode_u16, encode_u16};
        for dtype in [KernelDtype::Bf16, KernelDtype::F16] {
            for kc in [1usize, 3, 17, 64] {
                let (a, b) = packed_inputs(kc);
                let bq: Vec<u16> = b.iter().map(|&v| encode_u16(dtype, v)).collect();
                let bw: Vec<f32> = bq.iter().map(|&v| decode_u16(dtype, v)).collect();
                let mut cq = vec![0.25f32; MR * NR];
                let mut cw = vec![0.25f32; MR * NR];
                microkernel_u16(Backend::Scalar, dtype, kc, &a, &bq, &mut cq, NR);
                microkernel(Backend::Scalar, kc, &a, &bw, &mut cw, NR);
                assert_eq!(cq, cw, "{dtype:?} kc={kc}");
            }
        }
    }

    #[test]
    fn u16_simd_kernel_matches_scalar_within_fma_tolerance() {
        let Some(simd) = Backend::detect_simd() else {
            return;
        };
        use crate::dtype::encode_u16;
        for dtype in [KernelDtype::Bf16, KernelDtype::F16] {
            for kc in [1usize, 2, 7, 40, 256] {
                let (a, b) = packed_inputs(kc);
                let bq: Vec<u16> = b.iter().map(|&v| encode_u16(dtype, v)).collect();
                let mut cs = vec![0.5f32; MR * NR];
                let mut cv = vec![0.5f32; MR * NR];
                microkernel_u16(Backend::Scalar, dtype, kc, &a, &bq, &mut cs, NR);
                microkernel_u16(simd, dtype, kc, &a, &bq, &mut cv, NR);
                for (x, y) in cs.iter().zip(&cv) {
                    assert!(
                        (x - y).abs() <= 1e-4 * (1.0 + x.abs()),
                        "{dtype:?} kc={kc}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn axpy_kernels_agree() {
        let x: Vec<f32> = (0..77).map(|i| (i as f32 * 0.31).sin()).collect();
        let mut ys = vec![0.2f32; 77];
        axpy(Backend::Scalar, 1.7, &x, &mut ys);
        for (i, &y) in ys.iter().enumerate() {
            let want = 0.2 + 1.7 * x[i];
            assert!((y - want).abs() < 1e-5);
        }
        if let Some(simd) = Backend::detect_simd() {
            let mut yv = vec![0.2f32; 77];
            axpy(simd, 1.7, &x, &mut yv);
            for (s, v) in ys.iter().zip(&yv) {
                assert!((s - v).abs() <= 1e-5 * (1.0 + s.abs()));
            }
        }
    }

    /// The scalar loops `attn_scores`/`attn_weighted_sum` must reproduce.
    fn attn_reference(q: &[f32], k: &[f32], ldk: usize, len: usize, scale: f32) -> Vec<u32> {
        (0..len)
            .map(|t| {
                let dot: f32 = q
                    .iter()
                    .enumerate()
                    .map(|(d, &qd)| qd * k[d * ldk + t])
                    .sum();
                (dot * scale).to_bits()
            })
            .collect()
    }

    #[test]
    fn attn_kernels_match_the_scalar_loops_bit_for_bit() {
        let mut rng = crate::rng::Rng64::new(31);
        let backends = [Some(Backend::Scalar), Backend::detect_simd()];
        for hd in [1usize, 3, 8, 10, 17] {
            for len in 0..=19usize {
                let ldk = len + 3;
                let k: Vec<f32> = (0..hd * ldk).map(|_| rng.gaussian() as f32).collect();
                let q: Vec<f32> = (0..hd).map(|_| rng.gaussian() as f32).collect();
                let ldv = hd + 5;
                let v: Vec<f32> = (0..len.max(1) * ldv)
                    .map(|_| rng.gaussian() as f32)
                    .collect();
                let p: Vec<f32> = (0..len).map(|_| rng.gaussian() as f32).collect();
                let want_scores = attn_reference(&q, &k, ldk, len, 0.37);
                let mut want_sum = vec![0.0f32; hd];
                for (t, &pt) in p.iter().enumerate() {
                    for (o, &vv) in want_sum.iter_mut().zip(&v[t * ldv..]) {
                        *o += pt * vv;
                    }
                }
                for backend in backends.into_iter().flatten() {
                    let mut scores = vec![f32::NAN; len];
                    attn_scores(backend, &q, &k, ldk, 0.37, &mut scores);
                    let got: Vec<u32> = scores.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want_scores, "{} hd {hd} len {len}", backend.name());
                    let mut sum = vec![f32::NAN; hd];
                    attn_weighted_sum(backend, &p, &v, ldv, &mut sum);
                    let got: Vec<u32> = sum.iter().map(|x| x.to_bits()).collect();
                    let want: Vec<u32> = want_sum.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want, "{} hd {hd} len {len}", backend.name());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "key block too short")]
    fn attn_scores_rejects_a_stride_that_overflows() {
        // `2 · ldk` wraps to 0, which an unchecked bound would accept.
        let mut out = [0.0f32; 1];
        attn_scores(
            Backend::active(),
            &[1.0; 3],
            &[0.0; 4],
            usize::MAX / 2 + 1,
            1.0,
            &mut out,
        );
    }

    #[test]
    fn f16c_detection_is_stable() {
        assert_eq!(has_f16c(), has_f16c());
    }

    #[test]
    fn active_backend_is_stable() {
        assert_eq!(Backend::active(), Backend::active());
    }

    #[test]
    fn backend_names() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2Fma.name(), "avx2+fma");
    }
}
