//! Runtime-dispatched SIMD kernels for the dense complex hot loops.
//!
//! Every kernel in this module exists in two forms: a portable scalar body
//! and (on `x86_64`) an AVX2 variant compiled with
//! `#[target_feature(enable = "avx2,fma")]`. The two are **bit-identical by
//! construction**: `Complex64 * Complex64` evaluates
//! `(re·re − im·im, re·im + im·re)` with exactly one rounding per multiply
//! and one per add/sub, which is precisely the lane-wise sequence of the
//! AVX2 `mul / permute / mul / addsub` complex product. The vector code
//! never uses fused multiply-add contraction, so switching dispatch paths
//! cannot change a single output bit — compilation reports stay
//! byte-identical whichever path runs.
//!
//! Dispatch is decided once per process (cached in an atomic): the vector
//! path is used when the CPU reports AVX2+FMA via
//! `is_x86_feature_detected!` and the `EPOC_SIMD` environment variable does
//! not disable it (`EPOC_SIMD=0`/`off`/`scalar` forces the portable
//! fallback; any other value, or unset, means "auto"). Tests and benches
//! can override the decision with [`force_simd`].
//!
//! `unsafe` in this crate is confined to this module's intrinsic shims;
//! every unsafe block is a load/store or lane shuffle on slices whose
//! bounds are checked by the safe wrappers.

use crate::complex::Complex64;
use std::sync::atomic::{AtomicU8, Ordering};

/// Dispatch cache: 0 = undecided, 1 = scalar, 2 = vector.
static MODE: AtomicU8 = AtomicU8::new(0);

/// Returns `true` when the AVX2 kernels are active for this process.
///
/// The first call resolves the mode from CPU detection and the
/// `EPOC_SIMD` environment variable; later calls are a relaxed atomic load.
#[inline]
pub fn simd_active() -> bool {
    match MODE.load(Ordering::Relaxed) {
        0 => resolve(),
        1 => false,
        _ => true,
    }
}

#[cold]
fn resolve() -> bool {
    let disabled = matches!(
        std::env::var("EPOC_SIMD").as_deref(),
        Ok("0") | Ok("off") | Ok("OFF") | Ok("scalar") | Ok("SCALAR")
    );
    let on = !disabled && cpu_supported();
    MODE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

#[cfg(target_arch = "x86_64")]
fn cpu_supported() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_supported() -> bool {
    false
}

/// Overrides the dispatch decision (test/bench hook).
///
/// `Some(true)` requests the vector path (granted only when the CPU
/// supports it), `Some(false)` forces the scalar fallback, and `None`
/// restores automatic detection. Returns whether the vector path is active
/// after the call. Because both paths are bit-identical, racing overrides
/// from concurrent tests cannot change any computed value.
pub fn force_simd(mode: Option<bool>) -> bool {
    match mode {
        None => {
            MODE.store(0, Ordering::Relaxed);
            simd_active()
        }
        Some(true) => {
            let ok = cpu_supported();
            MODE.store(if ok { 2 } else { 1 }, Ordering::Relaxed);
            ok
        }
        Some(false) => {
            MODE.store(1, Ordering::Relaxed);
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel: split-plane multiply-accumulate (blocked matmul inner loop)
// ---------------------------------------------------------------------------

/// `acc_re[j] += xr·br[j] − xi·bi[j]` and `acc_im[j] += xr·bi[j] + xi·br[j]`
/// for every `j` — one row-times-packed-row update of the blocked matmul.
#[inline]
pub(crate) fn axpy_split(acc_re: &mut [f64], acc_im: &mut [f64], xr: f64, xi: f64, br: &[f64], bi: &[f64]) {
    debug_assert!(acc_re.len() == acc_im.len() && br.len() >= acc_re.len() && bi.len() >= acc_re.len());
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: AVX2+FMA availability was checked by `simd_active`.
        unsafe { axpy_split_avx2(acc_re, acc_im, xr, xi, br, bi) };
        return;
    }
    axpy_split_scalar(acc_re, acc_im, xr, xi, br, bi);
}

#[inline]
fn axpy_split_scalar(acc_re: &mut [f64], acc_im: &mut [f64], xr: f64, xi: f64, br: &[f64], bi: &[f64]) {
    for (((ar, ai), &brv), &biv) in acc_re.iter_mut().zip(acc_im.iter_mut()).zip(br).zip(bi) {
        *ar += xr * brv - xi * biv;
        *ai += xr * biv + xi * brv;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn axpy_split_avx2(acc_re: &mut [f64], acc_im: &mut [f64], xr: f64, xi: f64, br: &[f64], bi: &[f64]) {
    use std::arch::x86_64::*;
    let n = acc_re.len();
    let vxr = _mm256_set1_pd(xr);
    let vxi = _mm256_set1_pd(xi);
    let (arp, aip) = (acc_re.as_mut_ptr(), acc_im.as_mut_ptr());
    let (brp, bip) = (br.as_ptr(), bi.as_ptr());
    let mut j = 0;
    while j + 4 <= n {
        let vbr = _mm256_loadu_pd(brp.add(j));
        let vbi = _mm256_loadu_pd(bip.add(j));
        let var = _mm256_loadu_pd(arp.add(j));
        let vai = _mm256_loadu_pd(aip.add(j));
        // Same rounding sequence as the scalar body: mul, mul, sub/add, add.
        let nr = _mm256_add_pd(var, _mm256_sub_pd(_mm256_mul_pd(vxr, vbr), _mm256_mul_pd(vxi, vbi)));
        let ni = _mm256_add_pd(vai, _mm256_add_pd(_mm256_mul_pd(vxr, vbi), _mm256_mul_pd(vxi, vbr)));
        _mm256_storeu_pd(arp.add(j), nr);
        _mm256_storeu_pd(aip.add(j), ni);
        j += 4;
    }
    axpy_split_scalar(&mut acc_re[j..], &mut acc_im[j..], xr, xi, &br[j..], &bi[j..]);
}

// ---------------------------------------------------------------------------
// Kernel: 4x4 complex matmul (GRAPE propagator-sized product)
// ---------------------------------------------------------------------------

/// 4×4 complex matrix product `o = a·b` over row-major slices of 16.
#[inline]
pub(crate) fn mm4(a: &[Complex64], b: &[Complex64], o: &mut [Complex64]) {
    debug_assert!(a.len() == 16 && b.len() == 16 && o.len() == 16);
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: AVX2+FMA availability was checked by `simd_active`.
        unsafe { mm4_avx2(a, b, o) };
        return;
    }
    mm4_scalar(a, b, o);
}

/// Scalar twin of [`mm4_avx2`]: identical per-element rounding sequence
/// (mul, mul, sub for the real part; mul, mul, add for the imaginary part;
/// accumulated in `k` order from exact zero).
#[inline]
fn mm4_scalar(a: &[Complex64], b: &[Complex64], o: &mut [Complex64]) {
    for i in 0..4 {
        for j in 0..4 {
            let mut re = 0.0;
            let mut im = 0.0;
            for k in 0..4 {
                let x = a[i * 4 + k];
                let y = b[k * 4 + j];
                re += x.re * y.re - x.im * y.im;
                im += x.re * y.im + x.im * y.re;
            }
            o[i * 4 + j] = Complex64::new(re, im);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn mm4_avx2(a: &[Complex64], b: &[Complex64], o: &mut [Complex64]) {
    use std::arch::x86_64::*;
    let bp = b.as_ptr() as *const f64;
    // Row k of b as two vectors of two complexes each.
    let mut brow = [[_mm256_setzero_pd(); 2]; 4];
    for (k, row) in brow.iter_mut().enumerate() {
        row[0] = _mm256_loadu_pd(bp.add(k * 8));
        row[1] = _mm256_loadu_pd(bp.add(k * 8 + 4));
    }
    let op = o.as_mut_ptr() as *mut f64;
    for i in 0..4 {
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        for (k, row) in brow.iter().enumerate() {
            let x = a[i * 4 + k];
            let vxr = _mm256_set1_pd(x.re);
            let vxi = _mm256_set1_pd(x.im);
            acc0 = _mm256_add_pd(acc0, cmul_bcast(vxr, vxi, row[0]));
            acc1 = _mm256_add_pd(acc1, cmul_bcast(vxr, vxi, row[1]));
        }
        _mm256_storeu_pd(op.add(i * 8), acc0);
        _mm256_storeu_pd(op.add(i * 8 + 4), acc1);
    }
}

/// `x · v` where `x = xr + i·xi` is broadcast over a vector of two
/// complexes: lanes `[re0, im0, re1, im1]`. The `mul/permute/mul/addsub`
/// sequence rounds exactly like `Complex64::mul`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn cmul_bcast(
    vxr: std::arch::x86_64::__m256d,
    vxi: std::arch::x86_64::__m256d,
    v: std::arch::x86_64::__m256d,
) -> std::arch::x86_64::__m256d {
    use std::arch::x86_64::*;
    let t1 = _mm256_mul_pd(vxr, v);
    let vs = _mm256_permute_pd(v, 0b0101); // [im0, re0, im1, re1]
    let t2 = _mm256_mul_pd(vxi, vs);
    // even lanes: t1 − t2 = xr·re − xi·im; odd lanes: t1 + t2 = xr·im + xi·re
    _mm256_addsub_pd(t1, t2)
}

// ---------------------------------------------------------------------------
// Kernel: 2x2 rotation mix over paired slices (synthesis Givens updates)
// ---------------------------------------------------------------------------

/// Applies a 2×2 complex rotation to a pair of equal-length slices:
/// `x[i] ← g00·x[i] + g01·y[i]`, `y[i] ← g10·x[i] + g11·y[i]`.
///
/// This is the row/column mixing primitive of the synthesis `EvalPlan`
/// evaluator; the AVX2 variant processes two complexes per lane set with
/// the same per-element rounding as the scalar body.
#[inline]
pub fn mix_pair(
    x: &mut [Complex64],
    y: &mut [Complex64],
    g00: Complex64,
    g01: Complex64,
    g10: Complex64,
    g11: Complex64,
) {
    assert_eq!(x.len(), y.len(), "mix_pair: slice lengths differ");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: AVX2+FMA availability was checked by `simd_active`.
        unsafe { mix_pair_avx2(x, y, g00, g01, g10, g11) };
        return;
    }
    mix_pair_scalar(x, y, g00, g01, g10, g11);
}

#[inline]
fn mix_pair_scalar(
    x: &mut [Complex64],
    y: &mut [Complex64],
    g00: Complex64,
    g01: Complex64,
    g10: Complex64,
    g11: Complex64,
) {
    for (xv, yv) in x.iter_mut().zip(y.iter_mut()) {
        let a = *xv;
        let b = *yv;
        *xv = g00 * a + g01 * b;
        *yv = g10 * a + g11 * b;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn mix_pair_avx2(
    x: &mut [Complex64],
    y: &mut [Complex64],
    g00: Complex64,
    g01: Complex64,
    g10: Complex64,
    g11: Complex64,
) {
    use std::arch::x86_64::*;
    let n = x.len();
    let n2 = n & !1;
    let (g00r, g00i) = (_mm256_set1_pd(g00.re), _mm256_set1_pd(g00.im));
    let (g01r, g01i) = (_mm256_set1_pd(g01.re), _mm256_set1_pd(g01.im));
    let (g10r, g10i) = (_mm256_set1_pd(g10.re), _mm256_set1_pd(g10.im));
    let (g11r, g11i) = (_mm256_set1_pd(g11.re), _mm256_set1_pd(g11.im));
    let xp = x.as_mut_ptr() as *mut f64;
    let yp = y.as_mut_ptr() as *mut f64;
    let mut i = 0;
    while i < n2 {
        let va = _mm256_loadu_pd(xp.add(2 * i));
        let vb = _mm256_loadu_pd(yp.add(2 * i));
        let nx = _mm256_add_pd(cmul_bcast(g00r, g00i, va), cmul_bcast(g01r, g01i, vb));
        let ny = _mm256_add_pd(cmul_bcast(g10r, g10i, va), cmul_bcast(g11r, g11i, vb));
        _mm256_storeu_pd(xp.add(2 * i), nx);
        _mm256_storeu_pd(yp.add(2 * i), ny);
        i += 2;
    }
    if n2 < n {
        let a = x[n2];
        let b = y[n2];
        x[n2] = g00 * a + g01 * b;
        y[n2] = g10 * a + g11 * b;
    }
}

/// Applies a 2×2 rotation to **adjacent** element pairs of one slice:
/// for every even `i`, `(row[i], row[i+1])` is mixed in place. This is the
/// `mask == 1` column-mix case of the synthesis evaluator, where the two
/// columns of each pair sit next to each other in memory.
///
/// `row.len()` must be even.
#[inline]
pub fn mix_adjacent(row: &mut [Complex64], g00: Complex64, g01: Complex64, g10: Complex64, g11: Complex64) {
    assert_eq!(row.len() % 2, 0, "mix_adjacent: odd slice length");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: AVX2+FMA availability was checked by `simd_active`.
        unsafe { mix_adjacent_avx2(row, g00, g01, g10, g11) };
        return;
    }
    mix_adjacent_scalar(row, g00, g01, g10, g11);
}

#[inline]
fn mix_adjacent_scalar(row: &mut [Complex64], g00: Complex64, g01: Complex64, g10: Complex64, g11: Complex64) {
    for pair in row.chunks_exact_mut(2) {
        let a = pair[0];
        let b = pair[1];
        pair[0] = g00 * a + g01 * b;
        pair[1] = g10 * a + g11 * b;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn mix_adjacent_avx2(row: &mut [Complex64], g00: Complex64, g01: Complex64, g10: Complex64, g11: Complex64) {
    use std::arch::x86_64::*;
    // Coefficient vectors with g_row0 in the low 128-bit half and g_row1 in
    // the high half, matching the [a, b] complex pair layout of each load.
    let gar = _mm256_set_pd(g10.re, g10.re, g00.re, g00.re);
    let gai = _mm256_set_pd(g10.im, g10.im, g00.im, g00.im);
    let gbr = _mm256_set_pd(g11.re, g11.re, g01.re, g01.re);
    let gbi = _mm256_set_pd(g11.im, g11.im, g01.im, g01.im);
    let p = row.as_mut_ptr() as *mut f64;
    let n = row.len();
    let mut i = 0;
    while i < n {
        let v = _mm256_loadu_pd(p.add(2 * i)); // [a.re, a.im, b.re, b.im]
        let va = _mm256_permute2f128_pd(v, v, 0x00); // [a, a]
        let vb = _mm256_permute2f128_pd(v, v, 0x11); // [b, b]
        // out = [g00·a + g01·b, g10·a + g11·b]
        let out = _mm256_add_pd(cmul_bcast(gar, gai, va), cmul_bcast(gbr, gbi, vb));
        _mm256_storeu_pd(p.add(2 * i), out);
        i += 2;
    }
}

// ---------------------------------------------------------------------------
// Kernel: masked pair-mix trace (synthesis gradient contraction)
// ---------------------------------------------------------------------------

/// The synthesis gradient trace `Tr(prefix · M · embed(q))` contracted
/// directly over the index pairs `(a, a|mask)` that the embedded 2×2 `q`
/// mixes, without forming any product matrix.
///
/// `prefix_t` holds the prefix **transposed** (`prefix_t[b·dim + a] =
/// prefix[a·dim + b]`) and `m` holds the right factor row-major, both of
/// length `dim·dim`; `mask` must be a power of two below `dim`, and `dim` a
/// multiple of `2·mask`. For each row the contraction is
/// `Σ prefix_t[a0]·(m[a0]·q00 + m[a1]·q10) + prefix_t[a1]·(m[a0]·q01 + m[a1]·q11)`
/// over pairs `a1 = a0 | mask`.
///
/// Both dispatch paths split the sum into the same fixed partial
/// accumulators (pair-position parity), combined in the same order at the
/// end, so the result is bit-identical between them — deterministic, though
/// it differs from a strictly sequential left-to-right sum.
#[inline]
pub fn mixed_pair_trace(
    prefix_t: &[Complex64],
    m: &[Complex64],
    dim: usize,
    mask: usize,
    q: &[Complex64; 4],
) -> Complex64 {
    assert!(
        mask.is_power_of_two() && mask < dim && dim.is_multiple_of(2 * mask),
        "mixed_pair_trace: mask {mask} incompatible with dim {dim}"
    );
    assert!(
        prefix_t.len() == dim * dim && m.len() == dim * dim,
        "mixed_pair_trace: slice lengths must be dim²"
    );
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: AVX2+FMA availability was checked by `simd_active`;
        // bounds were checked above.
        return unsafe { mixed_pair_trace_avx2(prefix_t, m, dim, mask, q) };
    }
    mixed_pair_trace_scalar(prefix_t, m, dim, mask, q)
}

/// Scalar twin of [`mixed_pair_trace_avx2`]: identical per-lane rounding
/// sequence and identical accumulator structure (even/odd pair positions
/// kept separate, merged once at the end).
#[inline]
fn mixed_pair_trace_scalar(
    prefix_t: &[Complex64],
    m: &[Complex64],
    dim: usize,
    mask: usize,
    q: &[Complex64; 4],
) -> Complex64 {
    if mask == 1 {
        // Adjacent pairs: one accumulator for the low-index contribution of
        // each pair, one for the high — the two complex lanes of the
        // vector accumulator.
        let mut acc_e = Complex64::ZERO;
        let mut acc_o = Complex64::ZERO;
        for (row, prow) in m.chunks_exact(dim).zip(prefix_t.chunks_exact(dim)) {
            let mut k = 0;
            while k < dim {
                let y0 = row[k] * q[0] + row[k + 1] * q[2];
                let y1 = row[k] * q[1] + row[k + 1] * q[3];
                acc_e += prow[k] * y0;
                acc_o += prow[k + 1] * y1;
                k += 2;
            }
        }
        return acc_e + acc_o;
    }
    // mask ≥ 2: pair low-halves form contiguous runs [base, base+mask).
    // Four accumulators: (low/high half of the pair) × (even/odd offset
    // within the run) — the four complex lanes of the two vector
    // accumulators.
    let mut a_e = Complex64::ZERO;
    let mut a_o = Complex64::ZERO;
    let mut b_e = Complex64::ZERO;
    let mut b_o = Complex64::ZERO;
    for (row, prow) in m.chunks_exact(dim).zip(prefix_t.chunks_exact(dim)) {
        let mut base = 0;
        while base < dim {
            for off in 0..mask {
                let x0 = row[base + off];
                let x1 = row[base + mask + off];
                let y0 = x0 * q[0] + x1 * q[2];
                let y1 = x0 * q[1] + x1 * q[3];
                let c0 = prow[base + off] * y0;
                let c1 = prow[base + mask + off] * y1;
                if off & 1 == 0 {
                    a_e += c0;
                    b_e += c1;
                } else {
                    a_o += c0;
                    b_o += c1;
                }
            }
            base += 2 * mask;
        }
    }
    (a_e + a_o) + (b_e + b_o)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn mixed_pair_trace_avx2(
    prefix_t: &[Complex64],
    m: &[Complex64],
    dim: usize,
    mask: usize,
    q: &[Complex64; 4],
) -> Complex64 {
    use std::arch::x86_64::*;
    let mp = m.as_ptr() as *const f64;
    let pp = prefix_t.as_ptr() as *const f64;
    if mask == 1 {
        // Per pair: load both complexes at once, broadcast each across the
        // register, and form [y0, y1] against the q-columns [q00, q01] and
        // [q10, q11]; the prefix pair then multiplies lanewise. Lane pairs
        // accumulate the even/odd pair positions exactly like the scalar
        // twin's (acc_e, acc_o).
        let qa = _mm256_set_pd(q[1].im, q[1].re, q[0].im, q[0].re); // [q00, q01]
        let qb = _mm256_set_pd(q[3].im, q[3].re, q[2].im, q[2].re); // [q10, q11]
        let mut acc = _mm256_setzero_pd();
        for r in 0..dim {
            let rp = mp.add(2 * r * dim);
            let prp = pp.add(2 * r * dim);
            let mut k = 0;
            while k < dim {
                let v = _mm256_loadu_pd(rp.add(2 * k)); // [x0, x1]
                let va = _mm256_permute2f128_pd(v, v, 0x00); // [x0, x0]
                let vb = _mm256_permute2f128_pd(v, v, 0x11); // [x1, x1]
                let y = _mm256_add_pd(
                    cmul_bcast(_mm256_movedup_pd(va), _mm256_permute_pd(va, 0b1111), qa),
                    cmul_bcast(_mm256_movedup_pd(vb), _mm256_permute_pd(vb, 0b1111), qb),
                );
                let vp = _mm256_loadu_pd(prp.add(2 * k)); // [p0, p1]
                acc = _mm256_add_pd(acc, cmul_elem(vp, y));
                k += 2;
            }
        }
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        return Complex64::new(lanes[0] + lanes[2], lanes[1] + lanes[3]);
    }
    // mask ≥ 2 (always even): walk each contiguous run two pairs at a time.
    // accA collects the low-half contributions, accB the high-half; within
    // each, lane pairs hold even/odd run offsets — the scalar twin's
    // (a_e, a_o, b_e, b_o).
    let q0 = _mm256_set_pd(q[0].im, q[0].re, q[0].im, q[0].re);
    let q1 = _mm256_set_pd(q[1].im, q[1].re, q[1].im, q[1].re);
    let q2 = _mm256_set_pd(q[2].im, q[2].re, q[2].im, q[2].re);
    let q3 = _mm256_set_pd(q[3].im, q[3].re, q[3].im, q[3].re);
    let mut acc_a = _mm256_setzero_pd();
    let mut acc_b = _mm256_setzero_pd();
    for r in 0..dim {
        let rp = mp.add(2 * r * dim);
        let prp = pp.add(2 * r * dim);
        let mut base = 0;
        while base < dim {
            let mut off = 0;
            while off < mask {
                let vx0 = _mm256_loadu_pd(rp.add(2 * (base + off)));
                let vx1 = _mm256_loadu_pd(rp.add(2 * (base + mask + off)));
                let y0 = _mm256_add_pd(cmul_elem(vx0, q0), cmul_elem(vx1, q2));
                let y1 = _mm256_add_pd(cmul_elem(vx0, q1), cmul_elem(vx1, q3));
                let vp0 = _mm256_loadu_pd(prp.add(2 * (base + off)));
                let vp1 = _mm256_loadu_pd(prp.add(2 * (base + mask + off)));
                acc_a = _mm256_add_pd(acc_a, cmul_elem(vp0, y0));
                acc_b = _mm256_add_pd(acc_b, cmul_elem(vp1, y1));
                off += 2;
            }
            base += 2 * mask;
        }
    }
    let mut la = [0.0f64; 4];
    let mut lb = [0.0f64; 4];
    _mm256_storeu_pd(la.as_mut_ptr(), acc_a);
    _mm256_storeu_pd(lb.as_mut_ptr(), acc_b);
    Complex64::new(
        (la[0] + la[2]) + (lb[0] + lb[2]),
        (la[1] + la[3]) + (lb[1] + lb[3]),
    )
}

/// Elementwise complex product of two vectors of two complexes, with `x`
/// as the left operand per lane — rounds exactly like `Complex64::mul`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn cmul_elem(x: std::arch::x86_64::__m256d, v: std::arch::x86_64::__m256d) -> std::arch::x86_64::__m256d {
    use std::arch::x86_64::*;
    cmul_bcast(_mm256_movedup_pd(x), _mm256_permute_pd(x, 0b1111), v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn run_both<R: PartialEq + std::fmt::Debug>(mut f: impl FnMut() -> R) {
        let prev = simd_active();
        force_simd(Some(false));
        let scalar = f();
        let vector_granted = force_simd(Some(true));
        let vector = f();
        force_simd(None);
        if vector_granted {
            assert_eq!(scalar, vector, "scalar and vector paths disagree");
        }
        let _ = prev;
    }

    fn rand_slice(seed: u64, n: usize) -> Vec<Complex64> {
        // Small deterministic LCG; quality is irrelevant here.
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                let mut next = || {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
                };
                c64(next(), next())
            })
            .collect()
    }

    #[test]
    fn axpy_split_paths_bit_identical() {
        for n in [1usize, 3, 4, 7, 8, 16, 31] {
            let br: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let bi: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
            run_both(|| {
                let mut ar = vec![0.25f64; n];
                let mut ai = vec![-0.5f64; n];
                axpy_split(&mut ar, &mut ai, 1.7, -0.3, &br, &bi);
                (ar, ai)
            });
        }
    }

    #[test]
    fn mm4_paths_bit_identical() {
        let a = rand_slice(11, 16);
        let b = rand_slice(22, 16);
        run_both(|| {
            let mut o = vec![Complex64::ZERO; 16];
            mm4(&a, &b, &mut o);
            o
        });
    }

    #[test]
    fn mix_kernels_paths_bit_identical() {
        let g = [c64(0.8, 0.1), c64(-0.1, 0.55), c64(0.3, -0.2), c64(0.9, 0.05)];
        for n in [1usize, 2, 3, 6, 9, 16] {
            let x0 = rand_slice(n as u64 + 40, n);
            let y0 = rand_slice(n as u64 + 80, n);
            run_both(|| {
                let mut x = x0.clone();
                let mut y = y0.clone();
                mix_pair(&mut x, &mut y, g[0], g[1], g[2], g[3]);
                (x, y)
            });
        }
        for n in [2usize, 4, 8, 16] {
            let r0 = rand_slice(n as u64 + 13, n);
            run_both(|| {
                let mut r = r0.clone();
                mix_adjacent(&mut r, g[0], g[1], g[2], g[3]);
                r
            });
        }
    }

    #[test]
    fn mix_adjacent_matches_mix_pair_semantics() {
        let g = [c64(0.5, 0.5), c64(-0.5, 0.5), c64(0.5, -0.5), c64(0.5, 0.5)];
        let mut row = rand_slice(3, 8);
        let mut xs: Vec<Complex64> = row.iter().step_by(2).copied().collect();
        let mut ys: Vec<Complex64> = row.iter().skip(1).step_by(2).copied().collect();
        mix_adjacent(&mut row, g[0], g[1], g[2], g[3]);
        mix_pair(&mut xs, &mut ys, g[0], g[1], g[2], g[3]);
        for i in 0..4 {
            assert_eq!(row[2 * i], xs[i]);
            assert_eq!(row[2 * i + 1], ys[i]);
        }
    }

    #[test]
    fn mixed_pair_trace_paths_bit_identical() {
        let q = [c64(0.7, -0.2), c64(0.1, 0.4), c64(-0.3, 0.6), c64(0.5, 0.2)];
        for dim in [2usize, 4, 8, 16] {
            let pt = rand_slice(dim as u64 + 3, dim * dim);
            let m = rand_slice(dim as u64 + 300, dim * dim);
            let mut mask = 1;
            while mask < dim {
                run_both(|| mixed_pair_trace(&pt, &m, dim, mask, &q));
                mask *= 2;
            }
        }
    }

    #[test]
    fn mixed_pair_trace_matches_naive_contraction() {
        let q = [c64(0.7, -0.2), c64(0.1, 0.4), c64(-0.3, 0.6), c64(0.5, 0.2)];
        for dim in [2usize, 4, 8] {
            let pt = rand_slice(dim as u64 + 9, dim * dim);
            let m = rand_slice(dim as u64 + 900, dim * dim);
            let mut mask = 1;
            while mask < dim {
                // Naive strictly sequential reference over all pairs.
                let mut want = Complex64::ZERO;
                for r in 0..dim {
                    for a0 in 0..dim {
                        if a0 & mask != 0 {
                            continue;
                        }
                        let a1 = a0 | mask;
                        let y0 = m[r * dim + a0] * q[0] + m[r * dim + a1] * q[2];
                        let y1 = m[r * dim + a0] * q[1] + m[r * dim + a1] * q[3];
                        want += pt[r * dim + a0] * y0 + pt[r * dim + a1] * y1;
                    }
                }
                let got = mixed_pair_trace(&pt, &m, dim, mask, &q);
                assert!(
                    (got - want).abs() < 1e-12,
                    "dim={dim} mask={mask}: {got:?} vs {want:?}"
                );
                mask *= 2;
            }
        }
    }

    #[test]
    fn force_simd_round_trips() {
        let auto = force_simd(None);
        assert!(!force_simd(Some(false)));
        assert!(!simd_active());
        let granted = force_simd(Some(true));
        assert_eq!(granted, simd_active());
        assert_eq!(force_simd(None), auto);
    }
}
