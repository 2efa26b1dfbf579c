//! Hermitian eigendecomposition via the complex Jacobi method.
//!
//! GRAPE needs `exp(-i·dt·H)` for Hermitian `H` at every time slot, and exact
//! gradients are cheapest in `H`'s eigenbasis. The Jacobi method is a
//! simple, numerically robust way to diagonalize a complex Hermitian matrix:
//! repeatedly zero out off-diagonal entries with 2×2 complex rotations until
//! the matrix is diagonal to machine precision.
//!
//! Two kernels share one rotation (`Rotation::zeroing`) and one stop rule:
//!
//! * **4×4**, a two-qubit GRAPE slot and nearly every decomposition a
//!   compile runs. The working matrix and the basis live on the stack, and
//!   each sweep visits the six pairs in three round-robin (Brent–Luk)
//!   rounds: {(0,1),(2,3)}, {(0,2),(1,3)}, {(0,3),(1,2)}. A round's two
//!   pairs are disjoint, so both rotations are computed from the same matrix
//!   before either is applied, and their square-root chains overlap.
//! * **Every other size** runs the cyclic row-by-row order on thread-local
//!   scratch.
//!
//! [`eigh_warm_into`] starts the 4×4 kernel from the basis an earlier call
//! left in its output (`A = V†·H·V`) instead of from `V = I`. GRAPE
//! decomposes every slot once per optimizer step, and one step moves a
//! slot's Hamiltonian only slightly, so `A` starts nearly diagonal and
//! fewer sweeps run. A warm result meets the same contract as a cold one,
//! but its rounding depends on the starting basis: it is not bit-identical
//! to a cold call on the same matrix.

use crate::complex::{c64, Complex64};
use crate::matrix::Matrix;
use crate::simd;
use std::cell::RefCell;

/// Eigendecomposition `H = V · diag(λ) · V†` of a Hermitian matrix.
///
/// Eigenvalues are real and sorted ascending; `vectors` holds the
/// corresponding eigenvectors as columns.
#[derive(Debug, Clone)]
pub struct HermitianEig {
    /// Real eigenvalues, ascending.
    pub values: Vec<f64>,
    /// Unitary matrix of eigenvectors (column `k` pairs with `values[k]`).
    pub vectors: Matrix,
}

impl HermitianEig {
    /// Reconstructs the original matrix `V · diag(λ) · V†`.
    pub fn reconstruct(&self) -> Matrix {
        let d = Matrix::from_diag(
            &self
                .values
                .iter()
                .map(|&l| c64(l, 0.0))
                .collect::<Vec<_>>(),
        );
        self.vectors.matmul(&d).matmul(&self.vectors.dagger())
    }

    /// Applies a scalar function to the eigenvalues: `f(H) = V·diag(f(λ))·V†`.
    pub fn map(&self, f: impl Fn(f64) -> Complex64) -> Matrix {
        let d = Matrix::from_diag(&self.values.iter().map(|&l| f(l)).collect::<Vec<_>>());
        self.vectors.matmul(&d).matmul(&self.vectors.dagger())
    }
}

/// Error produced when [`eigh`] is given an unsuitable matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EigError {
    /// The input was not square.
    NotSquare,
    /// The input was not Hermitian within the built-in tolerance, or had
    /// a non-finite (NaN or infinite) entry.
    NotHermitian,
    /// Jacobi sweeps failed to converge (pathological input).
    NoConvergence,
}

impl std::fmt::Display for EigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EigError::NotSquare => write!(f, "matrix is not square"),
            EigError::NotHermitian => write!(f, "matrix is not hermitian"),
            EigError::NoConvergence => write!(f, "jacobi iteration did not converge"),
        }
    }
}

impl std::error::Error for EigError {}

const HERMITIAN_TOL: f64 = 1e-9;
const CONVERGE_TOL: f64 = 1e-13;
const MAX_SWEEPS: usize = 100;

/// Computes the eigendecomposition of a complex Hermitian matrix.
///
/// # Errors
///
/// Returns [`EigError::NotSquare`] / [`EigError::NotHermitian`] for invalid
/// input and [`EigError::NoConvergence`] if the Jacobi sweeps fail (which
/// does not happen for finite Hermitian input).
///
/// # Examples
///
/// ```
/// use epoc_linalg::{eigh, Matrix, c64};
///
/// let h = Matrix::from_rows(&[
///     &[c64(1.0, 0.0), c64(0.0, -1.0)],
///     &[c64(0.0, 1.0), c64(1.0, 0.0)],
/// ]);
/// let e = eigh(&h)?;
/// assert!((e.values[0] - 0.0).abs() < 1e-10);
/// assert!((e.values[1] - 2.0).abs() < 1e-10);
/// # Ok::<(), epoc_linalg::EigError>(())
/// ```
pub fn eigh(h: &Matrix) -> Result<HermitianEig, EigError> {
    let mut out = HermitianEig {
        values: Vec::new(),
        vectors: Matrix::zeros(0, 0),
    };
    eigh_into(h, &mut out)?;
    Ok(out)
}

thread_local! {
    /// Working matrix, eigenvector accumulator, and sort scratch for the
    /// cyclic kernel. Thread-local so repeated decompositions are
    /// allocation-free after warm-up. (The 4×4 kernel needs none of it.)
    static EIG_SCRATCH: RefCell<EigScratch> = RefCell::new(EigScratch::default());
}

#[derive(Default)]
struct EigScratch {
    a: Vec<Complex64>,
    v: Vec<Complex64>,
    order: Vec<(f64, usize)>,
}

/// Computes the eigendecomposition of a complex Hermitian matrix into an
/// existing [`HermitianEig`], reusing its allocations.
///
/// This is the hot-loop form of [`eigh`]: a 4×4 matrix runs the
/// stack-allocated round-robin kernel, any other size the cyclic kernel on
/// thread-local scratch, so a decomposition costs no allocations after
/// warm-up. The result is a pure function of `h`: whatever `out` held
/// before is overwritten, never read.
///
/// # Errors
///
/// Same contract as [`eigh`]. A failed call leaves `out` empty.
pub fn eigh_into(h: &Matrix, out: &mut HermitianEig) -> Result<(), EigError> {
    decompose(h, out, false)
}

/// [`eigh_into`], warm-started from the basis already in `out`.
///
/// When `h` is 4×4 and `out.vectors` holds the 4×4 basis of an earlier
/// successful call, the sweeps start from `A = V†·H·V` and accumulate
/// their rotations into that `V`, instead of starting from `A = H` and
/// `V = I`. If `h` is close to the matrix that basis diagonalized (one
/// GRAPE slot, one optimizer step later), `A` is nearly diagonal already
/// and fewer sweeps run. For any other size, or when `out` is empty, this
/// is exactly [`eigh_into`].
///
/// The result meets [`eigh`]'s contract (ascending eigenvalues, unitary
/// eigenvector columns, `V·Λ·V† = H` to the stop rule's tolerance), but it
/// is not bit-identical to a cold call: its rounding depends on the
/// starting basis. A chain of warm calls is deterministic for a given
/// sequence of inputs.
///
/// `out.vectors` must be unitary, as every successful call leaves it. A
/// non-unitary basis violates this precondition, and the result is then
/// not a decomposition of `h`.
///
/// # Errors
///
/// Same contract as [`eigh`]. A failed call leaves `out` empty, so the
/// next warm call starts cold.
pub fn eigh_warm_into(h: &Matrix, out: &mut HermitianEig) -> Result<(), EigError> {
    decompose(h, out, true)
}

/// Both entries: checks `h`, dispatches on its size (warm-starting the
/// 4×4 kernel when asked and `out` holds a 4×4 basis), and empties `out`
/// on failure.
fn decompose(h: &Matrix, out: &mut HermitianEig, warm: bool) -> Result<(), EigError> {
    let result = hermitian_scale(h).and_then(|scale| {
        if h.rows() == 4 {
            let warm = warm && out.vectors.rows() == 4 && out.vectors.cols() == 4;
            eigh4(h, scale, warm, out)
        } else {
            eigh_cyclic(h, scale, out)
        }
    });
    if result.is_err() {
        out.values.clear();
        out.vectors = Matrix::zeros(0, 0);
    }
    result
}

/// Checks that `h` is square, finite and Hermitian within
/// `HERMITIAN_TOL·scale`, and returns `scale = max(max|h_ij|, 1)`, the unit
/// of every tolerance. (The comparisons below let NaN through and
/// `f64::max` drops it, so finiteness is checked first.)
fn hermitian_scale(h: &Matrix) -> Result<f64, EigError> {
    if !h.is_square() {
        return Err(EigError::NotSquare);
    }
    let n = h.rows();
    let hd = h.as_slice();
    if !hd.iter().all(|z| z.is_finite()) {
        return Err(EigError::NotHermitian);
    }
    // max |entry| via norm_sqr: one sqrt total instead of n² hypots.
    let scale = hd
        .iter()
        .map(|z| z.norm_sqr())
        .fold(0.0, f64::max)
        .sqrt()
        .max(1.0);
    let htol = HERMITIAN_TOL * scale;
    let htol2 = htol * htol;
    for i in 0..n {
        for j in 0..=i {
            if (hd[i * n + j] - hd[j * n + i].conj()).norm_sqr() > htol2 {
                return Err(EigError::NotHermitian);
            }
        }
    }
    Ok(scale)
}

/// Forces exact Hermitian symmetry on the row-major `n×n` matrix `a` (each
/// mirrored pair replaced by its mean, the diagonal made real), so rounding
/// never accumulates skew.
fn symmetrize(a: &mut [Complex64], n: usize) {
    for i in 0..n {
        for j in 0..i {
            let avg = (a[i * n + j] + a[j * n + i].conj()).scale(0.5);
            a[i * n + j] = avg;
            a[j * n + i] = avg.conj();
        }
        a[i * n + i] = c64(a[i * n + i].re, 0.0);
    }
}

/// Sets `v` to the `n×n` identity.
fn set_identity(v: &mut [Complex64], n: usize) {
    v.fill(Complex64::ZERO);
    for i in 0..n {
        v[i * n + i] = Complex64::ONE;
    }
}

/// The 4×4 kernel: stack arrays, round-robin rounds, optional warm start
/// from `out.vectors`.
fn eigh4(h: &Matrix, scale: f64, warm: bool, out: &mut HermitianEig) -> Result<(), EigError> {
    let mut a = [Complex64::ZERO; 16];
    a.copy_from_slice(h.as_slice());
    symmetrize(&mut a, 4);
    let mut v = [Complex64::ZERO; 16];
    if warm {
        // A = V†·H·V: H in the previous call's eigenbasis.
        v.copy_from_slice(out.vectors.as_slice());
        let mut vdag = [Complex64::ZERO; 16];
        for (i, row) in vdag.chunks_exact_mut(4).enumerate() {
            for (j, z) in row.iter_mut().enumerate() {
                *z = v[j * 4 + i].conj();
            }
        }
        let mut t = [Complex64::ZERO; 16];
        simd::mm4(&vdag, &a, &mut t);
        simd::mm4(&t, &v, &mut a);
        symmetrize(&mut a, 4);
    } else {
        set_identity(&mut v, 4);
    }
    let (conv2, skip2) = thresholds(4, scale);
    for _sweep in 0..MAX_SWEEPS {
        if off_diag_sqr(&a, 4) <= conv2 {
            break;
        }
        round_4::<0, 1, 2, 3>(&mut a, &mut v, skip2);
        round_4::<0, 2, 1, 3>(&mut a, &mut v, skip2);
        round_4::<0, 3, 1, 2>(&mut a, &mut v, skip2);
    }
    converged(&a, 4, scale)?;
    emit(&a, &v, 4, &mut [(0.0, 0); 4], out);
    Ok(())
}

/// One round-robin round of the 4×4 kernel, on the disjoint pairs
/// `(P, Q)` and `(R, T)`. Both rotations are computed before either is
/// applied: neither reads an entry the other writes, so the two
/// computations overlap. (Const pairs let the compiler unroll every loop
/// and drop every bounds check.)
#[inline(always)]
fn round_4<const P: usize, const Q: usize, const R: usize, const T: usize>(
    a: &mut [Complex64; 16],
    v: &mut [Complex64; 16],
    skip2: f64,
) {
    let first = rotation_for(a, 4, P, Q, skip2);
    let second = rotation_for(a, 4, R, T, skip2);
    if let Some(rotation) = first {
        rotate(a, v, 4, P, Q, rotation);
    }
    if let Some(rotation) = second {
        rotate(a, v, 4, R, T, rotation);
    }
}

/// The cyclic kernel for every size but 4, on thread-local scratch.
fn eigh_cyclic(h: &Matrix, scale: f64, out: &mut HermitianEig) -> Result<(), EigError> {
    let n = h.rows();
    EIG_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let a = &mut scratch.a;
        a.clear();
        a.extend_from_slice(h.as_slice());
        symmetrize(a, n);
        let v = &mut scratch.v;
        v.resize(n * n, Complex64::ZERO);
        set_identity(v, n);
        let (conv2, skip2) = thresholds(n, scale);
        for _sweep in 0..MAX_SWEEPS {
            if off_diag_sqr(a, n) <= conv2 {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    if let Some(rotation) = rotation_for(a, n, p, q, skip2) {
                        rotate(a, v, n, p, q, rotation);
                    }
                }
            }
        }
        converged(a, n, scale)?;
        scratch.order.resize(n, (0.0, 0));
        emit(a, v, n, &mut scratch.order, out);
        Ok(())
    })
}

/// The stop rule as squared magnitudes (the same decisions as comparing
/// |·|, without per-entry square roots): sweeps stop once the off-diagonal
/// norm² is at most `conv2 = (1e-13·scale)²`, and a rotation is skipped
/// when its entry's |a_pq|² is at most `conv2 / (n·(n−1))`. If every
/// off-diagonal entry is below that, the off-norm is already below
/// `conv2`, so no such rotation is needed to converge. (The sweep loop
/// still exits only on the full-norm check.)
fn thresholds(n: usize, scale: f64) -> (f64, f64) {
    let conv2 = (CONVERGE_TOL * scale) * (CONVERGE_TOL * scale);
    (conv2, conv2 / ((n * n.saturating_sub(1)).max(1) as f64))
}

/// `Err(NoConvergence)` unless the off-diagonal norm is within `1e-8·scale`.
fn converged(a: &[Complex64], n: usize, scale: f64) -> Result<(), EigError> {
    if off_diag_sqr(a, n) > (1e-8 * scale) * (1e-8 * scale) {
        return Err(EigError::NoConvergence);
    }
    Ok(())
}

fn off_diag_sqr(a: &[Complex64], n: usize) -> f64 {
    let mut s = 0.0;
    for (i, row) in a.chunks_exact(n).enumerate() {
        for (j, z) in row.iter().enumerate() {
            if i != j {
                s += z.norm_sqr();
            }
        }
    }
    s
}

/// Writes the diagonalized `a` and its basis `v` into `out`: eigenvalues
/// ascending (a stable sort, so equal values keep their index order) and
/// the matching columns of `v`. `order` is sort scratch of length `n`.
fn emit(
    a: &[Complex64],
    v: &[Complex64],
    n: usize,
    order: &mut [(f64, usize)],
    out: &mut HermitianEig,
) {
    for (i, o) in order.iter_mut().enumerate() {
        *o = (a[i * n + i].re, i);
    }
    order.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite eigenvalues"));
    out.values.clear();
    out.values.extend(order.iter().map(|&(l, _)| l));
    if out.vectors.rows() != n || out.vectors.cols() != n {
        out.vectors = Matrix::zeros(n, n);
    }
    let od = out.vectors.as_mut_slice();
    for (dst, vrow) in od.chunks_exact_mut(n).zip(v.chunks_exact(n)) {
        for (d, &(_, src)) in dst.iter_mut().zip(order.iter()) {
            *d = vrow[src];
        }
    }
}

/// A complex Jacobi rotation `G` on a pair `(p, q)`: `G[p][p] = G[q][q] =
/// c`, `G[p][q] = s` and `G[q][p] = −s̄`.
#[derive(Clone, Copy)]
struct Rotation {
    c: f64,
    s: Complex64,
}

impl Rotation {
    /// The rotation whose `G†·A·G` zeroes `apq` in the Hermitian 2×2 block
    /// `[[app, apq], [conj(apq), aqq]]`. Requires `apq ≠ 0`.
    ///
    /// With `d = aqq − app`: `r = √(d² + 4|apq|²)`, `den = |d| + r`,
    /// `w = √(den² + 4|apq|²)`, `c = den/w` and `s = ±2·apq/w`, with `+`
    /// when `d ≥ 0`. This is the classic rotation `t = sgn(τ)/(|τ| +
    /// √(1+τ²))`, `τ = d/(2|apq|)`, `c = 1/√(1+t²)`, `s = t·c·apq/|apq|`,
    /// rewritten with `t = ±2|apq|/den` so that it takes two square roots
    /// and one division.
    #[inline]
    fn zeroing(app: f64, aqq: f64, apq: Complex64) -> Self {
        let d = aqq - app;
        let g4 = 4.0 * apq.norm_sqr();
        let den = d.abs() + (d * d + g4).sqrt();
        let inv_w = 1.0 / (den * den + g4).sqrt();
        let s = if d >= 0.0 { 2.0 * inv_w } else { -2.0 * inv_w };
        Self {
            c: den * inv_w,
            s: apq.scale(s),
        }
    }
}

/// The rotation zeroing `a[p][q]`, or `None` when the per-entry skip rule
/// leaves that entry alone.
#[inline(always)]
fn rotation_for(a: &[Complex64], n: usize, p: usize, q: usize, skip2: f64) -> Option<Rotation> {
    let apq = a[p * n + q];
    if apq.norm_sqr() <= skip2 {
        return None;
    }
    Some(Rotation::zeroing(a[p * n + p].re, a[q * n + q].re, apq))
}

/// Applies `rotation` on `(p, q)`, `p < q`, to the row-major `n×n` working
/// matrix (`A ← G†·A·G`, then the rotated pair's entries cleaned) and to
/// the basis (`V ← V·G`).
#[inline(always)]
fn rotate(
    a: &mut [Complex64],
    v: &mut [Complex64],
    n: usize,
    p: usize,
    q: usize,
    rotation: Rotation,
) {
    let Rotation { c, s } = rotation;
    let s_c = s.conj();
    for row in a.chunks_exact_mut(n) {
        let aip = row[p];
        let aiq = row[q];
        row[p] = aip.scale(c) - aiq * s_c;
        row[q] = aip * s + aiq.scale(c);
    }
    {
        // Rows p and q are contiguous; p < q lets split_at_mut alias-free.
        let (lo, hi) = a.split_at_mut(q * n);
        let rp = &mut lo[p * n..p * n + n];
        let rq = &mut hi[..n];
        for (x, y) in rp.iter_mut().zip(rq.iter_mut()) {
            let apj = *x;
            let aqj = *y;
            *x = apj.scale(c) - aqj * s;
            *y = apj * s_c + aqj.scale(c);
        }
    }
    // Clean the rotated entries.
    a[p * n + q] = Complex64::ZERO;
    a[q * n + p] = Complex64::ZERO;
    a[p * n + p] = c64(a[p * n + p].re, 0.0);
    a[q * n + q] = c64(a[q * n + q].re, 0.0);
    for row in v.chunks_exact_mut(n) {
        let vip = row[p];
        let viq = row[q];
        row[p] = vip.scale(c) - viq * s_c;
        row[q] = vip * s + viq.scale(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_hermitian(n: usize, seed: u64) -> Matrix {
        // Simple deterministic pseudo-random Hermitian matrix.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = c64(next(), 0.0);
            for j in (i + 1)..n {
                let z = c64(next(), next());
                m[(i, j)] = z;
                m[(j, i)] = z.conj();
            }
        }
        m
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let h = Matrix::from_diag(&[c64(3.0, 0.0), c64(-1.0, 0.0), c64(0.5, 0.0)]);
        let e = eigh(&h).unwrap();
        assert!((e.values[0] + 1.0).abs() < 1e-12);
        assert!((e.values[1] - 0.5).abs() < 1e-12);
        assert!((e.values[2] - 3.0).abs() < 1e-12);
        assert!(e.reconstruct().approx_eq(&h, 1e-10));
    }

    #[test]
    fn pauli_y_eigenvalues() {
        let y = Matrix::from_rows(&[
            &[Complex64::ZERO, c64(0.0, -1.0)],
            &[c64(0.0, 1.0), Complex64::ZERO],
        ]);
        let e = eigh(&y).unwrap();
        assert!((e.values[0] + 1.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
        assert!(e.vectors.is_unitary(1e-9));
        assert!(e.reconstruct().approx_eq(&y, 1e-9));
    }

    #[test]
    fn random_matrices_reconstruct() {
        for n in [2, 3, 5, 8] {
            for seed in 1..4u64 {
                let h = random_hermitian(n, seed * 31 + n as u64);
                let e = eigh(&h).unwrap_or_else(|err| panic!("eigh failed n={n}: {err}"));
                assert!(e.vectors.is_unitary(1e-8), "V not unitary for n={n}");
                assert!(
                    e.reconstruct().approx_eq(&h, 1e-8),
                    "reconstruction failed for n={n} seed={seed}"
                );
                // Sorted ascending.
                for w in e.values.windows(2) {
                    assert!(w[0] <= w[1] + 1e-12);
                }
            }
        }
    }

    #[test]
    fn map_identity_function_reconstructs() {
        let h = random_hermitian(4, 7);
        let e = eigh(&h).unwrap();
        let same = e.map(|l| c64(l, 0.0));
        assert!(same.approx_eq(&h, 1e-8));
    }

    #[test]
    fn map_exp_is_positive_definite() {
        let h = random_hermitian(3, 11);
        let e = eigh(&h).unwrap();
        let exph = e.map(|l| c64(l.exp(), 0.0));
        // exp(H) is Hermitian positive definite: check Hermitian + positive trace.
        assert!(exph.is_hermitian(1e-8));
        assert!(exph.trace().re > 0.0);
    }

    #[test]
    fn rejects_non_square() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(eigh(&m).unwrap_err(), EigError::NotSquare);
    }

    #[test]
    fn rejects_non_hermitian() {
        let mut m = Matrix::identity(2);
        m[(0, 1)] = c64(5.0, 0.0);
        assert_eq!(eigh(&m).unwrap_err(), EigError::NotHermitian);
    }

    #[test]
    fn eigh_into_reuses_and_matches_eigh() {
        let mut out = HermitianEig {
            values: Vec::new(),
            vectors: Matrix::zeros(0, 0),
        };
        for n in [2usize, 3, 4, 6] {
            let h = random_hermitian(n, n as u64 * 17 + 1);
            eigh_into(&h, &mut out).unwrap();
            let fresh = eigh(&h).unwrap();
            // Same deterministic algorithm, so bit-identical results
            // regardless of what the scratch held before.
            assert_eq!(out.values, fresh.values, "values differ at n={n}");
            assert_eq!(out.vectors, fresh.vectors, "vectors differ at n={n}");
        }
        // Repeat run on the same input is bit-stable.
        let h = random_hermitian(4, 99);
        eigh_into(&h, &mut out).unwrap();
        let first = (out.values.clone(), out.vectors.clone());
        eigh_into(&h, &mut out).unwrap();
        assert_eq!(first.0, out.values);
        assert_eq!(first.1, out.vectors);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let h = random_hermitian(6, 5);
        let e = eigh(&h).unwrap();
        let sum: f64 = e.values.iter().sum();
        assert!((sum - h.trace().re).abs() < 1e-8);
    }
}
