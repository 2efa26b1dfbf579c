//! Dense complex matrices.
//!
//! [`Matrix`] is a row-major dense matrix of [`Complex64`] sized for the
//! unitaries a pulse compiler manipulates (2×2 up to a few hundred square —
//! circuit blocks of up to ~8 qubits). All the linear algebra EPOC needs is
//! provided here: products, Kronecker products, adjoints, traces and norms.

use crate::complex::{c64, Complex64};
use crate::simd;
use std::cell::RefCell;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub};

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use epoc_linalg::{Matrix, c64};
///
/// let x = Matrix::from_rows(&[
///     &[c64(0.0, 0.0), c64(1.0, 0.0)],
///     &[c64(1.0, 0.0), c64(0.0, 0.0)],
/// ]);
/// assert!(x.is_unitary(1e-12));
/// assert_eq!(&x * &x, Matrix::identity(2));
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[Complex64]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// Creates a matrix whose entries are produced by `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[Complex64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` for a square matrix.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Flat row-major view of the entries.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable flat row-major view of the entries.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Folds every entry's bit pattern into hash state `h` with
    /// [`epoc_rt::faults::mix`], row-major, real part before imaginary
    /// part: bit-for-bit equal entries fold equally, and `0.0` and `-0.0`
    /// differ. The shape is not folded in.
    pub fn fold_bits(&self, h: u64) -> u64 {
        use epoc_rt::faults::mix_f64;
        self.data
            .iter()
            .fold(h, |h, z| mix_f64(mix_f64(h, z.re), z.im))
    }

    /// Borrowed entry access without panicking.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Option<&Complex64> {
        if row < self.rows && col < self.cols {
            Some(&self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Returns a row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn row(&self, row: usize) -> &[Complex64] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Conjugate transpose (dagger, †).
    #[must_use]
    pub fn dagger(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        self.dagger_into(&mut out);
        out
    }

    /// Conjugate transpose, written into `out` (allocation reused).
    pub fn dagger_into(&self, out: &mut Self) {
        out.reshape(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j].conj();
            }
        }
    }

    /// Element-wise complex conjugate.
    #[must_use]
    pub fn conj(&self) -> Self {
        let data = self.data.iter().map(|z| z.conj()).collect();
        Self {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Multiplies every entry by a complex scalar.
    #[must_use]
    pub fn scale(&self, k: Complex64) -> Self {
        let data = self.data.iter().map(|&z| z * k).collect();
        Self {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Multiplies every entry by a real scalar.
    #[must_use]
    pub fn scale_re(&self, k: f64) -> Self {
        self.scale(c64(k, 0.0))
    }

    /// Overwrites `self` with the contents of `src`, reusing the allocation.
    pub fn copy_from(&mut self, src: &Self) {
        self.reshape(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// Re-dimensions the matrix in place, reusing its allocation. Entries
    /// are unspecified afterwards; every caller overwrites them fully.
    fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, Complex64::ZERO);
    }

    /// Matrix product `self · rhs`.
    ///
    /// Dispatches to fully unrolled kernels for the 1×1/2×2/4×4 operators
    /// that dominate VUG-based synthesis, and to a cache-blocked kernel
    /// over split real/imaginary planes for everything larger. Allocates
    /// the result; use [`Matrix::matmul_into`] in hot loops.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    #[must_use]
    pub fn matmul(&self, rhs: &Self) -> Self {
        let mut out = Self::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self · rhs`, written into `out`.
    ///
    /// `out` is reshaped to `self.rows() × rhs.cols()`; its previous
    /// contents are discarded but its allocation is reused, so a scratch
    /// matrix threaded through an iteration loop costs no allocations
    /// after warm-up.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Self, out: &mut Self) {
        assert_eq!(
            self.cols, rhs.rows,
            "dimension mismatch: ({}, {}) x ({}, {})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reshape(self.rows, rhs.cols);
        if self.rows == self.cols && rhs.rows == rhs.cols {
            // Square fast paths: the synthesis and QOC inner loops run
            // almost entirely on 2×2 (VUG) and 4×4 (2-qubit) products.
            match self.rows {
                1 => {
                    out.data[0] = self.data[0] * rhs.data[0];
                    return;
                }
                2 => return mm_unrolled::<2>(&self.data, &rhs.data, &mut out.data),
                4 => return simd::mm4(&self.data, &rhs.data, &mut out.data),
                _ => {}
            }
        }
        mm_blocked(
            &self.data, &rhs.data, &mut out.data, self.rows, self.cols, rhs.cols,
        );
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != v.len()`.
    #[must_use]
    pub fn matvec(&self, v: &[Complex64]) -> Vec<Complex64> {
        let mut out = Vec::new();
        self.matvec_into(v, &mut out);
        out
    }

    /// Matrix–vector product `self · v`, written into `out` (allocation
    /// reused).
    ///
    /// Each row dot product accumulates into two interleaved partial sums
    /// (even/odd element index) combined at the end: deterministic, though
    /// it differs from a strictly sequential sum.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != v.len()`.
    pub fn matvec_into(&self, v: &[Complex64], out: &mut Vec<Complex64>) {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        out.clear();
        out.resize(self.rows, Complex64::ZERO);
        if self.cols == 0 {
            return;
        }
        for (slot, row) in out.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            let (mut even, mut odd) = (Complex64::ZERO, Complex64::ZERO);
            for (m, x) in row.chunks_exact(2).zip(v.chunks_exact(2)) {
                even += m[0] * x[0];
                odd += m[1] * x[1];
            }
            *slot = even + odd;
            if self.cols % 2 == 1 {
                *slot += row[self.cols - 1] * v[self.cols - 1];
            }
        }
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    ///
    /// # Examples
    ///
    /// ```
    /// use epoc_linalg::Matrix;
    /// let i2 = Matrix::identity(2);
    /// assert_eq!(i2.kron(&i2), Matrix::identity(4));
    /// ```
    #[must_use]
    pub fn kron(&self, rhs: &Self) -> Self {
        let mut out = Self::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        self.kron_into(rhs, &mut out);
        out
    }

    /// Kronecker product `self ⊗ rhs`, written into `out` (allocation
    /// reused).
    ///
    /// Keeps the zero-skip branch: structured operators (embedded gates,
    /// controlled unitaries) are mostly zeros, and skipping a whole
    /// `rhs`-sized tile per zero entry is a large win there — unlike in
    /// the dense matmul path, where the same branch only mispredicts.
    pub fn kron_into(&self, rhs: &Self, out: &mut Self) {
        out.reshape(self.rows * rhs.rows, self.cols * rhs.cols);
        out.data.fill(Complex64::ZERO);
        let oc = out.cols;
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self.data[i * self.cols + j];
                if a == Complex64::ZERO {
                    continue;
                }
                for p in 0..rhs.rows {
                    let base = (i * rhs.rows + p) * oc + j * rhs.cols;
                    let src = &rhs.data[p * rhs.cols..(p + 1) * rhs.cols];
                    for (d, &r) in out.data[base..base + rhs.cols].iter_mut().zip(src) {
                        *d = a * r;
                    }
                }
            }
        }
    }

    /// Trace `Σᵢ Mᵢᵢ`.
    ///
    /// # Panics
    ///
    /// Panics on a non-square matrix.
    pub fn trace(&self) -> Complex64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Hilbert–Schmidt inner product `Tr(self† · rhs)`, computed without
    /// materializing the product.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn hs_inner(&self, rhs: &Self) -> Complex64 {
        assert_eq!(self.rows, rhs.rows, "shape mismatch");
        assert_eq!(self.cols, rhs.cols, "shape mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Frobenius norm `√Σ|Mᵢⱼ|²`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest entry modulus (max norm).
    pub fn max_norm(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Induced 1-norm (maximum absolute column sum), accumulated in one
    /// flat row-major pass.
    pub fn one_norm(&self) -> f64 {
        if self.cols == 0 {
            return 0.0;
        }
        let mut sums = vec![0.0; self.cols];
        for row in self.data.chunks_exact(self.cols) {
            for (s, z) in sums.iter_mut().zip(row) {
                *s += z.abs();
            }
        }
        sums.into_iter().fold(0.0, f64::max)
    }

    /// `true` when every entry of `self - rhs` has modulus ≤ `tol`.
    pub fn approx_eq(&self, rhs: &Self, tol: f64) -> bool {
        self.rows == rhs.rows
            && self.cols == rhs.cols
            && self
                .data
                .iter()
                .zip(&rhs.data)
                .all(|(a, b)| (*a - *b).abs() <= tol)
    }

    /// `true` when `self† · self ≈ I` within `tol` (entrywise).
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        self.dagger()
            .matmul(self)
            .approx_eq(&Self::identity(self.rows), tol)
    }

    /// `true` when `self ≈ self†` within `tol` (entrywise).
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in 0..=i {
                if !(self[(i, j)] - self[(j, i)].conj()).abs().le(&tol) {
                    return false;
                }
            }
        }
        true
    }

    /// `true` when all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|z| z.is_finite())
    }

    /// Embeds a `2^k`-dim operator acting on the listed qubit positions into
    /// an `n`-qubit operator (big-endian qubit order: qubit 0 is the most
    /// significant bit of the index).
    ///
    /// This is the workhorse for turning per-gate matrices into full-block
    /// unitaries.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not `2^k × 2^k` for `k = qubits.len()`, if any
    /// qubit index is `>= n`, or if the qubit list contains duplicates.
    #[must_use]
    pub fn embed(&self, qubits: &[usize], n: usize) -> Self {
        let k = qubits.len();
        let dim_k = 1usize << k;
        assert_eq!(self.rows, dim_k, "operator dim does not match qubit count");
        assert_eq!(self.cols, dim_k, "operator must be square");
        for (idx, &q) in qubits.iter().enumerate() {
            assert!(q < n, "qubit index {q} out of range for {n} qubits");
            assert!(
                !qubits[..idx].contains(&q),
                "duplicate qubit index {q} in embed"
            );
        }
        let dim = 1usize << n;
        let mut out = Self::zeros(dim, dim);
        // Positions of the addressed qubits as bit shifts (big-endian).
        let shifts: Vec<usize> = qubits.iter().map(|&q| n - 1 - q).collect();
        let rest_mask: u64 = {
            let mut m = (1u64 << n) - 1;
            for &s in &shifts {
                m &= !(1u64 << s);
            }
            m
        };
        // Enumerate basis states of the untouched qubits.
        let mut rest_states = Vec::with_capacity(dim >> k);
        for s in 0..dim as u64 {
            if s & !rest_mask == 0 {
                rest_states.push(s);
            }
        }
        for &rest in &rest_states {
            for a in 0..dim_k as u64 {
                for b in 0..dim_k as u64 {
                    let v = self[(a as usize, b as usize)];
                    if v == Complex64::ZERO {
                        continue;
                    }
                    let mut row = rest;
                    let mut col = rest;
                    for (bit, &s) in shifts.iter().enumerate() {
                        if (a >> (k - 1 - bit)) & 1 == 1 {
                            row |= 1 << s;
                        }
                        if (b >> (k - 1 - bit)) & 1 == 1 {
                            col |= 1 << s;
                        }
                    }
                    out[(row as usize, col as usize)] = v;
                }
            }
        }
        out
    }
}

/// Fully unrolled `N×N` product for the tiny operators synthesis touches
/// most. With `N` const the compiler unrolls and vectorizes the whole
/// kernel; no branches, no scratch.
#[inline]
fn mm_unrolled<const N: usize>(a: &[Complex64], b: &[Complex64], o: &mut [Complex64]) {
    for i in 0..N {
        for j in 0..N {
            let mut re = 0.0;
            let mut im = 0.0;
            for k in 0..N {
                let x = a[i * N + k];
                let y = b[k * N + j];
                re += x.re * y.re - x.im * y.im;
                im += x.re * y.im + x.im * y.re;
            }
            o[i * N + j] = c64(re, im);
        }
    }
}

/// Column-tile width of the blocked kernel: two split `f64` accumulator
/// rows of 64 lanes (1 KiB total) stay L1-resident while streaming the
/// packed planes of `b`.
const MM_TILE: usize = 64;

thread_local! {
    /// Scratch for [`mm_blocked`]: split re/im planes of `b` plus the
    /// accumulator tile. Thread-local so `matmul_into` is allocation-free
    /// after warm-up without threading a scratch handle through callers.
    static MM_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Cache-blocked matmul: packs `b` into separate real/imaginary planes so
/// the per-`k` rank-1 update runs on four independent `f64` streams the
/// compiler autovectorizes, and tiles output columns so the split
/// accumulators stay in registers/L1. No zero-skip branch: the inputs on
/// this path are dense unitaries, where the branch only mispredicts.
fn mm_blocked(a: &[Complex64], b: &[Complex64], o: &mut [Complex64], m: usize, kk: usize, n: usize) {
    if m == 0 || n == 0 {
        return;
    }
    if kk == 0 {
        o.fill(Complex64::ZERO);
        return;
    }
    MM_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.resize(2 * kk * n + 2 * MM_TILE, 0.0);
        let (planes, acc) = buf.split_at_mut(2 * kk * n);
        let (bre, bim) = planes.split_at_mut(kk * n);
        let (acc_re, acc_im) = acc.split_at_mut(MM_TILE);
        for (dst, z) in bre.iter_mut().zip(b) {
            *dst = z.re;
        }
        for (dst, z) in bim.iter_mut().zip(b) {
            *dst = z.im;
        }
        for jc in (0..n).step_by(MM_TILE) {
            let tw = MM_TILE.min(n - jc);
            for i in 0..m {
                let arow = &a[i * kk..(i + 1) * kk];
                acc_re[..tw].fill(0.0);
                acc_im[..tw].fill(0.0);
                for (k, x) in arow.iter().enumerate() {
                    let br = &bre[k * n + jc..k * n + jc + tw];
                    let bi = &bim[k * n + jc..k * n + jc + tw];
                    simd::axpy_split(&mut acc_re[..tw], &mut acc_im[..tw], x.re, x.im, br, bi);
                }
                for (dst, (&re, &im)) in o[i * n + jc..i * n + jc + tw]
                    .iter_mut()
                    .zip(acc_re.iter().zip(acc_im.iter()))
                {
                    *dst = c64(re, im);
                }
            }
        }
    });
}

impl Index<(usize, usize)> for Matrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (row, col): (usize, usize)) -> &Complex64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut Complex64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &mut self.data[row * self.cols + col]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: Self) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "shape mismatch");
        assert_eq!(self.cols, rhs.cols, "shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| *a + *b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: Self) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "shape mismatch");
        assert_eq!(self.cols, rhs.cols, "shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| *a - *b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: Self) -> Matrix {
        self.matmul(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scale_re(-1.0)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.rows, rhs.rows, "shape mismatch");
        assert_eq!(self.cols, rhs.cols, "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += *b;
        }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                let z = self[(i, j)];
                write!(f, "{:>7.3}{:+.3}i ", z.re, z.im)?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cx() -> Matrix {
        let o = Complex64::ONE;
        let z = Complex64::ZERO;
        Matrix::from_rows(&[
            &[o, z, z, z],
            &[z, o, z, z],
            &[z, z, z, o],
            &[z, z, o, z],
        ])
    }

    fn pauli_x() -> Matrix {
        let o = Complex64::ONE;
        let z = Complex64::ZERO;
        Matrix::from_rows(&[&[z, o], &[o, z]])
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let m = Matrix::from_fn(3, 3, |i, j| c64(i as f64, j as f64));
        let i3 = Matrix::identity(3);
        assert_eq!(m.matmul(&i3), m);
        assert_eq!(i3.matmul(&m), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[
            &[c64(1.0, 0.0), c64(2.0, 0.0)],
            &[c64(3.0, 0.0), c64(4.0, 0.0)],
        ]);
        let b = Matrix::from_rows(&[
            &[c64(0.0, 1.0), c64(1.0, 0.0)],
            &[c64(1.0, 0.0), c64(0.0, -1.0)],
        ]);
        let p = a.matmul(&b);
        assert!(p[(0, 0)].approx_eq(c64(2.0, 1.0), 1e-12));
        assert!(p[(0, 1)].approx_eq(c64(1.0, -2.0), 1e-12));
        assert!(p[(1, 0)].approx_eq(c64(4.0, 3.0), 1e-12));
        assert!(p[(1, 1)].approx_eq(c64(3.0, -4.0), 1e-12));
    }

    #[test]
    fn dagger_reverses_products() {
        let a = Matrix::from_fn(2, 2, |i, j| c64((i + j) as f64, (i * j) as f64));
        let b = Matrix::from_fn(2, 2, |i, j| c64(j as f64, i as f64 - 1.0));
        let lhs = a.matmul(&b).dagger();
        let rhs = b.dagger().matmul(&a.dagger());
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = pauli_x();
        let i2 = Matrix::identity(2);
        let xi = x.kron(&i2);
        assert_eq!(xi.rows(), 4);
        // X ⊗ I flips the high qubit: |00> -> |10>.
        assert_eq!(xi[(2, 0)], Complex64::ONE);
        assert_eq!(xi[(0, 0)], Complex64::ZERO);
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A⊗B)(C⊗D) = (AC)⊗(BD)
        let a = Matrix::from_fn(2, 2, |i, j| c64(i as f64 + 1.0, j as f64));
        let b = Matrix::from_fn(2, 2, |i, j| c64(j as f64 - 1.0, i as f64));
        let c = Matrix::from_fn(2, 2, |i, j| c64((i * j) as f64, 1.0));
        let d = Matrix::from_fn(2, 2, |i, j| c64(1.0, (i + j) as f64));
        let lhs = a.kron(&b).matmul(&c.kron(&d));
        let rhs = a.matmul(&c).kron(&b.matmul(&d));
        assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn trace_and_hs_inner() {
        let m = Matrix::from_diag(&[c64(1.0, 0.0), c64(0.0, 2.0)]);
        assert!(m.trace().approx_eq(c64(1.0, 2.0), 1e-12));
        // hs_inner(A, A) = ||A||_F^2
        let hs = m.hs_inner(&m);
        assert!(hs.approx_eq(c64(5.0, 0.0), 1e-12));
        assert!((m.frobenius_norm() - 5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn unitary_and_hermitian_checks() {
        assert!(pauli_x().is_unitary(1e-12));
        assert!(pauli_x().is_hermitian(1e-12));
        assert!(cx().is_unitary(1e-12));
        let not_unitary = Matrix::from_diag(&[c64(2.0, 0.0), c64(1.0, 0.0)]);
        assert!(!not_unitary.is_unitary(1e-9));
        assert!(not_unitary.is_hermitian(1e-12));
    }

    #[test]
    fn matvec_matches_matmul() {
        let m = Matrix::from_fn(3, 3, |i, j| c64(i as f64, -(j as f64)));
        let v = vec![c64(1.0, 0.0), c64(0.0, 1.0), c64(-1.0, 2.0)];
        let as_col = Matrix::from_vec(3, 1, v.clone());
        let expect = m.matmul(&as_col);
        let got = m.matvec(&v);
        for i in 0..3 {
            assert!(got[i].approx_eq(expect[(i, 0)], 1e-12));
        }
    }

    #[test]
    fn embed_single_qubit_on_two_qubit_space() {
        let x = pauli_x();
        // X on qubit 0 of 2 (big-endian): X ⊗ I
        let e0 = x.embed(&[0], 2);
        assert!(e0.approx_eq(&x.kron(&Matrix::identity(2)), 1e-12));
        // X on qubit 1 of 2: I ⊗ X
        let e1 = x.embed(&[1], 2);
        assert!(e1.approx_eq(&Matrix::identity(2).kron(&x), 1e-12));
    }

    #[test]
    fn embed_cx_reversed_qubits() {
        // CX with control=1, target=0 on 2 qubits should equal the
        // permuted CX (swap ⊗ conjugation).
        let c = cx();
        let e = c.embed(&[1, 0], 2);
        // |01> -> |11>, |11> -> |01>  (big-endian: q0 high bit, q1 low bit)
        assert_eq!(e[(3, 1)], Complex64::ONE);
        assert_eq!(e[(1, 3)], Complex64::ONE);
        assert_eq!(e[(0, 0)], Complex64::ONE);
        assert_eq!(e[(2, 2)], Complex64::ONE);
        assert!(e.is_unitary(1e-12));
    }

    #[test]
    fn embed_identity_everywhere() {
        let i2 = Matrix::identity(2);
        for n in 1..=4 {
            for q in 0..n {
                assert!(i2.embed(&[q], n).approx_eq(&Matrix::identity(1 << n), 1e-12));
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn embed_rejects_duplicates() {
        let _ = cx().embed(&[0, 0], 2);
    }

    #[test]
    fn one_norm_max_column_sum() {
        let m = Matrix::from_rows(&[
            &[c64(1.0, 0.0), c64(0.0, -3.0)],
            &[c64(0.0, 0.0), c64(4.0, 0.0)],
        ]);
        assert!((m.one_norm() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn add_sub_neg_ops() {
        let a = Matrix::from_fn(2, 2, |i, j| c64(i as f64, j as f64));
        let b = Matrix::identity(2);
        let s = &a + &b;
        let d = &s - &b;
        assert!(d.approx_eq(&a, 1e-12));
        let n = -&a;
        assert!((&a + &n).approx_eq(&Matrix::zeros(2, 2), 1e-12));
    }

    /// The pre-kernel ikj matmul (with its zero-skip branch), kept verbatim
    /// as the oracle the blocked/unrolled kernels are property-tested
    /// against.
    fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.rows, "dimension mismatch");
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for k in 0..a.cols {
                let x = a.data[i * a.cols + k];
                if x == Complex64::ZERO {
                    continue;
                }
                let rrow = &b.data[k * b.cols..(k + 1) * b.cols];
                let orow = &mut out.data[i * b.cols..(i + 1) * b.cols];
                for (o, &r) in orow.iter_mut().zip(rrow) {
                    *o += x * r;
                }
            }
        }
        out
    }

    /// Index-by-index Kronecker product used as the `kron_into` oracle.
    fn kron_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows * b.rows, a.cols * b.cols);
        for i in 0..a.rows {
            for j in 0..a.cols {
                for p in 0..b.rows {
                    for q in 0..b.cols {
                        out[(i * b.rows + p, j * b.cols + q)] = a[(i, j)] * b[(p, q)];
                    }
                }
            }
        }
        out
    }

    fn rand_matrix(g: &mut epoc_rt::check::Gen, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| {
            c64(g.f64_in(-1.0, 1.0), g.f64_in(-1.0, 1.0))
        })
    }

    #[test]
    fn prop_matmul_matches_reference() {
        epoc_rt::check::property("matmul_matches_reference")
            .cases(40)
            .run(|g| {
                let m = g.usize_in(1, 65);
                let k = g.usize_in(1, 65);
                let n = g.usize_in(1, 65);
                let a = rand_matrix(g, m, k);
                let b = rand_matrix(g, k, n);
                let want = matmul_reference(&a, &b);
                assert!(
                    a.matmul(&b).approx_eq(&want, 1e-12),
                    "blocked kernel diverged at {m}x{k}x{n}"
                );
                let mut out = Matrix::zeros(1, 1);
                a.matmul_into(&b, &mut out);
                assert!(
                    out.approx_eq(&want, 1e-12),
                    "matmul_into diverged at {m}x{k}x{n}"
                );
            });
    }

    #[test]
    fn prop_unrolled_sizes_match_reference() {
        epoc_rt::check::property("unrolled_matmul_matches_reference")
            .cases(48)
            .run(|g| {
                for n in [1usize, 2, 4] {
                    let a = rand_matrix(g, n, n);
                    let b = rand_matrix(g, n, n);
                    assert!(
                        a.matmul(&b).approx_eq(&matmul_reference(&a, &b), 1e-12),
                        "unrolled {n}x{n} kernel diverged"
                    );
                }
            });
    }

    #[test]
    fn prop_kron_into_matches_reference() {
        epoc_rt::check::property("kron_into_matches_reference")
            .cases(40)
            .run(|g| {
                let (m, k) = (g.usize_in(1, 9), g.usize_in(1, 9));
                let (p, q) = (g.usize_in(1, 9), g.usize_in(1, 9));
                let a = rand_matrix(g, m, k);
                let b = rand_matrix(g, p, q);
                let want = kron_reference(&a, &b);
                assert!(a.kron(&b).approx_eq(&want, 1e-12));
                let mut out = Matrix::zeros(3, 7);
                a.kron_into(&b, &mut out);
                assert!(out.approx_eq(&want, 1e-12));
            });
    }

    #[test]
    fn prop_matvec_into_matches_reference() {
        epoc_rt::check::property("matvec_into_matches_reference")
            .cases(40)
            .run(|g| {
                let m = g.usize_in(1, 33);
                let k = g.usize_in(1, 33);
                let a = rand_matrix(g, m, k);
                let v: Vec<Complex64> = (0..k)
                    .map(|_| c64(g.f64_in(-1.0, 1.0), g.f64_in(-1.0, 1.0)))
                    .collect();
                let col = Matrix::from_vec(k, 1, v.clone());
                let want = matmul_reference(&a, &col);
                let mut out = Vec::new();
                a.matvec_into(&v, &mut out);
                for (i, got) in out.iter().enumerate() {
                    assert!(got.approx_eq(want[(i, 0)], 1e-12));
                }
            });
    }

    #[test]
    fn prop_simd_and_scalar_paths_agree() {
        // The ISSUE-level contract: with the vector path forced on and
        // forced off, matmul/matvec/kron agree to ≤ 1e-12 on random
        // matrices of dims 2..32 (and in fact bit-identically — the
        // kernels share their rounding sequence by construction).
        epoc_rt::check::property("simd_scalar_paths_agree")
            .cases(24)
            .run(|g| {
                let n = g.usize_in(2, 33);
                let a = rand_matrix(g, n, n);
                let b = rand_matrix(g, n, n);
                let v: Vec<Complex64> = (0..n)
                    .map(|_| c64(g.f64_in(-1.0, 1.0), g.f64_in(-1.0, 1.0)))
                    .collect();

                crate::simd::force_simd(Some(false));
                let mm_s = a.matmul(&b);
                let mv_s = a.matvec(&v);
                let kr_s = a.kron(&b);
                let vector_granted = crate::simd::force_simd(Some(true));
                let mm_v = a.matmul(&b);
                let mv_v = a.matvec(&v);
                let kr_v = a.kron(&b);
                crate::simd::force_simd(None);

                if vector_granted {
                    assert!(mm_s.approx_eq(&mm_v, 1e-12), "matmul paths diverged at n={n}");
                    assert_eq!(mm_s, mm_v, "matmul paths not bit-identical at n={n}");
                    assert_eq!(mv_s, mv_v, "matvec paths not bit-identical at n={n}");
                    assert_eq!(kr_s, kr_v, "kron paths not bit-identical at n={n}");
                }
                // Whatever the path, the reference oracle must agree.
                assert!(mm_v.approx_eq(&matmul_reference(&a, &b), 1e-12));
            });
    }

    #[test]
    fn workspace_reuse_across_shapes() {
        // Shrinking and growing the same `out` through mixed shapes must
        // stay correct: `reshape` reuses the allocation.
        let mut out = Matrix::zeros(1, 1);
        for n in [6usize, 2, 4, 17, 3, 64, 5] {
            let a = Matrix::from_fn(n, n, |i, j| c64(i as f64 - 0.5, j as f64 * 0.25));
            let b = Matrix::from_fn(n, n, |i, j| c64(j as f64 * 0.5, -(i as f64)));
            a.matmul_into(&b, &mut out);
            assert!(out.approx_eq(&matmul_reference(&a, &b), 1e-10), "n = {n}");
        }
    }

    #[test]
    fn zero_inner_dimension_product_is_zero() {
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 3);
        let p = a.matmul(&b);
        assert_eq!((p.rows(), p.cols()), (2, 3));
        assert!(p.approx_eq(&Matrix::zeros(2, 3), 0.0));
    }

    #[test]
    fn dagger_into_and_copy_from() {
        let a = Matrix::from_fn(3, 2, |i, j| c64(i as f64, j as f64 + 0.5));
        let mut d = Matrix::zeros(1, 1);
        a.dagger_into(&mut d);
        assert!(d.approx_eq(&a.dagger(), 1e-15));

        let mut s = Matrix::zeros(1, 1);
        s.copy_from(&a);
        assert!(s.approx_eq(&a, 0.0));
    }
}
