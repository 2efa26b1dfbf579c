//! # epoc-linalg — complex dense linear algebra for the EPOC pulse compiler
//!
//! The numerical substrate of the EPOC reproduction: complex scalars, dense
//! matrices, Hermitian eigendecomposition, matrix exponentials, and
//! unitary-specific metrics (phase-invariant fidelity/distance, pulse-cache
//! fingerprints).
//!
//! Everything is implemented from scratch on `f64` — no external numerics
//! crates — because the unitaries a pulse compiler handles are small (2×2 up
//! to ~256×256 for 8-qubit blocks) and an auditable self-contained core is
//! worth more than peak FLOPs here.
//!
//! ## Quick tour
//!
//! ```
//! use epoc_linalg::{c64, Matrix, expm_ih, phase_invariant_distance};
//!
//! // Build the Pauli-X Hamiltonian and evolve for t = π/2:
//! let x = Matrix::from_rows(&[
//!     &[c64(0.0, 0.0), c64(1.0, 0.0)],
//!     &[c64(1.0, 0.0), c64(0.0, 0.0)],
//! ]);
//! let u = expm_ih(&x, std::f64::consts::FRAC_PI_2)?; // = -i·X
//! assert!(phase_invariant_distance(&u, &x) < 1e-7);   // X up to global phase
//! # Ok::<(), epoc_linalg::EigError>(())
//! ```

#![warn(missing_docs)]

mod complex;
mod eig;
mod expm;
mod matrix;
mod random;
mod simd;
mod unitary;

pub use complex::{c64, Complex64};
pub use eig::{eigh, eigh_into, eigh_warm_into, EigError, HermitianEig};
pub use simd::{force_simd, mix_adjacent, mix_pair, mixed_pair_trace, simd_active};
pub use expm::{expm, expm_hermitian_propagator, expm_ih, inverse, solve};
pub use matrix::Matrix;
pub use random::{random_gaussian_matrix, random_hermitian, random_unitary};
pub use unitary::{
    approx_eq_up_to_phase, average_gate_fidelity, canonicalize_phase, phase_invariant_distance,
    phase_invariant_fidelity, relative_phase, PhaseSensitiveKey, UnitaryKey,
};
