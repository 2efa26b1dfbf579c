//! # epoc-synth — numerical circuit synthesis (QSearch/BQSKit-style)
//!
//! The paper's Algorithm 2: A* heuristic search over circuit templates of
//! *variable unitary gates* (VUGs) and CNOTs, with numerical instantiation
//! of the VUG parameters by Adam on an analytic gradient of the
//! phase-invariant Hilbert–Schmidt cost.
//!
//! ## Example
//!
//! ```
//! use epoc_circuit::Gate;
//! use epoc_synth::{synthesize, SynthConfig};
//!
//! let result = synthesize(&Gate::CZ.unitary_matrix(), &SynthConfig::default()).unwrap();
//! assert!(result.converged);
//! assert!(result.cnots <= 2);
//! ```

#![warn(missing_docs)]

mod search;
mod template;

pub use search::{
    lower_to_vug_form, synthesize, synthesize_or_fallback, synthesize_with_cancel, SynthConfig,
    SynthError, SynthResult,
};
pub use template::{Axis, InstantiateOptions, Segment, Template};

use epoc_circuit::Gate;
use epoc_linalg::Matrix;

/// Classifies a 2×2 unitary as the cheapest gate that implements it:
///
/// * ≈ identity (up to phase) → `None` (no gate at all);
/// * diagonal (up to phase) → a virtual [`Gate::RZ`] (free on transmons);
/// * anything else → an opaque 1-qubit VUG.
pub fn vug_gate(u: &Matrix) -> Option<Gate> {
    const TOL: f64 = 1e-8;
    if epoc_linalg::phase_invariant_distance(u, &Matrix::identity(2)) < TOL {
        return None;
    }
    if u[(0, 1)].abs() < TOL && u[(1, 0)].abs() < TOL {
        let angle = u[(1, 1)].arg() - u[(0, 0)].arg();
        return Some(Gate::RZ(angle));
    }
    Some(Gate::unitary("vug", u.clone()))
}
