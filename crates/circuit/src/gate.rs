//! The quantum gate set.
//!
//! [`Gate`] covers the gates QASMBench-style circuits use (Paulis, Clifford
//! generators, parameterized rotations, controlled gates, Toffoli family)
//! plus [`Gate::Unitary`] — an opaque k-qubit unitary block. Opaque blocks
//! are how synthesized *variable unitary gates* (VUGs) and regrouped blocks
//! flow through the same circuit IR as elementary gates.
//!
//! Qubit-order convention: **big-endian** — in an n-qubit operator, qubit 0
//! is the most significant bit of the basis-state index. This matches
//! `epoc_linalg::Matrix::embed`.

use epoc_linalg::{c64, Complex64, Matrix};
use std::f64::consts::{FRAC_1_SQRT_2, FRAC_PI_2, FRAC_PI_4};
use std::fmt;
use std::sync::Arc;

/// A quantum gate (possibly parameterized), including opaque unitary blocks.
///
/// # Examples
///
/// ```
/// use epoc_circuit::Gate;
///
/// assert_eq!(Gate::H.arity(), 1);
/// assert_eq!(Gate::CX.arity(), 2);
/// assert!(Gate::RZ(0.3).unitary_matrix().is_unitary(1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// Identity.
    I,
    /// Pauli-X (NOT).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = √Z.
    S,
    /// Inverse phase gate S†.
    Sdg,
    /// T = √S.
    T,
    /// T†.
    Tdg,
    /// √X (the transmon-native SX gate).
    Sx,
    /// (√X)†.
    Sxdg,
    /// Rotation about X by the given angle (radians).
    RX(f64),
    /// Rotation about Y by the given angle (radians).
    RY(f64),
    /// Rotation about Z by the given angle (radians).
    RZ(f64),
    /// Phase gate diag(1, e^{iλ}).
    Phase(f64),
    /// IBM U2(φ, λ) gate.
    U2(f64, f64),
    /// IBM U3(θ, φ, λ) general single-qubit gate.
    U3(f64, f64, f64),
    /// Controlled-X (CNOT): qubit 0 control, qubit 1 target.
    CX,
    /// Controlled-Y.
    CY,
    /// Controlled-Z.
    CZ,
    /// Controlled-H.
    CH,
    /// Controlled-RX.
    CRX(f64),
    /// Controlled-RY.
    CRY(f64),
    /// Controlled-RZ.
    CRZ(f64),
    /// Controlled phase diag(1,1,1,e^{iλ}).
    CPhase(f64),
    /// Two-qubit ZZ interaction exp(-i θ/2 Z⊗Z).
    RZZ(f64),
    /// Two-qubit XX interaction exp(-i θ/2 X⊗X).
    RXX(f64),
    /// SWAP.
    Swap,
    /// Toffoli (CCX): qubits 0,1 controls, qubit 2 target.
    CCX,
    /// Controlled-controlled-Z.
    CCZ,
    /// Controlled-SWAP (Fredkin).
    CSwap,
    /// An opaque k-qubit unitary block (VUG or regrouped block).
    ///
    /// The label is carried for display; the matrix must be `2^k × 2^k`.
    Unitary {
        /// Display label, e.g. `"vug"` or `"blk3"`.
        label: String,
        /// The unitary matrix (shared so circuits clone cheaply).
        matrix: Arc<Matrix>,
    },
}

impl Gate {
    /// Creates an opaque unitary block gate.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` is not square with a power-of-two dimension ≥ 2.
    pub fn unitary(label: impl Into<String>, matrix: Matrix) -> Self {
        assert!(matrix.is_square(), "block unitary must be square");
        let d = matrix.rows();
        assert!(d >= 2 && d.is_power_of_two(), "dimension must be 2^k, k>=1");
        Gate::Unitary {
            label: label.into(),
            matrix: Arc::new(matrix),
        }
    }

    /// Number of qubits the gate acts on.
    pub fn arity(&self) -> usize {
        use Gate::*;
        match self {
            I | X | Y | Z | H | S | Sdg | T | Tdg | Sx | Sxdg | RX(_) | RY(_) | RZ(_)
            | Phase(_) | U2(_, _) | U3(_, _, _) => 1,
            CX | CY | CZ | CH | CRX(_) | CRY(_) | CRZ(_) | CPhase(_) | RZZ(_) | RXX(_) | Swap => 2,
            CCX | CCZ | CSwap => 3,
            Unitary { matrix, .. } => (matrix.rows().trailing_zeros()) as usize,
        }
    }

    /// The gate's unitary matrix (dimension `2^arity`).
    pub fn unitary_matrix(&self) -> Matrix {
        use Gate::*;
        let o = Complex64::ONE;
        let z = Complex64::ZERO;
        let i = Complex64::I;
        match self {
            I => Matrix::identity(2),
            X => Matrix::from_rows(&[&[z, o], &[o, z]]),
            Y => Matrix::from_rows(&[&[z, -i], &[i, z]]),
            Z => Matrix::from_diag(&[o, -o]),
            H => {
                let s = c64(FRAC_1_SQRT_2, 0.0);
                Matrix::from_rows(&[&[s, s], &[s, -s]])
            }
            S => Matrix::from_diag(&[o, i]),
            Sdg => Matrix::from_diag(&[o, -i]),
            T => Matrix::from_diag(&[o, Complex64::cis(FRAC_PI_4)]),
            Tdg => Matrix::from_diag(&[o, Complex64::cis(-FRAC_PI_4)]),
            Sx => {
                let p = c64(0.5, 0.5);
                let m = c64(0.5, -0.5);
                Matrix::from_rows(&[&[p, m], &[m, p]])
            }
            Sxdg => {
                let p = c64(0.5, 0.5);
                let m = c64(0.5, -0.5);
                Matrix::from_rows(&[&[m, p], &[p, m]])
            }
            RX(t) => rot_matrix(*t, &Matrix::from_rows(&[&[z, o], &[o, z]])),
            RY(t) => rot_matrix(*t, &Matrix::from_rows(&[&[z, -i], &[i, z]])),
            RZ(t) => Matrix::from_diag(&[Complex64::cis(-t / 2.0), Complex64::cis(t / 2.0)]),
            Phase(l) => Matrix::from_diag(&[o, Complex64::cis(*l)]),
            U2(phi, lam) => u3_matrix(FRAC_PI_2, *phi, *lam),
            U3(t, phi, lam) => u3_matrix(*t, *phi, *lam),
            CX => controlled(&X.unitary_matrix()),
            CY => controlled(&Y.unitary_matrix()),
            CZ => controlled(&Z.unitary_matrix()),
            CH => controlled(&H.unitary_matrix()),
            CRX(t) => controlled(&RX(*t).unitary_matrix()),
            CRY(t) => controlled(&RY(*t).unitary_matrix()),
            CRZ(t) => controlled(&RZ(*t).unitary_matrix()),
            CPhase(l) => controlled(&Phase(*l).unitary_matrix()),
            RZZ(t) => Matrix::from_diag(&[
                Complex64::cis(-t / 2.0),
                Complex64::cis(t / 2.0),
                Complex64::cis(t / 2.0),
                Complex64::cis(-t / 2.0),
            ]),
            RXX(t) => {
                let c = c64((t / 2.0).cos(), 0.0);
                let s = c64(0.0, -(t / 2.0).sin());
                Matrix::from_rows(&[
                    &[c, z, z, s],
                    &[z, c, s, z],
                    &[z, s, c, z],
                    &[s, z, z, c],
                ])
            }
            Swap => Matrix::from_rows(&[
                &[o, z, z, z],
                &[z, z, o, z],
                &[z, o, z, z],
                &[z, z, z, o],
            ]),
            CCX => controlled(&CX.unitary_matrix()),
            CCZ => controlled(&CZ.unitary_matrix()),
            CSwap => controlled(&Swap.unitary_matrix()),
            Unitary { matrix, .. } => (**matrix).clone(),
        }
    }

    /// The inverse gate.
    pub fn inverse(&self) -> Gate {
        use Gate::*;
        match self {
            I | X | Y | Z | H | CX | CY | CZ | CH | Swap | CCX | CCZ | CSwap => self.clone(),
            S => Sdg,
            Sdg => S,
            T => Tdg,
            Tdg => T,
            Sx => Sxdg,
            Sxdg => Sx,
            RX(t) => RX(-t),
            RY(t) => RY(-t),
            RZ(t) => RZ(-t),
            Phase(l) => Phase(-l),
            U2(phi, lam) => U3(-FRAC_PI_2, -lam, -phi),
            U3(t, phi, lam) => U3(-t, -lam, -phi),
            CRX(t) => CRX(-t),
            CRY(t) => CRY(-t),
            CRZ(t) => CRZ(-t),
            CPhase(l) => CPhase(-l),
            RZZ(t) => RZZ(-t),
            RXX(t) => RXX(-t),
            Unitary { label, matrix } => Unitary {
                label: format!("{label}†"),
                matrix: Arc::new(matrix.dagger()),
            },
        }
    }

    /// `true` for gates diagonal in the computational basis.
    pub fn is_diagonal(&self) -> bool {
        use Gate::*;
        matches!(
            self,
            I | Z | S | Sdg | T | Tdg | RZ(_) | Phase(_) | CZ | CRZ(_) | CPhase(_) | RZZ(_) | CCZ
        )
    }

    /// `true` for Clifford gates (at any parameter value for rotations,
    /// only the exact gate variants count).
    pub fn is_clifford(&self) -> bool {
        use Gate::*;
        matches!(self, I | X | Y | Z | H | S | Sdg | Sx | Sxdg | CX | CY | CZ | Swap)
    }

    /// The QASM-style mnemonic (lower case).
    pub fn name(&self) -> &'static str {
        use Gate::*;
        match self {
            I => "id",
            X => "x",
            Y => "y",
            Z => "z",
            H => "h",
            S => "s",
            Sdg => "sdg",
            T => "t",
            Tdg => "tdg",
            Sx => "sx",
            Sxdg => "sxdg",
            RX(_) => "rx",
            RY(_) => "ry",
            RZ(_) => "rz",
            Phase(_) => "p",
            U2(_, _) => "u2",
            U3(_, _, _) => "u3",
            CX => "cx",
            CY => "cy",
            CZ => "cz",
            CH => "ch",
            CRX(_) => "crx",
            CRY(_) => "cry",
            CRZ(_) => "crz",
            CPhase(_) => "cp",
            RZZ(_) => "rzz",
            RXX(_) => "rxx",
            Swap => "swap",
            CCX => "ccx",
            CCZ => "ccz",
            CSwap => "cswap",
            Unitary { .. } => "unitary",
        }
    }

    /// The gate's rotation/phase parameters, if any.
    pub fn params(&self) -> Vec<f64> {
        let (params, n) = self.param_array();
        params[..n].to_vec()
    }

    /// The parameters in a fixed array and how many of its slots are used
    /// (no allocation, for hot paths).
    fn param_array(&self) -> ([f64; 3], usize) {
        use Gate::*;
        match self {
            RX(t) | RY(t) | RZ(t) | Phase(t) | CRX(t) | CRY(t) | CRZ(t) | CPhase(t) | RZZ(t)
            | RXX(t) => ([*t, 0.0, 0.0], 1),
            U2(a, b) => ([*a, *b, 0.0], 2),
            U3(a, b, c) => ([*a, *b, *c], 3),
            _ => ([0.0; 3], 0),
        }
    }

    /// Folds the exact gate into hash state `h` (see
    /// [`epoc_rt::faults::mix`]): its mnemonic, every parameter's bit
    /// pattern (so `0.0` and `-0.0` differ), and an opaque block's label
    /// and matrix entries.
    pub(crate) fn fold_hash(&self, h: u64) -> u64 {
        let mnemonic = self.name().bytes().fold(0u64, |t, b| t << 8 | u64::from(b));
        let mut h = epoc_rt::faults::mix(h, mnemonic);
        let (params, n) = self.param_array();
        for p in &params[..n] {
            h = epoc_rt::faults::mix_f64(h, *p);
        }
        if let Gate::Unitary { label, matrix } = self {
            for b in label.bytes() {
                h = epoc_rt::faults::mix(h, u64::from(b));
            }
            for z in matrix.as_slice() {
                h = epoc_rt::faults::mix_f64(epoc_rt::faults::mix_f64(h, z.re), z.im);
            }
        }
        h
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Gate::Unitary { label, matrix } = self {
            return write!(f, "{label}[{}q]", matrix.rows().trailing_zeros());
        }
        let p = self.params();
        if p.is_empty() {
            write!(f, "{}", self.name())
        } else {
            let args: Vec<String> = p.iter().map(|x| format!("{x:.6}")).collect();
            write!(f, "{}({})", self.name(), args.join(","))
        }
    }
}

/// `exp(-i θ/2 P)` for an involutory generator `P` (`P² = I`).
fn rot_matrix(theta: f64, p: &Matrix) -> Matrix {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    let n = p.rows();
    let mut out = Matrix::identity(n).scale(c64(c, 0.0));
    let ip = p.scale(c64(0.0, -s));
    out += &ip;
    out
}

/// IBM-convention U3 matrix.
fn u3_matrix(theta: f64, phi: f64, lam: f64) -> Matrix {
    let ct = c64((theta / 2.0).cos(), 0.0);
    let st = c64((theta / 2.0).sin(), 0.0);
    Matrix::from_rows(&[
        &[ct, -(Complex64::cis(lam) * st)],
        &[Complex64::cis(phi) * st, Complex64::cis(phi + lam) * ct],
    ])
}

/// Controlled version of `u` with the new control as the top (most
/// significant) qubit: `|0⟩⟨0|⊗I + |1⟩⟨1|⊗u`.
pub fn controlled(u: &Matrix) -> Matrix {
    let d = u.rows();
    let mut out = Matrix::identity(2 * d);
    for r in 0..d {
        for c in 0..d {
            out[(d + r, d + c)] = u[(r, c)];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use epoc_linalg::approx_eq_up_to_phase;
    use std::f64::consts::PI;

    const TOL: f64 = 1e-12;

    fn check_unitary(g: Gate) {
        let u = g.unitary_matrix();
        assert!(u.is_unitary(TOL), "{g} is not unitary");
        assert_eq!(u.rows(), 1 << g.arity(), "{g} has wrong dimension");
    }

    #[test]
    fn all_gates_are_unitary() {
        let gates = vec![
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Sx,
            Gate::Sxdg,
            Gate::RX(0.3),
            Gate::RY(-1.1),
            Gate::RZ(2.2),
            Gate::Phase(0.7),
            Gate::U2(0.1, 0.2),
            Gate::U3(1.0, 0.5, -0.5),
            Gate::CX,
            Gate::CY,
            Gate::CZ,
            Gate::CH,
            Gate::CRX(0.4),
            Gate::CRY(0.4),
            Gate::CRZ(0.4),
            Gate::CPhase(1.3),
            Gate::RZZ(0.8),
            Gate::RXX(0.8),
            Gate::Swap,
            Gate::CCX,
            Gate::CCZ,
            Gate::CSwap,
        ];
        for g in gates {
            check_unitary(g);
        }
    }

    #[test]
    fn inverses_cancel() {
        let gates = vec![
            Gate::H,
            Gate::S,
            Gate::T,
            Gate::Sx,
            Gate::RX(0.7),
            Gate::RZ(-2.0),
            Gate::U2(0.4, 1.1),
            Gate::U3(0.9, 0.2, -0.3),
            Gate::CRZ(0.5),
            Gate::CPhase(0.5),
            Gate::RZZ(1.0),
            Gate::RXX(-0.6),
            Gate::CCX,
        ];
        for g in gates {
            let u = g.unitary_matrix();
            let v = g.inverse().unitary_matrix();
            let prod = u.matmul(&v);
            assert!(
                approx_eq_up_to_phase(&prod, &Matrix::identity(u.rows()), 1e-7),
                "{g} inverse fails"
            );
        }
    }

    #[test]
    fn algebraic_identities() {
        // HH = I, SS = Z, TT = S, SxSx = X
        let h = Gate::H.unitary_matrix();
        assert!(h.matmul(&h).approx_eq(&Matrix::identity(2), TOL));
        let s = Gate::S.unitary_matrix();
        assert!(s.matmul(&s).approx_eq(&Gate::Z.unitary_matrix(), TOL));
        let t = Gate::T.unitary_matrix();
        assert!(t.matmul(&t).approx_eq(&s, TOL));
        let sx = Gate::Sx.unitary_matrix();
        assert!(sx.matmul(&sx).approx_eq(&Gate::X.unitary_matrix(), TOL));
    }

    #[test]
    fn hzh_is_x() {
        let h = Gate::H.unitary_matrix();
        let z = Gate::Z.unitary_matrix();
        let x = Gate::X.unitary_matrix();
        assert!(h.matmul(&z).matmul(&h).approx_eq(&x, TOL));
    }

    #[test]
    fn rz_matches_phase_up_to_global_phase() {
        let theta = 0.9;
        let rz = Gate::RZ(theta).unitary_matrix();
        let p = Gate::Phase(theta).unitary_matrix();
        assert!(approx_eq_up_to_phase(&rz, &p, 1e-7));
    }

    #[test]
    fn u3_special_cases() {
        // U3(π/2, 0, π) = H (up to global phase... actually exactly H).
        let u = Gate::U3(FRAC_PI_2, 0.0, PI).unitary_matrix();
        assert!(u.approx_eq(&Gate::H.unitary_matrix(), 1e-12));
        // U3(θ, -π/2, π/2) = RX(θ)
        let t = 0.77;
        let u = Gate::U3(t, -FRAC_PI_2, FRAC_PI_2).unitary_matrix();
        assert!(u.approx_eq(&Gate::RX(t).unitary_matrix(), 1e-12));
        // U3(θ, 0, 0) = RY(θ)
        let u = Gate::U3(t, 0.0, 0.0).unitary_matrix();
        assert!(u.approx_eq(&Gate::RY(t).unitary_matrix(), 1e-12));
    }

    #[test]
    fn cx_truth_table() {
        let cx = Gate::CX.unitary_matrix();
        // |10> -> |11>, |11> -> |10> (control = high bit)
        assert_eq!(cx[(3, 2)], Complex64::ONE);
        assert_eq!(cx[(2, 3)], Complex64::ONE);
        assert_eq!(cx[(0, 0)], Complex64::ONE);
        assert_eq!(cx[(1, 1)], Complex64::ONE);
    }

    #[test]
    fn ccx_truth_table() {
        let u = Gate::CCX.unitary_matrix();
        // Only |110> <-> |111> swap.
        assert_eq!(u[(7, 6)], Complex64::ONE);
        assert_eq!(u[(6, 7)], Complex64::ONE);
        for k in 0..6 {
            assert_eq!(u[(k, k)], Complex64::ONE);
        }
    }

    #[test]
    fn swap_conjugates_cx() {
        // SWAP · CX(0→1) · SWAP = CX(1→0)
        let sw = Gate::Swap.unitary_matrix();
        let cx = Gate::CX.unitary_matrix();
        let flipped = sw.matmul(&cx).matmul(&sw);
        let expect = Gate::CX.unitary_matrix().embed(&[1, 0], 2);
        assert!(flipped.approx_eq(&expect, TOL));
    }

    #[test]
    fn rzz_is_diagonal_and_symmetric() {
        let g = Gate::RZZ(1.2);
        assert!(g.is_diagonal());
        let u = g.unitary_matrix();
        let sw = Gate::Swap.unitary_matrix();
        assert!(sw.matmul(&u).matmul(&sw).approx_eq(&u, TOL));
    }

    #[test]
    fn opaque_unitary_round_trip() {
        let m = Gate::CX.unitary_matrix();
        let g = Gate::unitary("blk", m.clone());
        assert_eq!(g.arity(), 2);
        assert!(g.unitary_matrix().approx_eq(&m, 0.0));
        assert_eq!(g.to_string(), "blk[2q]");
        let inv = g.inverse();
        assert!(inv
            .unitary_matrix()
            .matmul(&m)
            .approx_eq(&Matrix::identity(4), TOL));
    }

    #[test]
    #[should_panic(expected = "dimension must be 2^k")]
    fn opaque_unitary_rejects_bad_dim() {
        let _ = Gate::unitary("bad", Matrix::identity(3));
    }

    #[test]
    fn clifford_and_diagonal_classification() {
        assert!(Gate::H.is_clifford());
        assert!(!Gate::T.is_clifford());
        assert!(Gate::T.is_diagonal());
        assert!(!Gate::H.is_diagonal());
        assert!(Gate::CZ.is_diagonal());
        assert!(Gate::CZ.is_clifford());
    }

    #[test]
    fn display_includes_params() {
        assert_eq!(Gate::H.to_string(), "h");
        assert!(Gate::RX(0.5).to_string().starts_with("rx(0.5"));
    }
}
