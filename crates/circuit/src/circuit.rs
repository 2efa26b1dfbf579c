//! Circuit IR: an ordered list of gate applications on an n-qubit register.

use crate::gate::Gate;
use epoc_linalg::Matrix;
use std::fmt;

/// One gate applied to specific qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    /// The gate.
    pub gate: Gate,
    /// Target qubit indices, in the gate's own qubit order
    /// (e.g. `[control, target]` for [`Gate::CX`]).
    pub qubits: Vec<usize>,
}

impl Operation {
    /// Creates an operation, validating qubit count and uniqueness.
    ///
    /// # Panics
    ///
    /// Panics if the qubit list length does not match the gate arity or
    /// contains duplicates.
    pub fn new(gate: Gate, qubits: Vec<usize>) -> Self {
        assert_eq!(
            qubits.len(),
            gate.arity(),
            "gate {gate} expects {} qubits, got {}",
            gate.arity(),
            qubits.len()
        );
        for (i, q) in qubits.iter().enumerate() {
            assert!(
                !qubits[..i].contains(q),
                "duplicate qubit {q} in operation {gate}"
            );
        }
        Self { gate, qubits }
    }

    /// Largest qubit index touched.
    pub fn max_qubit(&self) -> usize {
        *self.qubits.iter().max().expect("operations touch >=1 qubit")
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let qs: Vec<String> = self.qubits.iter().map(|q| format!("q[{q}]")).collect();
        write!(f, "{} {}", self.gate, qs.join(","))
    }
}

/// A quantum circuit: a gate sequence over `n` qubits.
///
/// # Examples
///
/// ```
/// use epoc_circuit::{Circuit, Gate};
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::H, &[0]);
/// c.push(Gate::CX, &[0, 1]);
/// assert_eq!(c.depth(), 2);
/// assert!(c.unitary().is_unitary(1e-10));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    n_qubits: usize,
    ops: Vec<Operation>,
}

impl Circuit {
    /// Creates an empty circuit on `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        Self {
            n_qubits,
            ops: Vec::new(),
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of operations (gates).
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the circuit has no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations in program order.
    #[inline]
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// A 64-bit fingerprint of the exact circuit: the register width and,
    /// per operation, the gate's mnemonic, its parameters' bit patterns
    /// (so `0.0` and `-0.0` differ), an opaque block's label and matrix
    /// entries, and the qubit list. Bit-for-bit equal circuits have equal
    /// fingerprints; a memo keyed on it still compares the circuits in
    /// full, since distinct circuits may collide.
    pub fn fingerprint(&self) -> u64 {
        let mut h = epoc_rt::faults::mix(0, self.n_qubits as u64);
        for op in &self.ops {
            h = op.gate.fold_hash(h);
            for &q in &op.qubits {
                h = epoc_rt::faults::mix(h, q as u64);
            }
        }
        h
    }

    /// Appends a gate application.
    ///
    /// # Panics
    ///
    /// Panics if a qubit index is out of range, the qubit list has the
    /// wrong length, or it contains duplicates.
    pub fn push(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        for &q in qubits {
            assert!(q < self.n_qubits, "qubit {q} out of range ({} qubits)", self.n_qubits);
        }
        self.ops.push(Operation::new(gate, qubits.to_vec()));
        self
    }

    /// Appends an already-built operation.
    ///
    /// # Panics
    ///
    /// Panics if a qubit index is out of range.
    pub fn push_op(&mut self, op: Operation) -> &mut Self {
        assert!(op.max_qubit() < self.n_qubits, "operation out of range");
        self.ops.push(op);
        self
    }

    /// Appends all operations of `other` (same register size required).
    ///
    /// # Panics
    ///
    /// Panics if `other` addresses qubits beyond this circuit's register.
    pub fn extend(&mut self, other: &Circuit) -> &mut Self {
        for op in &other.ops {
            self.push_op(op.clone());
        }
        self
    }

    /// Appends `other` with its qubit `i` mapped to `mapping[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the mapping is too short or maps out of range.
    pub fn extend_mapped(&mut self, other: &Circuit, mapping: &[usize]) -> &mut Self {
        assert!(
            mapping.len() >= other.n_qubits(),
            "mapping shorter than sub-circuit register"
        );
        for op in &other.ops {
            let qubits: Vec<usize> = op.qubits.iter().map(|&q| mapping[q]).collect();
            self.push(op.gate.clone(), &qubits);
        }
        self
    }

    /// The inverse circuit (reversed gate order, inverted gates).
    pub fn inverse(&self) -> Circuit {
        let mut inv = Circuit::new(self.n_qubits);
        for op in self.ops.iter().rev() {
            inv.push(op.gate.inverse(), &op.qubits);
        }
        inv
    }

    /// Circuit depth: the longest chain of gates sharing qubits
    /// (ASAP-layered; an empty circuit has depth 0).
    pub fn depth(&self) -> usize {
        let mut frontier = vec![0usize; self.n_qubits];
        let mut depth = 0;
        for op in &self.ops {
            let layer = op.qubits.iter().map(|&q| frontier[q]).max().unwrap_or(0) + 1;
            for &q in &op.qubits {
                frontier[q] = layer;
            }
            depth = depth.max(layer);
        }
        depth
    }

    /// Count of gates matching a predicate.
    pub fn count_gates(&self, pred: impl Fn(&Gate) -> bool) -> usize {
        self.ops.iter().filter(|op| pred(&op.gate)).count()
    }

    /// The circuit's unitary matrix (dimension `2^n`).
    ///
    /// Gate order: the first pushed gate is applied first, so
    /// `U = U_k ⋯ U_2 · U_1`.
    ///
    /// # Panics
    ///
    /// Panics for registers larger than 12 qubits (4096×4096 — beyond that,
    /// dense evaluation is a programming error, use the simulator).
    pub fn unitary(&self) -> Matrix {
        assert!(
            self.n_qubits <= 12,
            "dense unitary limited to 12 qubits, circuit has {}",
            self.n_qubits
        );
        let dim = 1usize << self.n_qubits;
        let mut u = Matrix::identity(dim);
        for op in &self.ops {
            let g = op.gate.unitary_matrix().embed(&op.qubits, self.n_qubits);
            u = g.matmul(&u);
        }
        u
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit({} qubits, {} gates, depth {})",
            self.n_qubits,
            self.ops.len(),
            self.depth()
        )?;
        for op in &self.ops {
            writeln!(f, "  {op}")?;
        }
        Ok(())
    }
}

impl Extend<Operation> for Circuit {
    fn extend<T: IntoIterator<Item = Operation>>(&mut self, iter: T) {
        for op in iter {
            self.push_op(op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epoc_linalg::approx_eq_up_to_phase;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]).push(Gate::CX, &[0, 1]);
        c
    }

    #[test]
    fn empty_circuit() {
        let c = Circuit::new(3);
        assert!(c.is_empty());
        assert_eq!(c.depth(), 0);
        assert!(c.unitary().approx_eq(&Matrix::identity(8), 1e-12));
    }

    #[test]
    fn depth_accounts_for_parallelism() {
        let mut c = Circuit::new(4);
        c.push(Gate::H, &[0])
            .push(Gate::H, &[1])
            .push(Gate::H, &[2])
            .push(Gate::H, &[3]);
        assert_eq!(c.depth(), 1);
        c.push(Gate::CX, &[0, 1]).push(Gate::CX, &[2, 3]);
        assert_eq!(c.depth(), 2);
        c.push(Gate::CX, &[1, 2]);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn bell_state_unitary() {
        let u = bell().unitary();
        // Column 0 = (|00> + |11>)/√2
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!((u[(0, 0)].re - s).abs() < 1e-12);
        assert!((u[(3, 0)].re - s).abs() < 1e-12);
        assert!(u[(1, 0)].abs() < 1e-12);
        assert!(u[(2, 0)].abs() < 1e-12);
    }

    #[test]
    fn inverse_cancels() {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0])
            .push(Gate::T, &[1])
            .push(Gate::CX, &[0, 2])
            .push(Gate::RZ(0.3), &[2])
            .push(Gate::CCX, &[0, 1, 2]);
        let prod = c.inverse().unitary().matmul(&c.unitary());
        assert!(approx_eq_up_to_phase(&prod, &Matrix::identity(8), 1e-7));
    }

    #[test]
    fn gate_order_matters() {
        // X then H on one qubit: U = H·X
        let mut c = Circuit::new(1);
        c.push(Gate::X, &[0]).push(Gate::H, &[0]);
        let expect = Gate::H.unitary_matrix().matmul(&Gate::X.unitary_matrix());
        assert!(c.unitary().approx_eq(&expect, 1e-12));
    }

    #[test]
    fn extend_mapped_applies_mapping() {
        let sub = bell();
        let mut big = Circuit::new(4);
        big.extend_mapped(&sub, &[2, 3]);
        assert_eq!(big.ops()[0].qubits, vec![2]);
        assert_eq!(big.ops()[1].qubits, vec![2, 3]);
    }

    #[test]
    fn counting_helpers() {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0])
            .push(Gate::CX, &[0, 1])
            .push(Gate::CX, &[1, 2])
            .push(Gate::T, &[2]);
        assert_eq!(c.count_gates(|g| matches!(g, Gate::T)), 1);
        assert_eq!(c.count_gates(|g| g.arity() == 2), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_out_of_range() {
        Circuit::new(2).push(Gate::H, &[2]);
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn push_rejects_duplicates() {
        Circuit::new(2).push(Gate::CX, &[1, 1]);
    }

    #[test]
    fn display_shows_shape() {
        let text = bell().to_string();
        assert!(text.contains("2 qubits"));
        assert!(text.contains("cx q[0],q[1]"));
    }

    #[test]
    fn fingerprint_sees_gates_parameter_bits_and_qubits() {
        let fp = |ops: &[(Gate, &[usize])]| {
            let mut c = Circuit::new(3);
            for (gate, qubits) in ops {
                c.push(gate.clone(), qubits);
            }
            c.fingerprint()
        };
        let base = fp(&[(Gate::RZ(0.0), &[0]), (Gate::CX, &[0, 1])]);
        assert_eq!(base, fp(&[(Gate::RZ(0.0), &[0]), (Gate::CX, &[0, 1])]));
        let variants = [
            fp(&[(Gate::RZ(-0.0), &[0]), (Gate::CX, &[0, 1])]),
            fp(&[(Gate::RX(0.0), &[0]), (Gate::CX, &[0, 1])]),
            fp(&[(Gate::RZ(0.0), &[0]), (Gate::CX, &[1, 0])]),
            fp(&[(Gate::RZ(0.0), &[0]), (Gate::CX, &[0, 2])]),
            fp(&[(Gate::CX, &[0, 1]), (Gate::RZ(0.0), &[0])]),
            Circuit::new(2).fingerprint(),
            Circuit::new(3).fingerprint(),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} collides with the base circuit");
        }
    }
}
