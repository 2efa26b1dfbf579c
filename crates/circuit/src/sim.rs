//! Statevector simulator.
//!
//! Used for verification: the dense-unitary path ([`crate::Circuit::unitary`])
//! caps out around 12 qubits, while the statevector path handles ~20+ and is
//! how integration tests check that optimized circuits act identically on
//! states.

use crate::circuit::Circuit;
use crate::gate::Gate;
use epoc_linalg::{c64, Complex64, Matrix};

/// A pure quantum state on `n` qubits (big-endian index convention,
/// matching the rest of the crate).
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<Complex64>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0…0⟩`.
    pub fn zero(n_qubits: usize) -> Self {
        assert!(n_qubits <= 24, "statevector limited to 24 qubits");
        let mut amps = vec![Complex64::ZERO; 1 << n_qubits];
        amps[0] = Complex64::ONE;
        Self { n_qubits, amps }
    }

    /// A computational basis state `|index⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n`.
    pub fn basis(n_qubits: usize, index: usize) -> Self {
        let mut s = Self::zero(n_qubits);
        assert!(index < s.amps.len(), "basis index out of range");
        s.amps[0] = Complex64::ZERO;
        s.amps[index] = Complex64::ONE;
        s
    }

    /// Builds a state from raw amplitudes (must have length `2^n` and unit
    /// norm within `1e-6`).
    ///
    /// # Panics
    ///
    /// Panics on length/norm violations.
    pub fn from_amplitudes(amps: Vec<Complex64>) -> Self {
        let len = amps.len();
        assert!(len.is_power_of_two() && len >= 2, "length must be 2^n");
        let n_qubits = len.trailing_zeros() as usize;
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-6, "state not normalized: {norm}");
        Self { n_qubits, amps }
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The amplitudes in basis order.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Probability of measuring basis state `index`.
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn inner(&self, other: &StateVector) -> Complex64 {
        assert_eq!(self.n_qubits, other.n_qubits, "qubit count mismatch");
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// State fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Applies a gate to the listed qubits in place.
    ///
    /// # Panics
    ///
    /// Panics if qubit indices are out of range, repeated, or don't match
    /// the gate arity.
    pub fn apply(&mut self, gate: &Gate, qubits: &[usize]) {
        let k = gate.arity();
        assert_eq!(qubits.len(), k, "qubit list does not match arity");
        for (i, &q) in qubits.iter().enumerate() {
            assert!(q < self.n_qubits, "qubit {q} out of range");
            assert!(!qubits[..i].contains(&q), "duplicate qubit {q}");
        }
        let m = gate.unitary_matrix();
        self.apply_matrix(&m, qubits);
    }

    /// Applies an arbitrary `2^k`-dimensional matrix to `k` qubits in place.
    ///
    /// One- and two-qubit matrices run on stride kernels that allocate
    /// nothing; wider ones gather and scatter each `2^k`-amplitude group.
    pub fn apply_matrix(&mut self, m: &Matrix, qubits: &[usize]) {
        assert_eq!(m.rows(), 1 << qubits.len(), "matrix dim mismatch");
        match *qubits {
            [q] => self.apply_1q(m, q),
            [q0, q1] => self.apply_2q(m, q0, q1),
            _ => self.apply_general(m, qubits),
        }
    }

    /// One qubit: the amplitude pairs `(i, i|b)` for the qubit's bit `b`
    /// are the two halves of each `2b`-amplitude chunk, mixed by the
    /// synthesis kernels (`g·a + h·b`; the general loop's `(0 + g·a) + h·b`
    /// differs from it only in the sign of exact zeros).
    fn apply_1q(&mut self, m: &Matrix, q: usize) {
        let (g00, g01, g10, g11) = (m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]);
        let stride = 1usize << (self.n_qubits - 1 - q);
        if stride == 1 {
            epoc_linalg::mix_adjacent(&mut self.amps, g00, g01, g10, g11);
            return;
        }
        for chunk in self.amps.chunks_exact_mut(2 * stride) {
            let (lo, hi) = chunk.split_at_mut(stride);
            epoc_linalg::mix_pair(lo, hi, g00, g01, g10, g11);
        }
    }

    /// Two qubits: each quadruple `(r, r|b1, r|b0, r|b0|b1)`, `b0` the
    /// first qubit's bit, is mixed with the general loop's operations in
    /// its order (each row summed from zero over the columns).
    fn apply_2q(&mut self, m: &Matrix, q0: usize, q1: usize) {
        let n = self.n_qubits;
        let (b0, b1) = (1usize << (n - 1 - q0), 1usize << (n - 1 - q1));
        let (lo, hi) = (b0.min(b1), b0.max(b1));
        let amps = &mut self.amps;
        // `r` runs over the indices with both bits clear.
        for outer in (0..amps.len()).step_by(2 * hi) {
            for mid in (outer..outer + hi).step_by(2 * lo) {
                for r in mid..mid + lo {
                    let idx = [r, r | b1, r | b0, r | b0 | b1];
                    let local = idx.map(|i| amps[i]);
                    for (row, &i) in m.as_slice().chunks_exact(4).zip(&idx) {
                        amps[i] = row
                            .iter()
                            .zip(&local)
                            .fold(Complex64::ZERO, |acc, (&g, &a)| acc + g * a);
                    }
                }
            }
        }
    }

    /// Any number of qubits: gathers the `2^k` amplitudes of every
    /// assignment of the untouched qubits, multiplies, and scatters back.
    fn apply_general(&mut self, m: &Matrix, qubits: &[usize]) {
        let k = qubits.len();
        let dk = 1usize << k;
        let n = self.n_qubits;
        let shifts: Vec<usize> = qubits.iter().map(|&q| n - 1 - q).collect();
        let full_mask = (1usize << n) - 1;
        let mut sel_mask = 0usize;
        for &s in &shifts {
            sel_mask |= 1 << s;
        }
        let rest_mask = full_mask & !sel_mask;

        let mut local = vec![Complex64::ZERO; dk];
        // Iterate over all assignments of the untouched qubits.
        let mut rest = 0usize;
        loop {
            // Gather the 2^k amplitudes for this "rest" assignment.
            for (a, slot) in local.iter_mut().enumerate() {
                let mut idx = rest;
                for (bit, &s) in shifts.iter().enumerate() {
                    if (a >> (k - 1 - bit)) & 1 == 1 {
                        idx |= 1 << s;
                    }
                }
                *slot = self.amps[idx];
            }
            // Multiply by the gate matrix and scatter back.
            for (r, row_out) in (0..dk).map(|r| (r, m.row(r))).map(|(r, row)| {
                let mut acc = Complex64::ZERO;
                for (c, &amp) in local.iter().enumerate() {
                    acc += row[c] * amp;
                }
                (r, acc)
            }) {
                let mut idx = rest;
                for (bit, &s) in shifts.iter().enumerate() {
                    if (r >> (k - 1 - bit)) & 1 == 1 {
                        idx |= 1 << s;
                    }
                }
                self.amps[idx] = row_out;
            }
            // Next subset of rest_mask (standard bit trick).
            if rest == rest_mask {
                break;
            }
            rest = (rest.wrapping_sub(rest_mask)) & rest_mask;
        }
    }

    /// Runs a whole circuit on the state in place.
    ///
    /// # Panics
    ///
    /// Panics if the circuit register is larger than the state.
    pub fn run(&mut self, circuit: &Circuit) {
        assert!(
            circuit.n_qubits() <= self.n_qubits,
            "circuit register exceeds state size"
        );
        for op in circuit.ops() {
            self.apply(&op.gate, &op.qubits);
        }
    }

    /// L2 norm of the state (should always be ~1).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }
}

/// Convenience: runs `circuit` on `|0…0⟩` and returns the final state.
pub fn simulate(circuit: &Circuit) -> StateVector {
    let mut s = StateVector::zero(circuit.n_qubits());
    s.run(circuit);
    s
}

/// Widest register statevector probing ([`circuits_equivalent`]) is
/// affordable for: the pipeline's verification and the ZX pass's rewrite
/// probe skip wider circuits.
pub const VERIFY_QUBIT_LIMIT: usize = 10;

/// `true` when two circuits act identically (up to global phase) on a set of
/// probe states: all computational basis states plus superposition probes.
///
/// A cheap but strong semantic-equality check used heavily by the test
/// suites of the ZX and synthesis crates.
pub fn circuits_equivalent(a: &Circuit, b: &Circuit, tol: f64) -> bool {
    if a.n_qubits() != b.n_qubits() {
        return false;
    }
    let n = a.n_qubits();
    let dim = 1usize << n;
    // Basis probes (phases must agree pairwise, so compare via fidelity of
    // a fixed superposition as well to catch relative-phase errors).
    let mut reference_phase: Option<Complex64> = None;
    for idx in 0..dim.min(8) {
        let mut sa = StateVector::basis(n, idx);
        let mut sb = StateVector::basis(n, idx);
        sa.run(a);
        sb.run(b);
        let ip = sa.inner(&sb);
        if (ip.abs() - 1.0).abs() > tol {
            return false;
        }
        match reference_phase {
            None => reference_phase = Some(ip),
            Some(p) => {
                if (ip - p).abs() > 10.0 * tol {
                    return false;
                }
            }
        }
    }
    // Uniform superposition probe: sensitive to all relative phases at once.
    let amp = c64(1.0 / (dim as f64).sqrt(), 0.0);
    let mut sa = StateVector::from_amplitudes(vec![amp; dim]);
    let mut sb = sa.clone();
    sa.run(a);
    sb.run(b);
    (sa.inner(&sb).abs() - 1.0).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use epoc_rt::rng::Rng;

    #[test]
    fn zero_state_probabilities() {
        let s = StateVector::zero(3);
        assert_eq!(s.probability(0), 1.0);
        assert_eq!(s.probability(5), 0.0);
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn x_flips_qubit() {
        let mut s = StateVector::zero(2);
        s.apply(&Gate::X, &[0]);
        // Big-endian: flipping qubit 0 gives |10> = index 2.
        assert!((s.probability(2) - 1.0).abs() < 1e-12);
        s.apply(&Gate::X, &[1]);
        assert!((s.probability(3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bell_state_from_circuit() {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]).push(Gate::CX, &[0, 1]);
        let s = simulate(&c);
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
        assert!((s.probability(3) - 0.5).abs() < 1e-12);
        assert!(s.probability(1) < 1e-12);
        assert!(s.probability(2) < 1e-12);
    }

    #[test]
    fn ghz_three_qubits() {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0])
            .push(Gate::CX, &[0, 1])
            .push(Gate::CX, &[1, 2]);
        let s = simulate(&c);
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
        assert!((s.probability(7) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn statevector_matches_dense_unitary() {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0])
            .push(Gate::T, &[1])
            .push(Gate::CX, &[0, 2])
            .push(Gate::RY(0.7), &[1])
            .push(Gate::CCX, &[0, 1, 2])
            .push(Gate::Sx, &[2]);
        let u = c.unitary();
        for idx in 0..8 {
            let mut s = StateVector::basis(3, idx);
            s.run(&c);
            for row in 0..8 {
                assert!(
                    s.amplitudes()[row].approx_eq(u[(row, idx)], 1e-10),
                    "mismatch at col {idx} row {row}"
                );
            }
        }
    }

    #[test]
    fn apply_matrix_on_nonadjacent_qubits() {
        let mut c = Circuit::new(3);
        c.push(Gate::CX, &[0, 2]);
        let mut s = StateVector::basis(3, 0b100);
        s.run(&c);
        // control q0=1 -> target q2 flips: |101>
        assert!((s.probability(0b101) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inner_product_and_fidelity() {
        let a = StateVector::basis(2, 1);
        let b = StateVector::basis(2, 1);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
        let c = StateVector::basis(2, 2);
        assert!(a.fidelity(&c) < 1e-12);
    }

    #[test]
    fn circuits_equivalent_detects_equality() {
        let mut a = Circuit::new(2);
        a.push(Gate::H, &[0]).push(Gate::CX, &[0, 1]);
        // Same circuit with redundant Z·Z inserted.
        let mut b = Circuit::new(2);
        b.push(Gate::H, &[0])
            .push(Gate::Z, &[1])
            .push(Gate::Z, &[1])
            .push(Gate::CX, &[0, 1]);
        assert!(circuits_equivalent(&a, &b, 1e-9));
    }

    #[test]
    fn circuits_equivalent_detects_difference() {
        let mut a = Circuit::new(2);
        a.push(Gate::H, &[0]);
        let mut b = Circuit::new(2);
        b.push(Gate::H, &[1]);
        assert!(!circuits_equivalent(&a, &b, 1e-9));
        // Relative-phase difference: S vs Z on a superposed qubit.
        let mut p = Circuit::new(1);
        p.push(Gate::H, &[0]).push(Gate::S, &[0]);
        let mut q = Circuit::new(1);
        q.push(Gate::H, &[0]).push(Gate::Z, &[0]);
        assert!(!circuits_equivalent(&p, &q, 1e-9));
    }

    #[test]
    fn global_phase_is_ignored() {
        // RZ(θ) and Phase(θ) differ by a global phase only.
        let mut a = Circuit::new(1);
        a.push(Gate::RZ(0.9), &[0]);
        let mut b = Circuit::new(1);
        b.push(Gate::Phase(0.9), &[0]);
        assert!(circuits_equivalent(&a, &b, 1e-9));
    }

    #[test]
    fn norm_preserved_by_long_random_circuit() {
        let mut c = Circuit::new(4);
        for i in 0..40 {
            match i % 4 {
                0 => c.push(Gate::H, &[i % 4]),
                1 => c.push(Gate::RX(0.3 * i as f64), &[(i + 1) % 4]),
                2 => c.push(Gate::CX, &[i % 4, (i + 1) % 4]),
                _ => c.push(Gate::T, &[(i + 2) % 4]),
            };
        }
        let s = simulate(&c);
        assert!((s.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "not normalized")]
    fn from_amplitudes_checks_norm() {
        StateVector::from_amplitudes(vec![Complex64::ONE, Complex64::ONE]);
    }

    /// A normalized state on `n` qubits: random amplitudes, or (half the
    /// time) a basis state, whose exact zeros the kernels must carry too.
    fn random_state(g: &mut epoc_rt::check::Gen, n: usize) -> StateVector {
        if g.bool() {
            return StateVector::basis(n, g.usize_in(0, 1 << n));
        }
        let amps: Vec<Complex64> = (0..1 << n)
            .map(|_| c64(g.f64_in(-1.0, 1.0), g.f64_in(-1.0, 1.0)))
            .collect();
        let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        StateVector::from_amplitudes(amps.iter().map(|a| *a / norm).collect())
    }

    #[test]
    fn stride_kernels_match_the_general_loop() {
        use epoc_linalg::random_unitary;
        let named_1q = [
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::T,
            Gate::Sx,
            Gate::RX(0.7),
            Gate::RY(-1.3),
            Gate::RZ(2.1),
            Gate::Phase(0.4),
        ];
        let named_2q = [
            Gate::CX,
            Gate::CY,
            Gate::CZ,
            Gate::CH,
            Gate::Swap,
            Gate::CRX(0.9),
            Gate::CPhase(-0.6),
            Gate::RZZ(1.1),
            Gate::RXX(0.3),
        ];
        epoc_rt::check::property("stride_kernels_match_the_general_loop")
            .cases(24)
            .run(|g| {
                let n = g.usize_in(1, 8);
                let mut state = random_state(g, n);
                let mut rng = epoc_rt::rng::StdRng::seed_from_u64(g.u64_in(0, u64::MAX));
                // Applies `m` both ways to the running state and demands
                // equal amplitudes (`==` on re and im, which equates ±0).
                let mut check = |m: &Matrix, qubits: &[usize], what: &str| {
                    let mut general = state.clone();
                    general.apply_general(m, qubits);
                    state.apply_matrix(m, qubits);
                    for (i, (a, b)) in state.amps.iter().zip(&general.amps).enumerate() {
                        assert!(
                            a.re == b.re && a.im == b.im,
                            "{what} on {qubits:?} of {n} qubits: amplitude {i} {a} != {b}"
                        );
                    }
                };
                for q in 0..n {
                    check(&random_unitary(2, &mut rng), &[q], "random 2x2");
                    for gate in &named_1q {
                        check(&gate.unitary_matrix(), &[q], &gate.to_string());
                    }
                }
                for q0 in 0..n {
                    for q1 in (0..n).filter(|&q1| q1 != q0) {
                        check(&random_unitary(4, &mut rng), &[q0, q1], "random 4x4");
                        for gate in &named_2q {
                            check(&gate.unitary_matrix(), &[q0, q1], &gate.to_string());
                        }
                    }
                }
            });
    }

    #[test]
    fn circuits_equivalent_rejects_near_misses() {
        // A random 6-qubit circuit that holds a CX on every ordered pair.
        let n = 6;
        let mut rng = epoc_rt::rng::StdRng::seed_from_u64(2405);
        let mut pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b)))
            .collect();
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.gen_range(0..=i));
        }
        let mut ops: Vec<(Gate, Vec<usize>)> = Vec::new();
        for &(a, b) in &pairs {
            for q in [a, b] {
                ops.push((Gate::RY(rng.gen_f64() * 3.0), vec![q]));
                ops.push((Gate::RZ(rng.gen_f64() * 3.0), vec![q]));
            }
            ops.push((Gate::CX, vec![a, b]));
        }
        let build = |ops: &[(Gate, Vec<usize>)]| {
            let mut c = Circuit::new(n);
            for (gate, qubits) in ops {
                c.push(gate.clone(), qubits);
            }
            c
        };
        let original = build(&ops);
        assert!(circuits_equivalent(&original, &build(&ops), 1e-6));
        // The probes miss an RZ(1e-4) on some qubit of this circuit; 1e-3
        // is caught on every one.
        let middle = ops.len() / 2;
        for q in 0..n {
            let mut near = ops.clone();
            near.insert(middle, (Gate::RZ(1e-3), vec![q]));
            assert!(
                !circuits_equivalent(&original, &build(&near), 1e-6),
                "an RZ(1e-3) inserted on qubit {q} went unseen"
            );
        }
        for &(a, b) in &pairs {
            let mut near = ops.clone();
            let at = near
                .iter()
                .position(|(gate, qubits)| *gate == Gate::CX && *qubits == [a, b])
                .expect("every ordered pair holds a CX");
            near[at].1 = vec![b, a];
            assert!(
                !circuits_equivalent(&original, &build(&near), 1e-6),
                "CX({a},{b}) turned into CX({b},{a}) went unseen"
            );
        }
    }
}
