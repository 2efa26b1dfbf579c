//! Benchmark circuit generators.
//!
//! The paper evaluates on circuits from QASMBench plus random mixes. The
//! QASM files themselves are not redistributable, so this module generates
//! structurally faithful equivalents in code: the same algorithm, qubit
//! count and gate mix as the corresponding QASMBench entries. Every
//! generator is deterministic (seeded where randomized) so experiments are
//! reproducible.

use crate::circuit::Circuit;
use crate::gate::Gate;
use epoc_rt::rng::StdRng;
use epoc_rt::rng::Rng;
use std::f64::consts::PI;

/// GHZ state preparation on `n` qubits: `H` then a CNOT chain.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn ghz(n: usize) -> Circuit {
    assert!(n >= 1, "ghz needs at least one qubit");
    let mut c = Circuit::new(n);
    c.push(Gate::H, &[0]);
    for q in 0..n.saturating_sub(1) {
        c.push(Gate::CX, &[q, q + 1]);
    }
    c
}

/// W-state preparation on `n` qubits via controlled rotations and CNOTs.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn wstate(n: usize) -> Circuit {
    assert!(n >= 2, "wstate needs at least two qubits");
    let mut c = Circuit::new(n);
    // Excitation-passing cascade: at stage k, keep amplitude 1/√n at site k
    // and pass the rest to site k+1 via CRY + CX.
    c.push(Gate::X, &[0]);
    for k in 0..n - 1 {
        let theta = 2.0 * (1.0 / ((n - k) as f64)).sqrt().acos();
        c.push(Gate::CRY(theta), &[k, k + 1]);
        c.push(Gate::CX, &[k + 1, k]);
    }
    c
}

/// The 4-qubit Bell-pair preparation circuit of the paper's Figure 4:
/// two Bell pairs built from RZ/SX/CX basis gates (transmon-native form),
/// padded with the single-qubit chaff that ZX optimization removes.
pub fn bell_pair_prep() -> Circuit {
    let mut c = Circuit::new(4);
    for pair in [(0usize, 1usize), (2, 3)] {
        let (a, b) = pair;
        // H decomposed into RZ·SX·RZ (native basis), as Figure 4(a) shows.
        c.push(Gate::RZ(PI / 2.0), &[a])
            .push(Gate::Sx, &[a])
            .push(Gate::RZ(PI / 2.0), &[a]);
        // Chaff that commutes/cancels under ZX rules.
        c.push(Gate::RZ(PI / 4.0), &[b])
            .push(Gate::RZ(-PI / 4.0), &[b])
            .push(Gate::X, &[b])
            .push(Gate::X, &[b]);
        c.push(Gate::CX, &[a, b]);
        c.push(Gate::RZ(PI), &[a])
            .push(Gate::RZ(-PI / 2.0), &[a])
            .push(Gate::RZ(-PI / 2.0), &[a]);
        c.push(Gate::Sx, &[b]).push(Gate::Sxdg, &[b]);
    }
    c.push(Gate::CX, &[1, 2]);
    c.push(Gate::CX, &[1, 2]);
    c
}

/// Bernstein–Vazirani with the given secret bitstring (1 oracle qubit at
/// the end). `secret.len()` data qubits + 1 ancilla.
///
/// # Panics
///
/// Panics if `secret` is empty.
pub fn bernstein_vazirani(secret: &[bool]) -> Circuit {
    assert!(!secret.is_empty(), "secret must be non-empty");
    let n = secret.len();
    let mut c = Circuit::new(n + 1);
    c.push(Gate::X, &[n]);
    for q in 0..=n {
        c.push(Gate::H, &[q]);
    }
    for (q, &bit) in secret.iter().enumerate() {
        if bit {
            c.push(Gate::CX, &[q, n]);
        }
    }
    for q in 0..n {
        c.push(Gate::H, &[q]);
    }
    c
}

/// QASMBench-style `bv` instance: alternating-bits secret on `n` data qubits.
pub fn bv(n: usize) -> Circuit {
    let secret: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    bernstein_vazirani(&secret)
}

/// Simon's algorithm instance on `2n` qubits with hidden period `s`
/// (QASMBench `simon_n6` corresponds to `n = 3`).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn simon(n: usize) -> Circuit {
    assert!(n >= 2, "simon needs n >= 2 input qubits");
    let mut c = Circuit::new(2 * n);
    for q in 0..n {
        c.push(Gate::H, &[q]);
    }
    // Oracle: copy x to output register, then XOR period s = 110...0 when
    // the first qubit is 1.
    for q in 0..n {
        c.push(Gate::CX, &[q, n + q]);
    }
    c.push(Gate::CX, &[0, n]);
    c.push(Gate::CX, &[0, n + 1]);
    for q in 0..n {
        c.push(Gate::H, &[q]);
    }
    c
}

/// BB84 state preparation/measurement bases on `n` qubits (QASMBench
/// `bb84_n8`): per-qubit bit/basis choices, seeded.
pub fn bb84(n: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for q in 0..n {
        if rng.gen_bool() {
            c.push(Gate::X, &[q]);
        }
        if rng.gen_bool() {
            c.push(Gate::H, &[q]);
        }
        // Bob's random basis.
        if rng.gen_bool() {
            c.push(Gate::H, &[q]);
        }
    }
    c
}

/// QAOA MaxCut ansatz on a ring of `n` qubits with `p` layers.
pub fn qaoa(n: usize, p: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push(Gate::H, &[q]);
    }
    for _ in 0..p {
        let gamma: f64 = rng.gen_f64() * PI;
        let beta: f64 = rng.gen_f64() * PI;
        for q in 0..n {
            let r = (q + 1) % n;
            if n > 2 || q < r {
                c.push(Gate::CX, &[q, r]);
                c.push(Gate::RZ(2.0 * gamma), &[r]);
                c.push(Gate::CX, &[q, r]);
            }
        }
        for q in 0..n {
            c.push(Gate::RX(2.0 * beta), &[q]);
        }
    }
    c
}

/// The reversible `decod24` circuit (RevLib decod24-v2_43): a 4-qubit
/// 2-to-4 decoder built from Toffoli/CNOT/NOT, lowered to {CCX, CX, X}.
pub fn decod24() -> Circuit {
    let mut c = Circuit::new(4);
    c.push(Gate::CX, &[2, 1])
        .push(Gate::CCX, &[0, 1, 3])
        .push(Gate::CX, &[3, 0])
        .push(Gate::X, &[1])
        .push(Gate::CCX, &[1, 2, 0])
        .push(Gate::CX, &[0, 2])
        .push(Gate::CX, &[1, 3])
        .push(Gate::X, &[3])
        .push(Gate::CCX, &[2, 3, 1])
        .push(Gate::CX, &[1, 0]);
    c
}

/// Quantum-DNN-style layered ansatz (QASMBench `dnn_n8`): alternating
/// parameterized single-qubit layers and entangling ladders.
pub fn dnn(n: usize, layers: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..layers {
        for q in 0..n {
            c.push(Gate::RY(rng.gen_f64() * PI), &[q]);
            c.push(Gate::RZ(rng.gen_f64() * PI), &[q]);
        }
        for q in 0..n.saturating_sub(1) {
            c.push(Gate::CX, &[q, q + 1]);
        }
        for q in 0..n {
            c.push(Gate::RY(rng.gen_f64() * PI), &[q]);
        }
    }
    c
}

/// `ham7`-style Hamiltonian-simulation circuit on 7 qubits: first-order
/// Trotter steps of a Heisenberg-like chain.
pub fn ham7() -> Circuit {
    hamiltonian_sim(7, 3, 0.35)
}

/// First-order Trotterized Heisenberg-chain simulation: `steps` repetitions
/// of RZZ/RXX couplings plus local fields.
pub fn hamiltonian_sim(n: usize, steps: usize, dt: f64) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..steps {
        for q in 0..n.saturating_sub(1) {
            c.push(Gate::RZZ(2.0 * dt), &[q, q + 1]);
        }
        for q in 0..n.saturating_sub(1) {
            c.push(Gate::RXX(2.0 * dt), &[q, q + 1]);
        }
        for q in 0..n {
            c.push(Gate::RZ(dt), &[q]);
            c.push(Gate::RX(dt), &[q]);
        }
    }
    c
}

/// Hardware-efficient VQE ansatz (RY + CZ ladder), `layers` deep.
pub fn vqe(n: usize, layers: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push(Gate::RY(rng.gen_f64() * PI), &[q]);
    }
    for _ in 0..layers {
        for q in 0..n.saturating_sub(1) {
            c.push(Gate::CZ, &[q, q + 1]);
        }
        for q in 0..n {
            c.push(Gate::RY(rng.gen_f64() * PI), &[q]);
            c.push(Gate::RZ(rng.gen_f64() * PI), &[q]);
        }
    }
    c
}

/// VQE ansatz initialized at a Clifford point (all angles multiples of
/// π/2), as identity-block / barren-plateau-avoiding initialization
/// schemes produce. Heavily ZX-reducible — the population behind the
/// paper's extreme Figure-5 data point.
pub fn vqe_clifford_init(n: usize, layers: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    fn snap(c: &mut Circuit, rng: &mut StdRng, q: usize) {
        let k = rng.gen_range(0..4u32);
        c.push(Gate::RY(k as f64 * PI / 2.0), &[q]);
    }
    for q in 0..n {
        snap(&mut c, &mut rng, q);
    }
    for _ in 0..layers {
        for q in 0..n.saturating_sub(1) {
            c.push(Gate::CZ, &[q, q + 1]);
        }
        for q in 0..n {
            snap(&mut c, &mut rng, q);
            let k = rng.gen_range(0..4u32);
            c.push(Gate::RZ(k as f64 * PI / 2.0), &[q]);
        }
    }
    c
}

/// Quantum Fourier transform on `n` qubits (no terminal swaps).
pub fn qft(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push(Gate::H, &[q]);
        for t in (q + 1)..n {
            let angle = PI / f64::powi(2.0, (t - q) as i32);
            c.push(Gate::CPhase(angle), &[t, q]);
        }
    }
    c
}

/// Ripple-carry adder (Cuccaro-style) on `2n + 2` qubits for `n`-bit
/// operands, lowered to {CCX, CX, X}.
pub fn adder(n: usize) -> Circuit {
    assert!(n >= 1, "adder needs at least 1-bit operands");
    // Layout: carry_in, a[0..n], b[0..n], carry_out
    let cin = 0;
    let a = |i: usize| 1 + i;
    let b = |i: usize| 1 + n + i;
    let cout = 1 + 2 * n;
    let mut c = Circuit::new(2 * n + 2);
    // MAJ / UMA cascade.
    c.push(Gate::CX, &[a(0), b(0)]);
    c.push(Gate::CX, &[a(0), cin]);
    c.push(Gate::CCX, &[cin, b(0), a(0)]);
    for i in 1..n {
        c.push(Gate::CX, &[a(i), b(i)]);
        c.push(Gate::CX, &[a(i), a(i - 1)]);
        c.push(Gate::CCX, &[a(i - 1), b(i), a(i)]);
    }
    c.push(Gate::CX, &[a(n - 1), cout]);
    for i in (1..n).rev() {
        c.push(Gate::CCX, &[a(i - 1), b(i), a(i)]);
        c.push(Gate::CX, &[a(i), a(i - 1)]);
        c.push(Gate::CX, &[a(i - 1), b(i)]);
    }
    c.push(Gate::CCX, &[cin, b(0), a(0)]);
    c.push(Gate::CX, &[a(0), cin]);
    c.push(Gate::CX, &[cin, b(0)]);
    c
}

/// Grover search on `n` qubits with a single marked state (all-ones),
/// one iteration, lowered to {H, X, CCX/CZ}.
pub fn grover(n: usize) -> Circuit {
    assert!((2..=8).contains(&n), "grover generator supports 2..=8 qubits");
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push(Gate::H, &[q]);
    }
    // Oracle: multi-controlled Z on |1...1> (via CCZ/CZ ladder for small n).
    multi_controlled_z(&mut c, n);
    // Diffusion.
    for q in 0..n {
        c.push(Gate::H, &[q]);
        c.push(Gate::X, &[q]);
    }
    multi_controlled_z(&mut c, n);
    for q in 0..n {
        c.push(Gate::X, &[q]);
        c.push(Gate::H, &[q]);
    }
    c
}

/// Appends a multi-controlled Z across all `n` qubits (small-n ladder
/// construction without ancillas; exact for n ≤ 3, V-chain demo beyond).
fn multi_controlled_z(c: &mut Circuit, n: usize) {
    match n {
        1 => {
            c.push(Gate::Z, &[0]);
        }
        2 => {
            c.push(Gate::CZ, &[0, 1]);
        }
        3 => {
            c.push(Gate::CCZ, &[0, 1, 2]);
        }
        _ => {
            // Recursive phase-ladder: exact multi-controlled phase using
            // CPhase cascades (Barenco-style without ancilla, O(n²) gates).
            mcphase(c, &(0..n).collect::<Vec<_>>(), PI);
        }
    }
}

/// Multi-controlled phase via recursive halving of the angle.
fn mcphase(c: &mut Circuit, qubits: &[usize], angle: f64) {
    match qubits.len() {
        0 => {}
        1 => {
            c.push(Gate::Phase(angle), &[qubits[0]]);
        }
        2 => {
            c.push(Gate::CPhase(angle), &[qubits[0], qubits[1]]);
        }
        _ => {
            let (rest, last) = qubits.split_at(qubits.len() - 1);
            let t = last[0];
            let half = angle / 2.0;
            c.push(Gate::CPhase(half), &[rest[rest.len() - 1], t]);
            // CX-ladder onto the last control, flip, repeat.
            mccx_free_phase(c, rest, t, half);
        }
    }
}

fn mccx_free_phase(c: &mut Circuit, controls: &[usize], target: usize, half: f64) {
    // mcphase(controls ∪ {target}, 2·half) ≡
    //   CP(half)(last, t); MCX(rest→last); CP(-half)(last, t);
    //   MCX(rest→last); mcphase(rest ∪ {t}, half)
    let last = controls[controls.len() - 1];
    let rest = &controls[..controls.len() - 1];
    mcx(c, rest, last);
    c.push(Gate::CPhase(-half), &[last, target]);
    mcx(c, rest, last);
    let mut sub: Vec<usize> = rest.to_vec();
    sub.push(target);
    mcphase(c, &sub, half);
}

/// Multi-controlled X (no ancilla, recursive; exact for ≤ 2 controls, and
/// phase-corrected recursion beyond).
fn mcx(c: &mut Circuit, controls: &[usize], target: usize) {
    match controls.len() {
        0 => {
            c.push(Gate::X, &[target]);
        }
        1 => {
            c.push(Gate::CX, &[controls[0], target]);
        }
        2 => {
            c.push(Gate::CCX, &[controls[0], controls[1], target]);
        }
        _ => {
            // H t; MCPhase(controls+t, π); H t
            c.push(Gate::H, &[target]);
            let mut all: Vec<usize> = controls.to_vec();
            all.push(target);
            mcphase(c, &all, PI);
            c.push(Gate::H, &[target]);
        }
    }
}

/// A random circuit over {H, T, S, RX, RZ, CX, CZ} with the given gate
/// count; used for the Figure-5 random-circuit population.
pub fn random_circuit(n: usize, gates: usize, seed: u64) -> Circuit {
    assert!(n >= 2, "random circuits need >= 2 qubits");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        match rng.gen_range(0..7) {
            0 => c.push(Gate::H, &[rng.gen_range(0..n)]),
            1 => c.push(Gate::T, &[rng.gen_range(0..n)]),
            2 => c.push(Gate::S, &[rng.gen_range(0..n)]),
            3 => c.push(Gate::RX(rng.gen_f64() * PI), &[rng.gen_range(0..n)]),
            4 => c.push(Gate::RZ(rng.gen_f64() * PI), &[rng.gen_range(0..n)]),
            5 => {
                let a = rng.gen_range(0..n);
                let b = (a + rng.gen_range(1..n)) % n;
                c.push(Gate::CX, &[a, b])
            }
            _ => {
                let a = rng.gen_range(0..n);
                let b = (a + rng.gen_range(1..n)) % n;
                c.push(Gate::CZ, &[a, b])
            }
        };
    }
    c
}

/// A random Clifford+T circuit (the population PyZX-style optimization is
/// strongest on).
pub fn random_clifford_t(n: usize, gates: usize, t_fraction: f64, seed: u64) -> Circuit {
    assert!(n >= 2, "need >= 2 qubits");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        if rng.gen_f64() < t_fraction {
            c.push(Gate::T, &[rng.gen_range(0..n)]);
        } else {
            match rng.gen_range(0..4) {
                0 => c.push(Gate::H, &[rng.gen_range(0..n)]),
                1 => c.push(Gate::S, &[rng.gen_range(0..n)]),
                2 => {
                    let a = rng.gen_range(0..n);
                    let b = (a + rng.gen_range(1..n)) % n;
                    c.push(Gate::CX, &[a, b])
                }
                _ => {
                    let a = rng.gen_range(0..n);
                    let b = (a + rng.gen_range(1..n)) % n;
                    c.push(Gate::CZ, &[a, b])
                }
            };
        }
    }
    c
}

/// A named benchmark from the standard suite.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Short name (matches the paper's labels where applicable).
    pub name: &'static str,
    /// The circuit.
    pub circuit: Circuit,
}

/// Builds one builtin benchmark circuit.
type Generator = fn() -> Circuit;

/// The builtin benchmarks by name, in suite order: the one list both
/// [`benchmark_suite`] and [`benchmark`] read.
const BENCHMARKS: [(&str, Generator); 17] = [
    ("ghz_n4", || ghz(4)),
    ("ghz_n8", || ghz(8)),
    ("wstate_n3", || wstate(3)),
    ("bell_n4", bell_pair_prep),
    ("bv_n5", || bv(4)),
    ("bv_n8", || bv(7)),
    ("simon_n6", || simon(3)),
    ("bb84_n8", || bb84(8, 84)),
    ("qaoa_n6", || qaoa(6, 2, 7)),
    ("decod24_n4", decod24),
    ("dnn_n8", || dnn(8, 2, 11)),
    ("ham7_n7", ham7),
    ("vqe_n4", || vqe(4, 3, 5)),
    ("qft_n5", || qft(5)),
    ("adder_n4", || adder(1)),
    ("grover_n3", || grover(3)),
    ("ising_n6", || hamiltonian_sim(6, 2, 0.4)),
];

/// The 17-benchmark family standing in for the paper's QASMBench set
/// (Figures 8–10).
pub fn benchmark_suite() -> Vec<Benchmark> {
    BENCHMARKS
        .iter()
        .map(|&(name, build)| Benchmark {
            name,
            circuit: build(),
        })
        .collect()
}

/// The builtin benchmark called `name`, generating only that circuit
/// (`None` for an unknown name).
pub fn benchmark(name: &str) -> Option<Circuit> {
    BENCHMARKS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build())
}

/// The 7 circuits of the paper's Table 1.
pub fn table1_suite() -> Vec<Benchmark> {
    vec![
        Benchmark { name: "simon", circuit: simon(3) },
        Benchmark { name: "bb84", circuit: bb84(8, 84) },
        Benchmark { name: "bv", circuit: bv(7) },
        Benchmark { name: "qaoa", circuit: qaoa(6, 2, 7) },
        Benchmark { name: "decod24", circuit: decod24() },
        Benchmark { name: "dnn", circuit: dnn(8, 2, 11) },
        Benchmark { name: "ham7", circuit: ham7() },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;

    #[test]
    fn ghz_amplitudes() {
        let s = simulate(&ghz(4));
        assert!((s.probability(0) - 0.5).abs() < 1e-10);
        assert!((s.probability(15) - 0.5).abs() < 1e-10);
    }

    #[test]
    fn wstate_has_hamming_weight_one_support() {
        let s = simulate(&wstate(4));
        let mut total = 0.0;
        for k in 0..16usize {
            let p = s.probability(k);
            if k.count_ones() == 1 {
                total += p;
                assert!(p > 0.2, "unexpected low weight at {k}: {p}");
            } else {
                assert!(p < 1e-9, "support outside weight-1 at {k}: {p}");
            }
        }
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bv_recovers_secret() {
        let secret = [true, false, true];
        let c = bernstein_vazirani(&secret);
        let s = simulate(&c);
        // Data register should be |101>, ancilla in |-> : probability mass
        // split between |101,0> and |101,1>.
        let base = 0b1010usize; // q0..q2 = 101, ancilla q3
        let p = s.probability(base) + s.probability(base | 1);
        assert!((p - 1.0).abs() < 1e-9, "secret not recovered: {p}");
    }

    #[test]
    fn simon_output_orthogonal_to_period() {
        let c = simon(3);
        let s = simulate(&c);
        // Period s = 110. Any measured first-register y must satisfy y·s = 0.
        let period = 0b110usize;
        for idx in 0..(1usize << 6) {
            let y = idx >> 3; // top 3 bits = first register
            let dot = (y & period).count_ones() % 2;
            if s.probability(idx) > 1e-9 {
                assert_eq!(dot, 0, "non-orthogonal outcome y={y:03b}");
            }
        }
    }

    #[test]
    fn qft_unitary_correct() {
        let n = 3;
        let u = qft(n).unitary();
        let dim = 1 << n;
        let omega = 2.0 * PI / dim as f64;
        // QFT (without terminal swaps) maps |j> to bit-reversed Fourier basis.
        // Check unitarity and first column = uniform superposition.
        assert!(u.is_unitary(1e-10));
        for r in 0..dim {
            let z = u[(r, 0)];
            assert!((z.abs() - 1.0 / (dim as f64).sqrt()).abs() < 1e-10);
        }
        // Column 1 should have phases stepping by ω under bit-reversal.
        let col = 1usize;
        for r in 0..dim {
            let rev = (0..n).fold(0usize, |acc, b| acc | (((r >> b) & 1) << (n - 1 - b)));
            let expect_phase = omega * (rev * col) as f64;
            let z = u[(r, col)];
            let diff = (z.arg() - expect_phase).rem_euclid(2.0 * PI);
            assert!(
                diff < 1e-9 || (2.0 * PI - diff) < 1e-9,
                "phase mismatch at row {r}"
            );
        }
    }

    #[test]
    fn adder_adds() {
        // 1-bit adder: a=1, b=1 -> sum bit 0, carry 1.
        let mut c = Circuit::new(4);
        c.push(Gate::X, &[1]); // a0 = 1
        c.push(Gate::X, &[2]); // b0 = 1
        c.extend(&adder(1));
        let s = simulate(&c);
        // Expected: b holds sum (0), cout = 1, a restored to 1, cin = 0.
        // Layout [cin, a0, b0, cout] big-endian → index 0b0101 = 5.
        assert!((s.probability(0b0101) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn adder_two_bit() {
        // a = 3 (11), b = 1 (01) -> b := 4 → b=00, cout=1
        let n = 2;
        let mut c = Circuit::new(2 * n + 2);
        c.push(Gate::X, &[1]).push(Gate::X, &[2]); // a = 11
        c.push(Gate::X, &[3]); // b = 01  (b[0] is LSB at index 3)
        c.extend(&adder(n));
        let s = simulate(&c);
        let mut best = (0usize, 0.0f64);
        for k in 0..(1 << 6) {
            if s.probability(k) > best.1 {
                best = (k, s.probability(k));
            }
        }
        assert!(best.1 > 1.0 - 1e-9, "state not classical");
        let bits = best.0;
        // Layout: [cin, a0, a1, b0, b1, cout] big-endian: index bit 5 = cin.
        let cout = bits & 1;
        let b1 = (bits >> 1) & 1;
        let b0 = (bits >> 2) & 1;
        let sum = b0 + 2 * b1 + 4 * cout;
        assert_eq!(sum, 4, "3 + 1 != {sum} (state {bits:06b})");
    }

    #[test]
    fn grover_amplifies_marked_state() {
        for n in [2usize, 3] {
            let s = simulate(&grover(n));
            let marked = (1 << n) - 1;
            let p = s.probability(marked);
            let uniform = 1.0 / (1 << n) as f64;
            assert!(p > 2.0 * uniform, "n={n}: p={p} not amplified");
        }
    }

    #[test]
    fn decod24_is_permutation() {
        let u = decod24().unitary();
        assert!(u.is_unitary(1e-10));
        // Permutation matrix: every entry is 0 or 1 in modulus.
        for r in 0..16 {
            for c in 0..16 {
                let a = u[(r, c)].abs();
                assert!(a < 1e-9 || (a - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(qaoa(4, 2, 9), qaoa(4, 2, 9));
        assert_eq!(dnn(4, 2, 3), dnn(4, 2, 3));
        assert_eq!(random_circuit(4, 30, 5), random_circuit(4, 30, 5));
        assert_ne!(random_circuit(4, 30, 5), random_circuit(4, 30, 6));
    }

    #[test]
    fn every_suite_name_resolves_to_an_equal_circuit() {
        for b in benchmark_suite() {
            assert_eq!(benchmark(b.name), Some(b.circuit), "{}", b.name);
        }
        assert_eq!(benchmark("no_such_bench"), None);
    }

    #[test]
    fn suite_shapes() {
        let suite = benchmark_suite();
        assert_eq!(suite.len(), 17);
        for b in &suite {
            assert!(!b.circuit.is_empty(), "{} is empty", b.name);
            assert!(b.circuit.n_qubits() >= 2, "{} too small", b.name);
        }
        let t1 = table1_suite();
        assert_eq!(t1.len(), 7);
        let names: Vec<_> = t1.iter().map(|b| b.name).collect();
        assert_eq!(names, vec!["simon", "bb84", "bv", "qaoa", "decod24", "dnn", "ham7"]);
    }

    #[test]
    fn mcx_matches_truth_table() {
        // 3-control X via the recursive construction.
        let mut c = Circuit::new(4);
        mcx(&mut c, &[0, 1, 2], 3);
        let u = c.unitary();
        assert!(u.is_unitary(1e-9));
        // |1110> <-> |1111> only.
        for k in 0..16 {
            let flipped = if k >> 1 == 0b111 { k ^ 1 } else { k };
            assert!(
                u[(flipped, k)].abs() > 1.0 - 1e-7,
                "mcx wrong at column {k:04b}"
            );
        }
    }

    #[test]
    fn ham7_shape() {
        let c = ham7();
        assert_eq!(c.n_qubits(), 7);
        assert!(c.len() > 50);
    }

    #[test]
    fn random_clifford_t_composition() {
        let c = random_clifford_t(4, 100, 0.2, 1);
        assert_eq!(c.len(), 100);
        let t_count = c.count_gates(|g| matches!(g, Gate::T));
        assert!(t_count > 5 && t_count < 50, "t_count = {t_count}");
    }
}
