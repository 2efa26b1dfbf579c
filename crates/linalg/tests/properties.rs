//! Property-based tests for the linear-algebra core.
//!
//! Ported from `proptest!` macros to `epoc_rt::check`, preserving the
//! 64-case counts.

use epoc_linalg::{
    c64, canonicalize_phase, eigh, eigh_into, eigh_warm_into, expm, expm_ih,
    phase_invariant_distance, random_hermitian, random_unitary, Complex64, EigError, HermitianEig,
    Matrix, UnitaryKey,
};
use epoc_rt::check::{property, Gen};
use epoc_rt::rng::StdRng;

fn small_complex(g: &mut Gen) -> Complex64 {
    c64(g.f64_in(-2.0, 2.0), g.f64_in(-2.0, 2.0))
}

fn matrix(g: &mut Gen, n: usize) -> Matrix {
    let v: Vec<Complex64> = (0..n * n).map(|_| small_complex(g)).collect();
    Matrix::from_vec(n, n, v)
}

#[test]
fn complex_mul_commutative() {
    property("complex_mul_commutative").cases(64).run(|g| {
        let a = small_complex(g);
        let b = small_complex(g);
        assert!((a * b).approx_eq(b * a, 1e-12));
    });
}

#[test]
fn complex_mul_associative() {
    property("complex_mul_associative").cases(64).run(|g| {
        let a = small_complex(g);
        let b = small_complex(g);
        let c = small_complex(g);
        assert!(((a * b) * c).approx_eq(a * (b * c), 1e-9));
    });
}

#[test]
fn complex_conj_is_involution() {
    property("complex_conj_is_involution").cases(64).run(|g| {
        let a = small_complex(g);
        assert_eq!(a.conj().conj(), a);
    });
}

#[test]
fn complex_abs_multiplicative() {
    property("complex_abs_multiplicative").cases(64).run(|g| {
        let a = small_complex(g);
        let b = small_complex(g);
        assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9);
    });
}

#[test]
fn matmul_associative() {
    property("matmul_associative").cases(64).run(|g| {
        let a = matrix(g, 3);
        let b = matrix(g, 3);
        let c = matrix(g, 3);
        let lhs = a.matmul(&b).matmul(&c);
        let rhs = a.matmul(&b.matmul(&c));
        assert!(lhs.approx_eq(&rhs, 1e-8));
    });
}

#[test]
fn matmul_distributes_over_add() {
    property("matmul_distributes_over_add").cases(64).run(|g| {
        let a = matrix(g, 3);
        let b = matrix(g, 3);
        let c = matrix(g, 3);
        let lhs = a.matmul(&(&b + &c));
        let rhs = &a.matmul(&b) + &a.matmul(&c);
        assert!(lhs.approx_eq(&rhs, 1e-8));
    });
}

#[test]
fn dagger_is_involution() {
    property("dagger_is_involution").cases(64).run(|g| {
        let a = matrix(g, 4);
        assert!(a.dagger().dagger().approx_eq(&a, 1e-15));
    });
}

#[test]
fn trace_cyclic() {
    property("trace_cyclic").cases(64).run(|g| {
        let a = matrix(g, 3);
        let b = matrix(g, 3);
        let t1 = a.matmul(&b).trace();
        let t2 = b.matmul(&a).trace();
        assert!(t1.approx_eq(t2, 1e-8));
    });
}

#[test]
fn kron_respects_dagger() {
    property("kron_respects_dagger").cases(64).run(|g| {
        let a = matrix(g, 2);
        let b = matrix(g, 2);
        let lhs = a.kron(&b).dagger();
        let rhs = a.dagger().kron(&b.dagger());
        assert!(lhs.approx_eq(&rhs, 1e-12));
    });
}

#[test]
fn frobenius_triangle_inequality() {
    property("frobenius_triangle_inequality").cases(64).run(|g| {
        let a = matrix(g, 3);
        let b = matrix(g, 3);
        let sum = (&a + &b).frobenius_norm();
        assert!(sum <= a.frobenius_norm() + b.frobenius_norm() + 1e-9);
    });
}

#[test]
fn eigh_reconstructs_random_hermitian() {
    property("eigh_reconstructs_random_hermitian").cases(64).run(|g| {
        let seed = g.u64_in(0, 500);
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random_hermitian(4, &mut rng);
        let e = eigh(&h).unwrap();
        assert!(e.reconstruct().approx_eq(&h, 1e-8), "seed={seed}");
        assert!(e.vectors.is_unitary(1e-8), "seed={seed}");
    });
}

/// `max_ij |x_ij − y_ij|`.
fn max_abs_diff(x: &Matrix, y: &Matrix) -> f64 {
    x.as_slice()
        .iter()
        .zip(y.as_slice())
        .map(|(a, b)| (*a - *b).abs())
        .fold(0.0, f64::max)
}

/// The eigensolver's own tolerance unit: `max(max|h_ij|, 1)`.
fn eig_scale(h: &Matrix) -> f64 {
    h.max_norm().max(1.0)
}

/// How far `e` is from being an eigendecomposition of `h`:
/// `(‖V†V − I‖, ‖V·Λ·V† − H‖)`, both as the largest entry.
fn decomposition_errors(h: &Matrix, e: &HermitianEig) -> (f64, f64) {
    let n = h.rows();
    let gram = e.vectors.dagger().matmul(&e.vectors);
    (
        max_abs_diff(&gram, &Matrix::identity(n)),
        max_abs_diff(&e.reconstruct(), h),
    )
}

/// Asserts `e` decomposes `h` to `1e-12·scale` with ascending eigenvalues.
fn assert_decomposes(h: &Matrix, e: &HermitianEig, what: &str) {
    let scale = eig_scale(h);
    assert!(
        e.values.windows(2).all(|w| w[0] <= w[1]),
        "{what}: eigenvalues not ascending: {:?}",
        e.values
    );
    let (unitarity, reconstruction) = decomposition_errors(h, e);
    assert!(unitarity <= 1e-12, "{what}: ‖V†V − I‖ = {unitarity:e}");
    assert!(
        reconstruction <= 1e-12 * scale,
        "{what}: ‖V·Λ·V† − H‖ = {reconstruction:e} at scale {scale:e}"
    );
}

/// The Pauli matrices X, Y, Z.
fn paulis() -> (Matrix, Matrix, Matrix) {
    let x = Matrix::from_rows(&[
        &[c64(0.0, 0.0), c64(1.0, 0.0)],
        &[c64(1.0, 0.0), c64(0.0, 0.0)],
    ]);
    let y = Matrix::from_rows(&[
        &[c64(0.0, 0.0), c64(0.0, -1.0)],
        &[c64(0.0, 1.0), c64(0.0, 0.0)],
    ]);
    let z = Matrix::from_diag(&[c64(1.0, 0.0), c64(-1.0, 0.0)]);
    (x, y, z)
}

/// A 4×4 input for the kernel checks: `family` picks a random Hermitian
/// matrix at `10^exp`, a degenerate spectrum (0, I, Z⊗Z, X⊗X + Y⊗Y) or a
/// random diagonal.
fn input_4x4(family: usize, exp: f64, rng: &mut StdRng) -> Matrix {
    let (x, y, z) = paulis();
    match family {
        0 => random_hermitian(4, rng).scale_re(10f64.powf(exp)),
        1 => Matrix::zeros(4, 4),
        2 => Matrix::identity(4),
        3 => z.kron(&z),
        4 => &x.kron(&x) + &y.kron(&y),
        _ => {
            let d = random_hermitian(4, rng);
            Matrix::from_diag(&(0..4).map(|i| d[(i, i)]).collect::<Vec<_>>())
        }
    }
}

/// The 4×4 kernel, cold and warm-started from the exact basis, from a
/// perturbed matrix's basis and from a random unitary: every result is a
/// decomposition, and the warm eigenvalues equal the cold ones.
#[test]
fn eigh_4x4_cold_and_warm_agree() {
    property("eigh_4x4_cold_and_warm_agree").cases(96).run(|g| {
        let family = g.usize_in(0, 5);
        let exp = g.f64_in(-6.0, 6.0);
        let seed = g.u64_in(0, 10_000);
        let mut rng = StdRng::seed_from_u64(seed);
        let h = input_4x4(family, exp, &mut rng);
        let scale = eig_scale(&h);
        let cold = eigh(&h).unwrap();
        assert_decomposes(&h, &cold, &format!("cold family={family} seed={seed}"));

        let perturbed = &h + &random_hermitian(4, &mut rng).scale_re(1e-3 * h.max_norm());
        let starts = [
            ("exact basis", cold.clone()),
            ("perturbed basis", eigh(&perturbed).unwrap()),
            (
                "random unitary",
                HermitianEig {
                    values: vec![0.0; 4],
                    vectors: random_unitary(4, &mut rng),
                },
            ),
        ];
        for (start, mut warm) in starts {
            let what = format!("warm from {start}, family={family} seed={seed}");
            eigh_warm_into(&h, &mut warm).unwrap();
            assert_decomposes(&h, &warm, &what);
            for (w, c) in warm.values.iter().zip(&cold.values) {
                assert!((w - c).abs() <= 1e-12 * scale, "{what}: eigenvalue {w} vs cold {c}");
            }
        }
    });
}

/// 10,000 warm calls chained along a slowly varying two-qubit slot
/// Hamiltonian (detuning, exchange coupling and four drive channels, as a
/// GRAPE slot sees from one optimizer step to the next): rounding must not
/// accumulate in the carried basis.
#[test]
fn eigh_warm_chain_does_not_drift() {
    let (x, y, z) = paulis();
    let id = Matrix::identity(2);
    let tau = std::f64::consts::TAU;
    let drift = &id.kron(&z).scale_re(tau * 0.01 / 2.0)
        + &(&x.kron(&x) + &y.kron(&y)).scale_re(tau * 0.002 / 2.0);
    let channels = [x.kron(&id), y.kron(&id), id.kron(&x), id.kron(&y)];
    let a_max = tau * 0.02;
    let mut warm = HermitianEig {
        values: Vec::new(),
        vectors: Matrix::zeros(0, 0),
    };
    let (mut unitarity, mut reconstruction, mut gap) = (0.0f64, 0.0f64, 0.0f64);
    for k in 0..10_000 {
        let mut h = drift.clone();
        for (j, c) in channels.iter().enumerate() {
            // Periods of 40–70 calls: steps of up to ~0.02 rad/ns, about
            // one Adam step at GRAPE's default learning rate.
            let u = a_max * (tau * k as f64 / (40.0 + 10.0 * j as f64) + j as f64).sin();
            h += &c.scale_re(0.5 * u);
        }
        eigh_warm_into(&h, &mut warm).unwrap();
        let (du, dr) = decomposition_errors(&h, &warm);
        unitarity = unitarity.max(du);
        reconstruction = reconstruction.max(dr);
        let cold = eigh(&h).unwrap();
        for (w, c) in warm.values.iter().zip(&cold.values) {
            gap = gap.max((w - c).abs());
        }
    }
    assert!(
        unitarity <= 1e-12 && reconstruction <= 1e-12 && gap <= 1e-12,
        "after 10,000 warm calls: ‖V†V − I‖ {unitarity:e}, ‖V·Λ·V† − H‖ {reconstruction:e}, \
         eigenvalue gap to cold {gap:e}"
    );
}

/// A non-Hermitian or non-finite input fails typed on both entries, at the
/// 4×4 kernel's size and others, and leaves `out` empty, so the next warm
/// call starts cold.
#[test]
fn eigh_rejects_non_hermitian_on_both_entries() {
    type Entry = fn(&Matrix, &mut HermitianEig) -> Result<(), EigError>;
    let mut rng = StdRng::seed_from_u64(3);
    for n in [2, 3, 4] {
        let h = random_hermitian(n, &mut rng);
        let mut skewed = h.clone();
        skewed[(0, n - 1)] += c64(0.5, 0.0);
        let mut bad = vec![skewed];
        // Non-finite entries on the diagonal, and mirrored off it so the
        // matrix keeps its Hermitian shape.
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut diagonal = h.clone();
            diagonal[(n - 1, n - 1)] = c64(x, 0.0);
            let mut off = h.clone();
            off[(0, 1)] = c64(x, 0.0);
            off[(1, 0)] = c64(x, 0.0);
            bad.extend([diagonal, off]);
        }
        for (i, b) in bad.iter().enumerate() {
            for (name, entry) in [("cold", eigh_into as Entry), ("warm", eigh_warm_into)] {
                let mut out = eigh(&h).unwrap();
                assert_eq!(entry(b, &mut out), Err(EigError::NotHermitian), "n={n} #{i} {name}");
                assert!(out.values.is_empty() && out.vectors.rows() == 0, "n={n} #{i} {name}");
            }
        }
        // After a failure the warm entry starts cold: bit-identical to
        // `eigh_into`.
        let mut out = eigh(&h).unwrap();
        assert!(eigh_warm_into(&bad[0], &mut out).is_err());
        eigh_warm_into(&h, &mut out).unwrap();
        let cold = eigh(&h).unwrap();
        assert_eq!(out.values, cold.values, "n={n}");
        assert_eq!(out.vectors, cold.vectors, "n={n}");
    }
}

#[test]
fn expm_ih_is_unitary() {
    property("expm_ih_is_unitary").cases(64).run(|g| {
        let seed = g.u64_in(0, 500);
        let t = g.f64_in(0.0, 5.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random_hermitian(3, &mut rng);
        let u = expm_ih(&h, t).unwrap();
        assert!(u.is_unitary(1e-9), "seed={seed} t={t}");
    });
}

#[test]
fn expm_inverse_cancels() {
    property("expm_inverse_cancels").cases(64).run(|g| {
        let seed = g.u64_in(0, 200);
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random_hermitian(3, &mut rng).scale(c64(0.0, -1.0));
        let e = expm(&h);
        let einv = expm(&h.scale_re(-1.0));
        assert!(
            e.matmul(&einv).approx_eq(&Matrix::identity(3), 1e-9),
            "seed={seed}"
        );
    });
}

#[test]
fn unitary_key_invariant_under_global_phase() {
    property("unitary_key_invariant_under_global_phase")
        .cases(64)
        .run(|g| {
            let seed = g.u64_in(0, 500);
            let phi = g.f64_in(-3.1, 3.1);
            let mut rng = StdRng::seed_from_u64(seed);
            let u = random_unitary(3, &mut rng);
            let v = u.scale(Complex64::cis(phi));
            assert_eq!(UnitaryKey::new(&u), UnitaryKey::new(&v), "seed={seed} phi={phi}");
        });
}

#[test]
fn canonicalize_is_idempotent() {
    property("canonicalize_is_idempotent").cases(64).run(|g| {
        let seed = g.u64_in(0, 300);
        let mut rng = StdRng::seed_from_u64(seed);
        let u = random_unitary(3, &mut rng);
        let c1 = canonicalize_phase(&u);
        let c2 = canonicalize_phase(&c1);
        assert!(c1.approx_eq(&c2, 1e-10), "seed={seed}");
    });
}

#[test]
fn distance_symmetric() {
    property("distance_symmetric").cases(64).run(|g| {
        let sa = g.u64_in(0, 200);
        let sb = g.u64_in(0, 200);
        let mut ra = StdRng::seed_from_u64(sa);
        let mut rb = StdRng::seed_from_u64(sb.wrapping_add(1_000_000));
        let a = random_unitary(3, &mut ra);
        let b = random_unitary(3, &mut rb);
        let d1 = phase_invariant_distance(&a, &b);
        let d2 = phase_invariant_distance(&b, &a);
        assert!((d1 - d2).abs() < 1e-10, "sa={sa} sb={sb}");
        assert!((0.0..=1.0 + 1e-9).contains(&d1), "sa={sa} sb={sb}");
    });
}

#[test]
fn embed_preserves_unitarity() {
    property("embed_preserves_unitarity").cases(64).run(|g| {
        let seed = g.u64_in(0, 200);
        let q = g.usize_in(0, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let u = random_unitary(2, &mut rng);
        let e = u.embed(&[q], 3);
        assert!(e.is_unitary(1e-9), "seed={seed} q={q}");
    });
}

#[test]
fn embed_composes_like_matmul() {
    property("embed_composes_like_matmul").cases(64).run(|g| {
        let seed = g.u64_in(0, 100);
        // embed(A)·embed(B) = embed(A·B) when acting on the same qubit.
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_unitary(2, &mut rng);
        let b = random_unitary(2, &mut rng);
        let lhs = a.embed(&[1], 3).matmul(&b.embed(&[1], 3));
        let rhs = a.matmul(&b).embed(&[1], 3);
        assert!(lhs.approx_eq(&rhs, 1e-9), "seed={seed}");
    });
}
