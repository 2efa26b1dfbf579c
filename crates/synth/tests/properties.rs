//! Property-based tests for the synthesis crate.
//!
//! Ported from `proptest!` macros to `epoc_rt::check`, preserving the
//! 16-case counts.

use epoc_circuit::{circuits_equivalent, generators, Gate};
use epoc_linalg::{phase_invariant_distance, random_unitary};
use epoc_rt::check::property;
use epoc_rt::rng::StdRng;
use epoc_synth::{
    lower_to_vug_form, synthesize, vug_gate, InstantiateOptions, SynthConfig, Template,
};

#[test]
fn single_qubit_synthesis_always_converges() {
    property("single_qubit_synthesis_always_converges")
        .cases(16)
        .run(|g| {
            let seed = g.u64_in(0, 2000);
            let mut rng = StdRng::seed_from_u64(seed);
            let target = random_unitary(2, &mut rng);
            let r = synthesize(&target, &SynthConfig { seed, ..Default::default() }).unwrap();
            assert!(r.converged, "seed={seed} distance {}", r.distance);
            assert!(phase_invariant_distance(&r.circuit.unitary(), &target) < 1e-4);
        });
}

#[test]
fn lower_to_vug_form_preserves_random_circuits() {
    property("lower_to_vug_form_preserves_random_circuits")
        .cases(16)
        .run(|g| {
            let n = g.usize_in(2, 4);
            let gates = g.usize_in(1, 15);
            let seed = g.u64_in(0, 2000);
            let c = generators::random_circuit(n, gates, seed);
            let lowered = lower_to_vug_form(&c).unwrap();
            assert!(
                circuits_equivalent(&c, &lowered, 1e-6),
                "n={n} gates={gates} seed={seed}"
            );
            for op in lowered.ops() {
                let in_vug_form = matches!(op.gate, Gate::Unitary { .. } | Gate::CX | Gate::RZ(_));
                assert!(in_vug_form, "unexpected gate {}", op.gate);
            }
        });
}

/// The pipeline's synthesis fallback, the block's own gates in VUG/CNOT
/// form, is faithful on every 2-qubit circuit.
#[test]
fn fallback_is_always_sound() {
    property("fallback_is_always_sound").cases(16).run(|g| {
        let gates = g.usize_in(1, 10);
        let seed = g.u64_in(0, 1000);
        let c = generators::random_circuit(2, gates, seed);
        let fallback = lower_to_vug_form(&c).unwrap();
        assert!(circuits_equivalent(&c, &fallback, 1e-5), "gates={gates} seed={seed}");
    });
}

#[test]
fn template_gradient_matches_fd_random_structure() {
    property("template_gradient_matches_fd_random_structure")
        .cases(16)
        .run(|g| {
            let seed = g.u64_in(0, 300);
            let mut rng = StdRng::seed_from_u64(seed);
            let target = random_unitary(4, &mut rng);
            let mut t = Template::initial(2);
            t.push_cell(seed as usize % 2, (seed as usize + 1) % 2);
            let params: Vec<f64> = (0..t.n_params())
                .map(|i| ((seed as f64) * 0.37 + i as f64 * 0.91) % std::f64::consts::TAU)
                .collect();
            let (c0, grad) = t.cost_and_grad(&target, &params);
            let h = 1e-6;
            for j in 0..t.n_params() {
                let mut p = params.clone();
                p[j] += h;
                let (c1, _) = t.cost_and_grad(&target, &p);
                let fd = (c1 - c0) / h;
                assert!(
                    (fd - grad[j]).abs() < 1e-4,
                    "seed={seed} param {j}: {fd} vs {}",
                    grad[j]
                );
            }
        });
}

#[test]
fn vug_gate_classification() {
    property("vug_gate_classification").cases(16).run(|g| {
        let seed = g.u64_in(0, 1000);
        let theta = g.f64_in(-3.0, 3.0);
        // Diagonal unitaries become virtual RZ; identity becomes nothing.
        let rz = Gate::RZ(theta).unitary_matrix();
        match vug_gate(&rz) {
            None => assert!(theta.abs() < 1e-6, "theta={theta}"),
            Some(Gate::RZ(t)) => {
                let d = Gate::RZ(t).unitary_matrix();
                assert!(phase_invariant_distance(&d, &rz) < 1e-7, "theta={theta}");
            }
            Some(g) => panic!("diagonal became {g}"),
        }
        // Generic unitaries become opaque VUGs.
        let mut rng = StdRng::seed_from_u64(seed);
        let u = random_unitary(2, &mut rng);
        if u[(0, 1)].abs() > 1e-4 {
            let is_opaque = matches!(vug_gate(&u), Some(Gate::Unitary { .. }));
            assert!(is_opaque, "seed={seed}");
        }
    });
}

#[test]
fn instantiate_respects_cost_threshold_shortcut() {
    // A loose threshold must not loop to max_iters on an easy target.
    let mut rng = StdRng::seed_from_u64(7);
    let target = Gate::T.unitary_matrix();
    let t = Template::initial(1);
    let (_, dist) = t.instantiate(
        &target,
        &mut rng,
        &InstantiateOptions {
            cost_threshold: 1e-6,
            ..Default::default()
        },
    );
    assert!(dist < 2e-3, "distance {dist}");
}

#[test]
fn synthesis_reduces_cnots_on_compressible_blocks() {
    // CX·CX = I: QSearch should find a 0-CNOT implementation.
    let mut c = epoc_circuit::Circuit::new(2);
    c.push(Gate::CX, &[0, 1]).push(Gate::CX, &[0, 1]);
    let r = synthesize(&c.unitary(), &SynthConfig::default()).unwrap();
    assert!(r.converged);
    assert_eq!(r.cnots, 0, "identity synthesized with {} CNOTs", r.cnots);
}
