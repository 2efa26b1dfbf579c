//! Property-based tests for the QOC crate.
//!
//! Ported from `proptest!` macros to `epoc_rt::check`, preserving the
//! 24-case counts.

use epoc_circuit::{Circuit, Gate};
use epoc_linalg::{random_unitary, Matrix};
use epoc_qoc::{
    grape, load_library_file, propagate, save_library_file, DeviceModel, DurationModel,
    GrapeConfig, KeyPolicy, PulseEntry, PulseLibrary, PulseWaveform, StoreConfig,
};
use epoc_rt::check::property;
use epoc_rt::rng::{Rng, StdRng};
use std::sync::Arc;

#[test]
fn propagation_is_always_unitary() {
    property("propagation_is_always_unitary").cases(24).run(|g| {
        let seed = g.u64_in(0, 1000);
        let slots = g.usize_in(1, 12);
        let device = DeviceModel::transmon_line(2).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = device.max_amplitude();
        let controls: Vec<Vec<f64>> = (0..device.controls().len())
            .map(|_| (0..slots).map(|_| (rng.gen_f64() - 0.5) * 2.0 * a).collect())
            .collect();
        let u = propagate(&device, &controls).unwrap();
        assert!(u.is_unitary(1e-8), "seed={seed} slots={slots}");
    });
}

#[test]
fn propagation_composes() {
    property("propagation_composes").cases(24).run(|g| {
        let seed = g.u64_in(0, 500);
        // Propagating k slots then m slots equals propagating k+m at once.
        let device = DeviceModel::transmon_line(1).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = device.max_amplitude();
        let mk = |rng: &mut StdRng, n: usize| -> Vec<Vec<f64>> {
            (0..2).map(|_| (0..n).map(|_| (rng.gen_f64() - 0.5) * a).collect()).collect()
        };
        let first = mk(&mut rng, 3);
        let second = mk(&mut rng, 4);
        let combined: Vec<Vec<f64>> = (0..2)
            .map(|j| {
                let mut v = first[j].clone();
                v.extend_from_slice(&second[j]);
                v
            })
            .collect();
        let u = propagate(&device, &second)
            .unwrap()
            .matmul(&propagate(&device, &first).unwrap());
        let w = propagate(&device, &combined).unwrap();
        assert!(u.approx_eq(&w, 1e-9), "seed={seed}");
    });
}

#[test]
fn grape_fidelity_in_unit_interval() {
    property("grape_fidelity_in_unit_interval").cases(24).run(|g| {
        let seed = g.u64_in(0, 200);
        let device = DeviceModel::transmon_line(1).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let target = random_unitary(2, &mut rng);
        let r = grape(
            &device,
            &target,
            10,
            &GrapeConfig { max_iters: 30, restarts: 1, seed, ..Default::default() },
        )
        .unwrap();
        assert!((0.0..=1.0 + 1e-9).contains(&r.fidelity), "seed={seed}");
        assert!(r.unitary.is_unitary(1e-8), "seed={seed}");
        // Controls respect the amplitude bound.
        for ch in &r.controls {
            for &v in ch {
                assert!(v.abs() <= device.max_amplitude() + 1e-12, "seed={seed}");
            }
        }
    });
}

#[test]
fn duration_model_monotone_in_gates() {
    property("duration_model_monotone_in_gates").cases(24).run(|g| {
        let extra = g.usize_in(1, 6);
        // Appending physical gates never shortens the modeled duration.
        let m = DurationModel::default();
        let mut c = Circuit::new(2);
        c.push(Gate::CX, &[0, 1]);
        let base = m.block_duration(&c);
        for i in 0..extra {
            c.push(Gate::CX, &[i % 2, (i + 1) % 2]);
        }
        assert!(m.block_duration(&c) >= base, "extra={extra}");
    });
}

#[test]
fn library_lookup_returns_what_was_inserted() {
    property("library_lookup_returns_what_was_inserted")
        .cases(24)
        .run(|g| {
            let seed = g.u64_in(0, 500);
            let d = g.f64_in(1.0, 500.0);
            let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
            let mut rng = StdRng::seed_from_u64(seed);
            let u = random_unitary(2, &mut rng);
            let entry = PulseEntry { duration: d, fidelity: 0.999, n_slots: d as usize, waveform: None };
            lib.insert(&u, entry.clone());
            assert_eq!(lib.lookup(&u), Some(entry), "seed={seed} d={d}");
        });
}

#[test]
fn library_phase_invariance() {
    property("library_phase_invariance").cases(24).run(|g| {
        let seed = g.u64_in(0, 500);
        let phi = g.f64_in(-3.1, 3.1);
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        let mut rng = StdRng::seed_from_u64(seed);
        let u = random_unitary(2, &mut rng);
        lib.insert(&u, PulseEntry { duration: 7.0, fidelity: 0.99, n_slots: 4, waveform: None });
        let rotated = u.scale(epoc_linalg::Complex64::cis(phi));
        assert!(lib.lookup(&rotated).is_some(), "seed={seed} phi={phi}");
    });
}

/// A random pulse entry: random duration/fidelity/slot-count, and with
/// probability ~1/3 no waveform at all (modeled pulses and digital
/// fallbacks store `None`).
fn random_entry(rng: &mut StdRng) -> PulseEntry {
    let n_slots = 1 + (rng.next_u64_below(24)) as usize;
    let waveform = if rng.next_u64_below(3) == 0 {
        None
    } else {
        let channels = 1 + (rng.next_u64_below(4)) as usize;
        let controls: Vec<Vec<f64>> = (0..channels)
            .map(|_| (0..n_slots).map(|_| (rng.gen_f64() - 0.5) * 0.3).collect())
            .collect();
        Some(Arc::new(PulseWaveform::new(
            0.5 + rng.gen_f64() * 4.0,
            controls,
        )))
    };
    PulseEntry {
        duration: rng.gen_f64() * 500.0,
        fidelity: rng.gen_f64(),
        n_slots,
        waveform,
    }
}

#[test]
fn entry_json_round_trip_is_lossless() {
    property("entry_json_round_trip_is_lossless").cases(24).run(|g| {
        let seed = g.u64_in(0, 10_000);
        let mut rng = StdRng::seed_from_u64(seed);
        let entry = random_entry(&mut rng);
        let restored = PulseEntry::from_json_value(&entry.to_json_value())
            .unwrap_or_else(|e| panic!("seed={seed}: {e}"));
        // Exact equality: floats print in shortest round-trip form, so
        // every bit (duration, fidelity, dt, each amplitude) survives.
        assert_eq!(entry, restored, "seed={seed}");
    });
}

#[test]
fn library_file_round_trip_is_lossless_under_both_policies() {
    property("library_file_round_trip_is_lossless_under_both_policies")
        .cases(24)
        .run(|g| {
            let seed = g.u64_in(0, 10_000);
            let n = g.usize_in(1, 6);
            let policy = if seed % 2 == 0 {
                KeyPolicy::PhaseAware
            } else {
                KeyPolicy::PhaseSensitive
            };
            let mut rng = StdRng::seed_from_u64(seed);
            // Budgeted or not: persistence must not depend on the store's
            // budget (a roomy one, so nothing is evicted).
            let store = StoreConfig {
                budget_bytes: (rng.next_u64_below(2) == 1).then_some(1 << 30),
            };
            let lib = PulseLibrary::from_config(policy, &store);
            let mut unitaries = Vec::new();
            for _ in 0..n {
                let u = random_unitary(2, &mut rng);
                lib.insert(&u, random_entry(&mut rng));
                unitaries.push(u);
            }
            let path = std::env::temp_dir().join(format!(
                "epoc-prop-roundtrip-{}-{seed}.json",
                std::process::id()
            ));
            save_library_file(&path, &[("lib", &lib)]).unwrap();
            let restored = PulseLibrary::from_config(policy, &StoreConfig::default());
            let loaded = load_library_file(&path, &[("lib", &restored)]).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(loaded, lib.len(), "seed={seed}");
            for u in &unitaries {
                assert_eq!(restored.peek(u), lib.peek(u), "seed={seed}");
            }
        });
}

/// A waveform reads back each slot's sample anywhere inside that slot,
/// and lasts its slot count times the slot width.
#[test]
fn pwc_round_trips_samples() {
    property("pwc_round_trips_samples").cases(48).run(|g| {
        let samples = g.vec(1, 20, |g| g.f64_in(-0.5, 0.5));
        let w = PulseWaveform::new(2.0, vec![samples.clone()]);
        for (i, &v) in samples.iter().enumerate() {
            let t = (i as f64 + g.f64_in(0.0, 0.999)) * 2.0;
            assert_eq!(w.amplitude(0, t), v, "slot {i} at t={t}");
        }
        assert_eq!(w.duration(), samples.len() as f64 * 2.0);
    });
}

#[test]
fn grape_is_deterministic() {
    let device = DeviceModel::transmon_line(1).unwrap();
    let target = Gate::H.unitary_matrix();
    let a = grape(&device, &target, 20, &GrapeConfig::default()).unwrap();
    let b = grape(&device, &target, 20, &GrapeConfig::default()).unwrap();
    assert_eq!(a.controls, b.controls);
    assert_eq!(a.fidelity, b.fidelity);
}

#[test]
fn longer_pulses_never_reduce_best_fidelity_much() {
    // More slots = strictly more controllable; fidelity should not drop
    // materially when duration grows (optimizer noise aside).
    let device = DeviceModel::transmon_line(1).unwrap();
    let target = Gate::X.unitary_matrix();
    let short = grape(&device, &target, 14, &GrapeConfig::default()).unwrap();
    let long = grape(&device, &target, 28, &GrapeConfig::default()).unwrap();
    assert!(long.fidelity >= short.fidelity - 0.01);
}

#[test]
fn identity_block_models_to_zero_but_identity_grape_is_cheap() {
    let m = DurationModel::default();
    let c = Circuit::new(2);
    assert_eq!(m.block_duration(&c), 0.0);
    let device = DeviceModel::transmon_line(1).unwrap();
    let r = grape(&device, &Matrix::identity(2), 1, &GrapeConfig::default()).unwrap();
    assert!(r.fidelity > 0.9999);
}
