//! Property-based tests for pulse schedules.
//!
//! Ported from `proptest!` macros to `epoc_rt::check`, preserving the
//! 48-case counts.

use epoc_circuit::generators;
use epoc_pulse::{
    gate_based_schedule, schedule_circuit, CoherenceModel, GatePulseTables, PulseCost,
};
use epoc_rt::check::property;

#[test]
fn asap_schedules_are_always_valid() {
    property("asap_schedules_are_always_valid").cases(48).run(|g| {
        let n = g.usize_in(2, 6);
        let gates = g.usize_in(0, 40);
        let seed = g.u64_in(0, 10_000);
        let c = generators::random_circuit(n.max(2), gates.max(1), seed);
        let s = gate_based_schedule(&c, &GatePulseTables::default());
        assert!(s.is_valid(), "overlapping pulses (n={n} gates={gates} seed={seed})");
        assert!(s.latency() >= 0.0);
        assert!((0.0..=1.0).contains(&s.esp()));
    });
}

#[test]
fn latency_bounded_by_serial_sum() {
    property("latency_bounded_by_serial_sum").cases(48).run(|g| {
        let seed = g.u64_in(0, 5_000);
        let dur = g.f64_in(1.0, 100.0);
        let c = generators::random_circuit(3, 12, seed);
        let s = schedule_circuit(&c, |_| PulseCost { duration: dur, fidelity: 1.0 });
        // Latency is at most fully-serial execution, at least one pulse.
        assert!(s.latency() <= dur * c.len() as f64 + 1e-9, "seed={seed} dur={dur}");
        assert!(s.latency() >= dur - 1e-9, "seed={seed} dur={dur}");
    });
}

#[test]
fn latency_at_least_critical_path_lower_bound() {
    property("latency_at_least_critical_path_lower_bound")
        .cases(48)
        .run(|g| {
            let seed = g.u64_in(0, 5_000);
            // With unit durations, latency ≥ depth of the circuit.
            let c = generators::random_circuit(3, 15, seed);
            let s = schedule_circuit(&c, |_| PulseCost { duration: 1.0, fidelity: 1.0 });
            assert!(s.latency() + 1e-9 >= c.depth() as f64, "seed={seed}");
        });
}

#[test]
fn coherence_decay_monotone() {
    property("coherence_decay_monotone").cases(48).run(|g| {
        let t1a = g.f64_in(1_000.0, 50_000.0);
        let factor = g.f64_in(1.1, 5.0);
        let c = generators::ghz(4);
        let s = gate_based_schedule(&c, &GatePulseTables::default());
        let short = CoherenceModel::new(t1a, 0.8 * t1a);
        let long = CoherenceModel::new(t1a * factor, 0.8 * t1a * factor);
        // Longer coherence → less decay.
        assert!(
            long.schedule_decay(&s) >= short.schedule_decay(&s),
            "t1a={t1a} factor={factor}"
        );
    });
}

#[test]
fn benchmark_suite_schedules_validate() {
    for b in generators::benchmark_suite() {
        let lowered = epoc_circuit::lower_to_basis(&b.circuit);
        let s = gate_based_schedule(&lowered, &GatePulseTables::default());
        assert!(s.is_valid(), "{} schedule overlaps", b.name);
        assert!(s.latency() > 0.0, "{} empty schedule", b.name);
    }
}
