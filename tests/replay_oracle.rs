//! Pulse-level replay oracle over EXPERIMENTS.md's replay table.
//!
//! Each circuit is compiled with real GRAPE (`EpocConfig::with_grape(2)`
//! at the default worker count, what `epocc bench:NAME` does), and its
//! schedule is replayed noiselessly by `epoc-sim` against the circuit's
//! unitary. The replay is independent of GRAPE's per-block objective, so
//! it catches scheduling bugs, wrong block embeddings and cache-replay
//! errors that the reported ESP cannot see. Two checks per circuit:
//!
//! * the simulated process fidelity is at least [`MIN_FIDELITY`];
//! * it tracks the GRAPE-reported ESP within [`ESP_TOLERANCE`].
//!
//! Run the known-defect reproducer with
//! `cargo test --test replay_oracle -- --ignored`.

use epoc::sim::SimOptions;
use epoc::{simulate_schedule, EpocCompiler, EpocConfig};
use epoc_circuit::generators;

/// Floor on the noiseless simulated process fidelity.
const MIN_FIDELITY: f64 = 0.98;
/// Largest allowed `|simulated fidelity − ESP|`.
const ESP_TOLERANCE: f64 = 2e-3;

/// Compiles the builtin benchmark `name`, replays its schedule, and checks
/// both oracle conditions.
fn replay(name: &str) {
    let circuit = generators::benchmark_suite()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("unknown builtin benchmark {name}"))
        .circuit;
    let report = EpocCompiler::new(EpocConfig::with_grape(2))
        .compile(&circuit)
        .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    assert!(
        report.verified,
        "{name}: compiled circuit failed verification"
    );
    let stats = simulate_schedule(&circuit, &report.schedule, &SimOptions::default())
        .unwrap_or_else(|e| panic!("{name}: replay failed: {e}"));
    let fidelity = stats.outcome.process_fidelity;
    let esp = report.esp();
    assert!(
        fidelity >= MIN_FIDELITY,
        "{name}: simulated process fidelity {fidelity:.6} is below {MIN_FIDELITY}"
    );
    assert!(
        (fidelity - esp).abs() <= ESP_TOLERANCE,
        "{name}: simulated fidelity {fidelity:.6} is {:.2e} from the ESP {esp:.6}",
        (fidelity - esp).abs()
    );
}

#[test]
fn bell_n4() {
    replay("bell_n4");
}

#[test]
fn wstate_n3() {
    replay("wstate_n3");
}

#[test]
fn ghz_n4() {
    replay("ghz_n4");
}

#[test]
fn grover_n3() {
    replay("grover_n3");
}

#[test]
fn qft_n5() {
    replay("qft_n5");
}

#[test]
fn vqe_n4() {
    replay("vqe_n4");
}

#[test]
fn decod24_n4() {
    replay("decod24_n4");
}

#[test]
#[ignore = "known defect: replays 0.026 below its ESP, ROADMAP item 4"]
fn ham7_n7() {
    replay("ham7_n7");
}
