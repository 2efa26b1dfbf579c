//! Pulse-level replay oracles over the builtin benchmarks.
//!
//! Each circuit is compiled with real GRAPE (`EpocConfig::with_grape(2)`
//! at the default worker count, what `epocc bench:NAME` does), and its
//! schedule is replayed noiselessly by `epoc-sim` against the circuit's
//! unitary. The replay is independent of GRAPE's per-block objective, so
//! it catches scheduling bugs, wrong block embeddings and cache-replay
//! errors that the reported ESP cannot see. Two oracles:
//!
//! * **Exact**, on every builtin: the replay agrees within
//!   [`EXACT_TOLERANCE`] with the replay of the same schedule in which
//!   every waveform is swapped for its realized block unitary (the
//!   propagator of its controls on the block's device, applied
//!   digitally). Lowering, embedding, frames and cache replay must then
//!   be exact, whatever the pulses' own fidelities. The four 8-qubit
//!   builtins are `#[ignore]`d for their cost; `ci.sh` runs them with
//!   `cargo test --test replay_oracle -- --ignored _exact`.
//! * **ESP**, on EXPERIMENTS.md's replay table: the simulated process
//!   fidelity is at least [`MIN_FIDELITY`] and tracks the GRAPE-reported
//!   ESP within [`ESP_TOLERANCE`].
//!
//! ham7_n7's ESP check stays outside: ESP multiplies per-pulse
//! fidelities, which cannot see coherent pulse errors compose, and its
//! reused waveforms compose to a replay 0.026 below the product. Run that
//! reproducer with `cargo test --test replay_oracle -- --ignored ham7_n7`
//! (it fails by design).

use epoc::pulse::{PulsePayload, PulseSchedule};
use epoc::qoc::{propagate, DeviceModel};
use epoc::sim::SimOptions;
use epoc::{simulate_schedule, CompilationReport, EpocCompiler, EpocConfig};
use epoc_circuit::generators;
use std::sync::Arc;

/// Floor on the noiseless simulated process fidelity.
const MIN_FIDELITY: f64 = 0.98;
/// Largest allowed `|simulated fidelity − ESP|`.
const ESP_TOLERANCE: f64 = 2e-3;
/// Largest allowed gap between the waveform replay and the replay of the
/// realized block unitaries.
const EXACT_TOLERANCE: f64 = 1e-9;

/// `schedule` with every waveform payload swapped for its realized block
/// unitary.
fn with_realized_unitaries(schedule: &PulseSchedule) -> PulseSchedule {
    let mut swapped = PulseSchedule::new(schedule.n_qubits());
    for pulse in schedule.pulses() {
        let mut pulse = pulse.clone();
        if let PulsePayload::Waveform(w) = &pulse.payload {
            let device = DeviceModel::transmon_line(pulse.qubits.len()).unwrap();
            let realized = propagate(&device, w.controls()).unwrap();
            pulse.payload = PulsePayload::Unitary(Arc::new(realized));
        }
        swapped.push(pulse);
    }
    for frame in schedule.frames() {
        swapped.push_frame(frame.clone());
    }
    swapped
}

/// Compiles the builtin benchmark `name`, replays its schedule, and
/// checks the exact oracle. Returns the report and the replay's process
/// fidelity.
fn exact(name: &str) -> (CompilationReport, f64) {
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
    let swapped = with_realized_unitaries(&report.schedule);
    let realized = simulate_schedule(&circuit, &swapped, &SimOptions::default())
        .unwrap_or_else(|e| panic!("{name}: replay of the realized unitaries failed: {e}"))
        .outcome;
    assert_eq!(realized.waveform_pulses, 0, "{name}");
    assert!(
        (fidelity - realized.process_fidelity).abs() <= EXACT_TOLERANCE,
        "{name}: waveform replay {fidelity:.12} vs realized block unitaries {:.12}",
        realized.process_fidelity
    );
    (report, fidelity)
}

/// Runs [`exact`], then checks both ESP oracle conditions.
fn replay(name: &str) {
    let (report, fidelity) = exact(name);
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
#[ignore = "ESP's blind spot for coherent errors: two waveforms reused 15x each compose to a replay 0.026 below the ESP product (ROADMAP item 4)"]
fn ham7_n7() {
    replay("ham7_n7");
}

#[test]
fn ham7_n7_exact() {
    exact("ham7_n7");
}

#[test]
fn adder_n4_exact() {
    exact("adder_n4");
}

#[test]
fn bv_n5_exact() {
    exact("bv_n5");
}

#[test]
fn ising_n6_exact() {
    exact("ising_n6");
}

#[test]
fn qaoa_n6_exact() {
    exact("qaoa_n6");
}

#[test]
fn simon_n6_exact() {
    exact("simon_n6");
}

#[test]
#[ignore = "8 qubits: about 45 s to compile and replay twice in the test profile; ci.sh runs it"]
fn ghz_n8_exact() {
    exact("ghz_n8");
}

#[test]
#[ignore = "8 qubits: about 35 s to compile and replay twice in the test profile; ci.sh runs it"]
fn bv_n8_exact() {
    exact("bv_n8");
}

#[test]
#[ignore = "8 qubits: about 12 s to compile and replay twice in the test profile; ci.sh runs it"]
fn bb84_n8_exact() {
    exact("bb84_n8");
}

#[test]
#[ignore = "8 qubits: about 80 s to compile and replay twice in the test profile; ci.sh runs it"]
fn dnn_n8_exact() {
    exact("dnn_n8");
}
