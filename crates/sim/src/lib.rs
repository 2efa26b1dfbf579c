//! # epoc-sim — pulse-level device simulator
//!
//! Replays an emitted [`PulseSchedule`](epoc_pulse::PulseSchedule)
//! against the device Hamiltonian and scores it against the source
//! circuit's unitary — the closed-loop check the paper (and AccQOC) uses
//! to validate generated pulses, independent of GRAPE's own training
//! objective. A scheduling bug, a wrong block embedding, or cached-pulse
//! reuse in a mismatched context all show up here as lost fidelity even
//! when every per-block GRAPE fidelity looks perfect.
//!
//! The flow is [`Timeline::lower`] (schedule → global-register drive and
//! digital events on a piecewise-constant breakpoint grid) followed by
//! either the noiseless propagator ([`engine::propagate`]) or seeded
//! Monte-Carlo trajectories ([`engine::run_trajectory`]); [`simulate`]
//! wraps both and reports a [`SimOutcome`].
//!
//! Determinism contract: with a fixed seed, results are byte-identical at
//! any worker count — trajectory `i` always consumes the RNG stream
//! `seed + i`, and [`epoc_rt::pool::parallel_map`] returns results in
//! input order.

#![warn(missing_docs)]

pub mod engine;
mod error;
pub mod timeline;

pub use engine::{propagate, run_trajectory, SimWorkspace};
pub use error::SimError;
pub use timeline::{DigitalEvent, DriveEvent, Timeline};

use epoc_linalg::{Complex64, Matrix};
use epoc_pulse::PulseSchedule;
use epoc_rt::{pool, telemetry};

/// Quasi-static and Markovian noise knobs. A value of `0.0` disables the
/// corresponding term (there is no `Option` layering — `0.0` keeps the
/// JSON echo of the config finite and explicit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Std-dev of the per-qubit quasi-static detuning (rad/ns).
    pub detuning_sigma: f64,
    /// Std-dev of the per-qubit relative drive-amplitude error.
    pub amplitude_sigma: f64,
    /// Amplitude-damping time T1 (ns); `0.0` disables damping.
    pub t1: f64,
    /// Coherence time T2 (ns); `0.0` disables pure dephasing.
    pub t2: f64,
}

impl NoiseModel {
    /// No noise at all — trajectories reduce to the ideal evolution.
    pub fn noiseless() -> Self {
        Self {
            detuning_sigma: 0.0,
            amplitude_sigma: 0.0,
            t1: 0.0,
            t2: 0.0,
        }
    }

    /// A representative transmon operating point: 0.5 MHz detuning
    /// spread, 0.2 % amplitude error, T1 = 80 µs, T2 = 60 µs.
    pub fn standard() -> Self {
        Self {
            detuning_sigma: 2.0 * std::f64::consts::PI * 0.0005,
            amplitude_sigma: 0.002,
            t1: 80_000.0,
            t2: 60_000.0,
        }
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self::noiseless()
    }
}

/// Simulation controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Dense register ceiling — schedules wider than this are rejected
    /// ([`SimError::TooWide`]) rather than allocating `4^n` memory.
    pub max_qubits: usize,
    /// Number of Monte-Carlo trajectories (`0` = noiseless only).
    pub shots: usize,
    /// Base RNG seed; trajectory `i` uses stream `seed + i`.
    pub seed: u64,
    /// Worker threads for the trajectory fan-out (`0` = use
    /// [`pool::default_workers`]). Never affects results, only speed.
    pub workers: usize,
    /// The noise model sampled by trajectories.
    pub noise: NoiseModel,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            max_qubits: 8,
            shots: 0,
            seed: 0xE90C,
            workers: 0,
            noise: NoiseModel::noiseless(),
        }
    }
}

/// The result of replaying a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Phase-invariant process fidelity `|Tr(U†·T)| / d` of the noiseless
    /// replay against the target unitary.
    pub process_fidelity: f64,
    /// Average gate fidelity `(|Tr(U†·T)|² + d) / (d² + d)`.
    pub avg_gate_fidelity: f64,
    /// Total `expm` steps taken (noiseless pass plus all trajectories).
    pub steps: u64,
    /// Pulses replayed from GRAPE waveforms.
    pub waveform_pulses: usize,
    /// Pulses replayed as exact digital unitaries.
    pub digital_pulses: usize,
    /// Virtual frame updates applied.
    pub frames: usize,
    /// Per-trajectory state fidelities `|⟨target·0…0|ψ⟩|²`, in shot
    /// order (empty when `shots == 0`).
    pub trajectories: Vec<f64>,
}

impl SimOutcome {
    /// Mean of the trajectory fidelities (`None` when no shots ran).
    pub fn shot_mean(&self) -> Option<f64> {
        if self.trajectories.is_empty() {
            return None;
        }
        Some(self.trajectories.iter().sum::<f64>() / self.trajectories.len() as f64)
    }
}

/// Replays `schedule` and scores it against `target`, the source
/// circuit's unitary on the same register.
///
/// Telemetry: wraps the run in a `sim`/`simulate` span and bumps the
/// `sim.steps` and `sim.trajectories` counters.
///
/// # Errors
///
/// Returns [`SimError`] if the schedule cannot be lowered (too wide,
/// opaque payloads, channel mismatches), the target dimension is wrong,
/// or a step Hamiltonian fails to diagonalize.
pub fn simulate(
    schedule: &PulseSchedule,
    target: &Matrix,
    opts: &SimOptions,
) -> Result<SimOutcome, SimError> {
    let _span = telemetry::span("sim", "simulate");
    let timeline = Timeline::lower(schedule, opts.max_qubits)?;
    if target.rows() != timeline.dim || target.cols() != timeline.dim {
        return Err(SimError::TargetShape {
            expected: timeline.dim,
            got: target.rows(),
        });
    }

    let mut ws = SimWorkspace::new(timeline.dim);
    let (u, mut steps) = propagate(&timeline, &mut ws)?;

    // Tr(U† · T): the phase-invariant overlap both fidelities build on.
    let d = timeline.dim as f64;
    let mut tr_re = 0.0;
    let mut tr_im = 0.0;
    for (a, b) in u.as_slice().iter().zip(target.as_slice()) {
        tr_re += a.re * b.re + a.im * b.im;
        tr_im += a.re * b.im - a.im * b.re;
    }
    let tr_abs2 = tr_re * tr_re + tr_im * tr_im;
    let process_fidelity = tr_abs2.sqrt() / d;
    let avg_gate_fidelity = (tr_abs2 + d) / (d * d + d);

    let trajectories = if opts.shots > 0 {
        let _span = telemetry::span("sim", "trajectories");
        let target_state: Vec<Complex64> = (0..timeline.dim).map(|i| target[(i, 0)]).collect();
        let workers = if opts.workers == 0 {
            pool::default_workers()
        } else {
            opts.workers
        };
        let shots: Vec<u64> = (0..opts.shots as u64).collect();
        let results = pool::parallel_map(&shots, workers, |_, &shot| {
            let mut ws = SimWorkspace::new(timeline.dim);
            run_trajectory(&timeline, &opts.noise, opts.seed, shot, &target_state, &mut ws)
        });
        let mut fids = Vec::with_capacity(results.len());
        for r in results {
            let (fid, shot_steps) = r?;
            steps += shot_steps;
            fids.push(fid);
        }
        fids
    } else {
        Vec::new()
    };

    telemetry::counter_add("sim.steps", steps);
    telemetry::counter_add("sim.trajectories", trajectories.len() as u64);

    Ok(SimOutcome {
        process_fidelity,
        avg_gate_fidelity,
        steps,
        waveform_pulses: timeline.drives.len(),
        digital_pulses: timeline.digitals.len() - schedule.frames().len(),
        frames: schedule.frames().len(),
        trajectories,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use epoc_circuit::{Circuit, Gate};
    use epoc_pulse::{schedule_circuit, PulseCost};

    fn ghz_schedule() -> (PulseSchedule, Matrix) {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0])
            .push(Gate::CX, &[0, 1])
            .push(Gate::CX, &[1, 2]);
        let s = schedule_circuit(&c, |_| PulseCost {
            duration: 20.0,
            fidelity: 0.999,
        });
        let u = c.unitary();
        (s, u)
    }

    #[test]
    fn digital_replay_is_exact() {
        let (s, u) = ghz_schedule();
        let out = simulate(&s, &u, &SimOptions::default()).unwrap();
        assert!((out.process_fidelity - 1.0).abs() < 1e-12);
        assert!((out.avg_gate_fidelity - 1.0).abs() < 1e-12);
        assert_eq!(out.digital_pulses, 3);
        assert_eq!(out.waveform_pulses, 0);
        assert!(out.trajectories.is_empty());
    }

    #[test]
    fn noiseless_shots_hit_unity() {
        let (s, u) = ghz_schedule();
        let opts = SimOptions {
            shots: 4,
            ..SimOptions::default()
        };
        let out = simulate(&s, &u, &opts).unwrap();
        assert_eq!(out.trajectories.len(), 4);
        for f in &out.trajectories {
            assert!((f - 1.0).abs() < 1e-12);
        }
        assert!((out.shot_mean().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_shots_deterministic_across_worker_counts() {
        let (s, u) = ghz_schedule();
        let mut opts = SimOptions {
            shots: 8,
            noise: NoiseModel::standard(),
            workers: 1,
            ..SimOptions::default()
        };
        let one = simulate(&s, &u, &opts).unwrap();
        opts.workers = 4;
        let four = simulate(&s, &u, &opts).unwrap();
        assert_eq!(one, four);
        // Noise actually moves the needle somewhere below exactly 1.
        assert!(one.trajectories.iter().any(|f| *f < 1.0));
    }

    #[test]
    fn rejects_wrong_target_shape() {
        let (s, _) = ghz_schedule();
        let wrong = Matrix::identity(4);
        assert_eq!(
            simulate(&s, &wrong, &SimOptions::default()).unwrap_err(),
            SimError::TargetShape {
                expected: 8,
                got: 4
            }
        );
    }
}
