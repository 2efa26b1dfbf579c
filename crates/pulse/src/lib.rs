//! # epoc-pulse — pulse schedules, latency and ESP fidelity
//!
//! The scheduling layer of the EPOC reproduction: ASAP placement of
//! pulses on qubit lines ([`schedule_circuit`], [`PulseSchedule`]) with
//! the latency and Eq.-3 ESP-fidelity metrics the paper reports, and the
//! calibrated gate-based pulse generator ([`gate_based_schedule`]) used
//! as the traditional-flow comparator in Table 1. A scheduled pulse
//! carries its waveform as the GRAPE controls
//! ([`PulsePayload::Waveform`]).
//!
//! ## Example
//!
//! ```
//! use epoc_circuit::generators;
//! use epoc_pulse::{gate_based_schedule, GatePulseTables};
//!
//! let schedule = gate_based_schedule(&generators::ghz(3), &GatePulseTables::default());
//! assert!(schedule.latency() > 600.0); // H + two serial CNOTs
//! assert!(schedule.esp() < 1.0);
//! ```

#![warn(missing_docs)]

mod coherence;
mod gate_pulses;
mod schedule;

pub use coherence::CoherenceModel;
pub use gate_pulses::{gate_based_schedule, GateFidelityTable, GatePulseTables};
pub use schedule::{
    schedule_circuit, FrameUpdate, PulseCost, PulsePayload, PulseSchedule, ScheduledPulse,
};
