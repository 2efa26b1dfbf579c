//! Gate-based pulse generation (the traditional workflow of Figure 1).
//!
//! Every basis gate maps to a calibrated pulse with fixed duration and
//! fidelity; RZ is a virtual frame update. This is the
//! "gate-based" comparator of Table 1.

use crate::schedule::{schedule_circuit, PulseCost, PulseSchedule};
use epoc_circuit::{Circuit, Gate, Operation};
use epoc_qoc::GateDurationTable;

/// Calibrated per-gate fidelities for the gate-based baseline
/// (NISQ-typical numbers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateFidelityTable {
    /// Single-qubit physical pulse fidelity.
    pub single: f64,
    /// Virtual RZ fidelity (exact).
    pub rz: f64,
    /// Two-qubit gate fidelity.
    pub two: f64,
    /// Three-qubit (decomposed) gate fidelity.
    pub three: f64,
}

impl Default for GateFidelityTable {
    fn default() -> Self {
        Self {
            single: 0.9996,
            rz: 1.0,
            two: 0.9930,
            three: 0.9930f64.powi(6) * 0.9996f64.powi(8),
        }
    }
}

impl GateFidelityTable {
    /// Fidelity of one gate's calibrated pulse.
    pub fn gate(&self, gate: &Gate) -> f64 {
        match gate {
            Gate::RZ(_) | Gate::Phase(_) | Gate::Z | Gate::S | Gate::Sdg | Gate::T
            | Gate::Tdg | Gate::I => self.rz,
            g if g.arity() == 1 => self.single,
            Gate::Swap => self.two.powi(3),
            g if g.arity() == 2 => self.two,
            _ => self.three,
        }
    }
}

/// The calibrated pulse tables for a device.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GatePulseTables {
    /// Durations.
    pub durations: GateDurationTable,
    /// Fidelities.
    pub fidelities: GateFidelityTable,
}

impl GatePulseTables {
    /// The [`PulseCost`] of one operation under these tables.
    pub fn cost(&self, op: &Operation) -> PulseCost {
        PulseCost {
            duration: self.durations.gate(&op.gate),
            fidelity: self.fidelities.gate(&op.gate),
        }
    }
}

/// Generates the gate-based pulse schedule for a circuit: one calibrated
/// pulse per physical gate, ASAP-placed.
pub fn gate_based_schedule(circuit: &Circuit, tables: &GatePulseTables) -> PulseSchedule {
    schedule_circuit(circuit, |op| tables.cost(op))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epoc_circuit::generators;

    #[test]
    fn ghz_gate_based_latency() {
        // GHZ(3): H then 2 serial CX: 35.5 + 2·300 = 635.5.
        let s = gate_based_schedule(&generators::ghz(3), &GatePulseTables::default());
        assert!((s.latency() - 635.5).abs() < 1e-9);
        assert!(s.is_valid());
    }

    #[test]
    fn rz_is_free() {
        let mut c = Circuit::new(1);
        c.push(Gate::RZ(1.0), &[0]);
        let s = gate_based_schedule(&c, &GatePulseTables::default());
        assert!(s.is_empty());
        assert_eq!(s.latency(), 0.0);
        assert_eq!(s.esp(), 1.0);
    }

    #[test]
    fn esp_reflects_gate_counts() {
        let t = GatePulseTables::default();
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]).push(Gate::CX, &[0, 1]);
        let s = gate_based_schedule(&c, &t);
        let expect = t.fidelities.single * t.fidelities.two;
        assert!((s.esp() - expect).abs() < 1e-12);
    }

    #[test]
    fn fidelity_table_classification() {
        let f = GateFidelityTable::default();
        assert_eq!(f.gate(&Gate::T), 1.0);
        assert_eq!(f.gate(&Gate::H), f.single);
        assert_eq!(f.gate(&Gate::CX), f.two);
        assert!(f.gate(&Gate::CCX) < f.two);
    }
}
