//! Calibrated pulse-duration model.
//!
//! Real GRAPE duration searches are exponential in block width; the paper
//! ran them on a 256-core cluster. Blocks beyond the laptop GRAPE limit
//! use this model instead (see DESIGN.md's substitution table): a block's
//! pulse duration is its gate-level critical path compressed by a *QOC
//! speedup factor*, floored by the device's minimum pulse time — with both
//! constants calibrated against actual GRAPE runs on small blocks
//! ([`DurationModel::calibrate`]).

use crate::device::DeviceModel;
use crate::duration::{minimize_duration, DurationSearchConfig};
use epoc_circuit::{Circuit, CircuitDag, Gate};

/// Calibrated gate durations (ns) for the gate-based baseline, IBM-like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateDurationTable {
    /// Physical single-qubit pulse (X/SX/H/U3…).
    pub single: f64,
    /// Virtual RZ (frame update — free on transmons).
    pub rz: f64,
    /// Two-qubit entangling gate (CX/CZ/…).
    pub two: f64,
    /// Three-qubit gate (decomposed: 6 CX + single-qubit layers).
    pub three: f64,
}

impl Default for GateDurationTable {
    fn default() -> Self {
        Self {
            single: 35.5,
            rz: 0.0,
            two: 300.0,
            three: 6.0 * 300.0 + 8.0 * 35.5,
        }
    }
}

impl GateDurationTable {
    /// Duration of a single gate.
    ///
    /// Opaque unitary blocks are costed by width: 1-qubit VUGs as a
    /// physical single-qubit pulse, wider blocks as their decomposition
    /// equivalent.
    pub fn gate(&self, gate: &Gate) -> f64 {
        match gate {
            Gate::RZ(_) | Gate::Phase(_) | Gate::Z | Gate::S | Gate::Sdg | Gate::T
            | Gate::Tdg | Gate::I => self.rz,
            g if g.arity() == 1 => self.single,
            Gate::Swap => 3.0 * self.two,
            g if g.arity() == 2 => self.two,
            _ => self.three,
        }
    }

    /// Critical-path latency of a circuit under this table.
    pub fn critical_path(&self, circuit: &Circuit) -> f64 {
        let dag = CircuitDag::new(circuit);
        let ops = circuit.ops();
        dag.critical_path(|i| self.gate(&ops[i].gate))
    }
}

/// The calibrated QOC duration model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurationModel {
    /// Multiplier applied to a block's gate-level critical path
    /// (< 1: QOC compresses the schedule).
    pub qoc_factor: f64,
    /// Minimum pulse duration (ns) — no pulse is shorter than this.
    pub min_pulse: f64,
    /// Fixed per-pulse overhead (ns): ring-up/ring-down plus the inter-pulse
    /// buffer real instruments insert (IBM backends use 10–20 ns).
    pub overhead: f64,
    /// Within-block absorption of single-qubit content: XY drives run
    /// concurrently with the entangling evolution, so single-qubit gates
    /// inside a QOC block contribute only this fraction of their
    /// calibrated standalone duration (GRAPE folds them into the
    /// entangling pulse nearly for free — see the `[H·CX]` vs `[CX]`
    /// calibration runs).
    pub absorption: f64,
    /// Modeled pulse fidelity (mean of calibration runs).
    pub pulse_fidelity: f64,
    /// Gate table used for the critical path.
    pub gate_table: GateDurationTable,
}

impl Default for DurationModel {
    fn default() -> Self {
        // Values measured by `calibrate` on the transmon_line model
        // (regenerate with the calibration bench; see EXPERIMENTS.md).
        Self {
            qoc_factor: 0.55,
            min_pulse: 12.0,
            overhead: 16.0,
            absorption: 0.3,
            pulse_fidelity: 0.9992,
            gate_table: GateDurationTable::default(),
        }
    }
}

impl DurationModel {
    /// Modeled pulse duration for a block given its local circuit.
    pub fn block_duration(&self, local_circuit: &Circuit) -> f64 {
        // Single-qubit content is absorbed into the entangling evolution —
        // but only when there *is* one: a block of pure single-qubit gates
        // still needs its full drive time (bounded by the amplitude limit).
        let has_entangler = local_circuit.ops().iter().any(|op| op.qubits.len() >= 2);
        let dag = epoc_circuit::CircuitDag::new(local_circuit);
        let ops = local_circuit.ops();
        let gate_cp = dag.critical_path(|i| {
            let g = &ops[i].gate;
            let base = self.gate_table.gate(g);
            if g.arity() == 1 && has_entangler {
                base * self.absorption
            } else {
                base
            }
        });
        if gate_cp <= 0.0 {
            // Purely virtual content (frame updates): no physical pulse.
            return 0.0;
        }
        (self.qoc_factor * gate_cp + self.overhead).max(self.min_pulse)
    }

    /// Modeled pulse duration when only a unitary's width is known:
    /// assumes a worst-case dense block of that width.
    pub fn width_duration(&self, n_qubits: usize) -> f64 {
        // Worst-case CNOT count for n qubits ~ (4^n - 3n - 1) / 4, each
        // contributing a two-qubit critical-path step.
        let n = n_qubits as f64;
        let cnots = ((4f64.powf(n) - 3.0 * n - 1.0) / 4.0).max(1.0);
        let per_wire = cnots * 2.0 / n; // spread across wires
        (self.qoc_factor * per_wire * self.gate_table.two + self.overhead).max(self.min_pulse)
    }

    /// Calibrates the model against real GRAPE duration searches on the
    /// standard device family. Deterministic and slow (seconds in release)
    /// — used by the calibration bench, not on the pipeline hot path.
    pub fn calibrate() -> Self {
        let table = GateDurationTable::default();
        let mut ratios: Vec<f64> = Vec::new();
        let mut fidelities: Vec<f64> = Vec::new();
        let mut min_pulse = f64::INFINITY;

        // 1-qubit samples.
        let d1 = DeviceModel::transmon_line(1).expect("1-qubit model always supported");
        for gate in [Gate::X, Gate::H, Gate::Sx] {
            if let Ok(sol) = minimize_duration(
                &d1,
                &gate.unitary_matrix(),
                &DurationSearchConfig::default(),
            ) {
                let mut c = Circuit::new(1);
                c.push(gate, &[0]);
                ratios.push(sol.result.duration / table.critical_path(&c).max(1.0));
                fidelities.push(sol.fidelity);
                min_pulse = min_pulse.min(sol.result.duration);
            }
        }
        // 2-qubit samples; also measure 1q absorption from the duration
        // difference between a bare CX block and an H·CX·T block.
        let d2 = DeviceModel::transmon_line(2).expect("2-qubit model always supported");
        let search2 = DurationSearchConfig {
            max_slots: 1024,
            ..Default::default()
        };
        let mut cx = Circuit::new(2);
        cx.push(Gate::CX, &[0, 1]);
        let mut blk = Circuit::new(2);
        blk.push(Gate::H, &[0])
            .push(Gate::CX, &[0, 1])
            .push(Gate::T, &[1]);
        let mut absorption = 0.3;
        let cx_sol = minimize_duration(&d2, &cx.unitary(), &search2).ok();
        let blk_sol = minimize_duration(&d2, &blk.unitary(), &search2).ok();
        if let (Some(a), Some(b)) = (&cx_sol, &blk_sol) {
            // Extra pulse time the H added, as a fraction of a standalone
            // single-qubit pulse (the T is virtual).
            let single = table.single.max(1.0);
            absorption = ((b.result.duration - a.result.duration) / single).clamp(0.0, 1.0);
        }
        for (c, sol) in [(cx, cx_sol), (blk, blk_sol)] {
            if let Some(sol) = sol {
                ratios.push(sol.result.duration / table.critical_path(&c).max(1.0));
                fidelities.push(sol.fidelity);
            }
        }
        let qoc_factor = if ratios.is_empty() {
            0.55
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        };
        let pulse_fidelity = if fidelities.is_empty() {
            0.9992
        } else {
            fidelities.iter().sum::<f64>() / fidelities.len() as f64
        };
        Self {
            qoc_factor,
            min_pulse: if min_pulse.is_finite() { min_pulse / 2.0 } else { 12.0 },
            overhead: 16.0,
            absorption,
            pulse_fidelity,
            gate_table: table,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_table_defaults() {
        let t = GateDurationTable::default();
        assert_eq!(t.gate(&Gate::RZ(0.5)), 0.0);
        assert_eq!(t.gate(&Gate::X), 35.5);
        assert_eq!(t.gate(&Gate::CX), 300.0);
        assert_eq!(t.gate(&Gate::Swap), 900.0);
        assert!(t.gate(&Gate::CCX) > 1800.0);
        let vug = Gate::unitary("vug", Gate::H.unitary_matrix());
        assert_eq!(t.gate(&vug), 35.5);
    }

    #[test]
    fn critical_path_respects_parallelism() {
        let t = GateDurationTable::default();
        let mut c = Circuit::new(4);
        c.push(Gate::X, &[0])
            .push(Gate::X, &[1])
            .push(Gate::X, &[2])
            .push(Gate::X, &[3]);
        assert!((t.critical_path(&c) - 35.5).abs() < 1e-9);
        c.push(Gate::CX, &[0, 1]);
        assert!((t.critical_path(&c) - 335.5).abs() < 1e-9);
    }

    #[test]
    fn block_duration_compresses_critical_path() {
        let m = DurationModel::default();
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]).push(Gate::CX, &[0, 1]).push(Gate::H, &[1]);
        let gate_cp = m.gate_table.critical_path(&c);
        let qoc = m.block_duration(&c);
        assert!(qoc < gate_cp, "model does not compress: {qoc} vs {gate_cp}");
        assert!(qoc >= m.min_pulse);
    }

    #[test]
    fn virtual_only_blocks_are_free() {
        let m = DurationModel::default();
        let mut c = Circuit::new(1);
        c.push(Gate::RZ(0.1), &[0]);
        assert_eq!(m.block_duration(&c), 0.0);
    }

    #[test]
    fn physical_blocks_respect_floors() {
        let m = DurationModel::default();
        let mut c = Circuit::new(1);
        c.push(Gate::Sx, &[0]);
        let d = m.block_duration(&c);
        assert!(d >= m.min_pulse);
        assert!(d >= m.overhead);
    }

    #[test]
    fn width_duration_grows_with_qubits() {
        let m = DurationModel::default();
        assert!(m.width_duration(2) < m.width_duration(3));
        assert!(m.width_duration(3) < m.width_duration(4));
    }
}
