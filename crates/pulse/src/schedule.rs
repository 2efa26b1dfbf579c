//! Pulse schedules: pulses placed on qubit lines in time.
//!
//! The compiler's final artifact. Latency is the makespan of the ASAP
//! schedule; ESP fidelity is the product of per-pulse fidelities (the
//! paper's Eq. 3).

use epoc_circuit::{Circuit, Operation};
use epoc_linalg::Matrix;
use epoc_qoc::PulseWaveform;
use epoc_rt::json::Json;
use std::sync::Arc;

/// What a scheduled pulse physically is — the replay information the
/// pulse-level simulator (`epoc-sim`) needs to drive the block through
/// the device Hamiltonian.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum PulsePayload {
    /// No replay information (e.g. a modeled block too wide for a dense
    /// unitary). Schedules containing opaque pulses cannot be simulated.
    #[default]
    Opaque,
    /// A GRAPE control waveform on the block-local device (channel-major,
    /// local qubit order).
    Waveform(Arc<PulseWaveform>),
    /// Digital fallback: the block's dense local unitary, applied as one
    /// exact step (used for modeled blocks whose unitary is known).
    Unitary(Arc<Matrix>),
}

impl PulsePayload {
    /// Short kind tag used in the JSON dump.
    pub fn kind(&self) -> &'static str {
        match self {
            PulsePayload::Opaque => "opaque",
            PulsePayload::Waveform(_) => "waveform",
            PulsePayload::Unitary(_) => "unitary",
        }
    }

    /// `true` when the payload carries a control waveform.
    pub fn is_waveform(&self) -> bool {
        matches!(self, PulsePayload::Waveform(_))
    }
}

/// One pulse placed in the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledPulse {
    /// Global qubits the pulse drives.
    pub qubits: Vec<usize>,
    /// Start time (ns).
    pub start: f64,
    /// Duration (ns).
    pub duration: f64,
    /// Pulse fidelity used in the ESP estimate.
    pub fidelity: f64,
    /// Display label (gate/block name).
    pub label: String,
    /// Replay information for the simulator.
    pub payload: PulsePayload,
}

/// A zero-duration virtual operation (an RZ-only block or gate) that the
/// scheduler drops from the physical timeline. The pulse hardware absorbs
/// these as frame changes, but the simulator must still apply their
/// unitaries to compose the correct total evolution, so the schedule
/// records them separately from the pulses (keeping latency, ESP, and
/// pulse counts untouched).
#[derive(Debug, Clone, PartialEq)]
pub struct FrameUpdate {
    /// Global qubits the frame update acts on.
    pub qubits: Vec<usize>,
    /// The time (ns) at which it logically applies: after every earlier
    /// pulse on its qubit lines and before every later one.
    pub time: f64,
    /// The virtual block's dense local unitary, when known.
    pub unitary: Option<Arc<Matrix>>,
    /// Display label (gate/block name).
    pub label: String,
}

impl FrameUpdate {
    /// The frame as a JSON value (the unitary serializes as its kind only).
    pub fn to_json_value(&self) -> Json {
        Json::obj()
            .push(
                "qubits",
                Json::Arr(self.qubits.iter().map(|&q| Json::from(q)).collect()),
            )
            .push("time", self.time)
            .push("label", self.label.as_str())
            .push("unitary", self.unitary.is_some())
    }
}

impl ScheduledPulse {
    /// End time (ns).
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }

    /// The pulse as a JSON value (field order matches the struct).
    pub fn to_json_value(&self) -> Json {
        Json::obj()
            .push(
                "qubits",
                Json::Arr(self.qubits.iter().map(|&q| Json::from(q)).collect()),
            )
            .push("start", self.start)
            .push("duration", self.duration)
            .push("fidelity", self.fidelity)
            .push("label", self.label.as_str())
            .push("payload", self.payload.kind())
    }
}

/// A pulse schedule over an `n`-qubit device.
#[derive(Debug, Clone, Default)]
pub struct PulseSchedule {
    n_qubits: usize,
    pulses: Vec<ScheduledPulse>,
    frames: Vec<FrameUpdate>,
}

impl PulseSchedule {
    /// Creates an empty schedule.
    pub fn new(n_qubits: usize) -> Self {
        Self {
            n_qubits,
            pulses: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Register size.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The scheduled pulses in insertion order.
    pub fn pulses(&self) -> &[ScheduledPulse] {
        &self.pulses
    }

    /// The virtual frame updates in insertion order (block order — at
    /// equal times on a shared qubit line a frame always precedes the
    /// pulse starting there, because physical pulses advance the line).
    pub fn frames(&self) -> &[FrameUpdate] {
        &self.frames
    }

    /// Number of pulses.
    pub fn len(&self) -> usize {
        self.pulses.len()
    }

    /// `true` when no pulses are scheduled.
    pub fn is_empty(&self) -> bool {
        self.pulses.is_empty()
    }

    /// Number of pulses carrying a control waveform payload (the ones a
    /// hardware profile conditions at emission).
    pub fn waveform_count(&self) -> usize {
        self.pulses.iter().filter(|p| p.payload.is_waveform()).count()
    }

    /// Appends a pulse (caller is responsible for overlap discipline —
    /// use [`schedule_circuit`] for ASAP placement).
    ///
    /// # Panics
    ///
    /// Panics if a qubit is out of range or the duration is negative.
    pub fn push(&mut self, pulse: ScheduledPulse) {
        assert!(
            pulse.qubits.iter().all(|&q| q < self.n_qubits),
            "pulse qubit out of range"
        );
        assert!(pulse.duration >= 0.0, "negative duration");
        self.pulses.push(pulse);
    }

    /// Appends a virtual frame update.
    ///
    /// # Panics
    ///
    /// Panics if a qubit is out of range or the time is negative.
    pub fn push_frame(&mut self, frame: FrameUpdate) {
        assert!(
            frame.qubits.iter().all(|&q| q < self.n_qubits),
            "frame qubit out of range"
        );
        assert!(frame.time >= 0.0, "negative frame time");
        self.frames.push(frame);
    }

    /// Total latency: the latest pulse end time (0 for an empty schedule).
    pub fn latency(&self) -> f64 {
        self.pulses.iter().map(ScheduledPulse::end).fold(0.0, f64::max)
    }

    /// Estimated success probability: `Π (fidelity_i)` — the paper's Eq. 3
    /// with per-pulse fidelities.
    pub fn esp(&self) -> f64 {
        self.pulses.iter().map(|p| p.fidelity).product()
    }

    /// The schedule as a JSON value (used by the compilation report).
    pub fn to_json_value(&self) -> Json {
        Json::obj()
            .push("n_qubits", self.n_qubits)
            .push(
                "pulses",
                Json::Arr(self.pulses.iter().map(ScheduledPulse::to_json_value).collect()),
            )
            .push(
                "frames",
                Json::Arr(self.frames.iter().map(FrameUpdate::to_json_value).collect()),
            )
    }

    /// `true` when no two pulses overlap on any qubit line.
    pub fn is_valid(&self) -> bool {
        for (i, a) in self.pulses.iter().enumerate() {
            for b in &self.pulses[i + 1..] {
                if a.qubits.iter().any(|q| b.qubits.contains(q)) {
                    let disjoint = a.end() <= b.start + 1e-9 || b.end() <= a.start + 1e-9;
                    if !disjoint {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Duration and fidelity assigned to one operation by a cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulseCost {
    /// Pulse duration (ns).
    pub duration: f64,
    /// Pulse fidelity.
    pub fidelity: f64,
}

/// ASAP-schedules a circuit: each operation starts as soon as all its
/// qubit lines are free. `cost` maps each operation to its pulse duration
/// and fidelity (zero-duration ops — virtual RZs — are skipped entirely).
pub fn schedule_circuit(circuit: &Circuit, mut cost: impl FnMut(&Operation) -> PulseCost) -> PulseSchedule {
    let mut schedule = PulseSchedule::new(circuit.n_qubits());
    let mut line_free = vec![0.0f64; circuit.n_qubits()];
    for op in circuit.ops() {
        let c = cost(op);
        let start = op
            .qubits
            .iter()
            .map(|&q| line_free[q])
            .fold(0.0f64, f64::max);
        if c.duration <= 0.0 {
            // Virtual gate: no pulse, no time — but the simulator still
            // needs its unitary to compose the correct evolution.
            schedule.push_frame(FrameUpdate {
                qubits: op.qubits.clone(),
                time: start,
                unitary: Some(Arc::new(op.gate.unitary_matrix())),
                label: op.gate.name().to_string(),
            });
            continue;
        }
        for &q in &op.qubits {
            line_free[q] = start + c.duration;
        }
        schedule.push(ScheduledPulse {
            qubits: op.qubits.clone(),
            start,
            duration: c.duration,
            fidelity: c.fidelity,
            label: op.gate.name().to_string(),
            payload: PulsePayload::Unitary(Arc::new(op.gate.unitary_matrix())),
        });
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use epoc_circuit::Gate;

    fn unit_cost(_: &Operation) -> PulseCost {
        PulseCost {
            duration: 10.0,
            fidelity: 0.99,
        }
    }

    #[test]
    fn empty_schedule() {
        let s = PulseSchedule::new(2);
        assert_eq!(s.latency(), 0.0);
        assert_eq!(s.esp(), 1.0);
        assert!(s.is_valid());
    }

    #[test]
    fn parallel_gates_share_time() {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]).push(Gate::H, &[1]);
        let s = schedule_circuit(&c, unit_cost);
        assert_eq!(s.latency(), 10.0);
        assert!(s.is_valid());
    }

    #[test]
    fn dependent_gates_serialize() {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]).push(Gate::CX, &[0, 1]).push(Gate::H, &[1]);
        let s = schedule_circuit(&c, unit_cost);
        assert_eq!(s.latency(), 30.0);
        assert!(s.is_valid());
        assert_eq!(s.pulses()[1].start, 10.0);
        assert_eq!(s.pulses()[2].start, 20.0);
    }

    #[test]
    fn zero_duration_ops_skipped() {
        let mut c = Circuit::new(1);
        c.push(Gate::RZ(0.3), &[0]).push(Gate::X, &[0]);
        let s = schedule_circuit(&c, |op| PulseCost {
            duration: if matches!(op.gate, Gate::RZ(_)) { 0.0 } else { 20.0 },
            fidelity: 1.0,
        });
        assert_eq!(s.len(), 1);
        assert_eq!(s.latency(), 20.0);
    }

    #[test]
    fn esp_multiplies_fidelities() {
        let mut c = Circuit::new(1);
        c.push(Gate::X, &[0]).push(Gate::X, &[0]);
        let s = schedule_circuit(&c, |_| PulseCost {
            duration: 5.0,
            fidelity: 0.9,
        });
        assert!((s.esp() - 0.81).abs() < 1e-12);
    }

    #[test]
    fn validity_detects_overlap() {
        let mut s = PulseSchedule::new(1);
        s.push(ScheduledPulse {
            qubits: vec![0],
            start: 0.0,
            duration: 10.0,
            fidelity: 1.0,
            label: "a".into(),
            payload: PulsePayload::Opaque,
        });
        s.push(ScheduledPulse {
            qubits: vec![0],
            start: 5.0,
            duration: 10.0,
            fidelity: 1.0,
            label: "b".into(),
            payload: PulsePayload::Opaque,
        });
        assert!(!s.is_valid());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_validates_range() {
        let mut s = PulseSchedule::new(1);
        s.push(ScheduledPulse {
            qubits: vec![3],
            start: 0.0,
            duration: 1.0,
            fidelity: 1.0,
            label: "x".into(),
            payload: PulsePayload::Opaque,
        });
    }
}
