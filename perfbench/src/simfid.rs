//! Noiseless pulse-level replay of compiled schedules.
//!
//! `simulate_schedule` on an eight-qubit GRAPE schedule takes tens of
//! seconds, too long to repeat in every run. The replay is a pure
//! function of the circuit and the schedule, so its result is memoized
//! per build under a hash of both (every pulse, frame and payload sample
//! included): an identical schedule is replayed once per build, and any
//! change to a schedule is replayed afresh.

use crate::trace::span;
use epoc::circuit::Circuit;
use epoc::pulse::{PulsePayload, PulseSchedule};
use epoc::sim::SimOptions;
use epoc_rt::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Two FNV-1a 64 streams with different offsets: a 128-bit content key.
struct Fnv([u64; 2]);

impl Fnv {
    fn new() -> Self {
        Fnv([0xcbf2_9ce4_8422_2325, 0x6c62_272e_07bb_0142])
    }

    fn bytes(&mut self, b: &[u8]) {
        for h in &mut self.0 {
            for &x in b {
                *h ^= u64::from(x);
                *h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn matrix(&mut self, m: &epoc::linalg::Matrix) {
        self.u64(m.rows() as u64);
        for z in m.as_slice() {
            self.f64(z.re);
            self.f64(z.im);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// The memo key: a hash of the circuit's operations and the schedule's
/// full contents.
pub fn content_key(circuit: &Circuit, schedule: &PulseSchedule) -> String {
    let mut h = Fnv::new();
    h.u64(circuit.n_qubits() as u64);
    for op in circuit.ops() {
        h.bytes(format!("{op:?}").as_bytes());
    }
    h.u64(schedule.n_qubits() as u64);
    for p in schedule.pulses() {
        h.bytes(format!("{:?}", p.qubits).as_bytes());
        h.f64(p.start);
        h.f64(p.duration);
        h.f64(p.fidelity);
        match &p.payload {
            PulsePayload::Opaque => h.u64(0),
            PulsePayload::Waveform(w) => {
                h.u64(1);
                h.f64(w.dt());
                for channel in w.controls() {
                    h.u64(channel.len() as u64);
                    channel.iter().for_each(|&a| h.f64(a));
                }
            }
            PulsePayload::Unitary(u) => {
                h.u64(2);
                h.matrix(u);
            }
        }
    }
    for f in schedule.frames() {
        h.bytes(format!("{:?}", f.qubits).as_bytes());
        h.f64(f.time);
        match &f.unitary {
            Some(u) => h.matrix(u),
            None => h.u64(0),
        }
    }
    h.hex()
}

/// One replay: `(process fidelity, expm steps)`, inside a `sim` span.
pub fn replay(circuit: &Circuit, schedule: &PulseSchedule) -> Result<(f64, u64), String> {
    let _s = span("sim", "simulate_schedule");
    let stats = epoc::simulate_schedule(circuit, schedule, &SimOptions::default())
        .map_err(|e| format!("simulate_schedule: {e}"))?;
    Ok((stats.outcome.process_fidelity, stats.outcome.steps))
}

/// Replays `items` on the default worker count, returning
/// `(fidelity, steps)` per item in order.
pub fn replay_all(items: &[(&Circuit, &PulseSchedule)]) -> Vec<Result<(f64, u64), String>> {
    epoc_rt::pool::parallel_map(items, epoc_rt::pool::default_workers(), |_, (c, s)| {
        replay(c, s)
    })
}

/// The per-build memo file of replay fidelities.
pub struct SimMemo {
    path: PathBuf,
    entries: BTreeMap<String, f64>,
}

impl SimMemo {
    /// Opens the memo at `path`; a missing or unreadable file starts empty.
    pub fn open(path: PathBuf) -> Self {
        let entries = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .and_then(|doc| {
                doc.entries().map(|pairs| {
                    pairs
                        .iter()
                        .filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f)))
                        .collect()
                })
            })
            .unwrap_or_default();
        Self { path, entries }
    }

    /// Process fidelity of each item, replaying only the ones the memo
    /// does not hold, and saving the memo when it grew.
    pub fn fidelities(&mut self, items: &[(&Circuit, &PulseSchedule)]) -> Result<Vec<f64>, String> {
        let keys: Vec<String> = items.iter().map(|(c, s)| content_key(c, s)).collect();
        let missing: Vec<usize> = (0..items.len())
            .filter(|&i| !self.entries.contains_key(&keys[i]))
            .collect();
        if !missing.is_empty() {
            let todo: Vec<(&Circuit, &PulseSchedule)> = missing.iter().map(|&i| items[i]).collect();
            for (&i, result) in missing.iter().zip(replay_all(&todo)) {
                self.entries.insert(keys[i].clone(), result?.0);
            }
            self.save()?;
        }
        Ok(keys.iter().map(|k| self.entries[k]).collect())
    }

    fn save(&self) -> Result<(), String> {
        let doc = self
            .entries
            .iter()
            .fold(Json::obj(), |doc, (k, &v)| doc.push(k, v));
        crate::write_atomic(&self.path, &doc.to_string_pretty())
    }
}
