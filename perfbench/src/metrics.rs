//! The end-to-end metrics every workload reports.

use crate::stats::{self, median};
use crate::Outcome;
use epoc::circuit::Circuit;
use epoc_rt::json::Json;
use std::time::Instant;

/// The wall time of a closed loop's timed phase, less the set-up samples
/// taken between its jobs.
pub struct Busy {
    start: Instant,
    skipped: f64,
}

impl Busy {
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
            skipped: 0.0,
        }
    }

    /// Leaves `seconds` spent on something other than jobs out of the
    /// timed phase.
    pub fn skip(&mut self, seconds: f64) {
        self.skipped += seconds;
    }

    pub fn seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.skipped
    }
}

/// jobs_per_s, job_p50_ms and job_tail_ms of a closed loop whose timed
/// phase took `busy_s` seconds.
pub fn latency(out: &mut Outcome, lat: &[f64], busy_s: f64) {
    let n = lat.len();
    out.metric("jobs_per_s", n as f64 / busy_s, "jobs/s", n);
    let p50 = median(lat).expect("at least one job ran");
    out.metric_at("job_p50_ms", p50 * 1e3, "ms", n, Some("p50"));
    // The highest percentile with ten jobs beyond it; a run too short for
    // p90 reports its median here.
    let (label, tail) = stats::tail(lat).unwrap_or(("p50", p50));
    out.metric_at("job_tail_ms", tail * 1e3, "ms", n, Some(label));
}

/// setup_s: the fastest of the set-up samples spread over the whole run.
/// Set-up is a short CPU path that host load only ever slows down, and
/// the host alternates between a fast and a slow speed in phases of tens
/// to hundreds of milliseconds, so a median lands on either phase while
/// the minimum reads the set-up's own cost.
pub fn setup(out: &mut Outcome, samples: &[f64]) {
    let value = stats::fastest(samples).expect("set-up was sampled");
    out.metric_at("setup_s", value, "s", samples.len(), Some("min"));
}

pub fn ok_rate(out: &mut Outcome) {
    let ok = out.attempted - out.failed;
    let rate = ok as f64 / out.attempted as f64;
    out.metric("ok_rate", rate, "fraction", out.attempted);
}

/// One distinct circuit's output quality: its schedule latency, the
/// input circuit's two-qubit depth, ESP, and the replayed fidelity when
/// the circuit was replayed.
pub struct Quality {
    pub name: String,
    pub latency_ns: f64,
    pub two_qubit_depth: usize,
    pub esp: f64,
    pub sim_fidelity: Option<f64>,
}

impl Quality {
    pub fn of(name: &str, circuit: &Circuit, latency_ns: f64, esp: f64) -> Self {
        Self {
            name: name.to_string(),
            latency_ns,
            two_qubit_depth: two_qubit_depth(circuit),
            esp,
            sim_fidelity: None,
        }
    }
}

/// The longest chain of multi-qubit gates that share qubits, single-qubit
/// gates not counted; at least 1.
fn two_qubit_depth(circuit: &Circuit) -> usize {
    let mut frontier = vec![0; circuit.n_qubits()];
    for op in circuit.ops().iter().filter(|op| op.qubits.len() > 1) {
        let layer = op.qubits.iter().map(|&q| frontier[q]).max().unwrap_or(0) + 1;
        for &q in &op.qubits {
            frontier[q] = layer;
        }
    }
    frontier.into_iter().max().unwrap_or(0).max(1)
}

/// pulse_latency_per_2q_layer, esp and sim_fidelity as geometric means
/// over the workload's distinct circuits. The geometric-mean latency in
/// ns, and for the small fixed sets each circuit's own row, ride along in
/// the detail.
pub fn quality(out: &mut Outcome, rows: &[Quality]) -> Result<(), String> {
    let geo = |v: Vec<f64>, what: &str| {
        stats::geomean(&v).ok_or(format!("no positive {what} to average"))
    };
    let n = rows.len();
    let per_layer = rows
        .iter()
        .map(|q| q.latency_ns / q.two_qubit_depth as f64)
        .collect();
    let per_layer = geo(per_layer, "latency")?;
    out.metric("pulse_latency_per_2q_layer", per_layer, "ns/2q-layer", n);
    let esp = geo(rows.iter().map(|q| q.esp).collect(), "esp")?;
    out.metric("esp", esp, "ratio", n);
    let fids: Vec<f64> = rows.iter().filter_map(|q| q.sim_fidelity).collect();
    let replayed = fids.len();
    out.metric("sim_fidelity", geo(fids, "fidelity")?, "ratio", replayed);
    let ns = geo(rows.iter().map(|q| q.latency_ns).collect(), "latency")?;
    out.detail(
        "pulse_latency_ns",
        Json::obj().push("value", ns).push("n", n),
    );
    if n <= 12 {
        let by_circuit = rows.iter().fold(Json::obj(), |o, q| {
            let mut row = Json::obj()
                .push("latency_ns", q.latency_ns)
                .push("two_qubit_depth", q.two_qubit_depth)
                .push("esp", q.esp);
            if let Some(f) = q.sim_fidelity {
                row = row.push("sim_fidelity", f);
            }
            o.push(&q.name, row)
        });
        out.detail("quality_by_circuit", by_circuit);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use epoc::circuit::Gate;

    #[test]
    fn two_qubit_depth_counts_chains_of_multi_qubit_gates() {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0])
            .push(Gate::CX, &[0, 1])
            .push(Gate::H, &[2])
            .push(Gate::CX, &[1, 2])
            .push(Gate::CX, &[0, 1]);
        assert_eq!(two_qubit_depth(&c), 3);
        assert_eq!(two_qubit_depth(&Circuit::new(2)), 1);
    }
}
