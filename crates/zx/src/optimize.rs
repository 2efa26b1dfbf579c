//! Top-level graph-based depth optimization (the paper's §3.1).
//!
//! [`zx_optimize`] runs the full pipeline — lower → convert → simplify →
//! extract → peephole cleanup — and keeps the result only when it lowers
//! the [`latency_cost`] of the input (or ties it with fewer gates) and is
//! semantically verified (for circuits small enough to probe); only a
//! rewrite the cheap cost test would keep is probed. Falling back to the
//! original circuit on any failure makes the pass safe to apply
//! unconditionally.

use crate::convert::circuit_to_graph;
use crate::extract::extract_circuit;
use crate::phase::Phase;
use crate::simplify::full_reduce;
use epoc_circuit::{circuits_equivalent, Circuit, Gate, VERIFY_QUBIT_LIMIT};

/// Outcome of [`zx_optimize`].
#[derive(Debug, Clone)]
pub struct ZxOptResult {
    /// The optimized circuit (or a clone of the input on fallback).
    pub circuit: Circuit,
    /// Rewrite rules applied to produce the kept circuit (0 on fallback:
    /// rewrites whose result was discarded do not count).
    pub rewrites: usize,
    /// Depth before optimization — of the **ZX-basis-lowered** input
    /// (`{H, RZ, CX, CZ}`), which is the fair comparison point for the
    /// extraction output and equals the input depth for circuits already
    /// in basis gates.
    pub depth_before: usize,
    /// Depth after optimization.
    pub depth_after: usize,
    /// Gate count before.
    pub gates_before: usize,
    /// Gate count after.
    pub gates_after: usize,
    /// `false` when the pipeline fell back to the input circuit.
    pub optimized: bool,
}

impl ZxOptResult {
    /// Depth reduction factor (≥ 1.0; 1.0 on fallback or no gain).
    pub fn depth_reduction(&self) -> f64 {
        if self.depth_after == 0 {
            return 1.0;
        }
        self.depth_before as f64 / self.depth_after as f64
    }
}

/// Optimizes a circuit through the ZX pipeline, returning the input
/// unchanged (flagged `optimized: false`) when conversion, extraction, or
/// verification fails or the result does not lower the input's latency
/// cost.
pub fn zx_optimize(circuit: &Circuit) -> ZxOptResult {
    let _span = epoc_rt::telemetry::span("zx", "zx_optimize");
    let gates_before = circuit.len();
    // On fallback the pass is a no-op, so before/after depths coincide.
    let fallback = |c: &Circuit| ZxOptResult {
        circuit: c.clone(),
        rewrites: 0,
        depth_before: c.depth(),
        depth_after: c.depth(),
        gates_before,
        gates_after: gates_before,
        optimized: false,
    };

    let Ok(lowered) = crate::convert::lower_for_zx(circuit) else {
        return fallback(circuit);
    };
    let depth_before = lowered.depth();
    let Ok(mut graph) = circuit_to_graph(circuit) else {
        return fallback(circuit);
    };
    let stats = full_reduce(&mut graph);
    epoc_rt::telemetry::counter_add("zx.fusions", stats.fusions as u64);
    epoc_rt::telemetry::counter_add("zx.identities", stats.identities as u64);
    epoc_rt::telemetry::counter_add("zx.local_complements", stats.local_complements as u64);
    epoc_rt::telemetry::counter_add("zx.pivots", stats.pivots as u64);
    let Ok(extracted) = extract_circuit(&graph) else {
        return fallback(circuit);
    };
    let cleaned = peephole_cleanup(&extracted);

    // Keep the rewrite only when it does not increase the *latency-like*
    // cost: the critical path under pulse-realistic gate weights (virtual
    // Z rotations free, one unit per single-qubit pulse, ~8.5 units per
    // entangling gate — the CX/SX duration ratio of transmon hardware).
    // This subsumes a bare depth check and catches both the CX inflation
    // Gaussian-elimination extraction can cause and extra physical
    // single-qubit gates.
    // Require strict improvement (or equal cost with strictly fewer
    // gates): a cost-neutral rewrite still reshuffles the gate stream and
    // can degrade downstream partitioning, so it is not worth keeping.
    let (cost_new, cost_old) = (latency_cost(&cleaned), latency_cost(&lowered));
    let improves = cost_new < cost_old
        || (cost_new == cost_old && cleaned.len() < lowered.len());
    // Both tests are pure, so probing only a rewrite the price would keep
    // decides as probing first would; the price is far cheaper, and on
    // wide random circuits it rejects nearly every rewrite.
    if !improves
        || (circuit.n_qubits() <= VERIFY_QUBIT_LIMIT
            && !circuits_equivalent(circuit, &cleaned, 1e-6))
    {
        return fallback(circuit);
    }
    ZxOptResult {
        depth_after: cleaned.depth(),
        gates_after: cleaned.len(),
        circuit: cleaned,
        rewrites: stats.total(),
        depth_before,
        gates_before,
        optimized: true,
    }
}

/// Latency-like cost of a circuit: critical path with virtual rotations
/// free, single-qubit physical pulses at weight 1 and entangling gates at
/// the transmon CX/SX duration ratio.
pub fn latency_cost(circuit: &Circuit) -> f64 {
    const TWO_QUBIT_WEIGHT: f64 = 8.45; // ≈ 300 ns / 35.5 ns
    let ops = circuit.ops();
    let dag = epoc_circuit::CircuitDag::new(circuit);
    dag.critical_path(|i| match &ops[i].gate {
        // Only single-qubit diagonals are virtual frame updates; CZ & co
        // are physical entangling pulses despite being diagonal.
        g if g.arity() == 1 && g.is_diagonal() => 0.0,
        g if g.arity() == 1 => 1.0,
        Gate::Swap => 3.0 * TWO_QUBIT_WEIGHT,
        g if g.arity() == 2 => TWO_QUBIT_WEIGHT,
        _ => 6.0 * TWO_QUBIT_WEIGHT,
    })
}

/// Local cleanup on the extracted gate stream:
///
/// * adjacent `H·H` on the same qubit cancel;
/// * adjacent `RZ·RZ` on the same qubit merge (dropping zero angles);
/// * adjacent identical `CZ` / `CX` / `Swap` pairs cancel;
/// * zero-angle rotations are dropped.
pub fn peephole_cleanup(circuit: &Circuit) -> Circuit {
    let mut ops: Vec<(Gate, Vec<usize>)> = Vec::new();
    for op in circuit.ops() {
        let gate = op.gate.clone();
        let qubits = op.qubits.clone();
        // Drop zero rotations outright.
        if let Gate::RZ(t) | Gate::RX(t) | Gate::RY(t) | Gate::Phase(t) = gate {
            if Phase::from_radians(t).is_zero() {
                continue;
            }
        }
        // Find the previous op touching any of these qubits.
        let prev = ops
            .iter()
            .rposition(|(_, qs)| qs.iter().any(|q| qubits.contains(q)));
        if let Some(p) = prev {
            let (pg, pq) = &ops[p];
            if *pq == qubits {
                match (pg, &gate) {
                    (Gate::H, Gate::H) => {
                        ops.remove(p);
                        continue;
                    }
                    (Gate::CZ, Gate::CZ) | (Gate::Swap, Gate::Swap) | (Gate::CX, Gate::CX) => {
                        ops.remove(p);
                        continue;
                    }
                    (Gate::RZ(a), Gate::RZ(b)) => {
                        let sum = Phase::from_radians(a + b);
                        if sum.is_zero() {
                            ops.remove(p);
                        } else {
                            ops[p].0 = Gate::RZ(sum.radians());
                        }
                        continue;
                    }
                    _ => {}
                }
            }
            // CZ is qubit-order symmetric.
            if matches!((pg, &gate), (Gate::CZ, Gate::CZ) | (Gate::Swap, Gate::Swap))
                && pq.len() == 2
                && qubits.len() == 2
                && pq[0] == qubits[1]
                && pq[1] == qubits[0]
            {
                ops.remove(p);
                continue;
            }
        }
        ops.push((gate, qubits));
    }
    let mut out = Circuit::new(circuit.n_qubits());
    for (g, qs) in ops {
        out.push(g, &qs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use epoc_circuit::generators;

    #[test]
    fn optimize_preserves_and_reports() {
        let c = generators::random_clifford_t(3, 40, 0.2, 11);
        let r = zx_optimize(&c);
        assert!(circuits_equivalent(&c, &r.circuit, 1e-6));
        assert!(r.depth_after <= r.depth_before);
        assert!(r.depth_reduction() >= 1.0);
    }

    #[test]
    fn optimize_reduces_redundant_circuit() {
        let mut c = Circuit::new(2);
        for _ in 0..5 {
            c.push(Gate::H, &[0]).push(Gate::H, &[0]);
            c.push(Gate::CX, &[0, 1]).push(Gate::CX, &[0, 1]);
            c.push(Gate::T, &[1]).push(Gate::Tdg, &[1]);
        }
        let r = zx_optimize(&c);
        assert!(r.optimized);
        assert!(r.rewrites > 0, "an optimized circuit implies rewrites fired");
        assert!(
            r.depth_after < r.depth_before / 2,
            "depth {} -> {}",
            r.depth_before,
            r.depth_after
        );
    }

    #[test]
    fn optimize_falls_back_on_opaque_blocks() {
        let mut c = Circuit::new(2);
        c.push(Gate::unitary("blk", Gate::CX.unitary_matrix()), &[0, 1]);
        let r = zx_optimize(&c);
        assert!(!r.optimized);
        assert_eq!(r.circuit.len(), 1);
    }

    #[test]
    fn optimize_bell_prep_reduces_depth() {
        // The paper's Figure 4 example: depth must drop.
        let c = generators::bell_pair_prep();
        let r = zx_optimize(&c);
        assert!(circuits_equivalent(&c, &r.circuit, 1e-6));
        assert!(
            r.depth_after < r.depth_before,
            "depth {} -> {}",
            r.depth_before,
            r.depth_after
        );
    }

    #[test]
    fn peephole_cancels_pairs() {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0])
            .push(Gate::H, &[0])
            .push(Gate::CZ, &[0, 1])
            .push(Gate::CZ, &[1, 0])
            .push(Gate::RZ(0.4), &[1])
            .push(Gate::RZ(-0.4), &[1]);
        let out = peephole_cleanup(&c);
        assert!(out.is_empty(), "{out}");
    }

    #[test]
    fn peephole_merges_rz() {
        let mut c = Circuit::new(1);
        c.push(Gate::RZ(0.3), &[0]).push(Gate::RZ(0.4), &[0]);
        let out = peephole_cleanup(&c);
        assert_eq!(out.len(), 1);
        match out.ops()[0].gate {
            Gate::RZ(t) => assert!((t - 0.7).abs() < 1e-12),
            ref g => panic!("unexpected {g}"),
        }
    }

    #[test]
    fn peephole_respects_interleaving() {
        // H q0, CX(0,1), H q0 must NOT cancel the two H's.
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0])
            .push(Gate::CX, &[0, 1])
            .push(Gate::H, &[0]);
        let out = peephole_cleanup(&c);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn optimize_benchmarks_depth_reduction_sane() {
        for b in generators::benchmark_suite() {
            if b.circuit.n_qubits() > 8 {
                continue;
            }
            let r = zx_optimize(&b.circuit);
            assert!(
                r.depth_after <= r.depth_before,
                "{} got deeper",
                b.name
            );
        }
    }
}
