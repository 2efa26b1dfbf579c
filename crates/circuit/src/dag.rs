//! Dependency DAG over a circuit's operations.
//!
//! Each operation depends on the previous operation touching each of its
//! qubits. The DAG drives latency-oriented analyses: the critical path
//! under a per-gate duration model, which the calibrated duration model
//! and the ZX pass's latency test read.

use crate::circuit::Circuit;

/// A node in the dependency DAG: one operation plus its wiring.
#[derive(Debug, Clone)]
pub struct DagNode {
    /// Index of the operation in the source circuit's `ops()` order.
    pub op_index: usize,
    /// Indices of operations this one depends on (per-qubit predecessors,
    /// deduplicated).
    pub preds: Vec<usize>,
    /// Indices of operations depending on this one.
    pub succs: Vec<usize>,
}

/// Dependency DAG of a circuit.
///
/// # Examples
///
/// ```
/// use epoc_circuit::{Circuit, Gate, CircuitDag};
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::H, &[0]).push(Gate::CX, &[0, 1]).push(Gate::H, &[1]);
/// let dag = CircuitDag::new(&c);
/// assert_eq!(dag.node(1).preds, vec![0]);     // CX waits on H(q0)
/// assert_eq!(dag.node(2).preds, vec![1]);     // H(q1) waits on CX
/// assert_eq!(dag.layers().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitDag {
    nodes: Vec<DagNode>,
    n_qubits: usize,
}

impl CircuitDag {
    /// Builds the DAG for a circuit.
    pub fn new(circuit: &Circuit) -> Self {
        let mut nodes: Vec<DagNode> = Vec::with_capacity(circuit.len());
        let mut last_on_qubit: Vec<Option<usize>> = vec![None; circuit.n_qubits()];
        for (idx, op) in circuit.ops().iter().enumerate() {
            let mut preds: Vec<usize> = op
                .qubits
                .iter()
                .filter_map(|&q| last_on_qubit[q])
                .collect();
            preds.sort_unstable();
            preds.dedup();
            for &p in &preds {
                nodes[p].succs.push(idx);
            }
            nodes.push(DagNode {
                op_index: idx,
                preds,
                succs: Vec::new(),
            });
            for &q in &op.qubits {
                last_on_qubit[q] = Some(idx);
            }
        }
        Self {
            nodes,
            n_qubits: circuit.n_qubits(),
        }
    }

    /// Number of nodes (operations).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the circuit had no operations.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of qubits in the underlying circuit.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Node accessor.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn node(&self, index: usize) -> &DagNode {
        &self.nodes[index]
    }

    /// All nodes in program order.
    pub fn nodes(&self) -> &[DagNode] {
        &self.nodes
    }

    /// ASAP layering: `layers()[k]` holds the op indices whose longest
    /// dependency chain has length `k`.
    pub fn layers(&self) -> Vec<Vec<usize>> {
        let mut level = vec![0usize; self.nodes.len()];
        let mut layers: Vec<Vec<usize>> = Vec::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            let l = node
                .preds
                .iter()
                .map(|&p| level[p] + 1)
                .max()
                .unwrap_or(0);
            level[idx] = l;
            if l >= layers.len() {
                layers.resize_with(l + 1, Vec::new);
            }
            layers[l].push(idx);
        }
        layers
    }

    /// Critical-path length under a per-operation cost function
    /// (e.g. a gate-duration model). Returns 0 for an empty DAG.
    pub fn critical_path(&self, cost: impl Fn(usize) -> f64) -> f64 {
        let mut finish = vec![0.0f64; self.nodes.len()];
        let mut best: f64 = 0.0;
        for (idx, node) in self.nodes.iter().enumerate() {
            let start = node
                .preds
                .iter()
                .map(|&p| finish[p])
                .fold(0.0f64, f64::max);
            finish[idx] = start + cost(idx);
            best = best.max(finish[idx]);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    fn sample() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]) // 0
            .push(Gate::H, &[1]) // 1
            .push(Gate::CX, &[0, 1]) // 2
            .push(Gate::T, &[2]) // 3
            .push(Gate::CX, &[1, 2]) // 4
            .push(Gate::H, &[0]); // 5
        c
    }

    #[test]
    fn preds_follow_qubit_wiring() {
        let dag = CircuitDag::new(&sample());
        assert!(dag.node(0).preds.is_empty());
        assert!(dag.node(1).preds.is_empty());
        assert_eq!(dag.node(2).preds, vec![0, 1]);
        assert!(dag.node(3).preds.is_empty());
        assert_eq!(dag.node(4).preds, vec![2, 3]);
        assert_eq!(dag.node(5).preds, vec![2]);
    }

    #[test]
    fn succs_mirror_preds() {
        let dag = CircuitDag::new(&sample());
        for (i, n) in dag.nodes().iter().enumerate() {
            for &s in &n.succs {
                assert!(dag.node(s).preds.contains(&i));
            }
            for &p in &n.preds {
                assert!(dag.node(p).succs.contains(&i));
            }
        }
    }

    #[test]
    fn layers_match_depth() {
        let c = sample();
        let dag = CircuitDag::new(&c);
        assert_eq!(dag.layers().len(), c.depth());
        let total: usize = dag.layers().iter().map(|l| l.len()).sum();
        assert_eq!(total, c.len());
    }

    #[test]
    fn unit_cost_critical_path_equals_depth() {
        let c = sample();
        let dag = CircuitDag::new(&c);
        let cp = dag.critical_path(|_| 1.0);
        assert!((cp - c.depth() as f64).abs() < 1e-12);
    }

    #[test]
    fn weighted_critical_path() {
        let c = sample();
        let dag = CircuitDag::new(&c);
        // Two-qubit gates cost 10, single-qubit cost 1.
        let ops = c.ops().to_vec();
        let cp = dag.critical_path(|i| if ops[i].gate.arity() == 2 { 10.0 } else { 1.0 });
        // Chain: H(1) -> CX(10) -> CX(10) = 21.
        assert!((cp - 21.0).abs() < 1e-12);
    }

    #[test]
    fn dedup_multi_qubit_pred() {
        // Both qubits of the second CX come from the first CX: one pred.
        let mut c = Circuit::new(2);
        c.push(Gate::CX, &[0, 1]).push(Gate::CX, &[1, 0]);
        let dag = CircuitDag::new(&c);
        assert_eq!(dag.node(1).preds, vec![0]);
    }

    #[test]
    fn empty_dag() {
        let dag = CircuitDag::new(&Circuit::new(2));
        assert!(dag.is_empty());
        assert!(dag.layers().is_empty());
        assert_eq!(dag.critical_path(|_| 1.0), 0.0);
    }
}
