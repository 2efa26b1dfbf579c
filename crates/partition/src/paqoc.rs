//! PAQOC-style coarse-grained baseline partitioner.
//!
//! Reimplements the comparator the paper measures against (Chen et al.,
//! HPCA 2023): gate-level grouping that is **bound by the circuit's gate
//! structure** — blocks are runs of program-order-consecutive gates on a
//! small fixed qubit set (≤ 2 by default, as in AccQOC's uniform two-qubit
//! subcircuits). Its pulse reuse is the comparator's phase-sensitive pulse
//! cache, where repeated patterns share a key. No ZX optimization, no
//! synthesis, no global-phase-aware matching — exactly the coarseness
//! EPOC's fine-grained pipeline improves on.

use crate::block::{Block, Partition};
use epoc_circuit::Circuit;

/// Configuration of the PAQOC-like partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaqocConfig {
    /// Maximum qubits per pattern block (2 in AccQOC/PAQOC).
    pub max_qubits: usize,
    /// Maximum gates per pattern block.
    pub max_gates: usize,
}

impl Default for PaqocConfig {
    fn default() -> Self {
        Self {
            max_qubits: 2,
            max_gates: 6,
        }
    }
}

/// Partitions a circuit the PAQOC way: scan gates in program order; each
/// block starts at the first unconsumed gate and absorbs subsequent
/// *ready* gates whose qubits stay inside the block's qubit set (fixed
/// once `max_qubits` distinct qubits are touched).
///
/// Unlike [`crate::greedy_partition`], no interaction-graph grouping is
/// done and blocks cannot reach past an intervening gate on another group
/// — the gate-structure-bound behavior the paper criticizes.
///
/// # Panics
///
/// Panics if a gate is wider than `max_qubits`.
pub fn paqoc_partition(circuit: &Circuit, config: PaqocConfig) -> Partition {
    let ops = circuit.ops();
    for op in ops {
        assert!(
            op.qubits.len() <= config.max_qubits,
            "gate {} wider than PAQOC pattern limit",
            op.gate
        );
    }
    let n = circuit.n_qubits();
    let mut consumed = vec![false; ops.len()];
    let mut blocks = Vec::new();
    let mut n_consumed = 0usize;
    let mut tracker = crate::frontier::FrontierTracker::new(n, ops);
    // Position of the earliest unconsumed op, maintained incrementally.
    let mut scan_from = 0usize;

    while n_consumed < ops.len() {
        // Seed: earliest unconsumed gate.
        while scan_from < ops.len() && consumed[scan_from] {
            scan_from += 1;
        }
        let seed = scan_from;
        let mut qubits: Vec<usize> = ops[seed].qubits.clone();
        qubits.sort_unstable();
        let mut taken = vec![seed];
        consumed[seed] = true;
        n_consumed += 1;
        // Absorb the earliest ready gate that keeps the qubit set within
        // the limits. Ready gates are per-qubit frontiers, so only the
        // frontiers of qubits near the block are candidates.
        'absorb: loop {
            if taken.len() >= config.max_gates {
                break;
            }
            let mut pick: Option<(usize, Vec<usize>)> = None;
            for q in 0..n {
                let Some(i) = tracker.frontier(q, &consumed) else {
                    continue;
                };
                if let Some((best, _)) = &pick {
                    if i >= *best {
                        continue;
                    }
                }
                // Would the qubit set stay within limits?
                let mut new_qubits = qubits.clone();
                for &oq in &ops[i].qubits {
                    if !new_qubits.contains(&oq) {
                        new_qubits.push(oq);
                    }
                }
                if new_qubits.len() > config.max_qubits {
                    continue;
                }
                if !tracker.is_ready(i, &ops[i], &consumed) {
                    continue;
                }
                new_qubits.sort_unstable();
                pick = Some((i, new_qubits));
            }
            match pick {
                Some((i, new_qubits)) => {
                    qubits = new_qubits;
                    consumed[i] = true;
                    n_consumed += 1;
                    taken.push(i);
                    continue 'absorb;
                }
                None => break,
            }
        }
        // Build the local circuit.
        let mut local = Circuit::new(qubits.len());
        for &i in &taken {
            let mapped: Vec<usize> = ops[i]
                .qubits
                .iter()
                .map(|q| qubits.binary_search(q).expect("in block"))
                .collect();
            local.push(ops[i].gate.clone(), &mapped);
        }
        blocks.push(Block::new(qubits, local));
    }
    Partition::new(n, blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epoc_circuit::{circuits_equivalent, generators};

    #[test]
    fn paqoc_preserves_semantics() {
        for seed in 0..8u64 {
            let c = generators::random_circuit(4, 20, seed);
            let p = paqoc_partition(&c, PaqocConfig::default());
            assert_eq!(p.total_gates(), c.len());
            assert!(circuits_equivalent(&c, &p.to_circuit(), 1e-8), "seed {seed}");
            for b in p.blocks() {
                assert!(b.n_qubits() <= 2);
                assert!(b.len() <= 6);
            }
        }
    }

    #[test]
    fn paqoc_stays_two_qubit_while_greedy_grows() {
        // PAQOC's pattern blocks are capped at two qubits; the greedy
        // partitioner at the same gate budget forms wider blocks.
        let c = generators::qaoa(6, 2, 3);
        let paqoc = paqoc_partition(&c, PaqocConfig::default());
        assert!(paqoc.blocks().iter().all(|b| b.n_qubits() <= 2));
        assert!(circuits_equivalent(&c, &paqoc.to_circuit(), 1e-8));
        let greedy = crate::greedy_partition(
            &c,
            crate::PartitionConfig {
                max_qubits: 3,
                max_gates: 16,
            },
        );
        assert!(
            greedy.blocks().iter().any(|b| b.n_qubits() == 3),
            "greedy never used its wider budget"
        );
    }

    #[test]
    fn empty_circuit() {
        let p = paqoc_partition(&Circuit::new(2), PaqocConfig::default());
        assert!(p.is_empty());
    }
}
