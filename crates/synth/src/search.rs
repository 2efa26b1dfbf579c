//! The paper's Algorithm 2: heuristic (A*) circuit synthesis.
//!
//! Nodes are template structures (CNOT placements); expanding a node
//! appends one `CNOT + VUG·VUG` cell at every qubit pair. Each node is
//! scored by numerically instantiating its VUG parameters against the
//! target; the search pops the node minimizing
//! `distance + cnot_weight · #CNOTs` until a node reaches the accuracy
//! threshold (`AccuracyThreshold` in the paper's pseudocode).

use crate::template::{InstantiateOptions, Template};
use epoc_circuit::{Circuit, Gate};
use epoc_linalg::Matrix;
use epoc_rt::faults;
use epoc_rt::rng::StdRng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// A synthesis failure. Running out of node budget is *not* an error —
/// that is a best-effort [`SynthResult`] with `converged: false`; these
/// are malformed inputs and lowering defects.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthError {
    /// The target matrix is not square.
    NotSquare,
    /// The target dimension is not a power of two ≥ 2.
    BadDimension(usize),
    /// The target is not unitary (to 1e-7).
    NotUnitary,
    /// [`lower_to_vug_form`] met an opaque block wider than one qubit.
    OpaqueBlock {
        /// Dimension of the offending opaque block.
        dim: usize,
    },
    /// The analytic lowering failed or produced an unexpected gate.
    Lowering(String),
    /// The search was cancelled hard (explicit cancel or a wall-clock
    /// deadline). Unlike budget exhaustion — which returns a best-effort
    /// non-converged result — this aborts the job.
    Canceled(epoc_rt::cancel::CancelReason),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotSquare => write!(f, "synthesis target must be square"),
            Self::BadDimension(d) => {
                write!(f, "synthesis target dimension {d} is not a power of two >= 2")
            }
            Self::NotUnitary => write!(f, "synthesis target is not unitary"),
            Self::OpaqueBlock { dim } => write!(
                f,
                "lower_to_vug_form only passes through 1-qubit opaque blocks (got dim {dim})"
            ),
            Self::Lowering(msg) => write!(f, "analytic lowering failed: {msg}"),
            Self::Canceled(reason) => write!(f, "synthesis {reason}"),
        }
    }
}

impl std::error::Error for SynthError {}

/// Synthesis configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Stop when the phase-invariant distance drops below this.
    pub distance_threshold: f64,
    /// Hard cap on CNOT cells per candidate.
    pub max_cnots: usize,
    /// Hard cap on instantiated nodes before giving up.
    pub max_nodes: usize,
    /// A* weight per CNOT (trades gate count against search time).
    pub cnot_weight: f64,
    /// Numerical instantiation options.
    pub instantiate: InstantiateOptions,
    /// RNG seed (synthesis is deterministic given the seed).
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            distance_threshold: 1e-5,
            max_cnots: 10,
            max_nodes: 200,
            cnot_weight: 0.05,
            instantiate: InstantiateOptions::default(),
            seed: 0xEC0C,
        }
    }
}

/// The result of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthResult {
    /// The synthesized circuit (VUGs + CNOTs) on the target's qubit count.
    pub circuit: Circuit,
    /// Final phase-invariant distance to the target.
    pub distance: f64,
    /// CNOT count of the result.
    pub cnots: usize,
    /// Nodes instantiated during search.
    pub nodes_evaluated: usize,
    /// `true` when the threshold was met (otherwise best-effort result).
    pub converged: bool,
}

/// A search node. Template structure and instantiated parameters are
/// behind `Rc`: the heap and the best-so-far bookkeeping share one
/// allocation per evaluated node instead of deep-copying segment and
/// parameter vectors at every improvement. The only deep template copy
/// left is the structural one at expansion time, when a child genuinely
/// differs from its parent by an appended cell.
#[derive(Debug)]
struct Node {
    template: Rc<Template>,
    params: Rc<Vec<f64>>,
    distance: f64,
    score: f64,
    /// Creation sequence number — the deterministic tie-break: equal
    /// scores pop in creation order, making the heap's pop sequence a
    /// total order independent of insertion history. It also seeds the
    /// candidate's instantiation RNG.
    seq: u64,
}

impl Node {
    /// A cheap handle-copy (shares template and params).
    fn share(&self) -> Self {
        Self {
            template: Rc::clone(&self.template),
            params: Rc::clone(&self.params),
            distance: self.distance,
            score: self.score,
            seq: self.seq,
        }
    }
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.seq == other.seq
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (score, creation sequence).
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Synthesizes a circuit implementing `target` (up to global phase) from
/// VUGs and CNOTs.
///
/// Returns a best-effort [`SynthResult`] even when the threshold is not
/// reached within the node budget (check [`SynthResult::converged`]).
///
/// # Errors
///
/// Returns [`SynthError`] if `target` is not square with power-of-two
/// dimension ≥ 2, or is not unitary.
///
/// # Examples
///
/// ```
/// use epoc_circuit::Gate;
/// use epoc_synth::{synthesize, SynthConfig};
///
/// let r = synthesize(&Gate::CZ.unitary_matrix(), &SynthConfig::default()).unwrap();
/// assert!(r.converged);
/// assert!(r.distance < 1e-5);
/// ```
pub fn synthesize(target: &Matrix, config: &SynthConfig) -> Result<SynthResult, SynthError> {
    synthesize_with_cancel(target, config, &epoc_rt::cancel::CancelScope::none())
}

/// [`synthesize`] with a cooperative-cancellation scope polled once per
/// A* expansion. Each expansion charges its child count against the
/// scope's QSearch budget *before* instantiating them; exhaustion ends
/// the search exactly like a `max_nodes` blow-through (a best-effort,
/// non-converged result), so budgeted outcomes are deterministic.
///
/// # Errors
///
/// All of [`synthesize`]'s errors, plus [`SynthError::Canceled`] when
/// the scope's token is cancelled or past its deadline.
pub fn synthesize_with_cancel(
    target: &Matrix,
    config: &SynthConfig,
    cancel: &epoc_rt::cancel::CancelScope,
) -> Result<SynthResult, SynthError> {
    let _span = epoc_rt::telemetry::span("synth", "qsearch");
    cancel.poll().map_err(SynthError::Canceled)?;
    if !target.is_square() {
        return Err(SynthError::NotSquare);
    }
    let dim = target.rows();
    if dim < 2 || !dim.is_power_of_two() {
        return Err(SynthError::BadDimension(dim));
    }
    if !target.is_unitary(1e-7) {
        return Err(SynthError::NotUnitary);
    }
    let n = dim.trailing_zeros() as usize;
    // Optimizing below the success threshold is wasted work: stop the
    // numerical instantiation once cost = distance² is good enough.
    let config = &SynthConfig {
        instantiate: crate::template::InstantiateOptions {
            cost_threshold: config
                .instantiate
                .cost_threshold
                .max(config.distance_threshold * config.distance_threshold * 0.25),
            ..config.instantiate
        },
        ..config.clone()
    };

    // Single-qubit targets: one VUG, no search.
    if n == 1 {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let t = Template::initial(1);
        let (params, dist) = t.instantiate(target, &mut rng, &config.instantiate);
        let circuit = t.to_circuit(&params);
        record_search_telemetry(1);
        return Ok(SynthResult {
            distance: dist,
            cnots: 0,
            nodes_evaluated: 1,
            converged: dist < config.distance_threshold,
            circuit: ensure_nonempty_1q(circuit, target),
        });
    }

    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b)))
        .collect();

    // Candidate instantiation. The optimizer RNG is seeded purely by
    // `(config.seed, seq)`, so each node is a function of its structure
    // and creation number alone.
    let evaluate = |template: Template, seq: u64| -> Node {
        let mut rng = StdRng::seed_from_u64(faults::mix(config.seed, seq));
        let (params, distance) = template.instantiate(target, &mut rng, &config.instantiate);
        let score = distance + config.cnot_weight * template.cnot_count() as f64;
        Node {
            template: Rc::new(template),
            params: Rc::new(params),
            distance,
            score,
            seq,
        }
    };

    let root = evaluate(Template::initial(n), 0);
    let mut next_seq = 1u64;
    let mut nodes_evaluated = 1usize;
    let mut best = root.share();
    let mut heap = BinaryHeap::new();
    heap.push(root);

    // Fail point `qsearch.budget`: an injected budget exhaustion before
    // the A* loop — the root comes back non-converged, exactly like a
    // genuine `max_nodes` blow-through. Keyed by (target, budget, seed)
    // so the fate is a pure function of the work item, and fresh for
    // every budget escalation the recovery ladder tries.
    if faults::is_armed() {
        let key = faults::mix(
            target.fold_bits(faults::mix(0, dim as u64)),
            faults::mix(config.max_nodes as u64, config.seed),
        );
        if faults::fail_point_keyed("qsearch.budget", key) {
            return Ok(finish(best, nodes_evaluated, false));
        }
    }

    'search: while let Some(node) = heap.pop() {
        if node.distance < config.distance_threshold {
            return Ok(finish(node, nodes_evaluated, true));
        }
        if node.template.cnot_count() >= config.max_cnots {
            continue;
        }
        if nodes_evaluated >= config.max_nodes {
            break;
        }
        // Cooperative cancellation: charge the whole expansion before
        // instantiating it. Budget exhaustion ends the search like a
        // max_nodes blow-through; a raised flag or blown deadline aborts
        // typed.
        match cancel.spend_qsearch_nodes(pairs.len() as u64) {
            Ok(true) => {}
            Ok(false) => break,
            Err(reason) => return Err(SynthError::Canceled(reason)),
        }
        // Expand: instantiate every child, then merge them in pair order.
        let children: Vec<Node> = pairs
            .iter()
            .map(|&(c, t)| {
                let mut template = (*node.template).clone();
                template.push_cell(c, t);
                let seq = next_seq;
                next_seq += 1;
                evaluate(template, seq)
            })
            .collect();
        for child in children {
            nodes_evaluated += 1;
            if child.distance < best.distance - 1e-12 {
                best = child.share();
            }
            if child.distance < config.distance_threshold {
                return Ok(finish(child, nodes_evaluated, true));
            }
            heap.push(child);
            if nodes_evaluated >= config.max_nodes {
                break 'search;
            }
        }
    }
    Ok(finish(best, nodes_evaluated, false))
}

fn finish(node: Node, nodes_evaluated: usize, converged: bool) -> SynthResult {
    record_search_telemetry(nodes_evaluated);
    let circuit = node.template.to_circuit(&node.params);
    SynthResult {
        cnots: circuit.count_gates(|g| matches!(g, Gate::CX)),
        distance: node.distance,
        nodes_evaluated,
        converged,
        circuit,
    }
}

/// Per-call node accounting, shared by every exit path of [`synthesize`].
fn record_search_telemetry(nodes_evaluated: usize) {
    epoc_rt::telemetry::counter_add("qsearch.nodes", nodes_evaluated as u64);
    epoc_rt::telemetry::histogram_record("qsearch.nodes_per_call", nodes_evaluated as u64);
}

/// For 1-qubit targets whose optimum collapsed to identity-skip: make sure
/// a non-identity target still emits its VUG.
fn ensure_nonempty_1q(circuit: Circuit, target: &Matrix) -> Circuit {
    if !circuit.is_empty() {
        return circuit;
    }
    if epoc_linalg::phase_invariant_distance(target, &Matrix::identity(2)) < 1e-7 {
        return circuit; // genuinely the identity
    }
    let mut c = Circuit::new(1);
    c.push(Gate::unitary("vug", target.clone()), &[0]);
    c
}

/// Synthesizes a circuit block's unitary, falling back to the block's own
/// gate list (lowered to VUG/CNOT form) when search does not converge —
/// synthesis is then guaranteed never to *hurt*.
///
/// # Errors
///
/// Returns [`SynthError`] on malformed targets or when the analytic
/// fallback lowering itself fails.
pub fn synthesize_or_fallback(
    target: &Matrix,
    original: &Circuit,
    config: &SynthConfig,
) -> Result<SynthResult, SynthError> {
    let r = synthesize(target, config)?;
    if r.converged {
        return Ok(r);
    }
    let fallback = lower_to_vug_form(original)?;
    Ok(SynthResult {
        distance: 0.0,
        cnots: fallback.count_gates(|g| matches!(g, Gate::CX)),
        nodes_evaluated: r.nodes_evaluated,
        converged: true,
        circuit: fallback,
    })
}

/// Rewrites a circuit into VUG/CNOT form without numerical search: gates
/// are lowered analytically to `{H, RZ, CX, CZ}` (reusing the verified
/// lowerings of `epoc-zx`), `CZ` becomes `H·CX·H` on the target, and runs
/// of single-qubit gates on a wire collapse into one opaque VUG.
///
/// # Errors
///
/// Returns [`SynthError::OpaqueBlock`] if the circuit contains opaque
/// unitary blocks wider than one qubit (1-qubit VUGs pass through
/// unchanged), and [`SynthError::Lowering`] if the analytic lowering
/// fails.
pub fn lower_to_vug_form(circuit: &Circuit) -> Result<Circuit, SynthError> {
    // Split out existing opaque blocks so `lower_for_zx` never sees them.
    let mut elementary = Circuit::new(circuit.n_qubits());
    for op in circuit.ops() {
        match &op.gate {
            Gate::Unitary { matrix, .. } => {
                if matrix.rows() != 2 {
                    return Err(SynthError::OpaqueBlock { dim: matrix.rows() });
                }
                // Re-express through its own elementary decomposition so
                // the merging pass below can fuse it with neighbors.
                epoc_circuit::append_single_qubit_unitary(
                    &mut elementary,
                    matrix,
                    op.qubits[0],
                );
            }
            _ => {
                elementary.push_op(op.clone());
            }
        }
    }
    let lowered = epoc_zx::lower_for_zx(&elementary)
        .map_err(|e| SynthError::Lowering(e.to_string()))?;
    // Accumulate per-wire single-qubit products, flushing as VUGs at
    // two-qubit boundaries.
    let n = lowered.n_qubits();
    let mut pending: Vec<Option<Matrix>> = vec![None; n];
    let mut out = Circuit::new(n);
    let flush = |out: &mut Circuit, pending: &mut Vec<Option<Matrix>>, q: usize| {
        if let Some(u) = pending[q].take() {
            if let Some(gate) = crate::vug_gate(&u) {
                out.push(gate, &[q]);
            }
        }
    };
    let absorb = |pending: &mut Vec<Option<Matrix>>, q: usize, g: &Matrix| {
        let cur = pending[q].take().unwrap_or_else(|| Matrix::identity(2));
        pending[q] = Some(g.matmul(&cur));
    };
    for op in lowered.ops() {
        match &op.gate {
            Gate::H => absorb(&mut pending, op.qubits[0], &Gate::H.unitary_matrix()),
            Gate::RZ(t) => absorb(&mut pending, op.qubits[0], &Gate::RZ(*t).unitary_matrix()),
            Gate::CX => {
                flush(&mut out, &mut pending, op.qubits[0]);
                flush(&mut out, &mut pending, op.qubits[1]);
                out.push(Gate::CX, &op.qubits);
            }
            Gate::CZ => {
                // CZ = (I⊗H)·CX·(I⊗H)
                let h = Gate::H.unitary_matrix();
                absorb(&mut pending, op.qubits[1], &h);
                flush(&mut out, &mut pending, op.qubits[0]);
                flush(&mut out, &mut pending, op.qubits[1]);
                out.push(Gate::CX, &op.qubits);
                absorb(&mut pending, op.qubits[1], &h);
            }
            g => {
                return Err(SynthError::Lowering(format!(
                    "lower_for_zx produced unexpected gate {g}"
                )))
            }
        }
    }
    for q in 0..n {
        flush(&mut out, &mut pending, q);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epoc_circuit::{circuits_equivalent, Circuit};
    use epoc_linalg::{phase_invariant_distance, random_unitary};
    use epoc_rt::rng::StdRng;

    fn verify(result: &SynthResult, target: &Matrix, tol: f64) {
        let u = result.circuit.unitary();
        let d = phase_invariant_distance(&u, target);
        assert!(d < tol, "result distance {d} (reported {})", result.distance);
    }

    #[test]
    fn synthesize_single_qubit() {
        let mut rng = StdRng::seed_from_u64(11);
        let target = random_unitary(2, &mut rng);
        let r = synthesize(&target, &SynthConfig::default()).unwrap();
        assert!(r.converged);
        assert_eq!(r.cnots, 0);
        verify(&r, &target, 1e-4);
    }

    #[test]
    fn synthesize_identity_two_qubit() {
        let target = Matrix::identity(4);
        let r = synthesize(&target, &SynthConfig::default()).unwrap();
        assert!(r.converged);
        assert_eq!(r.cnots, 0);
        assert!(r.circuit.is_empty() || r.distance < 1e-5);
    }

    #[test]
    fn synthesize_cx_needs_one_cnot() {
        let r = synthesize(&Gate::CX.unitary_matrix(), &SynthConfig::default()).unwrap();
        assert!(r.converged, "distance {}", r.distance);
        assert!(r.cnots <= 1, "used {} cnots", r.cnots);
        verify(&r, &Gate::CX.unitary_matrix(), 1e-4);
    }

    #[test]
    fn synthesize_swap_needs_three_cnots() {
        let r = synthesize(&Gate::Swap.unitary_matrix(), &SynthConfig::default()).unwrap();
        assert!(r.converged, "distance {}", r.distance);
        assert!(r.cnots <= 3, "used {} cnots", r.cnots);
        verify(&r, &Gate::Swap.unitary_matrix(), 1e-4);
    }

    #[test]
    fn synthesize_random_two_qubit() {
        let mut rng = StdRng::seed_from_u64(21);
        for i in 0..3 {
            let target = random_unitary(4, &mut rng);
            let r = synthesize(
                &target,
                &SynthConfig {
                    seed: 100 + i,
                    ..SynthConfig::default()
                },
            )
            .unwrap();
            assert!(r.converged, "case {i}: distance {}", r.distance);
            // KAK bound: any 2-qubit unitary needs ≤ 3 CNOTs.
            assert!(r.cnots <= 4, "case {i}: used {} cnots", r.cnots);
            verify(&r, &target, 1e-4);
        }
    }

    #[test]
    fn synthesize_two_qubit_circuit_block() {
        // A realistic block: H·CX·T·CX ladder.
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0])
            .push(Gate::CX, &[0, 1])
            .push(Gate::T, &[1])
            .push(Gate::CX, &[0, 1])
            .push(Gate::S, &[0]);
        let target = c.unitary();
        let r = synthesize(&target, &SynthConfig::default()).unwrap();
        assert!(r.converged, "distance {}", r.distance);
        verify(&r, &target, 1e-4);
        assert!(
            circuits_equivalent(&c, &r.circuit, 1e-4),
            "synthesized block differs"
        );
    }

    #[test]
    fn fallback_when_budget_tiny() {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]).push(Gate::CX, &[0, 1]).push(Gate::T, &[1]);
        let target = c.unitary();
        let cfg = SynthConfig {
            max_nodes: 1,
            max_cnots: 0,
            ..SynthConfig::default()
        };
        let r = synthesize_or_fallback(&target, &c, &cfg).unwrap();
        assert!(r.converged);
        assert!(circuits_equivalent(&c, &r.circuit, 1e-6));
    }

    #[test]
    fn lower_to_vug_form_preserves() {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0])
            .push(Gate::CZ, &[0, 1])
            .push(Gate::RZZ(0.4), &[1, 2])
            .push(Gate::T, &[2]);
        let lowered = lower_to_vug_form(&c).unwrap();
        assert!(circuits_equivalent(&c, &lowered, 1e-4));
        for op in lowered.ops() {
            assert!(matches!(op.gate, Gate::Unitary { .. } | Gate::CX | Gate::RZ(_)));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let target = Gate::CZ.unitary_matrix();
        let a = synthesize(&target, &SynthConfig::default()).unwrap();
        let b = synthesize(&target, &SynthConfig::default()).unwrap();
        assert_eq!(a.circuit, b.circuit);
    }
}
