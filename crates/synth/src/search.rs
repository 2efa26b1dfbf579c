//! The paper's Algorithm 2: heuristic (A*) circuit synthesis.
//!
//! Nodes are template structures (CNOT placements); expanding a node
//! appends one `CNOT + VUG·VUG` cell at every qubit pair. Each node is
//! scored by numerically instantiating its VUG parameters against the
//! target; the search pops the node minimizing
//! `distance + cnot_weight · #CNOTs` until a node reaches the accuracy
//! threshold (`AccuracyThreshold` in the paper's pseudocode).
//!
//! The search skips two kinds of instantiation whose result nothing
//! reads:
//!
//! * an expansion instantiates its children in pair order and stops at
//!   the first that converges (or that reaches `max_nodes`), since the
//!   search ends there either way;
//! * the root (one VUG per wire) is not instantiated when the operator
//!   Schmidt bound (`product_cost_bound`) shows that no product of
//!   1-qubit gates comes within the threshold. It still counts as node 1
//!   and is expanded first; it is instantiated only if the search ends
//!   without converging, where it competes for the best-effort result
//!   exactly as if it had been instantiated first.
//!
//! Every [`SynthResult`] is the one the eager search gives, since each
//! node's instantiation depends only on its structure and creation
//! number.

use crate::template::{InstantiateOptions, Template};
use epoc_circuit::{Circuit, Gate};
use epoc_linalg::{eigh, Complex64, Matrix};
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
    /// Nodes the search scored, the root included. A root that the
    /// Schmidt bound rules out still counts, although it is instantiated
    /// only when the search ends without converging.
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
    let config = &search_config(config);

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

    // The root is node 1 either way. A deferred one enters the heap
    // uninstantiated: it is popped first, alone, and cannot converge.
    let defer_root = root_is_out_of_reach(target, config.distance_threshold);
    let root = if defer_root {
        Node {
            template: Rc::new(Template::initial(n)),
            params: Rc::new(Vec::new()),
            distance: f64::INFINITY,
            score: f64::INFINITY,
            seq: 0,
        }
    } else {
        evaluate(Template::initial(n), 0)
    };
    // Every scored node in creation order. A non-converged exit returns
    // the best of them by the eager search's rule: start from the root,
    // and take each child closer than the best so far by more than 1e-12.
    // A deferred root is instantiated only then.
    let mut evaluated = vec![root.share()];
    let best_effort = |evaluated: &[Node]| -> Node {
        let (root, children) = evaluated.split_first().expect("the root is always scored");
        let mut best = if defer_root {
            evaluate(Template::initial(n), 0)
        } else {
            root.share()
        };
        for child in children {
            if child.distance < best.distance - 1e-12 {
                best = child.share();
            }
        }
        best
    };
    let mut next_seq = 1u64;
    let mut nodes_evaluated = 1usize;
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
            return Ok(finish(best_effort(&evaluated), nodes_evaluated, false));
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
        // Expand: instantiate the children in pair order, up to the first
        // that ends the search.
        for (seq, &(c, t)) in (next_seq..).zip(&pairs) {
            let mut template = (*node.template).clone();
            template.push_cell(c, t);
            let child = evaluate(template, seq);
            nodes_evaluated += 1;
            if child.distance < config.distance_threshold {
                return Ok(finish(child, nodes_evaluated, true));
            }
            evaluated.push(child.share());
            heap.push(child);
            if nodes_evaluated >= config.max_nodes {
                break 'search;
            }
        }
        next_seq += pairs.len() as u64;
    }
    Ok(finish(best_effort(&evaluated), nodes_evaluated, false))
}

/// `config` as the search runs it. Optimizing below the success
/// threshold is wasted work, so the numerical instantiation stops once
/// cost = distance² is a quarter of the threshold's square.
fn search_config(config: &SynthConfig) -> SynthConfig {
    SynthConfig {
        instantiate: InstantiateOptions {
            cost_threshold: config
                .instantiate
                .cost_threshold
                .max(config.distance_threshold * config.distance_threshold * 0.25),
            ..config.instantiate
        },
        ..config.clone()
    }
}

/// A lower bound on the cost `1 − |Tr(T†·(A⊗B))|/d` of every product
/// `A⊗B` of a 1-qubit unitary `A` on qubit 0 and a unitary `B` on the
/// rest, so of every instantiation of the root template.
///
/// Realign the `d×d` target `T` across that cut into the `4 × (d/2)²`
/// matrix `R` whose rows are `T`'s four `d/2 × d/2` blocks. Then
/// `Tr(T†·(A⊗B)) = vec(A)ᵀ·conj(R)·vec(B)`, whose modulus is at most
/// `σ_max·‖A‖_F·‖B‖_F = σ_max·√d` (the operator-Schmidt decomposition;
/// Nielsen et al., Phys. Rev. A 67, 052301). `σ_max²` is the largest
/// eigenvalue of the blocks' 4×4 Gram matrix `R·R†`, whose trace is `d`,
/// so the bound lies in `[0, 1]` and is zero (to rounding) on products.
fn product_cost_bound(target: &Matrix) -> f64 {
    let d = target.rows();
    let h = d / 2;
    let block_row = |p: usize, k: usize| {
        let col = (p & 1) * h;
        &target.row((p >> 1) * h + k)[col..col + h]
    };
    let mut gram = Matrix::zeros(4, 4);
    for p in 0..4 {
        for q in p..4 {
            let mut s = Complex64::ZERO;
            for k in 0..h {
                for (x, y) in block_row(p, k).iter().zip(block_row(q, k)) {
                    s += *x * y.conj();
                }
            }
            gram[(p, q)] = s;
            gram[(q, p)] = s.conj();
        }
    }
    // A failed decomposition (not possible for a finite unitary target)
    // gives the bound 0, which never defers.
    let sigma_sq = eigh(&gram).map_or(d as f64, |e| e.values[3]);
    1.0 - (sigma_sq.max(0.0) / d as f64).sqrt()
}

/// Whether the root template provably misses `distance_threshold`: its
/// Schmidt bound exceeds the threshold's square by a margin far above
/// the rounding of both the bound and an instantiated cost.
fn root_is_out_of_reach(target: &Matrix, distance_threshold: f64) -> bool {
    product_cost_bound(target) > distance_threshold * distance_threshold + 1e-9
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

    /// Out of budget, QSearch reports the miss rather than hiding it: the
    /// pipeline's ladder then falls back to the block's own gates, whose
    /// structural lowering is exact.
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
        let r = synthesize(&target, &cfg).unwrap();
        assert!(!r.converged, "distance {}", r.distance);
        let fallback = lower_to_vug_form(&c).unwrap();
        assert!(circuits_equivalent(&c, &fallback, 1e-6));
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

    /// A random unitary of dimension `dim` drawn from the case's choices.
    fn drawn_unitary(g: &mut epoc_rt::check::Gen, dim: usize) -> Matrix {
        let mut rng = StdRng::seed_from_u64(g.u64_in(0, 1 << 40));
        random_unitary(dim, &mut rng)
    }

    /// A random product of 1-qubit unitaries on `n` wires.
    fn drawn_product(g: &mut epoc_rt::check::Gen, n: usize) -> Matrix {
        let mut p = drawn_unitary(g, 2);
        for _ in 1..n {
            p = p.kron(&drawn_unitary(g, 2));
        }
        p
    }

    /// `exp(iε·Z⊗Z)` on wires 0 and 1 of `n`.
    fn zz_phase(eps: f64, n: usize) -> Matrix {
        let diag: Vec<Complex64> = (0..1usize << n)
            .map(|i| {
                let parity = ((i >> (n - 1)) ^ (i >> (n - 2))) & 1;
                let angle = if parity == 0 { eps } else { -eps };
                epoc_linalg::c64(angle.cos(), angle.sin())
            })
            .collect();
        Matrix::from_diag(&diag)
    }

    fn iswap() -> Matrix {
        let (o, l, i) = (Complex64::ZERO, Complex64::ONE, epoc_linalg::c64(0.0, 1.0));
        Matrix::from_rows(&[&[l, o, o, o], &[o, o, i, o], &[o, i, o, o], &[o, o, o, l]])
    }

    #[test]
    fn schmidt_bound_never_exceeds_an_achieved_root_cost() {
        epoc_rt::check::property("root cost >= 1 - sigma_max/sqrt(d)")
            .cases(40)
            .run(|g| {
                let n = g.usize_in(2, 4);
                let target = match g.usize_in(0, 3) {
                    0 => drawn_unitary(g, 1 << n),
                    // Near products, where the bound is nearly tight.
                    1 => zz_phase(g.f64_in(0.0, 0.3), n).matmul(&drawn_product(g, n)),
                    _ => drawn_product(g, n),
                };
                let bound = product_cost_bound(&target);
                assert!((-1e-12..=1.0 + 1e-12).contains(&bound), "bound {bound}");
                let root = Template::initial(n);
                let params: Vec<f64> = (0..root.n_params()).map(|_| g.f64_in(-7.0, 7.0)).collect();
                let (cost, _) = root.cost_and_grad(&target, &params);
                assert!(
                    cost >= bound - 1e-12,
                    "random root cost {cost} < bound {bound}"
                );
                // The optimum too: an instantiated root lands close to the
                // bound on a near product, and never below it.
                let mut rng = StdRng::seed_from_u64(g.u64_in(0, 1 << 40));
                let (best, _) = root.instantiate(&target, &mut rng, &InstantiateOptions::default());
                let (cost, _) = root.cost_and_grad(&target, &best);
                assert!(
                    cost >= bound - 1e-12,
                    "instantiated root cost {cost} < bound {bound}"
                );
            });
    }

    #[test]
    fn schmidt_bound_defers_exactly_the_entangling_roots() {
        let thr = SynthConfig::default().distance_threshold;
        epoc_rt::check::property("products are never deferred")
            .cases(40)
            .run(|g| {
                let n = g.usize_in(2, 4);
                let phase = g.f64_in(-3.2, 3.2);
                let target = drawn_product(g, n).scale(epoc_linalg::c64(phase.cos(), phase.sin()));
                assert!(
                    !root_is_out_of_reach(&target, thr),
                    "deferred a product root (bound {})",
                    product_cost_bound(&target)
                );
            });
        for n in 2..4 {
            assert!(!root_is_out_of_reach(&Matrix::identity(1 << n), thr));
        }
        for (name, target) in [
            ("cx", Gate::CX.unitary_matrix()),
            ("cz", Gate::CZ.unitary_matrix()),
            ("swap", Gate::Swap.unitary_matrix()),
            ("iswap", iswap()),
        ] {
            assert!(
                root_is_out_of_reach(&target, thr),
                "{name} root not deferred"
            );
        }
        epoc_rt::check::property("random unitaries are deferred")
            .cases(40)
            .run(|g| {
                let n = g.usize_in(2, 4);
                let target = drawn_unitary(g, 1 << n);
                assert!(
                    root_is_out_of_reach(&target, thr),
                    "random root not deferred (bound {})",
                    product_cost_bound(&target)
                );
            });
    }

    #[test]
    fn deferred_roots_near_the_boundary_miss_the_threshold() {
        let config = search_config(&SynthConfig::default());
        let thr = config.distance_threshold;
        let (mut deferred, mut kept) = (0, 0);
        epoc_rt::check::property("a deferred near-product root misses the threshold")
            .cases(60)
            .run(|g| {
                let n = g.usize_in(2, 4);
                let eps = 10f64.powf(g.f64_in(-7.0, -2.0));
                let target = zz_phase(eps, n).matmul(&drawn_product(g, n));
                if !root_is_out_of_reach(&target, thr) {
                    return;
                }
                let mut rng = StdRng::seed_from_u64(faults::mix(config.seed, 0));
                let (_, dist) =
                    Template::initial(n).instantiate(&target, &mut rng, &config.instantiate);
                assert!(dist >= thr, "eps {eps:e}: deferred root reached {dist:e}");
            });
        // Both sides of the boundary are exercised.
        for k in 0..=10 {
            let eps = 10f64.powf(-7.0 + 0.5 * f64::from(k));
            if root_is_out_of_reach(&zz_phase(eps, 2), thr) {
                deferred += 1;
            } else {
                kept += 1;
            }
        }
        assert!(deferred > 0 && kept > 0, "deferred {deferred}, kept {kept}");
    }

    /// One digest of everything a caller reads from a [`SynthResult`].
    fn result_digest(r: &SynthResult) -> u64 {
        let mut bytes = Vec::new();
        bytes.extend(r.circuit.fingerprint().to_le_bytes());
        bytes.extend(r.distance.to_bits().to_le_bytes());
        bytes.extend((r.cnots as u64).to_le_bytes());
        bytes.extend((r.nodes_evaluated as u64).to_le_bytes());
        bytes.push(u8::from(r.converged));
        epoc_rt::fnv1a(&bytes)
    }

    /// `synthesize`'s results, pinned as they were when every node was
    /// instantiated eagerly: at the default configuration, and on
    /// entangling targets under node and CNOT caps that end the search
    /// with a best-effort result (the deferred root is instantiated then,
    /// and comes back as the best or loses to a child as before).
    #[test]
    fn every_exit_returns_the_eager_result() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut default_cases = vec![
            ("cx".to_string(), Gate::CX.unitary_matrix()),
            ("swap".to_string(), Gate::Swap.unitary_matrix()),
            (
                "local".to_string(),
                random_unitary(2, &mut rng).kron(&random_unitary(2, &mut rng)),
            ),
        ];
        for i in 0..4 {
            default_cases.push((format!("random{i}"), random_unitary(4, &mut rng)));
        }
        let near_product = zz_phase(1e-2, 2)
            .matmul(&random_unitary(2, &mut rng).kron(&random_unitary(2, &mut rng)));
        let entangling = [
            ("cx", Gate::CX.unitary_matrix()),
            ("swap", Gate::Swap.unitary_matrix()),
            ("random0", default_cases[3].1.clone()),
            ("near_product", near_product),
            ("random3q", random_unitary(8, &mut rng)),
        ];
        let mut cases: Vec<(String, Matrix, SynthConfig)> = default_cases
            .into_iter()
            .map(|(name, target)| (name, target, SynthConfig::default()))
            .collect();
        for (name, target) in &entangling {
            assert!(root_is_out_of_reach(target, 1e-5), "{name}");
            for max_nodes in 1..=3 {
                let cfg = SynthConfig {
                    max_nodes,
                    ..SynthConfig::default()
                };
                cases.push((format!("{name}/max_nodes={max_nodes}"), target.clone(), cfg));
            }
            for max_cnots in 0..=1 {
                let cfg = SynthConfig {
                    max_cnots,
                    ..SynthConfig::default()
                };
                cases.push((format!("{name}/max_cnots={max_cnots}"), target.clone(), cfg));
            }
        }
        let mut mismatches = Vec::new();
        for (name, target, cfg) in &cases {
            let r = synthesize(target, cfg).unwrap();
            let digest = result_digest(&r);
            let pinned = PINNED.iter().find(|(n, _)| n == name).map(|&(_, d)| d);
            if pinned != Some(digest) {
                mismatches.push(format!("(\"{name}\", {digest:#018x}),"));
            }
            // Which node a capped search returns: the deferred root wins
            // on the near product and ties SWAP's 1-CNOT children (the
            // 1e-12 rule keeps it), and a child beats it on random targets.
            let winner = (r.cnots, r.nodes_evaluated);
            match name.as_str() {
                "near_product/max_cnots=1" | "swap/max_nodes=3" => assert_eq!(winner, (0, 3)),
                "random0/max_nodes=2" | "random3q/max_nodes=2" => assert_eq!(winner, (1, 2)),
                _ => {}
            }
        }
        assert!(
            mismatches.is_empty(),
            "moved results:\n{}",
            mismatches.join("\n")
        );
    }

    /// `result_digest` of every case of `every_exit_returns_the_eager_result`,
    /// recorded from the search that instantiated every node on creation.
    const PINNED: [(&str, u64); 32] = [
        ("cx", 0xf1afa2773003c83b),
        ("swap", 0x644e0905485f2f66),
        ("local", 0x2ad51ac38d26cb18),
        ("random0", 0xc63f0eb26340db3d),
        ("random1", 0x6fc4b7ff9da060b0),
        ("random2", 0x0d27e3b43fbabc29),
        ("random3", 0x26b3259218afdc35),
        ("cx/max_nodes=1", 0x6d24ce7521da644d),
        ("cx/max_nodes=2", 0xf1afa2773003c83b),
        ("cx/max_nodes=3", 0xf1afa2773003c83b),
        ("cx/max_cnots=0", 0x6d24ce7521da644d),
        ("cx/max_cnots=1", 0xf1afa2773003c83b),
        ("swap/max_nodes=1", 0xe24887baf6a517c2),
        ("swap/max_nodes=2", 0x4ede325d620a21af),
        ("swap/max_nodes=3", 0xbb73dcffcd6f2b9c),
        ("swap/max_cnots=0", 0xe24887baf6a517c2),
        ("swap/max_cnots=1", 0xbb73dcffcd6f2b9c),
        ("random0/max_nodes=1", 0x6db61092f395f04f),
        ("random0/max_nodes=2", 0x6e6e84f139ee15a1),
        ("random0/max_nodes=3", 0xdb042f93a5531f8e),
        ("random0/max_cnots=0", 0x6db61092f395f04f),
        ("random0/max_cnots=1", 0xdb042f93a5531f8e),
        ("near_product/max_nodes=1", 0xbcf96330eeaf91dd),
        ("near_product/max_nodes=2", 0x02ba631830deafa4),
        ("near_product/max_nodes=3", 0x9624b875c579a5b7),
        ("near_product/max_cnots=0", 0xbcf96330eeaf91dd),
        ("near_product/max_cnots=1", 0x9624b875c579a5b7),
        ("random3q/max_nodes=1", 0xe93d4666ca507932),
        ("random3q/max_nodes=2", 0x95d1d1ed7d111f76),
        ("random3q/max_nodes=3", 0xad9232da52efef7e),
        ("random3q/max_cnots=0", 0xe93d4666ca507932),
        ("random3q/max_cnots=1", 0xfb3b8850a55bc7ca),
    ];
}
