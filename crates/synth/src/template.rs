//! Parameterized circuit templates for numerical synthesis.
//!
//! A [`Template`] is QSearch's candidate structure: a layer of
//! *variable unitary gates* (VUGs — general single-qubit unitaries
//! parameterized as `RZ·RY·RZ`) on every wire, followed by repeated
//! `CNOT + VUG·VUG` cells. Instantiation optimizes all rotation angles to
//! minimize the phase-invariant distance to a target unitary, using
//! analytic gradients (each parameter is a rotation angle, so
//! `∂G/∂θ = (−i P/2)·G` for the generator `P`).
//!
//! Evaluation goes through a compiled [`EvalPlan`]: every elementary gate
//! is a 1-qubit rotation or a CNOT, so instead of embedding it to `d×d`
//! and running a dense matmul (`O(d³)` per gate, with fresh allocations
//! every Adam step), the plan applies each gate as a sparse row/column
//! mix in `O(d²)`, and the gradient of every angle reduces to an `O(d²)`
//! trace contraction against preassembled prefix/suffix products. All
//! workspace matrices live in an [`EvalScratch`] reused across the whole
//! Adam run (every iteration of every restart).

use epoc_circuit::{Circuit, Gate};
use epoc_linalg::{c64, Complex64, Matrix};
use epoc_rt::rng::Rng;

/// Rotation axis of a template parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Z rotation.
    Z,
    /// Y rotation.
    Y,
}

/// One structural element of a template.
#[derive(Debug, Clone, PartialEq)]
pub enum Segment {
    /// A VUG on `qubit`, consuming 3 parameters starting at `param`.
    Vug {
        /// Wire index.
        qubit: usize,
        /// Offset of the first of its three angles.
        param: usize,
    },
    /// A fixed CNOT.
    Cnot {
        /// Control wire.
        control: usize,
        /// Target wire.
        target: usize,
    },
}

/// A QSearch-style parameterized template over `n` wires.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    n_qubits: usize,
    segments: Vec<Segment>,
    n_params: usize,
}

/// One compiled elementary op. Qubit positions are pre-resolved to basis
/// index bit masks (`embed` is big-endian: qubit `q` owns bit `n-1-q`).
///
/// A whole VUG compiles to a **single** op: its `RZ(a)·RY(b)·RZ(c)` product
/// is fused into one 2×2 at evaluation time, so the `d×d` sweeps touch each
/// VUG once instead of three times, and all three angle gradients read off
/// the same prefix/suffix pair through different 2×2 generator products.
#[derive(Debug, Clone, Copy)]
enum PlanOp {
    /// An embedded VUG: mixes index pairs differing in `mask` with the
    /// fused `RZ·RY·RZ` product; consumes 3 parameters starting at `param`.
    Vug { mask: usize, param: usize },
    /// An embedded CNOT: a permutation (swap `tmask` pairs where `cmask`
    /// is set).
    Cnot { cmask: usize, tmask: usize },
}

/// The compiled evaluation plan of a template: structure only, no
/// parameter values and no embedded matrices.
#[derive(Debug)]
struct EvalPlan {
    dim: usize,
    ops: Vec<PlanOp>,
}

/// Reusable workspace for plan evaluation: the daggered target and one
/// `d×d` buffer per chain level, allocated once per `instantiate` call.
struct EvalScratch {
    /// `target†`.
    adag: Matrix,
    /// `as_chain[i] = target† · G_{k-1}···G_i` (suffix products folded
    /// into the target from the left; `as_chain[k] = target†`).
    as_chain: Vec<Matrix>,
    /// Running prefix `G_{i-1}···G_0` during the gradient sweep, stored
    /// **transposed** so the trace contraction reads it row-contiguously.
    prefix_t: Matrix,
    /// Per-op fused VUG matrices at the current parameters, computed once
    /// per evaluation (the backward sweep, gradient read-off, and forward
    /// sweep all reuse them — three `sin_cos` per VUG total).
    vmats: Vec<VugMats>,
}

/// The 2×2 products one VUG contributes to an evaluation: the fused gate
/// `u = RZ(a)·RY(b)·RZ(c)` and the three generator insertions whose traces
/// give the angle gradients (`∂U/∂θ = (−i/2)·embed(q_θ)` against the same
/// prefix/suffix pair).
#[derive(Clone, Copy, Default)]
struct VugMats {
    /// `RZ(a)·RY(b)·RZ(c)`.
    u: [Complex64; 4],
    /// `P_z·u` (gradient of `a`).
    qa: [Complex64; 4],
    /// `RZ(a)·P_y·RY(b)·RZ(c)` (gradient of `b`).
    qb: [Complex64; 4],
    /// `RZ(a)·RY(b)·P_z·RZ(c)` (gradient of `c`).
    qc: [Complex64; 4],
}

impl EvalScratch {
    fn new(target: &Matrix, plan: &EvalPlan) -> Self {
        Self {
            adag: target.dagger(),
            as_chain: vec![Matrix::zeros(plan.dim, plan.dim); plan.ops.len() + 1],
            prefix_t: Matrix::zeros(plan.dim, plan.dim),
            vmats: vec![VugMats::default(); plan.ops.len()],
        }
    }
}

/// `R(θ)` as a row-major 2×2 (one `sin_cos` per call).
fn rot2(axis: Axis, theta: f64) -> [Complex64; 4] {
    let (s, c) = (theta / 2.0).sin_cos();
    match axis {
        Axis::Z => [c64(c, -s), Complex64::ZERO, Complex64::ZERO, c64(c, s)],
        Axis::Y => [c64(c, 0.0), c64(-s, 0.0), c64(s, 0.0), c64(c, 0.0)],
    }
}

/// Row-major 2×2 complex product `a·b`.
fn mm2(a: &[Complex64; 4], b: &[Complex64; 4]) -> [Complex64; 4] {
    [
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ]
}

/// Builds one VUG's fused matrices at angles `(a, b, c)`:
/// `u = RZ(a)·RY(b)·RZ(c)` plus the three generator insertions. Inserting
/// the axis generator at each rotation's own position keeps every angle
/// gradient exact while the `d×d` sweeps only ever see `u`.
fn vug_mats(a: f64, b: f64, c: f64) -> VugMats {
    let rz_a = rot2(Axis::Z, a);
    let ry_b = rot2(Axis::Y, b);
    let rz_c = rot2(Axis::Z, c);
    let w = mm2(&ry_b, &rz_c);
    let u = mm2(&rz_a, &w);
    VugMats {
        u,
        qa: gen_rot2(Axis::Z, &u),
        qb: mm2(&rz_a, &gen_rot2(Axis::Y, &w)),
        qc: mm2(&rz_a, &mm2(&ry_b, &gen_rot2(Axis::Z, &rz_c))),
    }
}

/// `P·M` for the axis generator `P` (so `∂R/∂θ = (−i/2)·P·R` when `M`
/// starts with the rotation `R(θ)` of that axis).
fn gen_rot2(axis: Axis, r: &[Complex64; 4]) -> [Complex64; 4] {
    match axis {
        // diag(1,−1)·R
        Axis::Z => [r[0], r[1], -r[2], -r[3]],
        // [[0,−i],[i,0]]·R
        Axis::Y => [
            r[2] * c64(0.0, -1.0),
            r[3] * c64(0.0, -1.0),
            r[0] * c64(0.0, 1.0),
            r[1] * c64(0.0, 1.0),
        ],
    }
}

/// `m ← embed(g)·m`: for every row pair `(r, r|mask)` replace the rows by
/// their `g`-mix. Row pairs are disjoint, so the update is in place; the
/// whole-row mix runs on the dispatched [`epoc_linalg::mix_pair`] kernel.
fn mix_rows(m: &mut Matrix, mask: usize, g: &[Complex64; 4]) {
    let rows = m.rows();
    let cols = m.cols();
    let data = m.as_mut_slice();
    // Rows with `r & mask == 0` form runs of `mask` consecutive rows paired
    // with the following `mask` rows, so each run mixes in a single kernel
    // call over `mask·cols` contiguous elements (the mix is elementwise, so
    // batching calls cannot change any output bit).
    let run = mask * cols;
    let mut base = 0;
    while base < rows * cols {
        let (lo, hi) = data[base..base + 2 * run].split_at_mut(run);
        epoc_linalg::mix_pair(lo, hi, g[0], g[1], g[2], g[3]);
        base += 2 * run;
    }
}

/// `m ← m·embed(g)`: the column-pair analog of [`mix_rows`].
///
/// `mask` is a single bit, so within each row the column pairs form
/// contiguous runs: `[base..base+mask]` pairs with `[base+mask..base+2·mask]`
/// for `base` stepping by `2·mask`. That turns the strided pair walk into
/// slice-level kernel calls ([`epoc_linalg::mix_adjacent`] when the pairs
/// are neighbors, [`epoc_linalg::mix_pair`] on the run halves otherwise).
fn mix_cols(m: &mut Matrix, mask: usize, g: &[Complex64; 4]) {
    let cols = m.cols();
    if mask == 1 {
        // Adjacent pairs repeat identically in every row, so the whole
        // flattened matrix is one kernel call.
        epoc_linalg::mix_adjacent(m.as_mut_slice(), g[0], g[2], g[1], g[3]);
        return;
    }
    for row in m.as_mut_slice().chunks_exact_mut(cols) {
        let mut base = 0;
        while base < cols {
            let (a, b) = row[base..base + 2 * mask].split_at_mut(mask);
            epoc_linalg::mix_pair(a, b, g[0], g[2], g[1], g[3]);
            base += 2 * mask;
        }
    }
}

/// `m ← CNOT·m` (row permutation).
fn cnot_left(m: &mut Matrix, cmask: usize, tmask: usize) {
    let rows = m.rows();
    let cols = m.cols();
    let data = m.as_mut_slice();
    for r0 in 0..rows {
        if r0 & cmask != 0 && r0 & tmask == 0 {
            let r1 = r0 | tmask;
            let (lo, hi) = data.split_at_mut(r1 * cols);
            lo[r0 * cols..r0 * cols + cols].swap_with_slice(&mut hi[..cols]);
        }
    }
}

/// `m ← m·CNOT` (column permutation).
fn cnot_right(m: &mut Matrix, cmask: usize, tmask: usize) {
    let cols = m.cols();
    for row in m.as_mut_slice().chunks_exact_mut(cols) {
        for c0 in 0..cols {
            if c0 & cmask != 0 && c0 & tmask == 0 {
                row.swap(c0, c0 | tmask);
            }
        }
    }
}

/// `m ← op·m`.
fn apply_left(m: &mut Matrix, op: &PlanOp, params: &[f64]) {
    match *op {
        PlanOp::Vug { mask, param } => mix_rows(
            m,
            mask,
            &vug_mats(params[param], params[param + 1], params[param + 2]).u,
        ),
        PlanOp::Cnot { cmask, tmask } => cnot_left(m, cmask, tmask),
    }
}

/// `Tr(prefix · as_next · embed(q))` without forming any product matrix:
/// the right factor only mixes column pairs of `as_next`, so the trace is
/// a direct `O(d²)` contraction. Takes the prefix **transposed** so both
/// operands stream row-contiguously (`prefixᵀ[b,a] = prefix[a,b]`); the
/// contraction itself runs on the dispatched
/// [`epoc_linalg::mixed_pair_trace`] kernel.
fn mixed_trace(prefix_t: &Matrix, as_next: &Matrix, mask: usize, q: &[Complex64; 4]) -> Complex64 {
    let dim = as_next.rows();
    epoc_linalg::mixed_pair_trace(prefix_t.as_slice(), as_next.as_slice(), dim, mask, q)
}

fn set_identity(m: &mut Matrix) {
    let dim = m.rows();
    let data = m.as_mut_slice();
    data.fill(Complex64::ZERO);
    for i in 0..dim {
        data[i * dim + i] = Complex64::ONE;
    }
}

impl EvalPlan {
    /// Phase-invariant cost and gradient at `params`, written into `grad`.
    ///
    /// With ops `G_0..G_{k-1}` (so `U = G_{k-1}···G_0`) and `A = target†`:
    /// a backward sweep stores `AS_i = A·G_{k-1}···G_i`, then a forward
    /// sweep maintains `prefix_i = G_{i-1}···G_0` and reads off each
    /// angle's derivative from
    /// `df_i = (−i/2)·Tr(prefix_i · AS_{i+1} · embed(P·R(θ_i)))`.
    fn cost_and_grad(&self, params: &[f64], scratch: &mut EvalScratch, grad: &mut [f64]) -> f64 {
        let k = self.ops.len();
        let dim = self.dim as f64;
        // Fused VUG matrices once per evaluation; both sweeps reuse them.
        scratch.vmats.resize(k, VugMats::default());
        for (vm, op) in scratch.vmats.iter_mut().zip(&self.ops) {
            if let PlanOp::Vug { param, .. } = *op {
                *vm = vug_mats(params[param], params[param + 1], params[param + 2]);
            }
        }
        scratch.as_chain[k].copy_from(&scratch.adag);
        for i in (0..k).rev() {
            let (lo, hi) = scratch.as_chain.split_at_mut(i + 1);
            lo[i].copy_from(&hi[0]);
            match self.ops[i] {
                PlanOp::Vug { mask, .. } => mix_cols(&mut lo[i], mask, &scratch.vmats[i].u),
                PlanOp::Cnot { cmask, tmask } => cnot_right(&mut lo[i], cmask, tmask),
            }
        }
        // f = Tr(A·U) = Tr(AS_0)
        let f = scratch.as_chain[0].trace();
        let fabs = f.abs().max(1e-300);
        let cost = 1.0 - fabs / dim;

        grad.fill(0.0);
        set_identity(&mut scratch.prefix_t);
        for (i, op) in self.ops.iter().enumerate() {
            match *op {
                PlanOp::Vug { mask, param } => {
                    // All three angle gradients contract the same
                    // prefix/suffix pair against different 2×2 inserts.
                    let vm = scratch.vmats[i];
                    for (off, q) in [(0usize, &vm.qa), (1, &vm.qb), (2, &vm.qc)] {
                        let df =
                            mixed_trace(&scratch.prefix_t, &scratch.as_chain[i + 1], mask, q)
                                * c64(0.0, -0.5);
                        // d|f|/dθ = Re(conj(f)·df)/|f|
                        grad[param + off] -= (f.conj() * df).re / fabs / dim;
                    }
                    // prefix ← u·prefix  ⇔  prefixᵀ ← prefixᵀ·uᵀ
                    let u = &vm.u;
                    mix_cols(&mut scratch.prefix_t, mask, &[u[0], u[2], u[1], u[3]]);
                }
                // CNOT is a symmetric permutation, so CNOTᵀ = CNOT.
                PlanOp::Cnot { cmask, tmask } => cnot_right(&mut scratch.prefix_t, cmask, tmask),
            }
        }
        cost
    }
}

impl Template {
    /// The root template: one VUG per wire, no CNOTs.
    pub fn initial(n_qubits: usize) -> Self {
        assert!(n_qubits >= 1, "template needs at least one wire");
        let mut t = Self {
            n_qubits,
            segments: Vec::new(),
            n_params: 0,
        };
        for q in 0..n_qubits {
            t.push_vug(q);
        }
        t
    }

    /// Number of wires.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of free parameters.
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Number of CNOT cells.
    pub fn cnot_count(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| matches!(s, Segment::Cnot { .. }))
            .count()
    }

    /// The structural segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Appends a VUG on `qubit`.
    pub fn push_vug(&mut self, qubit: usize) {
        assert!(qubit < self.n_qubits, "qubit out of range");
        self.segments.push(Segment::Vug {
            qubit,
            param: self.n_params,
        });
        self.n_params += 3;
    }

    /// Appends a QSearch cell: CNOT(control→target) followed by a VUG on
    /// each of the two wires.
    pub fn push_cell(&mut self, control: usize, target: usize) {
        assert!(control < self.n_qubits && target < self.n_qubits && control != target);
        self.segments.push(Segment::Cnot { control, target });
        self.push_vug(control);
        self.push_vug(target);
    }

    /// Compiles the segment list into masked elementary ops.
    fn plan(&self) -> EvalPlan {
        let n = self.n_qubits;
        let bit = |q: usize| 1usize << (n - 1 - q);
        let mut ops = Vec::with_capacity(self.segments.len());
        for seg in &self.segments {
            match *seg {
                Segment::Vug { qubit, param } => {
                    ops.push(PlanOp::Vug {
                        mask: bit(qubit),
                        param,
                    });
                }
                Segment::Cnot { control, target } => {
                    ops.push(PlanOp::Cnot {
                        cmask: bit(control),
                        tmask: bit(target),
                    });
                }
            }
        }
        EvalPlan {
            dim: 1 << n,
            ops,
        }
    }

    /// Evaluates the template unitary at `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != n_params`.
    pub fn unitary(&self, params: &[f64]) -> Matrix {
        assert_eq!(params.len(), self.n_params, "parameter count mismatch");
        let plan = self.plan();
        let mut u = Matrix::identity(plan.dim);
        for op in &plan.ops {
            apply_left(&mut u, op, params);
        }
        u
    }

    /// Phase-invariant cost `1 − |Tr(target†·U(θ))| / d` and its gradient.
    ///
    /// # Panics
    ///
    /// Panics on parameter count mismatch.
    pub fn cost_and_grad(&self, target: &Matrix, params: &[f64]) -> (f64, Vec<f64>) {
        assert_eq!(params.len(), self.n_params, "parameter count mismatch");
        let plan = self.plan();
        let mut scratch = EvalScratch::new(target, &plan);
        let mut grad = vec![0.0f64; self.n_params];
        let cost = plan.cost_and_grad(params, &mut scratch, &mut grad);
        (cost, grad)
    }

    /// Phase-invariant distance `√max(cost, 0)` at `params`.
    pub fn distance(&self, target: &Matrix, params: &[f64]) -> f64 {
        let u = self.unitary(params);
        epoc_linalg::phase_invariant_distance(target, &u)
    }

    /// Optimizes the parameters toward `target` with Adam from a random
    /// start, returning `(params, distance)`.
    pub fn instantiate(
        &self,
        target: &Matrix,
        rng: &mut impl Rng,
        opts: &InstantiateOptions,
    ) -> (Vec<f64>, f64) {
        let plan = self.plan();
        let mut scratch = EvalScratch::new(target, &plan);
        let mut g = vec![0.0f64; self.n_params];
        let mut best_params: Vec<f64> = Vec::new();
        let mut best_cost = f64::INFINITY;
        for _restart in 0..opts.restarts.max(1) {
            epoc_rt::telemetry::counter_add("qsearch.adam_restarts", 1);
            let mut params: Vec<f64> = (0..self.n_params)
                .map(|_| rng.gen_f64() * std::f64::consts::TAU)
                .collect();
            let mut m = vec![0.0f64; self.n_params];
            let mut v = vec![0.0f64; self.n_params];
            let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
            let mut cost = f64::INFINITY;
            for step in 1..=opts.max_iters {
                let c = plan.cost_and_grad(&params, &mut scratch, &mut g);
                cost = c;
                if c < opts.cost_threshold {
                    break;
                }
                let lr = opts.learning_rate / (1.0 + 0.002 * step as f64);
                // Bias corrections depend only on the step, not the
                // parameter — hoist them out of the update loop.
                let bc1 = 1.0 - b1.powi(step as i32);
                let bc2 = 1.0 - b2.powi(step as i32);
                for j in 0..self.n_params {
                    m[j] = b1 * m[j] + (1.0 - b1) * g[j];
                    v[j] = b2 * v[j] + (1.0 - b2) * g[j] * g[j];
                    let mh = m[j] / bc1;
                    let vh = v[j] / bc2;
                    params[j] -= lr * mh / (vh.sqrt() + eps);
                }
            }
            if cost < best_cost {
                best_cost = cost;
                best_params = params;
                if best_cost < opts.cost_threshold {
                    break;
                }
            }
        }
        let dist = best_cost.max(0.0).sqrt();
        (best_params, dist)
    }

    /// Converts the instantiated template to a circuit of opaque 1-qubit
    /// VUG gates and CNOTs.
    ///
    /// # Panics
    ///
    /// Panics on parameter count mismatch.
    pub fn to_circuit(&self, params: &[f64]) -> Circuit {
        assert_eq!(params.len(), self.n_params, "parameter count mismatch");
        let mut c = Circuit::new(self.n_qubits);
        for seg in &self.segments {
            match *seg {
                Segment::Vug { qubit, param } => {
                    let u = Gate::RZ(params[param])
                        .unitary_matrix()
                        .matmul(&Gate::RY(params[param + 1]).unitary_matrix())
                        .matmul(&Gate::RZ(params[param + 2]).unitary_matrix());
                    if let Some(gate) = crate::vug_gate(&u) {
                        c.push(gate, &[qubit]);
                    }
                }
                Segment::Cnot { control, target } => {
                    c.push(Gate::CX, &[control, target]);
                }
            }
        }
        c
    }
}

/// Options controlling numerical instantiation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstantiateOptions {
    /// Adam iterations per restart.
    pub max_iters: usize,
    /// Random restarts.
    pub restarts: usize,
    /// Initial learning rate.
    pub learning_rate: f64,
    /// Stop when the cost (distance²) drops below this.
    pub cost_threshold: f64,
}

impl Default for InstantiateOptions {
    fn default() -> Self {
        Self {
            max_iters: 400,
            restarts: 3,
            learning_rate: 0.2,
            cost_threshold: 1e-12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epoc_linalg::random_unitary;
    use epoc_rt::rng::StdRng;

    /// Dense reference evaluator: embeds every elementary gate to `d×d`
    /// and multiplies — the pre-plan implementation, kept as the oracle
    /// for the sparse row/column-mix path.
    fn unitary_reference(t: &Template, params: &[f64]) -> Matrix {
        let n = t.n_qubits();
        let rot = |axis: Axis, theta: f64| match axis {
            Axis::Z => Gate::RZ(theta).unitary_matrix(),
            Axis::Y => Gate::RY(theta).unitary_matrix(),
        };
        let mut u = Matrix::identity(1 << n);
        for seg in t.segments() {
            match *seg {
                Segment::Vug { qubit, param } => {
                    for (axis, p) in [(Axis::Z, param + 2), (Axis::Y, param + 1), (Axis::Z, param)]
                    {
                        u = rot(axis, params[p]).embed(&[qubit], n).matmul(&u);
                    }
                }
                Segment::Cnot { control, target } => {
                    u = Gate::CX
                        .unitary_matrix()
                        .embed(&[control, target], n)
                        .matmul(&u);
                }
            }
        }
        u
    }

    fn random_template(g: &mut epoc_rt::check::Gen) -> Template {
        let n = g.usize_in(1, 4);
        let mut t = Template::initial(n);
        if n >= 2 {
            for _ in 0..g.usize_in(0, 4) {
                let c = g.usize_in(0, n);
                let mut tq = g.usize_in(0, n);
                if tq == c {
                    tq = (tq + 1) % n;
                }
                t.push_cell(c, tq);
            }
        }
        t
    }

    #[test]
    fn prop_plan_unitary_matches_dense_reference() {
        epoc_rt::check::property("synth plan unitary == dense embed/matmul reference")
            .cases(30)
            .run(|g| {
                let t = random_template(g);
                let params: Vec<f64> = (0..t.n_params())
                    .map(|_| g.f64_in(-7.0, 7.0))
                    .collect();
                let fast = t.unitary(&params);
                let slow = unitary_reference(&t, &params);
                assert!(
                    fast.approx_eq(&slow, 1e-12),
                    "plan and reference unitaries diverge"
                );
            });
    }

    #[test]
    fn prop_plan_cost_matches_dense_reference() {
        epoc_rt::check::property("synth plan cost == dense reference cost")
            .cases(20)
            .run(|g| {
                let t = random_template(g);
                let dim = 1usize << t.n_qubits();
                let mut rng = StdRng::seed_from_u64(g.usize_in(0, 1 << 30) as u64);
                let target = random_unitary(dim, &mut rng);
                let params: Vec<f64> = (0..t.n_params())
                    .map(|_| g.f64_in(-7.0, 7.0))
                    .collect();
                let (cost, _) = t.cost_and_grad(&target, &params);
                let f = target.dagger().matmul(&unitary_reference(&t, &params)).trace();
                let expect = 1.0 - f.abs() / dim as f64;
                assert!(
                    (cost - expect).abs() < 1e-12,
                    "plan cost {cost} vs reference {expect}"
                );
            });
    }

    #[test]
    fn initial_template_shape() {
        let t = Template::initial(2);
        assert_eq!(t.n_params(), 6);
        assert_eq!(t.cnot_count(), 0);
        let u = t.unitary(&[0.0; 6]);
        assert!(u.approx_eq(&Matrix::identity(4), 1e-12));
    }

    #[test]
    fn cell_adds_cnot_and_vugs() {
        let mut t = Template::initial(2);
        t.push_cell(0, 1);
        assert_eq!(t.cnot_count(), 1);
        assert_eq!(t.n_params(), 12);
    }

    #[test]
    fn unitary_is_unitary() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = Template::initial(3);
        t.push_cell(0, 1);
        t.push_cell(1, 2);
        let params: Vec<f64> = (0..t.n_params()).map(|_| rng.gen_f64() * 6.0).collect();
        assert!(t.unitary(&params).is_unitary(1e-9));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let target = random_unitary(4, &mut rng);
        let mut t = Template::initial(2);
        t.push_cell(0, 1);
        let params: Vec<f64> = (0..t.n_params()).map(|_| rng.gen_f64() * 6.0).collect();
        let (c0, grad) = t.cost_and_grad(&target, &params);
        let h = 1e-6;
        for j in 0..t.n_params() {
            let mut p = params.clone();
            p[j] += h;
            let (c1, _) = t.cost_and_grad(&target, &p);
            let fd = (c1 - c0) / h;
            assert!(
                (fd - grad[j]).abs() < 1e-4,
                "param {j}: fd {fd} vs analytic {}",
                grad[j]
            );
        }
    }

    #[test]
    fn gradient_matches_finite_difference_three_qubits() {
        // Exercises non-adjacent masks and reversed-direction CNOTs.
        let mut rng = StdRng::seed_from_u64(7);
        let target = random_unitary(8, &mut rng);
        let mut t = Template::initial(3);
        t.push_cell(2, 0);
        t.push_cell(1, 2);
        let params: Vec<f64> = (0..t.n_params()).map(|_| rng.gen_f64() * 6.0).collect();
        let (c0, grad) = t.cost_and_grad(&target, &params);
        let h = 1e-6;
        for j in 0..t.n_params() {
            let mut p = params.clone();
            p[j] += h;
            let (c1, _) = t.cost_and_grad(&target, &p);
            let fd = (c1 - c0) / h;
            assert!(
                (fd - grad[j]).abs() < 1e-4,
                "param {j}: fd {fd} vs analytic {}",
                grad[j]
            );
        }
    }

    #[test]
    fn instantiate_single_qubit_target() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let target = random_unitary(2, &mut rng);
            let t = Template::initial(1);
            let (params, dist) = t.instantiate(&target, &mut rng, &InstantiateOptions::default());
            assert!(dist < 1e-5, "distance {dist}");
            assert!(t.distance(&target, &params) < 1e-5);
        }
    }

    #[test]
    fn instantiate_cnot_target() {
        // CX itself needs one cell.
        let mut rng = StdRng::seed_from_u64(4);
        let target = Gate::CX.unitary_matrix();
        let mut t = Template::initial(2);
        t.push_cell(0, 1);
        let (_, dist) = t.instantiate(
            &target,
            &mut rng,
            &InstantiateOptions {
                restarts: 5,
                ..Default::default()
            },
        );
        assert!(dist < 1e-5, "distance {dist}");
    }

    #[test]
    fn to_circuit_matches_template_unitary() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut t = Template::initial(2);
        t.push_cell(0, 1);
        t.push_cell(1, 0);
        let params: Vec<f64> = (0..t.n_params()).map(|_| rng.gen_f64() * 6.0).collect();
        let c = t.to_circuit(&params);
        let d = epoc_linalg::phase_invariant_distance(&c.unitary(), &t.unitary(&params));
        assert!(d < 1e-7, "distance {d}");
        // Only VUGs and CNOTs appear.
        for op in c.ops() {
            assert!(matches!(op.gate, Gate::Unitary { .. } | Gate::CX | Gate::RZ(_)));
        }
    }

    #[test]
    fn to_circuit_skips_identity_vugs() {
        let t = Template::initial(2);
        let c = t.to_circuit(&[0.0; 6]);
        assert!(c.is_empty());
    }
}
