//! GRAPE — gradient ascent pulse engineering.
//!
//! Piecewise-constant controls over `n_slots` time slots of width
//! `device.dt()`. Each slot's propagator is `exp(-i·dt·H(u))` computed
//! exactly through the Hermitian eigendecomposition, and the gradient of
//! the phase-invariant fidelity uses the exact Fréchet derivative of the
//! matrix exponential in that eigenbasis (Khaneja et al. 2005, with the
//! exact rather than first-order propagator derivative). A first-order
//! gradient mode is kept for the ablation study.

use crate::device::DeviceModel;
use epoc_linalg::{c64, eigh_warm_into, Complex64, HermitianEig, Matrix};
use epoc_rt::faults;
use epoc_rt::rng::Rng;

/// A GRAPE failure. Bad inputs and numerical breakdowns are errors;
/// *not converging* is not — that is a low [`GrapeResult::fidelity`],
/// which the recovery ladder upstream knows how to escalate.
#[derive(Debug, Clone, PartialEq)]
pub enum GrapeError {
    /// `n_slots` was zero — there is no pulse to optimize.
    NoSlots,
    /// Target dimension does not match the device Hilbert space.
    DimensionMismatch {
        /// Rows of the target unitary.
        target: usize,
        /// Device Hilbert-space dimension.
        device: usize,
    },
    /// A numerical routine (eigendecomposition / propagator exponential)
    /// failed on a slot Hamiltonian.
    Numerical(String),
    /// The run was cancelled hard (explicit cancel or a wall-clock
    /// deadline). Unlike non-convergence this aborts the job: the
    /// recovery ladder must not retry past a deadline.
    Canceled(epoc_rt::cancel::CancelReason),
}

impl std::fmt::Display for GrapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoSlots => write!(f, "GRAPE needs at least one time slot"),
            Self::DimensionMismatch { target, device } => write!(
                f,
                "target dimension {target} does not match device dimension {device}"
            ),
            Self::Numerical(msg) => write!(f, "GRAPE numerical failure: {msg}"),
            Self::Canceled(reason) => write!(f, "GRAPE run {reason}"),
        }
    }
}

impl std::error::Error for GrapeError {}

/// Deterministic fingerprint of a matrix for fault-injection keys: the
/// same target draws the same injected fate at any worker count.
pub fn fault_fingerprint(m: &Matrix) -> u64 {
    m.fold_bits(faults::mix(0, m.rows() as u64))
}

/// Gradient flavor for the ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradientMode {
    /// Exact propagator derivative in the eigenbasis (default).
    Exact,
    /// The original GRAPE first-order approximation `dU ≈ −i·dt·H_j·U`.
    FirstOrder,
}

/// GRAPE optimizer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GrapeConfig {
    /// Maximum Adam iterations.
    pub max_iters: usize,
    /// Target infidelity: stop when `1 − F` drops below this.
    pub infidelity_threshold: f64,
    /// Initial learning rate (amplitude units per step).
    pub learning_rate: f64,
    /// Gradient flavor.
    pub gradient: GradientMode,
    /// RNG seed for the initial controls.
    pub seed: u64,
    /// Random restarts.
    pub restarts: usize,
    /// Ignored: GRAPE runs every time slot serially on the calling
    /// thread, and a compile's parallelism is the pipeline's fan-out over
    /// blocks and GRAPE jobs (`EpocConfig::workers`). The field stays only
    /// because `perfbench/src/redrive.rs:44` assigns it; it is deleted
    /// together with that line.
    pub workers: usize,
    /// Control-electronics model to optimize *under* (default `None` =
    /// ideal electronics). When set (and not an identity profile), each
    /// iteration evaluates the fidelity on the **conditioned** controls
    /// `C(u)` (slew-clip → quantize → filter → crosstalk, see `epoc-hw`)
    /// and pulls the gradient back through the straight-through
    /// estimator: the linear stages are transposed exactly, the
    /// quantizer and slew clip pass the gradient through unchanged. The
    /// returned [`GrapeResult::controls`] stay **raw** (conditioning is
    /// applied exactly once, at schedule emission); the returned
    /// fidelity and unitary are those of the conditioned pulse.
    pub hw: Option<epoc_hw::HardwareProfile>,
}

impl Default for GrapeConfig {
    fn default() -> Self {
        Self {
            max_iters: 300,
            infidelity_threshold: 1e-4,
            learning_rate: 0.02,
            gradient: GradientMode::Exact,
            seed: 0x6A7E,
            restarts: 2,
            workers: 1,
            hw: None,
        }
    }
}

/// Per-timeslot scratch owned by [`GrapeWorkspace`]: one slot's cached
/// eigensystem bundle plus the buffers its gradient evaluation works in.
struct SlotScratch {
    /// Gathered control column `u[·][s]` — doubles as the eigensystem
    /// cache key: when the incoming amplitudes are bit-identical to these,
    /// the bundle below is reused instead of recomputed. Initialized to
    /// `NaN` so a fresh slot can never spuriously hit.
    amps: Vec<f64>,
    /// `H(u_s)`, rebuilt in place on a cache miss.
    h: Matrix,
    /// Eigensystem of `h`. On a cache miss the eigensolver warm-starts
    /// from the slot's previous basis held here and overwrites it in
    /// place; all downstream products reuse the buffers below.
    eig: HermitianEig,
    /// `V†` — hoisted once per slot and shared by the propagator build and
    /// the gradient back-conjugation.
    vdag: Matrix,
    /// Diagonal propagator phases `cis(-λ·dt)`.
    phases: Vec<Complex64>,
    /// Slot propagator `U_s = V·diag(phases)·V†`.
    prop: Matrix,
    /// General matrix scratch.
    t1: Matrix,
    t2: Matrix,
    /// Trace kernel `K = V†·W·V` (exact mode) or `Y = U_s·W` (first-order
    /// mode), where `W = prefix_s·suffix_{s+1} = U_{s-1}···U_0·A†·U_last···U_{s+1}`.
    kern: Matrix,
    /// Exact-gradient Fréchet phase matrix, stored **transposed**
    /// (`phi[(b,a)] = φ(a,b)`) so the phase-2 Hadamard product reads it in
    /// `kern`'s layout. Part of the cached bundle: it depends only on the
    /// eigenvalues and `dt`.
    phi: Matrix,
    /// Whether `phi` matches the current eigensystem (it is skipped in
    /// first-order mode).
    phi_built: bool,
    /// Whether the cached bundle (eig/vdag/phases/prop/phi) is coherent
    /// with `amps`.
    cache_valid: bool,
}

impl SlotScratch {
    fn new(dim: usize, n_ctrl: usize) -> Self {
        let zero = || Matrix::zeros(dim, dim);
        Self {
            amps: vec![f64::NAN; n_ctrl],
            h: zero(),
            eig: HermitianEig {
                values: Vec::new(),
                vectors: Matrix::zeros(0, 0),
            },
            vdag: zero(),
            phases: Vec::with_capacity(dim),
            prop: zero(),
            t1: zero(),
            t2: zero(),
            kern: zero(),
            phi: zero(),
            phi_built: false,
            cache_valid: false,
        }
    }
}

/// Reusable buffers for the GRAPE iteration loop.
///
/// One workspace serves any number of iterations and restarts for a fixed
/// `(device, n_slots)` shape; after warm-up the loop performs no heap
/// allocation (the 4×4 eigensolver works on the stack, larger ones in
/// thread-local scratch that is reused from the first iteration on).
///
/// A workspace carries each slot's eigenbasis from one evaluation to the
/// next, and the eigensolver warm-starts from it: an evaluation's result
/// depends, at rounding level, on the control sets the workspace evaluated
/// before. A fresh workspace per [`grape`] run keeps every run a pure
/// function of its inputs.
struct GrapeWorkspace {
    slots: Vec<SlotScratch>,
    /// `prefix[s] = U_{s-1}···U_0` for `s < n_slots` (`prefix[0] = I`,
    /// never overwritten).
    prefix: Vec<Matrix>,
    /// `suffix[s] = A†·U_{last}···U_s`, with `suffix[n_slots] = A†` set by
    /// every evaluation, so `suffix[0]` is `A†·U_total`.
    suffix: Vec<Matrix>,
    /// Flat gradient, channel-major: `grad[j * n_slots + s]`.
    grad: Vec<f64>,
}

impl GrapeWorkspace {
    /// Allocates buffers for a `(device, n_slots)` problem shape.
    fn new(device: &DeviceModel, n_slots: usize) -> Self {
        let dim = device.dim();
        let n_ctrl = device.controls().len();
        let zero = || Matrix::zeros(dim, dim);
        let slots = (0..n_slots).map(|_| SlotScratch::new(dim, n_ctrl)).collect();
        let mut prefix = vec![zero(); n_slots];
        if let Some(first) = prefix.first_mut() {
            *first = Matrix::identity(dim);
        }
        Self {
            slots,
            prefix,
            suffix: vec![zero(); n_slots + 1],
            grad: vec![0.0; n_ctrl * n_slots],
        }
    }
}

/// The outcome of a GRAPE run.
#[derive(Debug, Clone)]
pub struct GrapeResult {
    /// Optimized controls: `controls[channel][slot]` in rad/ns.
    pub controls: Vec<Vec<f64>>,
    /// Phase-invariant gate fidelity `|Tr(U_target†·U)|/d` achieved.
    pub fidelity: f64,
    /// Total pulse duration in ns (`n_slots · dt`).
    pub duration: f64,
    /// Iterations consumed (across the best restart).
    pub iterations: usize,
    /// Iterations consumed across *all* restarts of this run (what a
    /// compile-time profile should charge the run with).
    pub total_iterations: usize,
    /// The realized propagator.
    pub unitary: Matrix,
}

/// Runs GRAPE to implement `target` on `device` within `n_slots` slots.
///
/// Non-convergence is *not* an error: the result simply carries a low
/// fidelity for the caller's recovery ladder to escalate.
///
/// # Errors
///
/// Returns [`GrapeError`] when `n_slots == 0`, the target dimension does
/// not match the device, or a per-slot numerical routine fails.
pub fn grape(
    device: &DeviceModel,
    target: &Matrix,
    n_slots: usize,
    config: &GrapeConfig,
) -> Result<GrapeResult, GrapeError> {
    grape_with_cancel(device, target, n_slots, config, &epoc_rt::cancel::CancelScope::none())
}

/// [`grape`] with a cooperative-cancellation scope: each Adam iteration
/// charges one unit against the scope's GRAPE budget and polls the hard
/// conditions (cancel flag, wall-clock deadline).
///
/// Budget exhaustion is *soft*: the loop stops with whatever fidelity it
/// has and the caller's recovery ladder degrades the block. Because the
/// budget is charged in iterations (work units), budgeted outcomes are
/// bit-identical at any worker count.
///
/// # Errors
///
/// All of [`grape`]'s errors, plus [`GrapeError::Canceled`] when the
/// scope's token is cancelled or past its deadline.
pub fn grape_with_cancel(
    device: &DeviceModel,
    target: &Matrix,
    n_slots: usize,
    config: &GrapeConfig,
    cancel: &epoc_rt::cancel::CancelScope,
) -> Result<GrapeResult, GrapeError> {
    let _span = epoc_rt::telemetry::span("qoc", "grape");
    if n_slots == 0 {
        return Err(GrapeError::NoSlots);
    }
    if target.rows() != device.dim() {
        return Err(GrapeError::DimensionMismatch {
            target: target.rows(),
            device: device.dim(),
        });
    }
    let n_ctrl = device.controls().len();
    let dt = device.dt();
    let dim = device.dim() as f64;
    let a_max = device.max_amplitude();

    // Fail point `grape.converge`: an injected non-convergence, keyed by
    // (target, slot count, seed) so the decision is a pure function of the
    // work item — identical at any worker count, and fresh for every rung
    // of the recovery ladder (escalations change the slot count or seed).
    if faults::is_armed() {
        let key = faults::mix(
            fault_fingerprint(target),
            faults::mix(n_slots as u64, config.seed),
        );
        if faults::fail_point_keyed("grape.converge", key) {
            return Ok(GrapeResult {
                controls: vec![vec![0.0; n_slots]; n_ctrl],
                fidelity: 0.0,
                duration: n_slots as f64 * dt,
                iterations: 0,
                total_iterations: 0,
                unitary: Matrix::identity(device.dim()),
            });
        }
    }

    use epoc_rt::rng::StdRng;
    let mut best: Option<(Vec<Vec<f64>>, f64, usize)> = None;
    let mut total_iterations = 0usize;
    let mut restarts_run = 0usize;
    // One workspace serves every iteration of every restart.
    let mut ws = GrapeWorkspace::new(device, n_slots);
    // Control-electronics model: when active, fidelity is evaluated on
    // the conditioned controls `C(u)` and the gradient is pulled back
    // through the straight-through estimator.
    let hw_active = config.hw.as_ref().filter(|p| !p.is_identity());
    let mut hw_ws = epoc_hw::ConditionWorkspace::new();
    let mut uc: Vec<Vec<f64>> = match hw_active {
        Some(_) => vec![vec![0.0; n_slots]; n_ctrl],
        None => Vec::new(),
    };
    let adag = target.dagger();

    for restart in 0..config.restarts.max(1) {
        restarts_run += 1;
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(restart as u64));
        // Smooth random initialization well inside the bounds.
        let mut u: Vec<Vec<f64>> = (0..n_ctrl)
            .map(|_| {
                (0..n_slots)
                    .map(|_| (rng.gen_f64() - 0.5) * a_max)
                    .collect()
            })
            .collect();
        let mut m = vec![vec![0.0f64; n_slots]; n_ctrl];
        let mut v = vec![vec![0.0f64; n_slots]; n_ctrl];
        let (b1, b2, eps) = (0.9, 0.999, 1e-10);
        let mut fidelity = 0.0;
        let mut iters_used = 0;
        for step in 1..=config.max_iters {
            // Cooperative cancellation: one budget unit per Adam step.
            // Exhaustion breaks softly (the ladder upstream degrades the
            // block); a raised flag or blown deadline aborts typed.
            if !cancel.spend_grape_iter().map_err(GrapeError::Canceled)? {
                break;
            }
            iters_used = step;
            let f = match hw_active {
                Some(profile) => {
                    for (dst, src) in uc.iter_mut().zip(&u) {
                        dst.copy_from_slice(src);
                    }
                    profile.condition_controls(dt, a_max, &mut uc, &mut hw_ws);
                    let f = fidelity_and_gradient(device, &adag, &uc, config, &mut ws)?;
                    // ∂F/∂(conditioned u) → ∂F/∂(raw u): transpose the
                    // linear stages, straight-through the rest.
                    profile.adjoint_grad(n_ctrl, n_slots, &mut ws.grad, &mut hw_ws);
                    f
                }
                None => fidelity_and_gradient(device, &adag, &u, config, &mut ws)?,
            };
            fidelity = f;
            if 1.0 - f < config.infidelity_threshold {
                break;
            }
            for j in 0..n_ctrl {
                for s in 0..n_slots {
                    // Ascent on fidelity.
                    let g = ws.grad[j * n_slots + s] / dim;
                    m[j][s] = b1 * m[j][s] + (1.0 - b1) * g;
                    v[j][s] = b2 * v[j][s] + (1.0 - b2) * g * g;
                    let mh = m[j][s] / (1.0 - b1.powi(step as i32));
                    let vh = v[j][s] / (1.0 - b2.powi(step as i32));
                    u[j][s] += config.learning_rate * mh / (vh.sqrt() + eps);
                    u[j][s] = u[j][s].clamp(-a_max, a_max);
                }
            }
        }
        total_iterations += iters_used;
        let better = match &best {
            None => true,
            Some((_, bf, _)) => fidelity > *bf,
        };
        if better {
            best = Some((u, fidelity, iters_used));
            if 1.0 - fidelity < config.infidelity_threshold {
                break;
            }
        }
    }
    epoc_rt::telemetry::counter_add("grape.iterations", total_iterations as u64);
    epoc_rt::telemetry::counter_add("grape.restarts", restarts_run as u64);
    epoc_rt::telemetry::histogram_record("grape.iters_per_run", total_iterations as u64);
    let (controls, fidelity, iterations) = match best {
        Some(b) => b,
        // `restarts.max(1)` guarantees at least one restart ran and set
        // `best`; reaching here means the loop body was skipped entirely.
        None => return Err(GrapeError::Numerical("no restart produced a result".into())),
    };
    // The realized propagator is that of the pulse the electronics will
    // actually play; the returned controls stay raw so conditioning is
    // applied exactly once (the filter is not idempotent).
    let unitary = match hw_active {
        Some(profile) => {
            let mut cond = controls.clone();
            profile.condition_controls(dt, a_max, &mut cond, &mut hw_ws);
            propagate(device, &cond)?
        }
        None => propagate(device, &controls)?,
    };
    Ok(GrapeResult {
        controls,
        fidelity,
        duration: n_slots as f64 * dt,
        iterations,
        total_iterations,
        unitary,
    })
}

/// Total propagator for the given piecewise-constant controls.
///
/// # Errors
///
/// Returns [`GrapeError::Numerical`] if a slot propagator exponential
/// fails.
pub fn propagate(device: &DeviceModel, controls: &[Vec<f64>]) -> Result<Matrix, GrapeError> {
    let n_slots = controls.first().map_or(0, Vec::len);
    let mut u = Matrix::identity(device.dim());
    for s in 0..n_slots {
        let amps: Vec<f64> = controls.iter().map(|c| c[s]).collect();
        let h = device.hamiltonian(&amps);
        let (us, _) = epoc_linalg::expm_hermitian_propagator(&h, device.dt())
            .map_err(|e| GrapeError::Numerical(format!("slot {s} propagator: {e}")))?;
        u = us.matmul(&u);
    }
    Ok(u)
}

/// Computes a slot's eigensystem bundle from `slot.amps`: `H(u)` → its
/// eigensystem (warm-started from the basis the slot already holds) → `V†`
/// → the propagator phases and `U_s = V·diag·V†` — and, when `needs_phi`,
/// the exact-gradient Fréchet phase matrix `φ`. Marks the bundle
/// cache-coherent on success.
///
/// # Errors
///
/// Returns [`GrapeError::Numerical`] (and leaves the bundle incoherent)
/// when the eigendecomposition fails.
fn prepare_slot(
    slot: &mut SlotScratch,
    device: &DeviceModel,
    dt: f64,
    needs_phi: bool,
) -> Result<(), GrapeError> {
    let dim = device.dim();
    device.hamiltonian_into(&slot.amps, &mut slot.h);
    if let Err(e) = eigh_warm_into(&slot.h, &mut slot.eig) {
        slot.cache_valid = false;
        return Err(GrapeError::Numerical(format!(
            "eigendecomposition failed: {e}"
        )));
    }
    slot.eig.vectors.dagger_into(&mut slot.vdag);
    slot.phases.clear();
    slot.phases
        .extend(slot.eig.values.iter().map(|&l| Complex64::cis(-l * dt)));
    // U_s = V·diag(phases)·V†: scale V's columns, then one product.
    slot.t1.copy_from(&slot.eig.vectors);
    for row in slot.t1.as_mut_slice().chunks_exact_mut(dim) {
        for (z, ph) in row.iter_mut().zip(&slot.phases) {
            *z *= *ph;
        }
    }
    slot.t1.matmul_into(&slot.vdag, &mut slot.prop);
    if needs_phi {
        // Divided-difference phases of the exact propagator derivative,
        // stored transposed (`phi[(b,a)] = φ(a,b)`) for phase 2.
        for a in 0..dim {
            let la = slot.eig.values[a];
            for b in 0..dim {
                let lb = slot.eig.values[b];
                slot.phi[(b, a)] = if (la - lb).abs() < 1e-10 {
                    // f'(λ) with f = e^{-i dt λ}
                    slot.phases[a] * c64(0.0, -dt)
                } else {
                    (slot.phases[a] - slot.phases[b]) / c64(la - lb, 0.0)
                };
            }
        }
    }
    slot.phi_built = needs_phi;
    slot.cache_valid = true;
    Ok(())
}

/// Phase-invariant fidelity `|Tr(A†U)|/d`, with the gradient w.r.t. every
/// control amplitude written into `ws.grad` (channel-major).
///
/// In exact mode the gradient pulls the whole contraction back into the
/// lab frame: with trace kernel `K = V†·W·V` and `Q = V·(φᵀ∘K)·V†`, each
/// channel reduces to `df_j = Σ_{x,y} H_j[x,y]·Q[y,x]` — the per-channel
/// conjugation `V†·H_j·V` of the previous scheme is hoisted out of the
/// channel loop entirely (a fixed four products per slot regardless of
/// channel count). Every phase runs serially on the calling thread: a
/// compile's parallelism is its fan-out over blocks and GRAPE jobs, one
/// level up.
fn fidelity_and_gradient(
    device: &DeviceModel,
    adag: &Matrix,
    controls: &[Vec<f64>],
    config: &GrapeConfig,
    ws: &mut GrapeWorkspace,
) -> Result<f64, GrapeError> {
    let n_slots = controls[0].len();
    let dt = device.dt();
    let dim = device.dim();
    let channels = device.controls();
    let mode = config.gradient;

    // Per-slot eigensystems and propagators. A slot whose amplitudes are
    // bit-identical to its previous evaluation keeps its cached bundle
    // (common once Adam saturates amplitudes at the clamp); any other slot
    // is recomputed, its eigensolver warm-started from the slot's
    // previous basis.
    let needs_phi = mode == GradientMode::Exact;
    for (s, slot) in ws.slots.iter_mut().enumerate() {
        let hit = slot.cache_valid
            && (!needs_phi || slot.phi_built)
            && slot
                .amps
                .iter()
                .zip(controls)
                .all(|(a, c)| a.to_bits() == c[s].to_bits());
        if hit {
            continue;
        }
        for (a, c) in slot.amps.iter_mut().zip(controls) {
            *a = c[s];
        }
        if prepare_slot(slot, device, dt, needs_phi).is_err() {
            return Err(GrapeError::Numerical(format!(
                "eigendecomposition failed on slot {s}"
            )));
        }
    }

    // Serial chain sweeps: prefix[s] = U_{s-1}···U_0 and, with A† folded
    // into the suffix, suffix[s] = A†·U_last···U_s.
    for s in 1..n_slots {
        let (head, tail) = ws.prefix.split_at_mut(s);
        ws.slots[s - 1].prop.matmul_into(&head[s - 1], &mut tail[0]);
    }
    ws.suffix[n_slots].copy_from(adag);
    for s in (0..n_slots).rev() {
        let (head, tail) = ws.suffix.split_at_mut(s + 1);
        tail[0].matmul_into(&ws.slots[s].prop, &mut head[s]);
    }
    // f = Tr(A†·U_total) = Tr(suffix[0]).
    let f_complex: Complex64 = (0..dim).map(|i| ws.suffix[0][(i, i)]).sum();
    let fabs = f_complex.abs().max(1e-300);
    let fidelity = fabs / dim as f64;
    let f_conj = f_complex.conj();

    // Per-slot gradient.
    let prefix = &ws.prefix;
    let suffix = &ws.suffix;
    for (s, slot) in ws.slots.iter_mut().enumerate() {
        // W = prefix[s]·A†·U_last···U_{s+1}; df_j = Tr(W·dU_j).
        prefix[s].matmul_into(&suffix[s + 1], &mut slot.t2);
        match mode {
            GradientMode::Exact => {
                // K = V†·W·V, the trace kernel in the slot eigenbasis.
                slot.vdag.matmul_into(&slot.t2, &mut slot.t1);
                slot.t1.matmul_into(&slot.eig.vectors, &mut slot.kern);
                // dU_j = V·(φ∘(V†·H_j·V))·V† by the exact Fréchet
                // derivative; pulling the contraction back to the lab
                // frame with Q = V·(φᵀ∘K)·V† turns every channel into an
                // O(dim²) read-off — no per-channel conjugation.
                {
                    let SlotScratch { t1, kern, phi, .. } = slot;
                    for (m, (k, p)) in t1
                        .as_mut_slice()
                        .iter_mut()
                        .zip(kern.as_slice().iter().zip(phi.as_slice()))
                    {
                        *m = *k * *p;
                    }
                }
                slot.eig.vectors.matmul_into(&slot.t1, &mut slot.t2);
                slot.t2.matmul_into(&slot.vdag, &mut slot.kern); // kern ← Q
            }
            GradientMode::FirstOrder => {
                // dU_j = −i·dt·H_j·U_s ⇒ df_j = −i·dt·Tr(U_s·W·H_j):
                // kern = U_s·W.
                slot.prop.matmul_into(&slot.t2, &mut slot.kern);
            }
        }
        for (j, channel) in channels.iter().enumerate() {
            let df = match mode {
                GradientMode::Exact => {
                    // df_j = Σ_{x,y} H_j[x,y]·Q[y,x].
                    let hj = channel.hamiltonian.as_slice();
                    let q = slot.kern.as_slice();
                    let mut df = Complex64::ZERO;
                    for x in 0..dim {
                        for y in 0..dim {
                            df += hj[x * dim + y] * q[y * dim + x];
                        }
                    }
                    df
                }
                GradientMode::FirstOrder => {
                    // df = −i·dt·Σ_{a,b} (U_s·W)[a,b]·H_j[b,a].
                    let mut tr = Complex64::ZERO;
                    for a in 0..dim {
                        for b in 0..dim {
                            tr += slot.kern[(a, b)] * channel.hamiltonian[(b, a)];
                        }
                    }
                    tr * c64(0.0, -dt)
                }
            };
            ws.grad[j * n_slots + s] = (f_conj * df).re / fabs;
        }
    }
    Ok(fidelity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epoc_circuit::Gate;
    use epoc_linalg::phase_invariant_fidelity;

    fn device1() -> DeviceModel {
        DeviceModel::transmon_line(1).unwrap()
    }

    /// Test convenience: evaluates on `ws` and returns the gradient in the
    /// `[channel][slot]` shape.
    fn fidelity_and_gradient_in(
        ws: &mut GrapeWorkspace,
        device: &DeviceModel,
        target: &Matrix,
        controls: &[Vec<f64>],
        mode: GradientMode,
    ) -> (f64, Vec<Vec<f64>>) {
        let n_slots = controls[0].len();
        let config = GrapeConfig {
            gradient: mode,
            ..Default::default()
        };
        let f = fidelity_and_gradient(device, &target.dagger(), controls, &config, ws)
            .expect("gradient evaluation");
        let grad = (0..controls.len())
            .map(|j| ws.grad[j * n_slots..(j + 1) * n_slots].to_vec())
            .collect();
        (f, grad)
    }

    /// [`fidelity_and_gradient_in`] on a fresh workspace.
    fn fidelity_and_gradient_alloc(
        device: &DeviceModel,
        target: &Matrix,
        controls: &[Vec<f64>],
        mode: GradientMode,
    ) -> (f64, Vec<Vec<f64>>) {
        let mut ws = GrapeWorkspace::new(device, controls[0].len());
        fidelity_and_gradient_in(&mut ws, device, target, controls, mode)
    }

    #[test]
    fn propagate_zero_controls_single_qubit() {
        let d = device1();
        let u = propagate(&d, &vec![vec![0.0; 5]; 2]).unwrap();
        // Qubit 0 has no detuning: free evolution is identity.
        assert!(u.approx_eq(&Matrix::identity(2), 1e-9));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let d = device1();
        let target = Gate::X.unitary_matrix();
        let controls = vec![vec![0.05, -0.02, 0.04], vec![0.01, 0.03, -0.05]];
        let (f0, grad) = fidelity_and_gradient_alloc(&d, &target, &controls, GradientMode::Exact);
        let h = 1e-7;
        for j in 0..2 {
            for s in 0..3 {
                let mut c2 = controls.clone();
                c2[j][s] += h;
                let (f1, _) = fidelity_and_gradient_alloc(&d, &target, &c2, GradientMode::Exact);
                let dim = 2.0;
                let fd = (f1 - f0) / h * dim; // fidelity_and_gradient returns |f|/d but grad of |f|
                let an = grad[j][s];
                assert!(
                    (fd - an).abs() < 1e-4 * (1.0 + an.abs()),
                    "({j},{s}): fd {fd} vs analytic {an}"
                );
            }
        }
        // Two qubits on one reused workspace: every evaluation runs the
        // 4×4 eigensolver warm-started from the previous one's basis.
        let d2 = DeviceModel::transmon_line(2).unwrap();
        let cz = Gate::CZ.unitary_matrix();
        let controls = vec![
            vec![0.05, -0.02, 0.04],
            vec![0.01, 0.03, -0.05],
            vec![-0.04, 0.06, 0.02],
            vec![0.03, -0.01, -0.06],
        ];
        let mut ws = GrapeWorkspace::new(&d2, 3);
        let exact = GradientMode::Exact;
        let (f0, grad) = fidelity_and_gradient_in(&mut ws, &d2, &cz, &controls, exact);
        for j in 0..4 {
            for s in 0..3 {
                let mut c2 = controls.clone();
                c2[j][s] += h;
                let (f1, _) = fidelity_and_gradient_in(&mut ws, &d2, &cz, &c2, exact);
                let fd = (f1 - f0) / h * 4.0;
                let an = grad[j][s];
                assert!(
                    (fd - an).abs() < 1e-4 * (1.0 + an.abs()),
                    "2q ({j},{s}): fd {fd} vs analytic {an}"
                );
            }
        }
    }

    /// A workspace's warm-started eigenbases change an evaluation only at
    /// rounding level: after two other control sets, it agrees with a
    /// fresh workspace. The last set keeps some slots of the one before
    /// (cache hits), zeroes some and moves the rest by an optimizer-sized
    /// step (both warm starts: a zeroed slot recomputes from the basis of
    /// its previous, nonzero amplitudes).
    #[test]
    fn warm_started_workspace_matches_a_fresh_one() {
        let d = DeviceModel::transmon_line(2).unwrap();
        let cz = Gate::CZ.unitary_matrix();
        let n_slots = 12;
        let a_max = d.max_amplitude();
        let mut rng = epoc_rt::rng::StdRng::seed_from_u64(17);
        let mut random_controls = || -> Vec<Vec<f64>> {
            (0..4)
                .map(|_| (0..n_slots).map(|_| (rng.gen_f64() - 0.5) * a_max).collect())
                .collect()
        };
        let first = random_controls();
        let second = random_controls();
        let mut last = second.clone();
        for (j, channel) in last.iter_mut().enumerate() {
            for (s, u) in channel.iter_mut().enumerate() {
                match s % 3 {
                    0 => {}
                    1 => *u = 0.0,
                    _ => *u += 0.02 * if (j + s) % 2 == 0 { 1.0 } else { -1.0 },
                }
            }
        }
        let mut reused = GrapeWorkspace::new(&d, n_slots);
        for controls in [&first, &second] {
            fidelity_and_gradient_in(&mut reused, &d, &cz, controls, GradientMode::Exact);
        }
        let (f_reused, g_reused) =
            fidelity_and_gradient_in(&mut reused, &d, &cz, &last, GradientMode::Exact);
        let (f_fresh, g_fresh) = fidelity_and_gradient_alloc(&d, &cz, &last, GradientMode::Exact);
        assert!((f_reused - f_fresh).abs() <= 1e-12, "fidelity {f_reused} vs {f_fresh}");
        for (j, (a, b)) in g_reused.iter().zip(&g_fresh).enumerate() {
            for (s, (x, y)) in a.iter().zip(b).enumerate() {
                assert!((x - y).abs() <= 1e-12, "gradient ({j},{s}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn grape_reaches_x_gate() {
        let d = device1();
        let target = Gate::X.unitary_matrix();
        // π rotation at max amp 0.1257 rad/ns on X/2 → ≥ 50ns; 30 slots × 2ns = 60ns.
        let r = grape(&d, &target, 30, &GrapeConfig::default()).unwrap();
        assert!(r.fidelity > 0.999, "fidelity {}", r.fidelity);
        assert!(
            phase_invariant_fidelity(&r.unitary, &target) > 0.999,
            "realized unitary mismatch"
        );
        // Controls respect bounds.
        for ch in &r.controls {
            for &a in ch {
                assert!(a.abs() <= d.max_amplitude() + 1e-12);
            }
        }
    }

    #[test]
    fn grape_reaches_hadamard() {
        let d = device1();
        let r = grape(&d, &Gate::H.unitary_matrix(), 30, &GrapeConfig::default()).unwrap();
        assert!(r.fidelity > 0.999, "fidelity {}", r.fidelity);
    }

    #[test]
    fn grape_fails_when_too_short() {
        let d = device1();
        // 2 slots × 2ns at amp 0.1257: max angle 0.5 rad — X is unreachable.
        let r = grape(&d, &Gate::X.unitary_matrix(), 2, &GrapeConfig::default()).unwrap();
        assert!(r.fidelity < 0.9, "unexpectedly high fidelity {}", r.fidelity);
    }

    #[test]
    fn grape_two_qubit_identity_is_easy() {
        let d = DeviceModel::transmon_line(2).unwrap();
        // The always-on coupling must be echoed away, which needs time:
        // 40 slots (80 ns) suffice to refocus it; 20 do not.
        let r = grape(
            &d,
            &Matrix::identity(4),
            40,
            &GrapeConfig {
                max_iters: 400,
                learning_rate: 0.01,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.fidelity > 0.999, "fidelity {}", r.fidelity);
    }

    #[test]
    fn first_order_gradient_also_converges() {
        let d = device1();
        let r = grape(
            &d,
            &Gate::Sx.unitary_matrix(),
            20,
            &GrapeConfig {
                gradient: GradientMode::FirstOrder,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.fidelity > 0.99, "fidelity {}", r.fidelity);
    }

    #[test]
    fn typed_errors_for_bad_inputs() {
        let d = device1();
        assert_eq!(
            grape(&d, &Gate::X.unitary_matrix(), 0, &GrapeConfig::default()).unwrap_err(),
            GrapeError::NoSlots
        );
        assert!(matches!(
            grape(&d, &Matrix::identity(4), 4, &GrapeConfig::default()).unwrap_err(),
            GrapeError::DimensionMismatch {
                target: 4,
                device: 2
            }
        ));
    }

    #[test]
    fn fault_fingerprint_distinguishes_targets() {
        let a = fault_fingerprint(&Gate::X.unitary_matrix());
        let b = fault_fingerprint(&Gate::H.unitary_matrix());
        assert_ne!(a, b);
        assert_eq!(a, fault_fingerprint(&Gate::X.unitary_matrix()));
    }

    #[test]
    fn duration_reported() {
        let d = device1();
        let r = grape(&d, &Matrix::identity(2), 7, &GrapeConfig::default()).unwrap();
        assert!((r.duration - 14.0).abs() < 1e-12);
    }

    #[test]
    fn first_order_gradient_matches_finite_difference() {
        let d = device1();
        let target = Gate::X.unitary_matrix();
        let controls = vec![vec![0.06, -0.03], vec![0.02, 0.05]];
        let (f0, grad) = fidelity_and_gradient_alloc(&d, &target, &controls, GradientMode::FirstOrder);
        // First-order is an approximation, but for small dt·H it should
        // track finite differences loosely.
        let h = 1e-6;
        for j in 0..2 {
            for s in 0..2 {
                let mut c2 = controls.clone();
                c2[j][s] += h;
                let (f1, _) =
                    fidelity_and_gradient_alloc(&d, &target, &c2, GradientMode::FirstOrder);
                let fd = (f1 - f0) / h * 2.0;
                let an = grad[j][s];
                assert!(
                    (fd - an).abs() < 0.05 * (1.0 + an.abs()),
                    "({j},{s}): fd {fd} vs analytic {an}"
                );
            }
        }
    }

    /// This thread's voluntary context switches so far, or `None` where
    /// `/proc/thread-self/status` does not exist.
    fn voluntary_ctxt_switches() -> Option<u64> {
        let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
    }

    /// GRAPE computes every slot on the calling thread, whatever
    /// `GrapeConfig::workers` says: a run that fanned its per-slot phases
    /// out to threads would block on joining them about twice per
    /// iteration, while pure compute blocks almost never.
    #[test]
    fn grape_runs_on_the_calling_thread() {
        let Some(before) = voluntary_ctxt_switches() else {
            eprintln!("/proc/thread-self/status not available; skipping context-switch check");
            return;
        };
        let d = DeviceModel::transmon_line(2).unwrap();
        let config = GrapeConfig {
            max_iters: 50,
            restarts: 1,
            workers: 2,
            ..Default::default()
        };
        let r = grape(&d, &Gate::CZ.unitary_matrix(), 32, &config).unwrap();
        let switches = voluntary_ctxt_switches().unwrap() - before;
        assert!(r.iterations > 0);
        assert!(
            switches < 10,
            "{switches} voluntary context switches over {} iterations",
            r.iterations
        );
    }

    /// Constrained GRAPE (straight-through estimator through the AWG
    /// model) must still hit high conditioned fidelity on a 1-qubit gate
    /// given slot headroom, and must beat post-hoc conditioning of the
    /// unconstrained pulse.
    #[test]
    fn constrained_grape_beats_post_hoc_conditioning() {
        let d = device1();
        let target = Gate::X.unitary_matrix();
        let profile = epoc_hw::HardwareProfile::transmon_awg_8bit();
        let slots = 40;
        // Unconstrained pulse, then distort it post hoc.
        let free = grape(&d, &target, slots, &GrapeConfig::default()).unwrap();
        let mut distorted = free.controls.clone();
        let mut ws = epoc_hw::ConditionWorkspace::new();
        profile.condition_controls(d.dt(), d.max_amplitude(), &mut distorted, &mut ws);
        let post_hoc = phase_invariant_fidelity(&propagate(&d, &distorted).unwrap(), &target);
        // Constrained run: fidelity is evaluated on the conditioned pulse.
        let constrained = grape(
            &d,
            &target,
            slots,
            &GrapeConfig {
                hw: Some(profile.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            constrained.fidelity > 0.999,
            "constrained fidelity {}",
            constrained.fidelity
        );
        assert!(
            constrained.fidelity > post_hoc,
            "constrained {} should beat post-hoc {post_hoc}",
            constrained.fidelity
        );
        // The reported unitary is the conditioned propagator: replaying
        // the conditioned controls must reproduce the claimed fidelity.
        let mut cond = constrained.controls.clone();
        profile.condition_controls(d.dt(), d.max_amplitude(), &mut cond, &mut ws);
        let replay = propagate(&d, &cond).unwrap();
        assert!(replay.approx_eq(&constrained.unitary, 1e-12));
        // Raw controls respect the amplitude bound.
        for ch in &constrained.controls {
            for &a in ch {
                assert!(a.abs() <= d.max_amplitude() + 1e-12);
            }
        }
    }

    /// An identity (or absent) profile must not perturb the trajectory at
    /// all: `hw: Some(ideal)` and `hw: None` are the same optimizer.
    #[test]
    fn ideal_profile_matches_unconstrained_bitwise() {
        let d = device1();
        let target = Gate::H.unitary_matrix();
        let plain = grape(&d, &target, 20, &GrapeConfig::default()).unwrap();
        let ideal = grape(
            &d,
            &target,
            20,
            &GrapeConfig {
                hw: Some(epoc_hw::HardwareProfile::ideal()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(plain.fidelity.to_bits(), ideal.fidelity.to_bits());
        for (a, b) in plain.controls.iter().zip(&ideal.controls) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// Regression pin for the workspace/trace-kernel refactor: the X-gate
    /// trajectory on the standard 1-qubit device. A change to the gradient
    /// math or the iteration order shows up here as a fidelity drift.
    #[test]
    fn grape_x_gate_trajectory_pinned() {
        let d = device1();
        let r = grape(&d, &Gate::X.unitary_matrix(), 30, &GrapeConfig::default()).unwrap();
        assert!(r.fidelity > 0.9999, "fidelity {}", r.fidelity);
        assert!(
            r.iterations <= GrapeConfig::default().max_iters,
            "iterations {}",
            r.iterations
        );
        // Re-running with the same config must reproduce the exact result.
        let r2 = grape(&d, &Gate::X.unitary_matrix(), 30, &GrapeConfig::default()).unwrap();
        assert_eq!(r.fidelity.to_bits(), r2.fidelity.to_bits());
        assert_eq!(r.iterations, r2.iterations);
    }
}
