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
use epoc_rt::cancel::CancelScope;
use epoc_rt::faults;
use epoc_rt::rng::{Rng, StdRng};

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

/// Adam steps over which the stall test measures a restart's progress.
const STALL_WINDOW: usize = 30;

/// One time slot's state in one restart, carried from one evaluation to
/// the next.
struct SlotState {
    /// Gathered control column `u[·][s]`, the cache key: when the incoming
    /// amplitudes are bitwise equal to these, the slot is reused as it
    /// stands. `NaN` until the slot is prepared, and again after a failed
    /// preparation, so an unprepared slot never hits.
    amps: Vec<f64>,
    /// Eigensystem of `H(amps)`, empty until the slot is prepared. On a
    /// miss the eigensolver warm-starts from the basis held here and
    /// overwrites it in place.
    eig: HermitianEig,
}

impl SlotState {
    /// An unprepared slot: it misses on its first evaluation, and its
    /// eigensolver starts cold.
    fn new(n_ctrl: usize) -> Self {
        Self {
            amps: vec![f64::NAN; n_ctrl],
            eig: HermitianEig {
                values: Vec::new(),
                vectors: Matrix::zeros(0, 0),
            },
        }
    }
}

/// What follows from a slot's eigensystem and `dt`, which the chain sweeps
/// and the gradient read.
struct SlotBundle {
    /// `V†`, shared by the propagator build and the gradient
    /// back-conjugation.
    vdag: Matrix,
    /// Diagonal propagator phases `cis(-λ·dt)`.
    phases: Vec<Complex64>,
    /// Slot propagator `U_s = V·diag(phases)·V†`.
    prop: Matrix,
}

/// Reusable buffers for the GRAPE iteration loop.
///
/// One workspace serves every restart of every run of a [`GrapeSession`],
/// at any slot count it has been fitted to; after a restart's first
/// evaluation the loop performs no heap allocation (the 4×4 eigensolver
/// works on the stack, larger ones in thread-local scratch that is reused
/// from the first iteration on).
///
/// It holds nothing a restart needs to continue. Each slot's amplitudes
/// and eigensystem belong to the restart ([`Restart::slots`]), and the
/// eigensolver warm-starts from them, so an evaluation's result depends,
/// at rounding level, on the control sets that restart evaluated before.
/// The workspace holds each slot's [`SlotBundle`] for the restart being
/// stepped, rebuilt from that restart's eigensystems whenever it resumes,
/// so every restart is a pure function of its own inputs, whichever runs
/// the workspace served in between.
struct GrapeWorkspace {
    bundles: Vec<SlotBundle>,
    /// `prefix[s] = U_{s-1}···U_0` for `s < n_slots` (`prefix[0] = I`,
    /// never overwritten).
    prefix: Vec<Matrix>,
    /// `suffix[s] = A†·U_{last}···U_s`, with `suffix[n_slots] = A†` set by
    /// every evaluation, so `suffix[0]` is `A†·U_total`.
    suffix: Vec<Matrix>,
    /// Flat gradient, channel-major: `grad[j * n_slots + s]`.
    grad: Vec<f64>,
    /// Per-evaluation scratch, one set for every slot: `H(u_s)` on a miss,
    /// and two general matrices.
    h: Matrix,
    t1: Matrix,
    t2: Matrix,
    /// Trace kernel `K = V†·W·V` (exact mode) or `Y = U_s·W` (first-order
    /// mode), where `W = prefix_s·suffix_{s+1} = U_{s-1}···U_0·A†·U_last···U_{s+1}`.
    kern: Matrix,
}

impl GrapeWorkspace {
    /// Allocates buffers for a `(device, n_slots)` problem shape.
    fn new(device: &DeviceModel, n_slots: usize) -> Self {
        let dim = device.dim();
        let zero = || Matrix::zeros(dim, dim);
        let mut ws = Self {
            bundles: Vec::new(),
            prefix: vec![Matrix::identity(dim)],
            suffix: Vec::new(),
            grad: Vec::new(),
            h: zero(),
            t1: zero(),
            t2: zero(),
            kern: zero(),
        };
        ws.fit(device, n_slots);
        ws
    }

    /// Grows the buffers to hold `n_slots` slots (they never shrink) and
    /// sizes the gradient for exactly `n_slots`.
    fn fit(&mut self, device: &DeviceModel, n_slots: usize) {
        let dim = device.dim();
        while self.bundles.len() < n_slots {
            self.bundles.push(SlotBundle {
                vdag: Matrix::zeros(dim, dim),
                phases: Vec::with_capacity(dim),
                prop: Matrix::zeros(dim, dim),
            });
        }
        while self.prefix.len() < n_slots {
            self.prefix.push(Matrix::zeros(dim, dim));
        }
        while self.suffix.len() < n_slots + 1 {
            self.suffix.push(Matrix::zeros(dim, dim));
        }
        self.grad.resize(device.controls().len() * n_slots, 0.0);
    }
}

/// The outcome of a GRAPE run.
#[derive(Debug, Clone)]
pub struct GrapeResult {
    /// Optimized controls: `controls[channel][slot]` in rad/ns.
    pub controls: Vec<Vec<f64>>,
    /// Phase-invariant gate fidelity `|Tr(U_target†·U)|/d` of the best
    /// restart's last evaluated iterate. That is the fidelity of
    /// [`controls`](Self::controls) when the restart stopped by
    /// converging; a restart that ran out of iterations took one more Adam
    /// step after its last evaluation, so the controls have moved on by
    /// one step. [`unitary`](Self::unitary) is always the controls' own
    /// propagator.
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
    let cancel = CancelScope::none();
    let mut session = GrapeSession::new(device, target, config, &cancel);
    let run = session.start(n_slots)?;
    session.finish(run)
}

/// One restart's optimizer state: everything its next Adam step depends
/// on, so that it can stop at any step boundary and later resume exactly
/// as if it had not stopped.
struct Restart {
    /// Controls `u[channel][slot]` in rad/ns.
    u: Vec<Vec<f64>>,
    /// Adam moments, channel-major like [`GrapeWorkspace::grad`].
    m: Vec<f64>,
    v: Vec<f64>,
    /// Adam steps taken.
    step: usize,
    /// Fidelity of the last evaluated iterate (0 before the first).
    fidelity: f64,
    /// Best fidelity of any evaluated iterate.
    best: f64,
    /// `best` after each of the last [`STALL_WINDOW`] steps, indexed by
    /// step modulo the window.
    recent: [f64; STALL_WINDOW],
    /// No step is left: the restart converged, used `max_iters`, or the
    /// budget ran out.
    ended: bool,
    /// Per slot, the amplitudes and eigensystem of the last evaluated
    /// iterate: unprepared when the restart starts, emptied when it ends.
    slots: Vec<SlotState>,
}

/// One GRAPE run at a fixed slot count: its restarts so far, each
/// paused or ended. A [`GrapeSession`] drives it, either to a
/// provisional verdict ([`GrapeSession::decide`]) or to the end
/// ([`GrapeSession::finish`]).
pub(crate) struct GrapeRun {
    n_slots: usize,
    restarts: Vec<Restart>,
    /// The `grape.converge` fail point fired: the run is a finished
    /// zero-fidelity failure that takes no step.
    injected: bool,
}

impl GrapeRun {
    /// The run's slot count.
    pub(crate) fn n_slots(&self) -> usize {
        self.n_slots
    }
}

/// GRAPE runs for one target on one device under one configuration: the
/// scratch they share, and the Adam steps they have taken.
///
/// A run reaches the same result however its work is split: deciding it
/// provisionally and then finishing it gives, bit for bit, what
/// [`grape`] gives (which finishes a fresh run), because every
/// restart owns its state and restarts are combined in order.
pub(crate) struct GrapeSession<'a> {
    device: &'a DeviceModel,
    target: &'a Matrix,
    adag: Matrix,
    config: &'a GrapeConfig,
    cancel: &'a CancelScope,
    /// Control-electronics model: when active, fidelity is evaluated on
    /// the conditioned controls `C(u)` and the gradient is pulled back
    /// through the straight-through estimator.
    hw: Option<&'a epoc_hw::HardwareProfile>,
    ws: GrapeWorkspace,
    hw_ws: epoc_hw::ConditionWorkspace,
    /// Conditioned controls (with `hw` only).
    uc: Vec<Vec<f64>>,
    /// Adam steps taken by every run of the session, each charged once
    /// against the scope's GRAPE budget.
    steps: usize,
}

impl<'a> GrapeSession<'a> {
    /// A session with no run started yet. Each Adam step charges one
    /// unit against `cancel`'s GRAPE budget and polls its hard conditions
    /// (cancel flag, wall-clock deadline). Budget exhaustion is soft: the
    /// run stops with whatever fidelity it has for the caller's recovery
    /// ladder, and since the budget counts steps, budgeted outcomes are
    /// bit-identical at any worker count.
    pub(crate) fn new(
        device: &'a DeviceModel,
        target: &'a Matrix,
        config: &'a GrapeConfig,
        cancel: &'a CancelScope,
    ) -> Self {
        Self {
            device,
            target,
            adag: target.dagger(),
            config,
            cancel,
            hw: config.hw.as_ref().filter(|p| !p.is_identity()),
            ws: GrapeWorkspace::new(device, 0),
            hw_ws: epoc_hw::ConditionWorkspace::new(),
            uc: Vec::new(),
            steps: 0,
        }
    }

    /// Adam steps taken so far by all of the session's runs.
    pub(crate) fn steps(&self) -> usize {
        self.steps
    }

    /// A run at `n_slots` that has taken no step.
    ///
    /// # Errors
    ///
    /// [`GrapeError::NoSlots`] and [`GrapeError::DimensionMismatch`].
    pub(crate) fn start(&self, n_slots: usize) -> Result<GrapeRun, GrapeError> {
        if n_slots == 0 {
            return Err(GrapeError::NoSlots);
        }
        if self.target.rows() != self.device.dim() {
            return Err(GrapeError::DimensionMismatch {
                target: self.target.rows(),
                device: self.device.dim(),
            });
        }
        // Fail point `grape.converge`: an injected non-convergence, keyed by
        // (target, slot count, seed) so the decision is a pure function of
        // the work item — identical at any worker count, and fresh for every
        // rung of the recovery ladder (escalations change the slot count or
        // seed).
        let injected = faults::is_armed() && {
            let key = faults::mix(
                fault_fingerprint(self.target),
                faults::mix(n_slots as u64, self.config.seed),
            );
            faults::fail_point_keyed("grape.converge", key)
        };
        Ok(GrapeRun {
            n_slots,
            restarts: Vec::new(),
            injected,
        })
    }

    /// Runs `run` until its verdict against `threshold` is clear, and
    /// returns it: `true` as soon as an iterate reaches `threshold`,
    /// `false` once every restart has ended or stalled. The verdict is
    /// provisional — the finished run may still fall below `threshold`,
    /// or a stalled restart may yet reach it — and `run` keeps what
    /// [`finish`](Self::finish) needs to settle it.
    ///
    /// # Errors
    ///
    /// A numerical failure, as for [`grape`], or [`GrapeError::Canceled`]
    /// when the session's scope is cancelled or past its deadline.
    pub(crate) fn decide(
        &mut self,
        run: &mut GrapeRun,
        threshold: f64,
    ) -> Result<bool, GrapeError> {
        let _span = epoc_rt::telemetry::span("qoc", "grape");
        let steps = self.steps;
        let verdict = self.decide_restarts(run, threshold);
        self.record(steps);
        verdict
    }

    fn decide_restarts(&mut self, run: &mut GrapeRun, threshold: f64) -> Result<bool, GrapeError> {
        if run.injected {
            return Ok(false);
        }
        let n_slots = run.n_slots;
        for r in 0..self.config.restarts.max(1) {
            let restart = self.restart(run, r);
            if !restart.ended {
                self.advance(n_slots, restart, Some(threshold))?;
            }
            if restart.best >= threshold {
                return Ok(true);
            }
            if restart.ended && 1.0 - restart.fidelity < self.config.infidelity_threshold {
                // A converged restart ends an uninterrupted run.
                break;
            }
        }
        Ok(false)
    }

    /// Runs every restart of `run` to its end and combines them as an
    /// uninterrupted run does: in order, keeping the best, and stopping at
    /// the first that converges. Restarts a provisional decision started
    /// beyond that point are discarded; their steps still count in
    /// [`steps`](Self::steps) but not in the result.
    ///
    /// # Errors
    ///
    /// A numerical failure, as for [`grape`], or [`GrapeError::Canceled`]
    /// when the session's scope is cancelled or past its deadline.
    pub(crate) fn finish(&mut self, mut run: GrapeRun) -> Result<GrapeResult, GrapeError> {
        let _span = epoc_rt::telemetry::span("qoc", "grape");
        let steps = self.steps;
        let result = self.finish_restarts(&mut run);
        self.record(steps);
        result
    }

    fn finish_restarts(&mut self, run: &mut GrapeRun) -> Result<GrapeResult, GrapeError> {
        let n_slots = run.n_slots;
        let duration = n_slots as f64 * self.device.dt();
        if run.injected {
            return Ok(GrapeResult {
                controls: vec![vec![0.0; n_slots]; self.device.controls().len()],
                fidelity: 0.0,
                duration,
                iterations: 0,
                total_iterations: 0,
                unitary: Matrix::identity(self.device.dim()),
            });
        }
        let mut best: Option<(usize, f64)> = None;
        let mut total_iterations = 0usize;
        for r in 0..self.config.restarts.max(1) {
            let restart = self.restart(run, r);
            if !restart.ended {
                self.advance(n_slots, restart, None)?;
            }
            total_iterations += restart.step;
            let fidelity = restart.fidelity;
            if best.is_none_or(|(_, bf)| fidelity > bf) {
                best = Some((r, fidelity));
                if 1.0 - fidelity < self.config.infidelity_threshold {
                    break;
                }
            }
        }
        // `restarts.max(1)` guarantees at least one restart ran and set
        // `best`.
        let Some((b, _)) = best else {
            return Err(GrapeError::Numerical("no restart produced a result".into()));
        };
        let best = run.restarts.swap_remove(b);
        // The realized propagator is that of the pulse the electronics will
        // actually play; the returned controls stay raw so conditioning is
        // applied exactly once (the filter is not idempotent).
        let unitary = match self.hw {
            Some(profile) => {
                let mut cond = best.u.clone();
                let (dt, a_max) = (self.device.dt(), self.device.max_amplitude());
                profile.condition_controls(dt, a_max, &mut cond, &mut self.hw_ws);
                propagate(self.device, &cond)?
            }
            None => propagate(self.device, &best.u)?,
        };
        Ok(GrapeResult {
            controls: best.u,
            fidelity: best.fidelity,
            duration,
            iterations: best.step,
            total_iterations,
            unitary,
        })
    }

    /// Restart `r` of `run`, started (from its seeded random controls) if
    /// it has not been yet. Restarts start in order.
    fn restart<'r>(&self, run: &'r mut GrapeRun, r: usize) -> &'r mut Restart {
        if r == run.restarts.len() {
            epoc_rt::telemetry::counter_add("grape.restarts", 1);
            let n_slots = run.n_slots;
            let n_ctrl = self.device.controls().len();
            let a_max = self.device.max_amplitude();
            let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(r as u64));
            // Smooth random initialization well inside the bounds.
            let u = (0..n_ctrl)
                .map(|_| {
                    (0..n_slots)
                        .map(|_| (rng.gen_f64() - 0.5) * a_max)
                        .collect()
                })
                .collect();
            run.restarts.push(Restart {
                u,
                m: vec![0.0; n_ctrl * n_slots],
                v: vec![0.0; n_ctrl * n_slots],
                step: 0,
                fidelity: 0.0,
                best: 0.0,
                recent: [0.0; STALL_WINDOW],
                ended: false,
                slots: (0..n_slots).map(|_| SlotState::new(n_ctrl)).collect(),
            });
        }
        &mut run.restarts[r]
    }

    /// Takes Adam steps on `restart` until it ends or, given a `threshold`,
    /// until its best iterate reaches the threshold or it stalls. A
    /// restart has stalled when its best fidelity, extrapolated linearly
    /// to `max_iters` at its gain over the last [`STALL_WINDOW`] steps,
    /// stays below the threshold. A restart that stops before its end is
    /// paused: it keeps its state, and the next call resumes it.
    fn advance(
        &mut self,
        n_slots: usize,
        restart: &mut Restart,
        threshold: Option<f64>,
    ) -> Result<(), GrapeError> {
        // Another restart may have used the workspace since this one last
        // stepped: rebuild its bundles from its own eigensystems. A slot
        // not prepared yet misses on its first evaluation, which builds
        // its bundle.
        self.ws.fit(self.device, n_slots);
        let GrapeWorkspace { bundles, t1, .. } = &mut self.ws;
        for (slot, bundle) in restart.slots.iter().zip(bundles.iter_mut()) {
            if !slot.eig.values.is_empty() {
                build_bundle(&slot.eig, bundle, t1, self.device.dt());
            }
        }
        let dim = self.device.dim() as f64;
        let a_max = self.device.max_amplitude();
        let max_iters = self.config.max_iters;
        let (b1, b2, eps) = (0.9, 0.999, 1e-10);
        while restart.step < max_iters {
            // Cooperative cancellation: one budget unit per Adam step.
            // Exhaustion ends the restart softly (the ladder upstream
            // degrades the block); a raised flag or blown deadline aborts
            // typed.
            if !self
                .cancel
                .spend_grape_iter()
                .map_err(GrapeError::Canceled)?
            {
                break;
            }
            restart.step += 1;
            self.steps += 1;
            let step = restart.step;
            let f = self.evaluate(&restart.u, &mut restart.slots)?;
            restart.fidelity = f;
            restart.best = restart.best.max(f);
            if 1.0 - f < self.config.infidelity_threshold {
                break;
            }
            for (j, u) in restart.u.iter_mut().enumerate() {
                for (s, u) in u.iter_mut().enumerate() {
                    // Ascent on fidelity.
                    let k = j * n_slots + s;
                    let g = self.ws.grad[k] / dim;
                    restart.m[k] = b1 * restart.m[k] + (1.0 - b1) * g;
                    restart.v[k] = b2 * restart.v[k] + (1.0 - b2) * g * g;
                    let mh = restart.m[k] / (1.0 - b1.powi(step as i32));
                    let vh = restart.v[k] / (1.0 - b2.powi(step as i32));
                    *u += self.config.learning_rate * mh / (vh.sqrt() + eps);
                    *u = u.clamp(-a_max, a_max);
                }
            }
            let then = std::mem::replace(&mut restart.recent[step % STALL_WINDOW], restart.best);
            let Some(threshold) = threshold.filter(|_| step < max_iters) else {
                continue;
            };
            if restart.best >= threshold {
                return Ok(());
            }
            let reach = (restart.best - then) * (max_iters - step) as f64 / STALL_WINDOW as f64;
            if step > STALL_WINDOW && restart.best + reach < threshold {
                epoc_rt::telemetry::counter_add("grape.stalls", 1);
                return Ok(());
            }
        }
        restart.ended = true;
        restart.slots = Vec::new();
        Ok(())
    }

    /// Phase-invariant fidelity of `u`, evaluated with the restart's
    /// `slots`, with its gradient in `ws.grad`.
    fn evaluate(&mut self, u: &[Vec<f64>], slots: &mut [SlotState]) -> Result<f64, GrapeError> {
        let (device, adag, config) = (self.device, &self.adag, self.config);
        let Some(profile) = self.hw else {
            return fidelity_and_gradient(device, adag, u, config, slots, &mut self.ws);
        };
        let (dt, a_max) = (device.dt(), device.max_amplitude());
        self.uc.resize_with(u.len(), Vec::new);
        for (dst, src) in self.uc.iter_mut().zip(u) {
            dst.clear();
            dst.extend_from_slice(src);
        }
        profile.condition_controls(dt, a_max, &mut self.uc, &mut self.hw_ws);
        let f = fidelity_and_gradient(device, adag, &self.uc, config, slots, &mut self.ws)?;
        // ∂F/∂(conditioned u) → ∂F/∂(raw u): transpose the linear stages,
        // straight-through the rest.
        profile.adjoint_grad(u.len(), u[0].len(), &mut self.ws.grad, &mut self.hw_ws);
        Ok(f)
    }

    /// Charges the steps taken since `since` to the telemetry registry.
    fn record(&self, since: usize) {
        let steps = (self.steps - since) as u64;
        epoc_rt::telemetry::counter_add("grape.iterations", steps);
        epoc_rt::telemetry::histogram_record("grape.iters_per_run", steps);
    }
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

/// Prepares a slot for `slot.amps`: `H(u)` into `h`, its eigensystem
/// (warm-started from the basis the slot already holds), then its bundle
/// by [`build_bundle`].
///
/// # Errors
///
/// Returns [`GrapeError::Numerical`] when the eigendecomposition fails,
/// and resets the slot's amplitudes to `NaN` so that it cannot hit.
fn prepare_slot(
    slot: &mut SlotState,
    bundle: &mut SlotBundle,
    h: &mut Matrix,
    t1: &mut Matrix,
    device: &DeviceModel,
    dt: f64,
) -> Result<(), GrapeError> {
    device.hamiltonian_into(&slot.amps, h);
    if let Err(e) = eigh_warm_into(h, &mut slot.eig) {
        slot.amps.fill(f64::NAN);
        return Err(GrapeError::Numerical(format!(
            "eigendecomposition failed: {e}"
        )));
    }
    build_bundle(&slot.eig, bundle, t1, dt);
    Ok(())
}

/// Builds what follows from a slot's eigensystem: `V†`, the propagator
/// phases and `U_s = V·diag·V†`, with `t1` as scratch.
fn build_bundle(eig: &HermitianEig, bundle: &mut SlotBundle, t1: &mut Matrix, dt: f64) {
    let dim = eig.values.len();
    eig.vectors.dagger_into(&mut bundle.vdag);
    bundle.phases.clear();
    bundle
        .phases
        .extend(eig.values.iter().map(|&l| Complex64::cis(-l * dt)));
    // U_s = V·diag(phases)·V†: scale V's columns, then one product.
    t1.copy_from(&eig.vectors);
    for row in t1.as_mut_slice().chunks_exact_mut(dim) {
        for (z, ph) in row.iter_mut().zip(&bundle.phases) {
            *z *= *ph;
        }
    }
    t1.matmul_into(&bundle.vdag, &mut bundle.prop);
}

/// Phase-invariant fidelity `|Tr(A†U)|/d`, with the gradient w.r.t. every
/// control amplitude written into `ws.grad` (channel-major). `slots` are
/// the evaluating restart's, one per time slot, and `ws` must hold their
/// bundles.
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
    slots: &mut [SlotState],
    ws: &mut GrapeWorkspace,
) -> Result<f64, GrapeError> {
    let n_slots = controls[0].len();
    let dt = device.dt();
    let dim = device.dim();
    let channels = device.controls();
    let mode = config.gradient;

    // Per-slot eigensystems and propagators. A slot whose amplitudes are
    // bit-identical to its previous evaluation is reused as it stands
    // (common once Adam saturates amplitudes at the clamp); any other slot
    // is recomputed, its eigensolver warm-started from the slot's
    // previous basis.
    let GrapeWorkspace {
        bundles,
        prefix,
        suffix,
        grad,
        h,
        t1,
        t2,
        kern,
    } = ws;
    let bundles = &mut bundles[..n_slots];
    for (s, (slot, bundle)) in slots.iter_mut().zip(bundles.iter_mut()).enumerate() {
        let hit = slot
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
        if prepare_slot(slot, bundle, h, t1, device, dt).is_err() {
            return Err(GrapeError::Numerical(format!(
                "eigendecomposition failed on slot {s}"
            )));
        }
    }

    // Serial chain sweeps: prefix[s] = U_{s-1}···U_0 and, with A† folded
    // into the suffix, suffix[s] = A†·U_last···U_s.
    for s in 1..n_slots {
        let (head, tail) = prefix.split_at_mut(s);
        bundles[s - 1].prop.matmul_into(&head[s - 1], &mut tail[0]);
    }
    suffix[n_slots].copy_from(adag);
    for s in (0..n_slots).rev() {
        let (head, tail) = suffix.split_at_mut(s + 1);
        tail[0].matmul_into(&bundles[s].prop, &mut head[s]);
    }
    // f = Tr(A†·U_total) = Tr(suffix[0]).
    let f_complex: Complex64 = (0..dim).map(|i| suffix[0][(i, i)]).sum();
    let fabs = f_complex.abs().max(1e-300);
    let fidelity = fabs / dim as f64;
    let f_conj = f_complex.conj();

    // Per-slot gradient.
    for (s, (slot, bundle)) in slots.iter().zip(bundles.iter()).enumerate() {
        // W = prefix[s]·A†·U_last···U_{s+1}; df_j = Tr(W·dU_j).
        prefix[s].matmul_into(&suffix[s + 1], t2);
        match mode {
            GradientMode::Exact => {
                // K = V†·W·V, the trace kernel in the slot eigenbasis.
                bundle.vdag.matmul_into(t2, t1);
                t1.matmul_into(&slot.eig.vectors, kern);
                // dU_j = V·(φ∘(V†·H_j·V))·V† by the exact Fréchet
                // derivative, with φ(a,b) the divided difference of
                // f(λ) = e^{-i·dt·λ} at the eigenvalues λ_a, λ_b. Pulling
                // the contraction back to the lab frame with
                // Q = V·(φᵀ∘K)·V† turns every channel into an O(dim²)
                // read-off — no per-channel conjugation.
                let (values, phases) = (&slot.eig.values, &bundle.phases);
                for b in 0..dim {
                    for a in 0..dim {
                        let (la, lb) = (values[a], values[b]);
                        let phi = if (la - lb).abs() < 1e-10 {
                            phases[a] * c64(0.0, -dt) // f'(λ_a)
                        } else {
                            (phases[a] - phases[b]) / c64(la - lb, 0.0)
                        };
                        t1[(b, a)] = kern[(b, a)] * phi;
                    }
                }
                slot.eig.vectors.matmul_into(t1, t2);
                t2.matmul_into(&bundle.vdag, kern); // kern ← Q
            }
            GradientMode::FirstOrder => {
                // dU_j = −i·dt·H_j·U_s ⇒ df_j = −i·dt·Tr(U_s·W·H_j):
                // kern = U_s·W.
                bundle.prop.matmul_into(t2, kern);
            }
        }
        for (j, channel) in channels.iter().enumerate() {
            let df = match mode {
                GradientMode::Exact => {
                    // df_j = Σ_{x,y} H_j[x,y]·Q[y,x].
                    let hj = channel.hamiltonian.as_slice();
                    let q = kern.as_slice();
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
                            tr += kern[(a, b)] * channel.hamiltonian[(b, a)];
                        }
                    }
                    tr * c64(0.0, -dt)
                }
            };
            grad[j * n_slots + s] = (f_conj * df).re / fabs;
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

    /// One restart's unprepared slots and a workspace, for `n_slots`.
    fn fresh(device: &DeviceModel, n_slots: usize) -> (Vec<SlotState>, GrapeWorkspace) {
        let n_ctrl = device.controls().len();
        let slots = (0..n_slots).map(|_| SlotState::new(n_ctrl)).collect();
        (slots, GrapeWorkspace::new(device, n_slots))
    }

    /// Test convenience: evaluates with the slots and workspace of
    /// `state` and returns the gradient in the `[channel][slot]` shape.
    fn fidelity_and_gradient_in(
        state: &mut (Vec<SlotState>, GrapeWorkspace),
        device: &DeviceModel,
        target: &Matrix,
        controls: &[Vec<f64>],
        mode: GradientMode,
    ) -> (f64, Vec<Vec<f64>>) {
        let (slots, ws) = state;
        let n_slots = controls[0].len();
        let config = GrapeConfig {
            gradient: mode,
            ..Default::default()
        };
        let f = fidelity_and_gradient(device, &target.dagger(), controls, &config, slots, ws)
            .expect("gradient evaluation");
        let grad = (0..controls.len())
            .map(|j| ws.grad[j * n_slots..(j + 1) * n_slots].to_vec())
            .collect();
        (f, grad)
    }

    /// [`fidelity_and_gradient_in`] on fresh slots and a fresh workspace.
    fn fidelity_and_gradient_alloc(
        device: &DeviceModel,
        target: &Matrix,
        controls: &[Vec<f64>],
        mode: GradientMode,
    ) -> (f64, Vec<Vec<f64>>) {
        let mut state = fresh(device, controls[0].len());
        fidelity_and_gradient_in(&mut state, device, target, controls, mode)
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
        // Two qubits on one restart's reused slots: every evaluation runs
        // the 4×4 eigensolver warm-started from the previous one's basis.
        let d2 = DeviceModel::transmon_line(2).unwrap();
        let cz = Gate::CZ.unitary_matrix();
        let controls = vec![
            vec![0.05, -0.02, 0.04],
            vec![0.01, 0.03, -0.05],
            vec![-0.04, 0.06, 0.02],
            vec![0.03, -0.01, -0.06],
        ];
        let mut state = fresh(&d2, 3);
        let exact = GradientMode::Exact;
        let (f0, grad) = fidelity_and_gradient_in(&mut state, &d2, &cz, &controls, exact);
        for j in 0..4 {
            for s in 0..3 {
                let mut c2 = controls.clone();
                c2[j][s] += h;
                let (f1, _) = fidelity_and_gradient_in(&mut state, &d2, &cz, &c2, exact);
                let fd = (f1 - f0) / h * 4.0;
                let an = grad[j][s];
                assert!(
                    (fd - an).abs() < 1e-4 * (1.0 + an.abs()),
                    "2q ({j},{s}): fd {fd} vs analytic {an}"
                );
            }
        }
    }

    /// Warm-started eigenbases change an evaluation only at rounding
    /// level: after two other control sets, reused slots agree with fresh
    /// ones. The last set keeps some slots of the one before
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
        let mut reused = fresh(&d, n_slots);
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

    /// How a provisional decision stopped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Decided {
        /// An iterate reached the threshold.
        Reached,
        /// Every restart ended or stalled, and at least one stalled.
        Stalled,
        /// Every restart ended.
        Failed,
    }

    /// Starts one run per entry of `slots` on one session, decides each
    /// against the search threshold in order, then finishes each in order,
    /// and checks every result against an uninterrupted [`grape`] run bit
    /// for bit. Returns how each decision stopped.
    fn decide_then_finish(
        device: &DeviceModel,
        target: &Matrix,
        slots: &[usize],
        config: &GrapeConfig,
    ) -> Vec<Decided> {
        let cancel = CancelScope::none();
        let mut session = GrapeSession::new(device, target, config, &cancel);
        let mut runs: Vec<GrapeRun> = slots.iter().map(|&n| session.start(n).unwrap()).collect();
        let decided: Vec<Decided> = runs
            .iter_mut()
            .map(|run| {
                let pass = session.decide(run, 0.999).unwrap();
                match (pass, run.restarts.iter().all(|r| r.ended)) {
                    (true, _) => Decided::Reached,
                    (false, false) => Decided::Stalled,
                    (false, true) => Decided::Failed,
                }
            })
            .collect();
        for (run, decided) in runs.into_iter().zip(&decided) {
            let n_slots = run.n_slots();
            let plain = grape(device, target, n_slots, config).unwrap();
            let finished = session.finish(run).unwrap();
            let case = format!("{n_slots} of {slots:?} slots, {decided:?}");
            assert_eq!(
                finished.fidelity.to_bits(),
                plain.fidelity.to_bits(),
                "{case}"
            );
            assert_eq!(finished.iterations, plain.iterations, "{case}");
            assert_eq!(finished.total_iterations, plain.total_iterations, "{case}");
            for (a, b) in finished.controls.iter().zip(&plain.controls) {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{case}");
                }
            }
            assert_eq!(finished.unitary, plain.unitary, "{case}");
        }
        decided
    }

    /// Stopping a run at its provisional verdict and resuming it changes
    /// nothing: each restart's controls, Adam moments and slot
    /// eigensystems survive the pause bit for bit. Covers runs that
    /// reach the threshold, that stall (the 2-qubit ones at 72 slots under
    /// `transmon_awg_8bit` stall restart 0 and then reach the threshold in
    /// restart 1), and that fail outright (too few iterations for the
    /// stall test), with ideal electronics and under `transmon_awg_8bit`,
    /// where amplitudes saturate and slot-cache hits matter. Each target
    /// also decides two runs on one session before finishing either, as
    /// the duration search does with its bracket's ends, so a run resumes
    /// on a workspace that another run at another slot count used last
    /// (the larger count first on every other target).
    #[test]
    fn deciding_then_finishing_matches_an_uninterrupted_run() {
        let d1 = device1();
        let d2 = DeviceModel::transmon_line(2).unwrap();
        let cases = [
            (&d1, Gate::X, [4, 14]),
            (&d1, Gate::H, [8, 16]),
            (&d2, Gate::CZ, [64, 72]),
            (&d2, Gate::CX, [60, 72]),
        ];
        let mut seen = Vec::new();
        for hw in [None, Some(epoc_hw::HardwareProfile::transmon_awg_8bit())] {
            let config = GrapeConfig {
                hw,
                ..Default::default()
            };
            // Restarts that end before the stall test's window fills.
            let short = GrapeConfig {
                max_iters: STALL_WINDOW - 5,
                ..config.clone()
            };
            for (i, (device, gate, slots)) in cases.iter().enumerate() {
                let target = gate.unitary_matrix();
                for &n in slots {
                    seen.extend(decide_then_finish(device, &target, &[n], &config));
                }
                seen.extend(decide_then_finish(device, &target, &slots[..1], &short));
                let pair = if i % 2 == 0 {
                    [slots[1], slots[0]]
                } else {
                    *slots
                };
                let decided = decide_then_finish(device, &target, &pair, &config);
                assert!(
                    decided.contains(&Decided::Reached) && decided.contains(&Decided::Stalled),
                    "{gate:?} at {pair:?} slots: {decided:?}"
                );
                seen.extend(decided);
            }
        }
        seen.sort();
        seen.dedup();
        assert_eq!(seen, [Decided::Reached, Decided::Stalled, Decided::Failed]);
    }
}
