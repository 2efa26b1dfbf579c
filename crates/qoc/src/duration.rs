//! Minimal-duration pulse search (the AccQOC/PAQOC binary-search protocol).
//!
//! For a target unitary, find the smallest slot count whose GRAPE run
//! reaches the fidelity threshold: grow the upper bound geometrically
//! until GRAPE succeeds, then binary-search the success boundary.
//!
//! Probes steer the search on *provisional* verdicts. A probe stops as
//! soon as its verdict is clear: it passes once an iterate reaches the
//! threshold, and fails once every GRAPE restart has ended or stalled (its
//! best fidelity, extrapolated at its recent gain, cannot reach the
//! threshold within `max_iters`). When bisection closes on two
//! neighbouring slot counts, the probes at both ends are resumed to the
//! end of their runs, the passing end first. A finished run passes when
//! its last evaluated iterate and its returned waveform both reach the
//! threshold. If a finished run flips its verdict, the bracket reopens
//! where a search on finished runs would have had it, and bisection goes
//! on. So the answer keeps the protocol's invariant: an uninterrupted
//! GRAPE run passes at `n*` (it is the returned pulse) and one fails at
//! `n* − 1` (unless `n* − 1` is the growth phase's unprobed lower end,
//! which the protocol assumes to fail). The stall test only picks the
//! path.
//!
//! Only the bracket's two ends keep their suspended runs; a reopened
//! bracket that needs a dropped probe runs it again, which is
//! deterministic. Every Adam step, provisional or resumed, is charged to
//! the scope's GRAPE budget and counted in
//! [`PulseSolution::total_iterations`].

use crate::device::DeviceModel;
use crate::grape::{GrapeConfig, GrapeError, GrapeResult, GrapeRun, GrapeSession};
use epoc_linalg::{phase_invariant_fidelity, Matrix};
use epoc_rt::cancel::CancelScope;
use std::collections::BTreeMap;

/// How the GRAPE backend escalates when a duration search comes back
/// below the fidelity threshold. Each escalation is one recovery-ladder
/// rung: restarts with perturbed seeds first, then a larger slot cap,
/// then (unless `strict`) a digital fallback handled by the synthesizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrapeRecoveryPolicy {
    /// Restart-escalation rungs: each doubles the GRAPE restart count and
    /// perturbs the seed before re-running the search.
    pub restart_escalations: usize,
    /// Slot-escalation rungs: each doubles the slot cap (longer pulses).
    pub slot_escalations: usize,
    /// Fail with a typed error instead of degrading to the digital
    /// fallback when every escalation rung is exhausted.
    pub strict: bool,
}

impl Default for GrapeRecoveryPolicy {
    fn default() -> Self {
        Self {
            restart_escalations: 1,
            slot_escalations: 1,
            strict: false,
        }
    }
}

/// Configuration for the duration search.
#[derive(Debug, Clone, PartialEq)]
pub struct DurationSearchConfig {
    /// Pulse fidelity that counts as success.
    pub fidelity_threshold: f64,
    /// Initial slot-count guess.
    pub initial_slots: usize,
    /// Hard cap on slots (safety bound for unreachable targets).
    pub max_slots: usize,
    /// GRAPE settings for each probe.
    pub grape: GrapeConfig,
    /// Escalation ladder applied by the synthesizer when the search fails.
    pub recovery: GrapeRecoveryPolicy,
}

impl Default for DurationSearchConfig {
    fn default() -> Self {
        Self {
            fidelity_threshold: 0.999,
            initial_slots: 8,
            max_slots: 512,
            grape: GrapeConfig::default(),
            recovery: GrapeRecoveryPolicy::default(),
        }
    }
}

/// A pulse found by the duration search.
#[derive(Debug, Clone)]
pub struct PulseSolution {
    /// The successful GRAPE run at the minimal slot count found.
    pub result: GrapeResult,
    /// Phase-invariant fidelity of the returned waveform itself against
    /// the target: that of `result.unitary`, the conditioned propagator
    /// under a hardware profile. `result.fidelity` is GRAPE's last
    /// evaluated iterate's, which lags the controls by one Adam step when
    /// a restart runs out of iterations.
    pub fidelity: f64,
    /// Slot count of the solution.
    pub n_slots: usize,
    /// Total GRAPE probes spent: every slot count decided, plus every
    /// dropped probe run again to confirm it.
    pub probes: usize,
    /// GRAPE iterations spent across every probe of the search: every
    /// Adam step, provisional or resumed, of failed probes and discarded
    /// restarts too.
    pub total_iterations: usize,
}

/// Error from [`minimize_duration`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchDurationError {
    /// Best fidelity reached at the slot cap.
    pub best_fidelity: f64,
    /// The slot cap that was tried.
    pub max_slots: usize,
    /// GRAPE probes spent before giving up.
    pub probes: usize,
    /// GRAPE iterations spent across every probe before giving up.
    pub total_iterations: usize,
}

impl std::fmt::Display for SearchDurationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no pulse reached the fidelity threshold within {} slots (best {:.6})",
            self.max_slots, self.best_fidelity
        )
    }
}

impl std::error::Error for SearchDurationError {}

/// Error from [`minimize_duration`].
#[derive(Debug, Clone, PartialEq)]
pub enum DurationError {
    /// No slot count up to the cap reached the fidelity threshold — a
    /// *soft* failure the recovery ladder can escalate.
    Unconverged(SearchDurationError),
    /// A GRAPE probe failed outright (bad inputs or numerical breakdown)
    /// — a *hard* failure escalation cannot fix.
    Grape(GrapeError),
}

impl std::fmt::Display for DurationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Unconverged(e) => e.fmt(f),
            Self::Grape(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for DurationError {}

impl From<GrapeError> for DurationError {
    fn from(e: GrapeError) -> Self {
        Self::Grape(e)
    }
}

/// Finds a (near-)minimal-duration pulse implementing `target`.
///
/// # Errors
///
/// Returns [`DurationError::Unconverged`] when even `max_slots` slots
/// cannot reach the fidelity threshold, and [`DurationError::Grape`] when
/// a probe fails outright.
pub fn minimize_duration(
    device: &DeviceModel,
    target: &Matrix,
    config: &DurationSearchConfig,
) -> Result<PulseSolution, DurationError> {
    minimize_duration_with_cancel(device, target, config, &CancelScope::none())
}

/// [`minimize_duration`] with a cooperative-cancellation scope threaded
/// into every GRAPE probe. The scope's budget spans the *whole* search
/// (all probes share one counter), so a budgeted search degrades exactly
/// once per block regardless of worker count or probe order.
///
/// # Errors
///
/// All of [`minimize_duration`]'s errors; a hard cancel surfaces as
/// [`DurationError::Grape`] wrapping [`GrapeError::Canceled`].
pub fn minimize_duration_with_cancel(
    device: &DeviceModel,
    target: &Matrix,
    config: &DurationSearchConfig,
    cancel: &CancelScope,
) -> Result<PulseSolution, DurationError> {
    let _span = epoc_rt::telemetry::span("qoc", "duration_search");
    let mut search = Search {
        grape: GrapeSession::new(device, target, &config.grape, cancel),
        target,
        config,
        probes: 0,
        verdicts: BTreeMap::new(),
    };
    let (n_slots, result) = search.run()?;
    Ok(PulseSolution {
        fidelity: phase_invariant_fidelity(&result.unitary, target),
        result,
        n_slots,
        probes: search.probes,
        total_iterations: search.grape.steps(),
    })
}

/// What the search holds for one end of its bracket.
enum End {
    /// Nothing to confirm: a failing end that was never probed (assumed,
    /// as AccQOC's protocol does) or whose failure is final.
    Settled,
    /// A provisional verdict, with the run that reached it suspended.
    Suspended(GrapeRun),
    /// A verdict whose run was dropped. Confirming it runs the probe again
    /// from the start, which is deterministic.
    Dropped,
    /// A passing end whose run has finished.
    Finished(GrapeResult),
}

/// A verdict the search has reached at one slot count.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    pass: bool,
    /// Reached by a finished run rather than provisionally.
    confirmed: bool,
}

struct Search<'a> {
    grape: GrapeSession<'a>,
    target: &'a Matrix,
    config: &'a DurationSearchConfig,
    probes: usize,
    /// The latest verdict at every slot count probed.
    verdicts: BTreeMap<usize, Verdict>,
}

impl Search<'_> {
    /// Grows the slot count, then bisects the bracket until it closes on
    /// two neighbouring counts, and confirms both ends. A confirmation
    /// that flips a verdict reopens the bracket where a search on finished
    /// runs would have had it, and the search goes on from there.
    fn run(&mut self) -> Result<(usize, GrapeResult), DurationError> {
        let max = self.config.max_slots;
        let mut next = self.config.initial_slots.max(1);
        'grow: loop {
            let (mut hi_n, mut hi, last_fail) = self.grow(next)?;
            // The failing end is half the passing probe: the growth probe
            // before it, or, when the first probe passed, a count assumed
            // to fail.
            let mut lo_n = hi_n / 2;
            let mut lo = match last_fail {
                Some(run) if run.n_slots() == lo_n => End::Suspended(run),
                _ => self.end_at(lo_n),
            };
            loop {
                while hi_n - lo_n > 1 {
                    let mid = (lo_n + hi_n) / 2;
                    let (pass, run) = self.probe(mid)?;
                    if pass {
                        hi_n = mid;
                        hi = End::Suspended(run);
                    } else {
                        lo_n = mid;
                        lo = End::Suspended(run);
                    }
                }
                // The bracket is closed: finish both ends, passing end first.
                let Some(result) = self.confirm(hi_n, hi)? else {
                    unreachable!("the passing end of the bracket was probed");
                };
                if !self.settle(hi_n, &result) {
                    lo_n = hi_n;
                    lo = End::Settled;
                    match self.nearest_pass_above(hi_n) {
                        Some(n) => {
                            hi_n = n;
                            hi = self.end_at(n);
                            continue;
                        }
                        None if hi_n >= max => return Err(self.unconverged(result.fidelity)),
                        None => {
                            next = (hi_n * 2).min(max);
                            continue 'grow;
                        }
                    }
                }
                if let Some(lo_result) = self.confirm(lo_n, lo)? {
                    if self.settle(lo_n, &lo_result) {
                        hi_n = lo_n;
                        hi = End::Finished(lo_result);
                        match self.nearest_fail_below(lo_n) {
                            Some(n) => {
                                lo_n = n;
                                lo = self.end_at(n);
                            }
                            None => {
                                lo_n = self.config.initial_slots.max(1) / 2;
                                lo = End::Settled;
                            }
                        }
                        continue;
                    }
                }
                return Ok((hi_n, result));
            }
        }
    }

    /// Doubles the slot count from `n` (capped at `max_slots`) until a
    /// probe passes, and returns that probe with the last failing one. A
    /// failure at the cap is finished before the search gives up.
    fn grow(&mut self, mut n: usize) -> Result<(usize, End, Option<GrapeRun>), DurationError> {
        let max = self.config.max_slots;
        let mut last_fail = None;
        loop {
            let (pass, run) = self.probe(n)?;
            if pass {
                return Ok((n, End::Suspended(run), last_fail));
            }
            if n >= max {
                let result = self.grape.finish(run)?;
                if self.settle(n, &result) {
                    return Ok((n, End::Finished(result), last_fail));
                }
                return Err(self.unconverged(result.fidelity));
            }
            last_fail = Some(run);
            n = (n * 2).min(max);
        }
    }

    /// Starts a GRAPE run at `n` slots and decides it provisionally.
    fn probe(&mut self, n: usize) -> Result<(bool, GrapeRun), GrapeError> {
        let mut run = self.start(n)?;
        let pass = self
            .grape
            .decide(&mut run, self.config.fidelity_threshold)?;
        self.verdicts.insert(
            n,
            Verdict {
                pass,
                confirmed: false,
            },
        );
        Ok((pass, run))
    }

    fn start(&mut self, n: usize) -> Result<GrapeRun, GrapeError> {
        self.probes += 1;
        epoc_rt::telemetry::counter_add("grape.probes", 1);
        self.grape.start(n)
    }

    /// Finishes the run behind a bracket end, or `None` for a settled one.
    fn confirm(&mut self, n: usize, end: End) -> Result<Option<GrapeResult>, GrapeError> {
        let run = match end {
            End::Settled => return Ok(None),
            End::Finished(result) => return Ok(Some(result)),
            End::Suspended(run) => run,
            End::Dropped => self.start(n)?,
        };
        self.grape.finish(run).map(Some)
    }

    /// Records the finished verdict at `n` and returns it, counting a
    /// flip of the provisional one. A finished run passes when both its
    /// last evaluated iterate and its returned waveform reach the
    /// threshold: a restart that ran out of iterations took one more Adam
    /// step after its last evaluation, and that step can lose fidelity
    /// (1.9e-3 on one of vqe_n4's blocks).
    fn settle(&mut self, n: usize, result: &GrapeResult) -> bool {
        let threshold = self.config.fidelity_threshold;
        let pass = result.fidelity >= threshold
            && phase_invariant_fidelity(&result.unitary, self.target) >= threshold;
        let verdict = Verdict {
            pass,
            confirmed: true,
        };
        if self
            .verdicts
            .insert(n, verdict)
            .is_some_and(|v| v.pass != pass)
        {
            epoc_rt::telemetry::counter_add("grape.reopened", 1);
        }
        pass
    }

    /// The bracket end for slot count `n`, from its verdict.
    fn end_at(&self, n: usize) -> End {
        match self.verdicts.get(&n) {
            Some(v) if v.pass || !v.confirmed => End::Dropped,
            _ => End::Settled,
        }
    }

    fn nearest_pass_above(&self, n: usize) -> Option<usize> {
        self.verdicts
            .range(n + 1..)
            .find(|(_, v)| v.pass)
            .map(|(&k, _)| k)
    }

    fn nearest_fail_below(&self, n: usize) -> Option<usize> {
        self.verdicts
            .range(..n)
            .rev()
            .find(|(_, v)| !v.pass)
            .map(|(&k, _)| k)
    }

    fn unconverged(&self, best_fidelity: f64) -> DurationError {
        DurationError::Unconverged(SearchDurationError {
            best_fidelity,
            max_slots: self.config.max_slots,
            probes: self.probes,
            total_iterations: self.grape.steps(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grape::{grape, propagate};
    use epoc_circuit::Gate;

    #[test]
    fn finds_minimal_x_duration() {
        let d = DeviceModel::transmon_line(1).unwrap();
        let sol = minimize_duration(
            &d,
            &Gate::X.unitary_matrix(),
            &DurationSearchConfig {
                initial_slots: 4,
                ..Default::default()
            },
        )
        .expect("X is reachable");
        // Analytic minimum: π / a_max = 25 ns = 12.5 slots → ≥ 13 slots.
        assert!(sol.n_slots >= 12, "too short: {}", sol.n_slots);
        assert!(sol.n_slots <= 20, "binary search missed: {}", sol.n_slots);
        assert!(sol.result.fidelity >= 0.999);
        assert!(sol.probes >= 3);
    }

    #[test]
    fn identity_needs_minimal_slots() {
        let d = DeviceModel::transmon_line(1).unwrap();
        let sol = minimize_duration(
            &d,
            &Matrix::identity(2),
            &DurationSearchConfig {
                initial_slots: 2,
                ..Default::default()
            },
        )
        .expect("identity is trivially reachable");
        assert!(sol.n_slots <= 2);
    }

    #[test]
    fn unreachable_target_errors() {
        let d = DeviceModel::transmon_line(1).unwrap();
        let err = minimize_duration(
            &d,
            &Gate::X.unitary_matrix(),
            &DurationSearchConfig {
                initial_slots: 1,
                max_slots: 4, // 8 ns < 25 ns minimum
                ..Default::default()
            },
        )
        .unwrap_err();
        let DurationError::Unconverged(err) = err else {
            panic!("expected a soft non-convergence, got {err}");
        };
        assert!(err.best_fidelity < 0.999);
        assert_eq!(err.max_slots, 4);
    }

    /// The search's answer is bracketed by finished runs: an
    /// uninterrupted [`grape`] run passes at `n*` — and is the returned
    /// pulse, bit for bit — and fails at `n* − 1`, however the provisional
    /// verdicts steered the search. The solution's fidelity is the
    /// returned waveform's own, as the electronics play it. Checked with
    /// ideal electronics and under `transmon_awg_8bit`.
    #[test]
    fn answer_is_bracketed_by_uninterrupted_runs() {
        let d1 = DeviceModel::transmon_line(1).unwrap();
        let d2 = DeviceModel::transmon_line(2).unwrap();
        for hw in [None, Some(epoc_hw::HardwareProfile::transmon_awg_8bit())] {
            let mut config = DurationSearchConfig::default();
            config.grape.hw = hw.clone();
            let threshold = config.fidelity_threshold;
            for (device, gate) in [
                (&d1, Gate::X),
                (&d1, Gate::H),
                (&d2, Gate::CZ),
                (&d2, Gate::CX),
            ] {
                let target = gate.unitary_matrix();
                let passes = |r: &GrapeResult| {
                    r.fidelity >= threshold
                        && phase_invariant_fidelity(&r.unitary, &target) >= threshold
                };
                let sol = minimize_duration(device, &target, &config).unwrap();
                let n = sol.n_slots;
                let at = grape(device, &target, n, &config.grape).unwrap();
                assert!(passes(&at), "{gate:?} at {n}");
                assert_eq!(
                    at.fidelity.to_bits(),
                    sol.result.fidelity.to_bits(),
                    "{gate:?}"
                );
                assert_eq!(at.controls, sol.result.controls, "{gate:?}");
                let mut played = sol.result.controls.clone();
                if let Some(profile) = &hw {
                    let mut ws = epoc_hw::ConditionWorkspace::new();
                    let (dt, a_max) = (device.dt(), device.max_amplitude());
                    profile.condition_controls(dt, a_max, &mut played, &mut ws);
                }
                let own = phase_invariant_fidelity(&propagate(device, &played).unwrap(), &target);
                assert!(
                    (sol.fidelity - own).abs() <= 1e-12,
                    "{gate:?}: {} vs {own}",
                    sol.fidelity
                );
                let below = grape(device, &target, n - 1, &config.grape).unwrap();
                assert!(!passes(&below), "{gate:?} at {}", n - 1);
            }
        }
    }

    #[test]
    fn rz_cheap_z_rotations() {
        // Z rotations only need drive time proportional to angle via
        // X/Y composite; still reachable.
        let d = DeviceModel::transmon_line(1).unwrap();
        let sol = minimize_duration(
            &d,
            &Gate::S.unitary_matrix(),
            &DurationSearchConfig::default(),
        )
        .expect("S reachable");
        assert!(sol.result.fidelity >= 0.999);
    }
}
