//! Deterministic, seeded fault injection for chaos testing.
//!
//! Production code plants *fail points* — named markers at the places
//! where an operation can legitimately fail (an optimizer not converging,
//! a cache dropping an entry, a simulator step erroring). A disarmed fail
//! point is **one relaxed atomic load** and an immediate `false`, the same
//! fast-path discipline as [`crate::telemetry`], so instrumented hot loops
//! cost nothing in production runs.
//!
//! Tests and the `epocc --faults` CLI arm points by string label with a
//! [`Trigger`]:
//!
//! * [`Trigger::Always`] — every consult fires (failure storms);
//! * [`Trigger::NthHit`]`(n)` — only the `n`-th consult fires (surgical,
//!   for serial code paths where the consult order is deterministic);
//! * [`Trigger::FirstHits`]`(n)` — the first `n` consults fire (force one
//!   attempt to fail and let its retry succeed);
//! * [`Trigger::Probability`]`(p)` — fires when a **pure hash** of
//!   `(global seed, label, caller key)` lands below `p`.
//!
//! Probability decisions deliberately avoid the hit counter: parallel
//! stages consult fail points in a thread-dependent order, and a
//! counter-keyed coin flip would make injected failures — and therefore
//! the recovery ladder — depend on worker count. Call sites inside
//! parallel code use [`fail_point_keyed`] with a key derived from their
//! *inputs* (e.g. a fingerprint of the target unitary plus the search
//! configuration), so the same work item draws the same fate on every
//! thread schedule. Counter-based triggers (`NthHit`/`FirstHits`) are for
//! serial paths only, where hit order is already deterministic.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// When an armed fail point fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every consult fires.
    Always,
    /// Only the `n`-th consult (1-based) fires.
    NthHit(u64),
    /// The first `n` consults fire; later consults pass.
    FirstHits(u64),
    /// Fires when `hash(seed, label, key)` maps below `p` in `[0, 1)`.
    Probability(f64),
}

struct Point {
    trigger: Trigger,
    hits: u64,
    fires: u64,
}

struct Registry {
    seed: u64,
    points: HashMap<String, Point>,
}

/// Fast-path switch: `true` iff at least one point is armed.
static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            seed: 0,
            points: HashMap::new(),
        })
    })
}

/// Poison-recovering lock: a panicked consumer (chaos tests panic on
/// purpose) must not wedge the registry for the rest of the process.
fn lock() -> MutexGuard<'static, Registry> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// `true` when at least one fail point is armed (one relaxed atomic load).
#[inline]
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Sets the global fault seed feeding every [`Trigger::Probability`]
/// decision. Does not reset armed points or counters.
pub fn set_seed(seed: u64) {
    lock().seed = seed;
}

/// Arms (or re-arms) `label` with `trigger`, resetting its hit and fire
/// counters.
pub fn arm(label: &str, trigger: Trigger) {
    let mut r = lock();
    r.points.insert(
        label.to_string(),
        Point {
            trigger,
            hits: 0,
            fires: 0,
        },
    );
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms `label` (no-op when not armed).
pub fn disarm(label: &str) {
    let mut r = lock();
    r.points.remove(label);
    if r.points.is_empty() {
        ARMED.store(false, Ordering::Relaxed);
    }
}

/// Disarms everything and clears the global fault seed.
pub fn disarm_all() {
    let mut r = lock();
    r.points.clear();
    r.seed = 0;
    ARMED.store(false, Ordering::Relaxed);
}

/// Consults recorded for `label` so far (0 when never armed).
pub fn hits(label: &str) -> u64 {
    lock().points.get(label).map_or(0, |p| p.hits)
}

/// Times `label` actually fired so far (0 when never armed).
pub fn fires(label: &str) -> u64 {
    lock().points.get(label).map_or(0, |p| p.fires)
}

/// SplitMix64 finalizer: the bit mixer behind every keyed decision.
#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Folds `v` into hash state `h`. Callers build deterministic keys for
/// [`fail_point_keyed`] by chaining: `mix(mix(0, a), b)`.
#[inline]
pub fn mix(h: u64, v: u64) -> u64 {
    splitmix(h ^ v)
}

/// Folds an `f64` into hash state `h` by its bit pattern.
#[inline]
pub fn mix_f64(h: u64, v: f64) -> u64 {
    mix(h, v.to_bits())
}

/// The uniform draw in `[0, 1)` a probability trigger on `label` compares
/// against `p` for the given `key` under the current seed. Exposed so
/// tests can pick thresholds that hit exactly the attempt they target.
pub fn decision_unit(label: &str, key: u64) -> f64 {
    let seed = lock().seed;
    decision_unit_seeded(seed, label, key)
}

fn decision_unit_seeded(seed: u64, label: &str, key: u64) -> f64 {
    // The label's FNV-1a hash: distinct labels with the same key draw
    // independent fates.
    let h = splitmix(seed ^ crate::fnv1a(label.as_bytes()) ^ splitmix(key));
    // 53 mantissa bits → exact uniform on a 2^-53 grid.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn consult(label: &str, key: Option<u64>) -> bool {
    let mut r = lock();
    let seed = r.seed;
    let Some(p) = r.points.get_mut(label) else {
        return false;
    };
    p.hits += 1;
    let fired = match p.trigger {
        Trigger::Always => true,
        Trigger::NthHit(n) => p.hits == n,
        Trigger::FirstHits(n) => p.hits <= n,
        Trigger::Probability(prob) => {
            // Counter-keyed when the caller passed no key: fine for serial
            // paths, thread-schedule-dependent in parallel ones (use
            // `fail_point_keyed` there).
            let key = key.unwrap_or(p.hits);
            decision_unit_seeded(seed, label, key) < prob
        }
    };
    if fired {
        p.fires += 1;
    }
    fired
}

/// Consults the fail point `label`; `true` means "inject a failure here".
/// Counter-ordered: use only on serial code paths (disarmed: one atomic
/// load).
#[inline]
pub fn fail_point(label: &str) -> bool {
    if !is_armed() {
        return false;
    }
    consult(label, None)
}

/// Consults `label` with a caller-supplied deterministic `key` (build it
/// with [`mix`]/[`mix_f64`] from the operation's inputs). Probability
/// decisions become pure functions of `(seed, label, key)` — safe inside
/// parallel stages. Disarmed: one atomic load.
#[inline]
pub fn fail_point_keyed(label: &str, key: u64) -> bool {
    if !is_armed() {
        return false;
    }
    consult(label, Some(key))
}

/// Arms fail points from a CLI/env spec: comma-separated `label=trigger`
/// with triggers `always`, `pP` (probability, e.g. `p0.25`), `nN`
/// (nth-hit), `fN` (first-N-hits).
///
/// ```
/// epoc_rt::faults::arm_from_spec("grape.converge=always,qsearch.budget=p0.5").unwrap();
/// assert!(epoc_rt::faults::is_armed());
/// epoc_rt::faults::disarm_all();
/// ```
pub fn arm_from_spec(spec: &str) -> Result<(), String> {
    for part in spec.split(',').filter(|s| !s.is_empty()) {
        let (label, trig) = part
            .split_once('=')
            .ok_or_else(|| format!("fault spec '{part}' is not label=trigger"))?;
        let trigger = if trig == "always" {
            Trigger::Always
        } else if let Some(p) = trig.strip_prefix('p') {
            let p: f64 = p
                .parse()
                .map_err(|_| format!("fault spec '{part}': bad probability '{trig}'"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("fault spec '{part}': probability out of [0, 1]"));
            }
            Trigger::Probability(p)
        } else if let Some(n) = trig.strip_prefix('n') {
            Trigger::NthHit(
                n.parse()
                    .map_err(|_| format!("fault spec '{part}': bad hit index '{trig}'"))?,
            )
        } else if let Some(n) = trig.strip_prefix('f') {
            Trigger::FirstHits(
                n.parse()
                    .map_err(|_| format!("fault spec '{part}': bad hit count '{trig}'"))?,
            )
        } else {
            return Err(format!(
                "fault spec '{part}': unknown trigger '{trig}' (always | pP | nN | fN)"
            ));
        };
        arm(label.trim(), trigger);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fault state is global; tests in this binary serialize on this.
    fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_points_never_fire() {
        let _g = test_lock();
        disarm_all();
        assert!(!is_armed());
        assert!(!fail_point("nope"));
        assert!(!fail_point_keyed("nope", 7));
        assert_eq!(hits("nope"), 0);
    }

    #[test]
    fn always_fires_every_hit() {
        let _g = test_lock();
        disarm_all();
        arm("t.always", Trigger::Always);
        assert!(fail_point("t.always"));
        assert!(fail_point("t.always"));
        assert_eq!(hits("t.always"), 2);
        assert_eq!(fires("t.always"), 2);
        // Unarmed labels stay silent even while others are armed.
        assert!(!fail_point("t.other"));
        disarm_all();
    }

    #[test]
    fn nth_hit_fires_exactly_once() {
        let _g = test_lock();
        disarm_all();
        arm("t.nth", Trigger::NthHit(3));
        let fired: Vec<bool> = (0..5).map(|_| fail_point("t.nth")).collect();
        assert_eq!(fired, [false, false, true, false, false]);
        assert_eq!(fires("t.nth"), 1);
        disarm_all();
    }

    #[test]
    fn first_hits_fires_then_stops() {
        let _g = test_lock();
        disarm_all();
        arm("t.first", Trigger::FirstHits(2));
        let fired: Vec<bool> = (0..4).map(|_| fail_point("t.first")).collect();
        assert_eq!(fired, [true, true, false, false]);
        disarm_all();
    }

    #[test]
    fn keyed_probability_is_a_pure_function() {
        let _g = test_lock();
        disarm_all();
        set_seed(42);
        arm("t.prob", Trigger::Probability(0.5));
        let a: Vec<bool> = (0..32).map(|k| fail_point_keyed("t.prob", k)).collect();
        // Re-arm (resets counters) and consult in reverse order: keyed
        // decisions must not depend on consult order.
        arm("t.prob", Trigger::Probability(0.5));
        let b: Vec<bool> = (0..32)
            .rev()
            .map(|k| fail_point_keyed("t.prob", k))
            .collect();
        let b_fwd: Vec<bool> = b.into_iter().rev().collect();
        assert_eq!(a, b_fwd);
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f), "p=0.5 over 32 keys");
        // A different seed redraws the fates.
        set_seed(43);
        arm("t.prob", Trigger::Probability(0.5));
        let c: Vec<bool> = (0..32).map(|k| fail_point_keyed("t.prob", k)).collect();
        assert_ne!(a, c);
        disarm_all();
    }

    #[test]
    fn decision_unit_matches_fired_outcome() {
        let _g = test_lock();
        disarm_all();
        set_seed(7);
        let u = decision_unit("t.du", 99);
        assert!((0.0..1.0).contains(&u));
        arm("t.du", Trigger::Probability(u + 1e-9));
        assert!(fail_point_keyed("t.du", 99), "threshold just above the draw");
        arm("t.du", Trigger::Probability(u - 1e-9));
        assert!(!fail_point_keyed("t.du", 99), "threshold just below the draw");
        disarm_all();
    }

    #[test]
    fn spec_parsing_arms_and_rejects() {
        let _g = test_lock();
        disarm_all();
        arm_from_spec("a=always, b=p0.25,c=n2,d=f3").unwrap();
        assert!(fail_point("a"));
        assert!(!fail_point("c") && fail_point("c"));
        assert!(fail_point("d"));
        assert!(arm_from_spec("bogus").is_err());
        assert!(arm_from_spec("x=p1.5").is_err());
        assert!(arm_from_spec("x=zzz").is_err());
        assert!(arm_from_spec("x=nq").is_err());
        disarm_all();
        assert!(!is_armed());
    }

    #[test]
    fn mix_chains_are_order_sensitive() {
        assert_ne!(mix(mix(0, 1), 2), mix(mix(0, 2), 1));
        assert_ne!(mix_f64(0, 1.0), mix_f64(0, -1.0));
        assert_eq!(mix(7, 9), mix(7, 9));
    }
}
