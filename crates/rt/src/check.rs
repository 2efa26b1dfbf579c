//! A minimal property-based testing harness.
//!
//! Replaces the workspace's use of `proptest`: seeded case generation,
//! bounded shrinking, and regression replay, in ~200 lines on `std`.
//!
//! A property draws its inputs from a [`Gen`] and fails by panicking
//! (plain `assert!`s work unchanged). Internally every draw is recorded as
//! a *choice* (a `u64`); on failure the harness shrinks the recorded
//! choice stream — zeroing and halving entries, bounded by
//! [`Property::max_shrink`] attempts — and reports the smallest stream
//! that still fails. That stream can be pinned with
//! [`Property::regression`] so the failure is replayed first on every
//! future run (the same intent as proptest's `.proptest-regressions`
//! files, but explicit in the test source instead of a side file).
//!
//! ```
//! epoc_rt::check::property("add_commutes").cases(32).run(|g| {
//!     let a = g.usize_in(0, 1000);
//!     let b = g.usize_in(0, 1000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use crate::rng::{Rng, SplitMix64, StdRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Starts building a property check. The name seeds case generation (so
/// distinct properties explore distinct inputs) and labels failures.
pub fn property(name: &str) -> Property {
    Property {
        name: name.to_string(),
        cases: 48,
        seed: crate::fnv1a(name.as_bytes()),
        max_shrink: 256,
        regressions: Vec::new(),
    }
}

/// A configured property check; built by [`property`], executed by
/// [`Property::run`].
pub struct Property {
    name: String,
    cases: usize,
    seed: u64,
    max_shrink: usize,
    regressions: Vec<Vec<u64>>,
}

impl Property {
    /// Sets the number of random cases (default 48, matching the case
    /// count the workspace's proptest suites ran with).
    pub fn cases(mut self, cases: usize) -> Self {
        self.cases = cases;
        self
    }

    /// Overrides the generation seed (default: a hash of the name).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Bounds the number of shrink attempts after a failure (default 256).
    pub fn max_shrink(mut self, attempts: usize) -> Self {
        self.max_shrink = attempts;
        self
    }

    /// Pins a recorded choice stream as a regression case, replayed before
    /// any random cases. Copy the stream from a failure report.
    pub fn regression(mut self, choices: &[u64]) -> Self {
        self.regressions.push(choices.to_vec());
        self
    }

    /// Runs the property: all pinned regressions first, then `cases`
    /// random cases. Panics with a replayable report on the first failure
    /// (after shrinking it).
    pub fn run<F: Fn(&mut Gen)>(self, f: F) {
        for (i, pinned) in self.regressions.iter().enumerate() {
            if let Err(msg) = run_case(&f, pinned, 0) {
                panic!(
                    "property '{}' failed on pinned regression #{i}\n  choices: {pinned:?}\n  cause: {msg}",
                    self.name
                );
            }
        }
        let mut seeds = SplitMix64::new(self.seed);
        for case in 0..self.cases {
            let case_seed = seeds.next_u64();
            let fresh: Vec<u64> = Vec::new();
            if let Err((record, msg)) = run_recorded(&f, &fresh, case_seed) {
                let (shrunk, final_msg) = shrink(&f, record, msg, self.max_shrink);
                panic!(
                    "property '{}' failed on case {case}/{}\n  pin with: .regression(&{shrunk:?})\n  cause: {final_msg}",
                    self.name, self.cases
                );
            }
        }
    }
}

/// Runs one case, replaying `choices` (zero-padded past the end).
fn run_case<F: Fn(&mut Gen)>(f: &F, choices: &[u64], seed: u64) -> Result<(), String> {
    run_recorded(f, choices, seed).map_err(|(_, msg)| msg)
}

/// Runs one case and, on failure, returns the recorded choice stream.
fn run_recorded<F: Fn(&mut Gen)>(
    f: &F,
    replay: &[u64],
    seed: u64,
) -> Result<(), (Vec<u64>, String)> {
    let mut gen = Gen {
        rng: StdRng::seed_from_u64(seed),
        replay: replay.to_vec(),
        // A non-empty replay stream is a deterministic case: draws past
        // its end read 0 (the minimal choice) instead of fresh entropy.
        pad_zero: !replay.is_empty(),
        pos: 0,
        record: Vec::new(),
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut gen)));
    match outcome {
        Ok(()) => Ok(()),
        Err(payload) => Err((gen.record, panic_message(payload.as_ref())))
    }
}

/// Bounded shrinking: repeatedly try zeroing, then halving, each recorded
/// choice; keep any candidate that still fails. Greedy first-improvement,
/// stopped after `budget` candidate executions.
fn shrink<F: Fn(&mut Gen)>(
    f: &F,
    mut best: Vec<u64>,
    mut msg: String,
    budget: usize,
) -> (Vec<u64>, String) {
    let mut attempts = 0usize;
    let mut improved = true;
    while improved && attempts < budget {
        improved = false;
        for i in 0..best.len() {
            if best[i] == 0 {
                continue;
            }
            for candidate_value in [0, best[i] / 2] {
                if candidate_value == best[i] {
                    continue;
                }
                let mut candidate = best.clone();
                candidate[i] = candidate_value;
                attempts += 1;
                if let Err((_, m)) = run_recorded(f, &candidate, 0) {
                    best = candidate;
                    msg = m;
                    improved = true;
                    break;
                }
                if attempts >= budget {
                    return (best, msg);
                }
            }
        }
    }
    (best, msg)
}

/// The value source handed to a property. Every draw is recorded so a
/// failing case can be shrunk and replayed.
pub struct Gen {
    rng: StdRng,
    replay: Vec<u64>,
    pad_zero: bool,
    pos: usize,
    record: Vec<u64>,
}

impl Gen {
    /// One recorded choice in `[0, bound)`.
    fn choice(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let raw = if self.pos < self.replay.len() {
            self.replay[self.pos] % bound
        } else if self.pad_zero {
            0
        } else {
            self.rng.next_u64_below(bound)
        };
        self.pos += 1;
        self.record.push(raw);
        raw
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.choice((hi - lo) as u64) as usize
    }

    /// Uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.choice(hi - lo)
    }

    /// Uniform `f64` in `[lo, hi)`, quantized to 2^53 steps of the range
    /// so the drawn choice shrinks toward `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let steps = 1u64 << 53;
        let t = self.choice(steps) as f64 / steps as f64;
        lo + t * (hi - lo)
    }

    /// A recorded coin flip.
    pub fn bool(&mut self) -> bool {
        self.choice(2) == 1
    }

    /// A vector with a drawn length in `[min_len, max_len)`, elements
    /// produced by `f`.
    ///
    /// # Panics
    ///
    /// Panics if `min_len >= max_len`.
    pub fn vec<T>(&mut self, min_len: usize, max_len: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let len = self.usize_in(min_len, max_len);
        (0..len).map(|_| f(self)).collect()
    }
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        property("trivially_true").cases(17).run(|g| {
            let _ = g.usize_in(0, 10);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn failing_property_panics_with_pin_line() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            property("always_fails").cases(4).run(|g| {
                let v = g.usize_in(0, 100);
                assert!(v > 1000, "v was {v}");
            });
        }))
        .expect_err("property should fail");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("always_fails"), "{msg}");
        assert!(msg.contains(".regression(&"), "{msg}");
    }

    #[test]
    fn shrinking_reaches_minimal_counterexample() {
        // Fails whenever x >= 10; the minimal failing choice is x = 10.
        let err = catch_unwind(AssertUnwindSafe(|| {
            property("shrinks_to_ten").cases(200).run(|g| {
                let x = g.usize_in(0, 1_000_000);
                assert!(x < 10, "x = {x}");
            });
        }))
        .expect_err("property should fail");
        let msg = panic_message(err.as_ref());
        // The zero/halving shrinker on a single choice converges to a
        // value in [10, 19]: halving stops once v/2 passes.
        let pinned: u64 = msg
            .split(".regression(&[")
            .nth(1)
            .and_then(|s| s.split(']').next())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or_else(|| panic!("no pinned stream in: {msg}"));
        assert!((10..20).contains(&pinned), "shrunk to {pinned}: {msg}");
    }

    #[test]
    fn regression_replay_is_deterministic() {
        // A pinned stream replays exactly the encoded values.
        property("replay_exact")
            .regression(&[7, 3])
            .cases(0)
            .run(|g| {
                assert_eq!(g.usize_in(0, 100), 7);
                assert_eq!(g.usize_in(0, 100), 3);
                // Draws past the pinned stream read the minimal choice.
                assert_eq!(g.usize_in(5, 50), 5);
            });
    }

    #[test]
    fn same_name_same_cases() {
        let mut first: Vec<usize> = Vec::new();
        {
            let v = std::sync::Mutex::new(&mut first);
            property("stable_stream").cases(5).run(|g| {
                v.lock().unwrap().push(g.usize_in(0, 1_000_000));
            });
        }
        let mut second: Vec<usize> = Vec::new();
        {
            let v = std::sync::Mutex::new(&mut second);
            property("stable_stream").cases(5).run(|g| {
                v.lock().unwrap().push(g.usize_in(0, 1_000_000));
            });
        }
        assert_eq!(first, second);
        assert!(first.windows(2).any(|w| w[0] != w[1]), "degenerate stream");
    }

    #[test]
    fn f64_draws_stay_in_range() {
        property("f64_bounds").cases(64).run(|g| {
            let x = g.f64_in(-2.5, 2.5);
            assert!((-2.5..2.5).contains(&x));
        });
    }

    #[test]
    fn vec_length_respected() {
        property("vec_len").cases(32).run(|g| {
            let v = g.vec(1, 20, |g| g.f64_in(-0.5, 0.5));
            assert!((1..20).contains(&v.len()));
        });
    }
}
