//! # epoc-rt — the hermetic runtime under every EPOC crate
//!
//! The workspace builds and tests fully offline: no crates-io registry,
//! no vendored sources. Everything the other crates used to pull from
//! external dependencies lives here, implemented on `std` alone:
//!
//! * [`rng`] — a seedable xoshiro256** PRNG (SplitMix64 seeding) with the
//!   sampling helpers the compiler needs (`gen_f64`, `gen_range`,
//!   `gen_gaussian` via Box–Muller). Replaces `rand`.
//! * [`check`] — a minimal property-based testing harness: seeded case
//!   generation, bounded choice-stream shrinking, and explicit regression
//!   replay. Replaces `proptest`.
//! * [`pool`] — scoped-thread parallel map over a slice with a
//!   configurable worker count. Replaces `crossbeam::thread::scope` (and
//!   the `parking_lot` locks around it).
//! * [`json`] — an escape-correct JSON value tree with a pretty printer
//!   whose `f64` formatting round-trips. Replaces `serde`/`serde_json`.
//! * [`bench`] — a tiny wall-clock benchmark harness (median-of-N with
//!   warmup). Replaces `criterion` for the stage benches.
//! * [`telemetry`] — RAII spans, monotonic counters, and log-2 histograms
//!   with Chrome trace-event export. Replaces `tracing`/`metrics`; off by
//!   default with a one-atomic-load fast path.
//! * [`faults`] — deterministic, seeded fault injection behind string
//!   labels (always / nth-hit / first-hits / keyed-probability triggers)
//!   for chaos testing. Replaces `fail`; disarmed fail points cost one
//!   atomic load.
//! * [`cancel`] — cooperative cancellation tokens carrying wall-clock
//!   deadlines and deterministic work budgets, polled at fixed points in
//!   the optimizer hot loops. Replaces `tokio_util::sync::CancellationToken`
//!   with a poll-based design that keeps budgeted outcomes byte-identical
//!   at any worker count.
//!
//! Every module is deliberately small: the goal is not to reimplement the
//! upstream crates, only the narrow slices the workspace consumes, with
//! deterministic behavior under a fixed seed so pipeline reports are
//! byte-identical regardless of worker count.

#![warn(missing_docs)]

pub mod bench;
pub mod cancel;
pub mod check;
pub mod faults;
pub mod json;
pub mod pool;
pub mod rng;
pub mod telemetry;

/// 64-bit FNV-1a over `bytes`: the workspace's one stable, platform-
/// independent byte hash (property-test seeds, fault-label draws,
/// pulse-library record checksums, hardware-profile hashes).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    /// The FNV-1a test vectors for "" (the offset basis) and "a": the
    /// hashes above feed persisted checksums and profile keys, so they
    /// must never move.
    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
