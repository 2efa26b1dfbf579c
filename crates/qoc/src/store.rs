//! Pulse-library storage: one locked map with a logical LRU clock and an
//! optional byte budget.
//!
//! Persistence (load-on-start / save-on-checkpoint) is layered on top in
//! [`crate::journal`]: a checkpoint writes the store's snapshot, sorted
//! by key, as journal records, so library files are byte-deterministic
//! whatever the insertion history, and a load puts records straight into
//! the store.
//!
//! # Determinism
//!
//! The pipeline only touches the library from its *serial* phases
//! (classification and replay — see the 4-stage scheme in
//! `epoc::pipeline`), and `epocd` compiles one job at a time, so the LRU
//! clock advances in a deterministic order and eviction decisions are
//! byte-identical at any worker count. With no concurrent caller, one
//! lock is all the store needs.

use crate::library::{CacheKey, KeyPolicy, PulseEntry};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Applies resident-size deltas to the process-global library gauges.
/// Every put and eviction funnels its accounting through here, so
/// `pulse_lib.resident_bytes` / `pulse_lib.entries` stay correct even
/// when several libraries (the GRAPE and model sections of one compiler,
/// or several compilers) share the one telemetry registry — deltas are
/// commutative where absolute sets would clobber each other.
fn gauge_resident(bytes_delta: i64, entries_delta: i64) {
    epoc_rt::telemetry::gauge_add("pulse_lib.resident_bytes", bytes_delta);
    epoc_rt::telemetry::gauge_add("pulse_lib.entries", entries_delta);
}

/// Estimated resident size of one cache entry: the waveform payload
/// (which dominates), the quantized key cells, and a fixed allowance for
/// map/Arc overhead. An estimate is enough — the budget is a resource
/// guard, not an allocator ledger.
pub fn entry_bytes(key: &CacheKey, entry: &PulseEntry) -> u64 {
    let waveform = entry
        .waveform
        .as_ref()
        .map_or(0, |w| (w.n_channels() * w.n_slots() * 8) as u64);
    waveform + (key.cell_count() * 8) as u64 + 96
}

/// Configuration of the library's store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreConfig {
    /// Byte budget of one library. `Some` caps that library's resident
    /// size with strict LRU eviction over all its entries; `None` grows
    /// unbounded. A compiler gives the same budget to each of its
    /// libraries, so a hybrid compiler's two may hold twice it together.
    pub budget_bytes: Option<u64>,
}

/// A pulse-library persistence failure. Corrupted library files and
/// journals surface here — callers degrade to a cold cache rather than
/// panic. (A torn last record is not a failure: the loader keeps the
/// whole records before it.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LibraryError {
    /// Reading or writing the library file failed.
    Io {
        /// The file involved.
        path: String,
        /// The OS error text.
        message: String,
    },
    /// The file exists but is not a valid library: a terminated line
    /// that fails to parse or checksum-match, a malformed entry, or a
    /// line that is not a record at all (an old-format or foreign file).
    Corrupt {
        /// The file involved.
        path: String,
        /// Why it was rejected.
        reason: String,
    },
    /// The file stores entries for a different key policy than the
    /// library it was loaded into.
    PolicyMismatch {
        /// The loading library's policy.
        expected: KeyPolicy,
        /// The policy named in the file.
        found: String,
    },
    /// The file stores pulses optimized under a different hardware
    /// profile than the library it was loaded into: serving them would
    /// silently play mis-conditioned waveforms, so the load fails closed
    /// and the caller compiles cold.
    HwProfileMismatch {
        /// The loading library's profile hash (0 = ideal electronics).
        expected: u64,
        /// The profile hash recorded in the file.
        found: u64,
    },
}

impl std::fmt::Display for LibraryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, message } => write!(f, "library file {path}: {message}"),
            Self::Corrupt { path, reason } => {
                write!(f, "library file {path} is corrupt: {reason}")
            }
            Self::PolicyMismatch { expected, found } => write!(
                f,
                "library key-policy mismatch: store uses {expected:?}, file holds '{found}'"
            ),
            Self::HwProfileMismatch { expected, found } => write!(
                f,
                "library hardware-profile mismatch: store expects {expected:016x}, \
                 file holds {found:016x}"
            ),
        }
    }
}

impl std::error::Error for LibraryError {}

/// One entry plus its last-touch stamp on the store's logical clock.
#[derive(Debug)]
struct Slot {
    entry: PulseEntry,
    stamp: u64,
}

/// The map, a logical clock (bumped on every get/put, so stamps are
/// unique and eviction order has no ties), and running totals.
#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CacheKey, Slot>,
    clock: u64,
    bytes: u64,
    evictions: u64,
}

/// The pulse library's store. Under a byte budget, eviction is a
/// *strict* LRU over the whole library: inserting an entry evicts
/// least-recently-used entries until the store fits, and an entry that
/// alone exceeds the budget is not stored at all — the caller already
/// holds the computed value, and a later lookup simply recomputes (the
/// schedule stage's recompute rung absorbs exactly this case).
#[derive(Debug)]
pub struct PulseStore {
    inner: Mutex<Inner>,
    budget_bytes: Option<u64>,
}

impl PulseStore {
    /// Creates an empty store, unbounded when `budget_bytes` is `None`.
    pub fn new(budget_bytes: Option<u64>) -> Self {
        Self {
            inner: Mutex::default(),
            budget_bytes,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Retrieves the entry for `key`, refreshing its recency stamp.
    pub fn get(&self, key: &CacheKey) -> Option<PulseEntry> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        inner.map.get_mut(key).map(|slot| {
            slot.stamp = clock;
            slot.entry.clone()
        })
    }

    /// Inserts (or replaces) the entry for `key`, then evicts
    /// least-recently-used entries until the store fits its budget.
    pub fn put(&self, key: CacheKey, entry: PulseEntry) {
        let added = entry_bytes(&key, &entry);
        let mut delta = added as i64;
        let mut new_entries = 1i64;
        let mut inner = self.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(old) = inner.map.insert(key.clone(), Slot { entry, stamp }) {
            let removed = entry_bytes(&key, &old.entry);
            inner.bytes -= removed;
            delta -= removed as i64;
            new_entries = 0;
        }
        inner.bytes += added;
        gauge_resident(delta, new_entries);
        let Some(budget) = self.budget_bytes else {
            return;
        };
        while inner.bytes > budget {
            // Unique stamps mean a unique minimum: eviction order is a
            // pure function of the access history.
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.stamp)
                .map(|(k, _)| k.clone())
                .expect("a store over its budget holds an entry");
            let slot = inner.map.remove(&victim).expect("victim is resident");
            let removed = entry_bytes(&victim, &slot.entry);
            inner.bytes -= removed;
            inner.evictions += 1;
            epoc_rt::telemetry::counter_add("pulse_lib.evictions", 1);
            gauge_resident(-(removed as i64), -1);
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Estimated resident bytes of all stored entries (waveforms
    /// dominate; see [`entry_bytes`]).
    pub fn approx_bytes(&self) -> u64 {
        self.lock().bytes
    }

    /// Entries evicted since construction (0 without a budget).
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// All entries, sorted by key — a deterministic order regardless of
    /// insertion history or recency stamps. The persistence layer
    /// serializes this, so library files are byte-reproducible.
    pub fn snapshot(&self) -> Vec<(CacheKey, PulseEntry)> {
        let inner = self.lock();
        let mut all: Vec<_> = inner
            .map
            .iter()
            .map(|(k, slot)| (k.clone(), slot.entry.clone()))
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::PulseWaveform;
    use std::sync::Arc;

    /// A distinct key per index: diagonal phase gates quantize to
    /// distinct cells.
    fn key(i: usize) -> CacheKey {
        let u = epoc_circuit::Gate::RZ(0.1 + i as f64 * 0.17).unitary_matrix();
        CacheKey::phase_aware(epoc_linalg::UnitaryKey::new(&u), 0)
    }

    /// An entry whose waveform is `slots` slots on one channel, so
    /// `entry_bytes` grows by 8 per slot.
    fn entry(slots: usize) -> PulseEntry {
        PulseEntry {
            duration: slots as f64 * 2.0,
            fidelity: 0.999,
            n_slots: slots,
            waveform: Some(Arc::new(PulseWaveform::new(
                2.0,
                vec![(0..slots).map(|s| s as f64 * 0.01).collect()],
            ))),
        }
    }

    fn one_entry_bytes() -> u64 {
        entry_bytes(&key(0), &entry(16))
    }

    #[test]
    fn memory_store_round_trips_and_tracks_bytes() {
        let s = PulseStore::new(None);
        assert_eq!(s.len(), 0);
        s.put(key(0), entry(16));
        assert_eq!(s.len(), 1);
        assert_eq!(s.approx_bytes(), one_entry_bytes());
        assert_eq!(s.get(&key(0)), Some(entry(16)));
        assert_eq!(s.get(&key(1)), None);
        // Replacement swaps the byte accounting, not doubles it.
        s.put(key(0), entry(32));
        assert_eq!(s.len(), 1);
        assert_eq!(s.approx_bytes(), entry_bytes(&key(0), &entry(32)));
    }

    #[test]
    fn snapshot_is_sorted_and_identical_across_layouts() {
        let forward = PulseStore::new(None);
        let backward = PulseStore::new(None);
        // Insert in different orders; snapshots must still agree.
        for i in 0..8 {
            forward.put(key(i), entry(i + 1));
        }
        for i in (0..8).rev() {
            backward.put(key(i), entry(i + 1));
        }
        let a = forward.snapshot();
        let b = backward.snapshot();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0), "snapshot unsorted");
    }

    #[test]
    fn budget_is_respected() {
        // Room for 3 of the 16-slot entries.
        let per_entry = one_entry_bytes();
        let s = PulseStore::new(Some(per_entry * 3));
        for i in 0..10 {
            s.put(key(i), entry(16));
        }
        assert!(
            s.approx_bytes() <= per_entry * 3,
            "budget exceeded: {} > {}",
            s.approx_bytes(),
            per_entry * 3
        );
        assert_eq!(s.len(), 3);
        assert_eq!(s.evictions(), 7);
    }

    #[test]
    fn eviction_is_lru_and_deterministic() {
        let per_entry = one_entry_bytes();
        let run = || -> Vec<(CacheKey, PulseEntry)> {
            let s = PulseStore::new(Some(per_entry * 2));
            s.put(key(0), entry(16));
            s.put(key(1), entry(16));
            // Touch key 0 so key 1 becomes the LRU victim.
            assert!(s.get(&key(0)).is_some());
            s.put(key(2), entry(16));
            assert!(s.get(&key(0)).is_some(), "recently-used entry evicted");
            assert!(s.get(&key(1)).is_none(), "LRU entry survived");
            assert!(s.get(&key(2)).is_some());
            s.snapshot()
        };
        // The same op sequence leaves byte-identical state.
        assert_eq!(run(), run());
    }

    #[test]
    fn budget_evicts_the_least_recently_used_key_library_wide() {
        // A budget of exactly k entries: inserting one more must evict the
        // least recently used key of the whole library.
        let k = 8;
        let s = PulseStore::new(Some(one_entry_bytes() * k as u64));
        for i in 0..k {
            s.put(key(i), entry(16));
        }
        // Touch every key but 5, in a fixed order, so key 5 is the oldest.
        for i in [3, 0, 7, 1, 6, 2, 4] {
            assert!(
                s.get(&key(i)).is_some(),
                "key {i} missing before the overflow"
            );
        }
        s.put(key(k), entry(16));
        assert_eq!(s.evictions(), 1);
        assert_eq!(s.len(), k);
        assert!(
            s.get(&key(5)).is_none(),
            "the library-wide LRU key survived"
        );
        for i in (0..=k).filter(|&i| i != 5) {
            assert!(s.get(&key(i)).is_some(), "key {i} was evicted instead");
        }
    }

    #[test]
    fn store_config_builds_the_right_tier() {
        // One store type serves both tiers; the config picks unbounded or
        // budgeted.
        let per_entry = one_entry_bytes();
        let build = |budget_bytes| {
            crate::library::PulseLibrary::from_config(
                KeyPolicy::PhaseAware,
                &StoreConfig { budget_bytes },
            )
        };
        assert_eq!(StoreConfig::default().budget_bytes, None);
        let unbounded = build(None);
        let budgeted = build(Some(per_entry * 2));
        for i in 0..4 {
            unbounded.store().put(key(i), entry(16));
            budgeted.store().put(key(i), entry(16));
        }
        assert_eq!((unbounded.len(), unbounded.evictions()), (4, 0));
        assert_eq!((budgeted.len(), budgeted.evictions()), (2, 2));
        // A degenerate zero budget stores nothing rather than panicking.
        let zero = build(Some(0));
        zero.store().put(key(0), entry(1));
        assert_eq!((zero.len(), zero.evictions()), (0, 1));
    }

    #[test]
    fn oversized_entry_is_not_stored() {
        let s = PulseStore::new(Some(64));
        s.put(key(0), entry(512));
        assert_eq!(s.len(), 0, "entry larger than the whole budget was kept");
        assert_eq!(s.approx_bytes(), 0);
        assert_eq!(s.evictions(), 1);
    }

    #[test]
    fn library_error_display_names_the_file() {
        let e = LibraryError::Corrupt { path: "lib.json".into(), reason: "torn".into() };
        assert!(e.to_string().contains("lib.json"));
        assert!(e.to_string().contains("torn"));
        let m = LibraryError::PolicyMismatch {
            expected: KeyPolicy::PhaseAware,
            found: "phase_sensitive".into(),
        };
        assert!(m.to_string().contains("phase_sensitive"));
    }
}
