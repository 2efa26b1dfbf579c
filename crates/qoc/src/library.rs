//! The pulse library: a thread-safe unitary → pulse cache.
//!
//! AccQOC/PAQOC key their lookup tables on the raw unitary; EPOC's
//! improvement (§3.4) is **global-phase-aware** matching — `U` and
//! `e^{iφ}U` need the same pulse, so treating them as one entry raises the
//! hit rate "similar to having a higher cache hit rate". Both policies are
//! implemented so the ablation bench can compare them.
//!
//! The library resolves a unitary to a [`CacheKey`] under its policy and
//! delegates to its store (see [`crate::store`]): one locked map with an
//! optional LRU byte budget. Keys and entries serialize to JSON via
//! `epoc_rt::json`; [`crate::journal`] owns the one on-disk format built
//! from them, checksummed record lines that the library file and the
//! write-ahead journal share, so a torn or corrupted file is detected on
//! load and degrades to recomputation instead of corrupting a compile.

use crate::store::{PulseStore, StoreConfig};
use crate::waveform::PulseWaveform;
use epoc_linalg::{Matrix, PhaseSensitiveKey, UnitaryKey};
use epoc_rt::json::Json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cache key policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyPolicy {
    /// EPOC: unitaries matching up to global phase share an entry.
    PhaseAware,
    /// AccQOC/PAQOC baseline: exact-matrix matching only.
    PhaseSensitive,
}

impl KeyPolicy {
    /// The policy's stable on-disk name.
    pub fn as_str(self) -> &'static str {
        match self {
            KeyPolicy::PhaseAware => "phase_aware",
            KeyPolicy::PhaseSensitive => "phase_sensitive",
        }
    }

    /// Parses the on-disk name back into a policy.
    pub fn from_str_opt(s: &str) -> Option<Self> {
        match s {
            "phase_aware" => Some(KeyPolicy::PhaseAware),
            "phase_sensitive" => Some(KeyPolicy::PhaseSensitive),
            _ => None,
        }
    }
}

/// A cached pulse: its duration, realized fidelity, and (for GRAPE
/// solutions) the control waveform itself.
///
/// The waveform rides behind an `Arc`, so cloning an entry — cache hits,
/// the parallel pulse stage's replay — shares one `O(channels × slots)`
/// buffer rather than copying it. It is what the pulse-level simulator
/// (`epoc-sim`) replays against the device Hamiltonian to verify the
/// schedule independently of GRAPE's own objective.
#[derive(Debug, Clone, PartialEq)]
pub struct PulseEntry {
    /// Pulse duration in ns.
    pub duration: f64,
    /// Realized pulse fidelity.
    pub fidelity: f64,
    /// Slot count of the stored solution.
    pub n_slots: usize,
    /// The GRAPE control waveform realizing the pulse (`None` for modeled
    /// pulses and failed duration searches, which have no waveform).
    pub waveform: Option<Arc<PulseWaveform>>,
}

impl PulseEntry {
    /// Serializes the entry for the persistent library. Floats print in
    /// shortest round-trip form, so deserializing recovers the exact
    /// bits — warm-started compiles are byte-identical to in-process
    /// cache hits.
    pub fn to_json_value(&self) -> Json {
        let waveform = match &self.waveform {
            None => Json::Null,
            Some(w) => Json::obj().push("dt", w.dt()).push(
                "controls",
                Json::Arr(
                    w.controls()
                        .iter()
                        .map(|ch| Json::Arr(ch.iter().map(|&v| Json::Num(v)).collect()))
                        .collect(),
                ),
            ),
        };
        Json::obj()
            .push("duration", self.duration)
            .push("fidelity", self.fidelity)
            .push("n_slots", self.n_slots)
            .push("waveform", waveform)
    }

    /// Deserializes an entry written by [`PulseEntry::to_json_value`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when a field is missing or
    /// malformed.
    pub fn from_json_value(v: &Json) -> Result<Self, String> {
        let num = |field: &str| -> Result<f64, String> {
            v.get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("entry is missing numeric '{field}'"))
        };
        let duration = num("duration")?;
        let fidelity = num("fidelity")?;
        let n_slots = num("n_slots")? as usize;
        let waveform = match v.get("waveform") {
            None | Some(Json::Null) => None,
            Some(w) => {
                let dt = w
                    .get("dt")
                    .and_then(Json::as_f64)
                    .ok_or("waveform is missing 'dt'")?;
                if !(dt.is_finite() && dt > 0.0) {
                    return Err(format!("waveform dt {dt} is not positive"));
                }
                let Some(Json::Arr(rows)) = w.get("controls") else {
                    return Err("waveform is missing 'controls'".into());
                };
                let mut controls = Vec::with_capacity(rows.len());
                for row in rows {
                    let Json::Arr(vals) = row else {
                        return Err("waveform control row is not an array".into());
                    };
                    let ch: Result<Vec<f64>, String> = vals
                        .iter()
                        .map(|x| x.as_f64().ok_or_else(|| "non-numeric amplitude".to_string()))
                        .collect();
                    controls.push(ch?);
                }
                let n = controls.first().map_or(0, Vec::len);
                if controls.iter().any(|c| c.len() != n) {
                    return Err("ragged waveform control rows".into());
                }
                Some(Arc::new(PulseWaveform::new(dt, controls)))
            }
        };
        Ok(PulseEntry { duration, fidelity, n_slots, waveform })
    }
}

/// A policy-resolved cache key: what [`PulseLibrary::lookup`] hashes
/// internally, exposed so batch schedulers can deduplicate pending
/// misses without touching the hit/miss counters.
///
/// Besides the unitary fingerprint, the key carries the stable hash of
/// the [hardware profile](`epoc_hw::HardwareProfile`) the entry was
/// optimized under (0 = ideal electronics): a pulse constrained for one
/// control stack is *wrong* for another even though it implements the
/// same unitary, so the profile is part of entry identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    fingerprint: Fingerprint,
    hw: u64,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Fingerprint {
    /// Phase-invariant fingerprint.
    PhaseAware(UnitaryKey),
    /// Exact-matrix fingerprint.
    PhaseSensitive(PhaseSensitiveKey),
}

impl CacheKey {
    /// A phase-aware key scoped to the hardware profile hash `hw`.
    pub fn phase_aware(key: UnitaryKey, hw: u64) -> Self {
        Self { fingerprint: Fingerprint::PhaseAware(key), hw }
    }

    /// A phase-sensitive key scoped to the hardware profile hash `hw`.
    pub fn phase_sensitive(key: PhaseSensitiveKey, hw: u64) -> Self {
        Self { fingerprint: Fingerprint::PhaseSensitive(key), hw }
    }

    /// The policy this key was resolved under.
    pub fn policy(&self) -> KeyPolicy {
        match &self.fingerprint {
            Fingerprint::PhaseAware(_) => KeyPolicy::PhaseAware,
            Fingerprint::PhaseSensitive(_) => KeyPolicy::PhaseSensitive,
        }
    }

    /// The hardware-profile hash this key is scoped to (0 = ideal).
    pub fn hw(&self) -> u64 {
        self.hw
    }

    /// Number of quantized cells in the fingerprint.
    pub fn cell_count(&self) -> usize {
        match &self.fingerprint {
            Fingerprint::PhaseAware(k) => k.cells().len(),
            Fingerprint::PhaseSensitive(k) => k.cells().len(),
        }
    }

    /// Serializes the key for the persistent library: its policy kind,
    /// dimension, quantized cells as a flat `[re, im, re, im, …]`
    /// integer array, and the hardware-profile hash as 16 hex digits.
    pub fn to_json_value(&self) -> Json {
        let (dim, cells) = match &self.fingerprint {
            Fingerprint::PhaseAware(k) => (k.dim(), k.cells()),
            Fingerprint::PhaseSensitive(k) => (k.dim(), k.cells()),
        };
        let mut flat = Vec::with_capacity(cells.len() * 2);
        for &(re, im) in cells {
            flat.push(Json::Int(re as i64));
            flat.push(Json::Int(im as i64));
        }
        Json::obj()
            .push("kind", self.policy().as_str())
            .push("dim", dim)
            .push("cells", Json::Arr(flat))
            .push("hw", format!("{:016x}", self.hw))
    }

    /// Deserializes a key written by [`CacheKey::to_json_value`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the kind is unknown or the
    /// cell array is malformed.
    pub fn from_json_value(v: &Json) -> Result<Self, String> {
        let kind = v.get("kind").and_then(Json::as_str).ok_or("key is missing 'kind'")?;
        let policy =
            KeyPolicy::from_str_opt(kind).ok_or_else(|| format!("unknown key kind '{kind}'"))?;
        let dim = v
            .get("dim")
            .and_then(Json::as_f64)
            .ok_or("key is missing 'dim'")? as usize;
        let Some(Json::Arr(flat)) = v.get("cells") else {
            return Err("key is missing 'cells'".into());
        };
        if flat.len() % 2 != 0 {
            return Err("key cell array has odd length".into());
        }
        let mut cells = Vec::with_capacity(flat.len() / 2);
        for pair in flat.chunks_exact(2) {
            let cell = |x: &Json| -> Result<i32, String> {
                x.as_f64().map(|f| f as i32).ok_or_else(|| "non-integer key cell".to_string())
            };
            cells.push((cell(&pair[0])?, cell(&pair[1])?));
        }
        let hw = match v.get("hw") {
            None => 0,
            Some(h) => {
                let s = h.as_str().ok_or("key 'hw' is not a string")?;
                u64::from_str_radix(s, 16).map_err(|_| "key 'hw' is not a hex hash".to_string())?
            }
        };
        Ok(match policy {
            KeyPolicy::PhaseAware => {
                CacheKey::phase_aware(UnitaryKey::from_parts(dim, cells), hw)
            }
            KeyPolicy::PhaseSensitive => {
                CacheKey::phase_sensitive(PhaseSensitiveKey::from_parts(dim, cells), hw)
            }
        })
    }
}

/// A thread-safe pulse library.
///
/// # Examples
///
/// ```
/// use epoc_qoc::{PulseLibrary, PulseEntry, KeyPolicy};
/// use epoc_linalg::{Matrix, Complex64};
///
/// let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
/// let x = Matrix::from_rows(&[
///     &[Complex64::ZERO, Complex64::ONE],
///     &[Complex64::ONE, Complex64::ZERO],
/// ]);
/// lib.insert(&x, PulseEntry { duration: 26.0, fidelity: 0.9995, n_slots: 13, waveform: None });
/// // The same gate with a different global phase hits the cache:
/// let gx = x.scale(Complex64::cis(1.0));
/// assert!(lib.lookup(&gx).is_some());
/// ```
#[derive(Debug)]
pub struct PulseLibrary {
    policy: KeyPolicy,
    /// Stable hash of the hardware profile the stored pulses were
    /// optimized under (0 = ideal electronics). Scopes every cache key,
    /// and so every persisted record, so a library built for one control
    /// stack can never silently serve another.
    profile_hash: u64,
    store: PulseStore,
    hits: AtomicUsize,
    misses: AtomicUsize,
    observer: ObserverCell,
}

/// Callback invoked on every live insert, *before* the store mutation —
/// services use it to write-ahead-journal inserts (see
/// [`crate::journal`]).
pub type InsertObserver = Arc<dyn Fn(&CacheKey, &PulseEntry) + Send + Sync>;

/// Interior cell for the optional insert observer; manual `Debug` since
/// closures have none.
#[derive(Default)]
struct ObserverCell(std::sync::Mutex<Option<InsertObserver>>);

impl std::fmt::Debug for ObserverCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let set = self
            .0
            .lock()
            .map(|g| g.is_some())
            .unwrap_or_else(|e| e.into_inner().is_some());
        write!(f, "InsertObserver({})", if set { "set" } else { "unset" })
    }
}

impl PulseLibrary {
    /// Creates an empty, unbounded library with the given key policy.
    pub fn new(policy: KeyPolicy) -> Self {
        Self::from_config(policy, &StoreConfig::default())
    }

    /// Creates an empty library whose store a [`StoreConfig`] describes.
    pub fn from_config(policy: KeyPolicy, config: &StoreConfig) -> Self {
        Self {
            policy,
            profile_hash: 0,
            store: PulseStore::new(config.budget_bytes),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            observer: ObserverCell::default(),
        }
    }

    /// Scopes the library to a hardware-profile hash (see
    /// [`epoc_hw::profile_hash`]); 0 means ideal electronics.
    pub fn with_profile_hash(mut self, hash: u64) -> Self {
        self.profile_hash = hash;
        self
    }

    /// The key policy.
    pub fn policy(&self) -> KeyPolicy {
        self.policy
    }

    /// The hardware-profile hash this library is scoped to (0 = ideal).
    pub fn profile_hash(&self) -> u64 {
        self.profile_hash
    }

    /// The store itself, for the file layer in [`crate::journal`]: saves
    /// read its sorted snapshot, and loads put entries straight into it,
    /// bypassing the insert observer.
    pub(crate) fn store(&self) -> &PulseStore {
        &self.store
    }

    /// The key `unitary` resolves to under this library's policy.
    pub fn cache_key(&self, unitary: &Matrix) -> CacheKey {
        match self.policy {
            KeyPolicy::PhaseAware => {
                CacheKey::phase_aware(UnitaryKey::new(unitary), self.profile_hash)
            }
            KeyPolicy::PhaseSensitive => {
                CacheKey::phase_sensitive(PhaseSensitiveKey::new(unitary), self.profile_hash)
            }
        }
    }

    /// Counter-free lookup: like [`PulseLibrary::lookup`] but without
    /// recording a hit or miss. Batch schedulers use this to classify
    /// work up front and replay the counter effects serially, so parallel
    /// execution reports byte-identical statistics.
    ///
    /// Fail point `pulse_lib.miss` forces a miss (chaos tests use it to
    /// prove cache loss only costs recomputation, never correctness).
    pub fn peek(&self, unitary: &Matrix) -> Option<PulseEntry> {
        if epoc_rt::faults::fail_point("pulse_lib.miss") {
            return None;
        }
        let key = self.cache_key(unitary);
        // Lookup latency histogram; the clock only runs when telemetry
        // is recording, so the disabled path stays one load.
        let t0 = epoc_rt::telemetry::is_enabled().then(Instant::now);
        let found = self.store.get(&key);
        if let Some(t0) = t0 {
            epoc_rt::telemetry::histogram_record(
                "pulse_lib.lookup_ns",
                t0.elapsed().as_nanos() as u64,
            );
        }
        found
    }

    /// Looks up a pulse for `unitary`, counting a hit or miss.
    pub fn lookup(&self, unitary: &Matrix) -> Option<PulseEntry> {
        match self.peek(unitary) {
            Some(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                epoc_rt::telemetry::counter_add("pulse_lib.hits", 1);
                Some(e)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                epoc_rt::telemetry::counter_add("pulse_lib.misses", 1);
                None
            }
        }
    }

    /// Registers (or clears) the insert observer: a callback invoked on
    /// every *live* insert, before the store mutation — the write-ahead
    /// hook for a [`crate::JournalWriter`]. Entries loaded from a library
    /// file or a journal ([`crate::load_library_file`]) bypass it, so they
    /// are never re-journaled.
    pub fn set_insert_observer(&self, observer: Option<InsertObserver>) {
        *self.observer.0.lock().unwrap_or_else(|e| e.into_inner()) = observer;
    }

    /// Inserts (or replaces) the pulse for `unitary`.
    ///
    /// Fail point `pulse_lib.insert` silently drops the insert (chaos
    /// tests use it to prove a lossy cache degrades to recomputation).
    pub fn insert(&self, unitary: &Matrix, entry: PulseEntry) {
        if epoc_rt::faults::fail_point("pulse_lib.insert") {
            return;
        }
        epoc_rt::telemetry::counter_add("pulse_lib.inserts", 1);
        let key = self.cache_key(unitary);
        // Write-ahead: the observer (journal append) runs before the
        // in-memory insert, so a crash can lose an uncached pulse but
        // never journal an insert that did not happen.
        let observer = self
            .observer
            .0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        if let Some(observe) = observer {
            observe(&key, &entry);
        }
        self.store.put(key, entry);
    }

    /// Number of stored pulses.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` when no pulses are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the store so far (0 without a byte budget).
    pub fn evictions(&self) -> u64 {
        self.store.evictions()
    }

    /// Estimated resident bytes of the stored entries.
    pub fn approx_bytes(&self) -> u64 {
        self.store.approx_bytes()
    }

    /// Hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits();
        let m = self.misses();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::LibraryError;
    use crate::{load_library_file, save_library_file};
    use epoc_circuit::Gate;
    use epoc_linalg::Complex64;

    fn entry(d: f64) -> PulseEntry {
        PulseEntry {
            duration: d,
            fidelity: 0.9995,
            n_slots: (d / 2.0) as usize,
            waveform: None,
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("epoc-library-{}-{name}", std::process::id()))
    }

    #[test]
    fn phase_aware_hits_rotated_unitary() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        let h = Gate::H.unitary_matrix();
        lib.insert(&h, entry(26.0));
        let rotated = h.scale(Complex64::cis(2.2));
        assert_eq!(lib.lookup(&rotated).map(|e| e.duration), Some(26.0));
        assert_eq!(lib.hits(), 1);
        assert_eq!(lib.misses(), 0);
    }

    #[test]
    fn phase_sensitive_misses_rotated_unitary() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseSensitive);
        let h = Gate::H.unitary_matrix();
        lib.insert(&h, entry(26.0));
        let rotated = h.scale(Complex64::cis(2.2));
        assert!(lib.lookup(&rotated).is_none());
        assert!(lib.lookup(&h).is_some());
        assert!((lib.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_gates_do_not_collide() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        lib.insert(&Gate::H.unitary_matrix(), entry(26.0));
        lib.insert(&Gate::X.unitary_matrix(), entry(30.0));
        assert_eq!(lib.len(), 2);
        assert_eq!(
            lib.lookup(&Gate::X.unitary_matrix()).map(|e| e.duration),
            Some(30.0)
        );
    }

    #[test]
    fn concurrent_access() {
        use std::sync::Arc;
        let lib = Arc::new(PulseLibrary::new(KeyPolicy::PhaseAware));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let lib = Arc::clone(&lib);
            handles.push(std::thread::spawn(move || {
                let g = Gate::RZ(t as f64).unitary_matrix();
                lib.insert(&g, entry(10.0 + t as f64));
                lib.lookup(&g).expect("just inserted");
            }));
        }
        for h in handles {
            h.join().expect("no panics");
        }
        assert_eq!(lib.len(), 4);
        assert_eq!(lib.hits(), 4);
        assert_eq!(lib.misses(), 0);
    }

    #[test]
    fn empty_library_metrics() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        assert!(lib.is_empty());
        assert_eq!(lib.hit_rate(), 0.0);
        assert_eq!(lib.evictions(), 0);
    }

    #[test]
    fn keys_are_scoped_to_the_hardware_profile() {
        let h = Gate::H.unitary_matrix();
        let ideal = CacheKey::phase_aware(UnitaryKey::new(&h), 0);
        let awg = CacheKey::phase_aware(UnitaryKey::new(&h), 0xABCD);
        assert_ne!(ideal, awg);
        // Two libraries over the same unitaries but different profiles
        // never serve each other's pulses.
        let lib_a = PulseLibrary::new(KeyPolicy::PhaseAware).with_profile_hash(0xABCD);
        lib_a.insert(&h, entry(26.0));
        let lib_b = PulseLibrary::new(KeyPolicy::PhaseAware);
        assert_ne!(lib_a.cache_key(&h), lib_b.cache_key(&h));
    }

    #[test]
    fn hw_profile_mismatch_fails_closed_with_typed_error() {
        let awg = PulseLibrary::new(KeyPolicy::PhaseAware).with_profile_hash(0x1234);
        awg.insert(&Gate::H.unitary_matrix(), entry(26.0));
        let path = temp_path("hwmismatch.json");
        save_library_file(&path, &[("grape", &awg)]).unwrap();
        // Loading into an ideal-electronics library must fail closed.
        let ideal = PulseLibrary::new(KeyPolicy::PhaseAware);
        let err = load_library_file(&path, &[("grape", &ideal)]).unwrap_err();
        assert!(
            matches!(
                err,
                LibraryError::HwProfileMismatch { expected: 0, found: 0x1234 }
            ),
            "{err:?}"
        );
        assert!(ideal.is_empty());
        // The matching profile loads fine.
        let same = PulseLibrary::new(KeyPolicy::PhaseAware).with_profile_hash(0x1234);
        assert_eq!(load_library_file(&path, &[("grape", &same)]).unwrap(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_and_load_round_trips_a_library_file() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        lib.insert(&Gate::H.unitary_matrix(), entry(26.0));
        lib.insert(
            &Gate::X.unitary_matrix(),
            PulseEntry {
                duration: 25.0,
                fidelity: 0.9991,
                n_slots: 13,
                waveform: Some(Arc::new(PulseWaveform::new(
                    2.0,
                    vec![vec![0.1, -0.2, 0.3], vec![0.0, 0.25, -0.5]],
                ))),
            },
        );
        let path = temp_path("roundtrip.json");
        save_library_file(&path, &[("grape", &lib)]).unwrap();
        let restored = PulseLibrary::new(KeyPolicy::PhaseAware);
        assert_eq!(load_library_file(&path, &[("grape", &restored)]).unwrap(), 2);
        assert_eq!(restored.len(), 2);
        assert_eq!(
            restored.peek(&Gate::X.unitary_matrix()),
            lib.peek(&Gate::X.unitary_matrix())
        );
        // Saving the restored library reproduces the file byte-for-byte.
        let path2 = temp_path("roundtrip2.json");
        save_library_file(&path2, &[("grape", &restored)]).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            std::fs::read_to_string(&path2).unwrap()
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn policy_mismatch_is_typed() {
        let aware = PulseLibrary::new(KeyPolicy::PhaseAware);
        aware.insert(&Gate::H.unitary_matrix(), entry(26.0));
        let path = temp_path("policy.json");
        save_library_file(&path, &[("grape", &aware)]).unwrap();
        let sensitive = PulseLibrary::new(KeyPolicy::PhaseSensitive);
        let err = load_library_file(&path, &[("grape", &sensitive)]).unwrap_err();
        assert!(
            matches!(
                &err,
                LibraryError::PolicyMismatch { expected: KeyPolicy::PhaseSensitive, found }
                    if found == "phase_aware"
            ),
            "{err:?}"
        );
        assert!(sensitive.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_section_loads_zero_entries() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        lib.insert(&Gate::H.unitary_matrix(), entry(26.0));
        let path = temp_path("sections.json");
        save_library_file(&path, &[("grape", &lib)]).unwrap();
        let other = PulseLibrary::new(KeyPolicy::PhaseAware);
        assert_eq!(load_library_file(&path, &[("model", &other)]).unwrap(), 0);
        assert!(other.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
