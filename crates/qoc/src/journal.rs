//! The pulse library's one on-disk format: checksummed record lines.
//!
//! `epocd`'s library file (`--library`) and its write-ahead journal
//! (`--journal`) hold the same records, and [`load_library_file`] reads
//! both. [`JournalWriter`] appends one record per live insert, *before*
//! the in-memory store mutation, and fsyncs at batch boundaries, so
//! `kill -9` between checkpoints loses no completed insert. A checkpoint
//! ([`save_library_file`]) rewrites every entry as records — sections in
//! the order given, entries sorted by [`CacheKey`] within each, so the
//! same contents give the same bytes — and then compacts the journal to
//! empty.
//!
//! ## Record format
//!
//! One JSON object per `\n`-terminated line:
//!
//! ```text
//! {"crc":"<16 hex digits>","rec":{"section":"grape","key":{…},"entry":{…}}}
//! ```
//!
//! `crc` is the FNV-1a checksum of the bytes of `rec` as written, its
//! compact serialization.
//!
//! ## Recovery rules
//!
//! A load parses and validates every line before it applies any.
//!
//! * A **terminated** line that is not a valid record is corruption: the
//!   load fails closed ([`LibraryError::Corrupt`]) and applies *nothing*.
//! * An **unterminated last line** is a torn write: applied if it is a
//!   whole record that only lost its newline, else truncated away. Every
//!   whole record before it loads.
//! * Only that torn line may stop short of `{"crc":"`, and only as a
//!   prefix of it. Any other line is from a foreign file — an old-format
//!   library is one unterminated `{"version":…}` line — and fails closed
//!   as `Corrupt`, leaving the file untouched.
//! * A record of a requested section keyed under another policy or
//!   hardware profile fails closed as [`LibraryError::PolicyMismatch`] or
//!   [`LibraryError::HwProfileMismatch`]; records of other sections are
//!   validated and skipped.

use crate::library::{CacheKey, PulseEntry, PulseLibrary};
use crate::store::LibraryError;
use epoc_rt::json::Json;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// How every record line begins.
const RECORD_PREFIX: &str = "{\"crc\":\"";

/// FNV-1a over a record's serialized payload, rendered as 16 hex digits —
/// the torn-write detector.
fn payload_checksum(payload: &str) -> String {
    format!("{:016x}", epoc_rt::fnv1a(payload.as_bytes()))
}

/// Serializes one record line (without the trailing newline): the bytes
/// `Json::obj().push("crc", …).push("rec", rec)` prints, which
/// [`parse_record`] splits apart again.
fn record_line(section: &str, key: &CacheKey, entry: &PulseEntry) -> String {
    let payload = Json::obj()
        .push("section", section)
        .push("key", key.to_json_value())
        .push("entry", entry.to_json_value())
        .to_string_compact();
    format!("{RECORD_PREFIX}{}\",\"rec\":{payload}}}", payload_checksum(&payload))
}

fn io_error(path: &Path, e: std::io::Error) -> LibraryError {
    LibraryError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Append-only journal writer. Thread-safe: appends serialize on an
/// internal lock (the service's serial replay stage is the only caller
/// in practice, but the library observer API is `Send + Sync`).
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    file: Mutex<JournalFile>,
}

/// The open journal, where its whole records end, and whether it holds
/// bytes no fsync has covered.
#[derive(Debug)]
struct JournalFile {
    file: std::fs::File,
    /// Length of the whole records: the file length at open, 0 after a
    /// compaction, grown by each complete append.
    whole: u64,
    /// An append stopped partway; the next one first cuts the file back
    /// to `whole`, so it cannot glue onto the torn record.
    torn: bool,
    unsynced: bool,
}

impl JournalWriter {
    /// Opens (creating if missing) the journal at `path` for appending.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::Io`] when the file cannot be opened.
    pub fn open_append(path: &Path) -> Result<Self, LibraryError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_error(path, e))?;
        let whole = file.metadata().map_err(|e| io_error(path, e))?.len();
        Ok(Self {
            path: path.to_path_buf(),
            file: Mutex::new(JournalFile { file, whole, torn: false, unsynced: false }),
        })
    }

    fn io_err(&self, e: std::io::Error) -> LibraryError {
        io_error(&self.path, e)
    }

    /// Appends one insert record. Durability is deferred to
    /// [`JournalWriter::sync`] (the service syncs per batch, not per
    /// insert). A torn earlier append is cut off first, so it loses only
    /// its own record.
    ///
    /// Fail point `pulse_lib.journal` simulates a crash mid-append: half
    /// the record's bytes land in the file (no newline) and the call
    /// still reports success.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::Io`] when the cut or the write fails.
    pub fn append(
        &self,
        section: &str,
        key: &CacheKey,
        entry: &PulseEntry,
    ) -> Result<(), LibraryError> {
        let mut line = record_line(section, key, entry);
        line.push('\n');
        let mut journal = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if journal.torn {
            let whole = journal.whole;
            journal.file.set_len(whole).map_err(|e| self.io_err(e))?;
        }
        journal.unsynced = true;
        // Torn until the whole line is written. The line is ASCII, so the
        // fault's split point is a char boundary.
        journal.torn = true;
        if epoc_rt::faults::fail_point("pulse_lib.journal") {
            let half = &line.as_bytes()[..line.len() / 2];
            journal.file.write_all(half).map_err(|e| self.io_err(e))?;
            epoc_rt::telemetry::counter_add("pulse_lib.journal_torn", 1);
            return Ok(());
        }
        journal.file.write_all(line.as_bytes()).map_err(|e| self.io_err(e))?;
        journal.whole += line.len() as u64;
        journal.torn = false;
        epoc_rt::telemetry::counter_add("pulse_lib.journal_appends", 1);
        Ok(())
    }

    /// Flushes and fsyncs the journal — the batch-boundary durability
    /// point: every record appended before a successful `sync` survives a
    /// power loss (a completed append already survives `kill -9`). With
    /// nothing appended since the last sync or compaction, no fsync runs.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::Io`] when the flush or fsync fails.
    pub fn sync(&self) -> Result<(), LibraryError> {
        let mut journal = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if !journal.unsynced {
            return Ok(());
        }
        journal.file.flush().map_err(|e| self.io_err(e))?;
        journal.file.sync_data().map_err(|e| self.io_err(e))?;
        journal.unsynced = false;
        Ok(())
    }

    /// Empties the journal — called after every successful checkpoint,
    /// whose atomically-renamed library file now covers every journaled
    /// insert.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::Io`] when truncation fails.
    pub fn compact(&self) -> Result<(), LibraryError> {
        let mut journal = self.file.lock().unwrap_or_else(|e| e.into_inner());
        journal.file.set_len(0).map_err(|e| self.io_err(e))?;
        journal.whole = 0;
        journal.torn = false;
        journal.file.sync_data().map_err(|e| self.io_err(e))?;
        journal.unsynced = false;
        epoc_rt::telemetry::counter_add("pulse_lib.journal_compactions", 1);
        Ok(())
    }
}

/// Saves the libraries of `sections` to `path` as record lines: the
/// sections in the order given, each one's entries sorted by key, so the
/// same contents always produce the same bytes. The write goes to a temp
/// file that is fsync'd, atomically renamed over `path`, and made
/// durable by an fsync of the directory: a crash or power loss leaves
/// either the previous file or the new one, never an empty file behind a
/// journal the checkpoint already compacted.
///
/// Fail point `pulse_lib.persist` simulates a torn write instead: half
/// the bytes land at `path` directly (no rename) and the call still
/// reports success — chaos tests then assert that loading it keeps the
/// whole records and recomputes the rest.
///
/// # Errors
///
/// Returns [`LibraryError::Io`] when the file cannot be written.
pub fn save_library_file(
    path: &Path,
    sections: &[(&str, &PulseLibrary)],
) -> Result<(), LibraryError> {
    let mut doc = String::new();
    for (name, lib) in sections {
        for (key, entry) in lib.store().snapshot() {
            doc.push_str(&record_line(name, &key, &entry));
            doc.push('\n');
        }
    }
    let io_err = |e| io_error(path, e);
    if epoc_rt::faults::fail_point("pulse_lib.persist") {
        std::fs::write(path, &doc.as_bytes()[..doc.len() / 2]).map_err(io_err)?;
        epoc_rt::telemetry::counter_add("pulse_lib.persist_torn", 1);
        return Ok(());
    }
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
    file.write_all(doc.as_bytes()).map_err(io_err)?;
    file.sync_all().map_err(io_err)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(io_err)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir).and_then(|d| d.sync_all()).map_err(io_err)?;
    epoc_rt::telemetry::counter_add("pulse_lib.persisted", 1);
    Ok(())
}

/// `true` when `line` begins like a record, or is cut off inside the
/// record prefix — what a torn write can leave.
fn is_record_start(line: &str) -> bool {
    line.starts_with(RECORD_PREFIX) || RECORD_PREFIX.starts_with(line)
}

/// A parsed, checksum-valid record.
struct Record {
    section: String,
    key: CacheKey,
    entry: PulseEntry,
}

/// Parses one line (without its newline), checking the checksum against
/// the payload's bytes as written.
fn parse_record(line: &str) -> Result<Record, String> {
    let body = line
        .strip_prefix(RECORD_PREFIX)
        .ok_or("not a library record (an old-format or foreign file?)")?;
    let (stored, payload) = body
        .split_at_checked(16)
        .and_then(|(crc, rest)| Some((crc, rest.strip_prefix("\",\"rec\":")?.strip_suffix('}')?)))
        .ok_or("malformed record")?;
    if payload_checksum(payload) != stored {
        return Err("record checksum mismatch".into());
    }
    let rec = Json::parse(payload).map_err(|e| format!("unparseable record ({e})"))?;
    let section = rec
        .get("section")
        .and_then(Json::as_str)
        .ok_or("record is missing 'section'")?
        .to_string();
    let key = rec
        .get("key")
        .ok_or("record is missing 'key'".to_string())
        .and_then(|k| CacheKey::from_json_value(k).map_err(|e| format!("malformed key: {e}")))?;
    let entry = rec
        .get("entry")
        .ok_or("record is missing 'entry'".to_string())
        .and_then(|e| PulseEntry::from_json_value(e).map_err(|e| format!("malformed entry: {e}")))?;
    Ok(Record { section, key, entry })
}

/// The library `rec` loads into (`None` for a section not requested),
/// after checking that its key was resolved under that library's policy
/// and hardware profile.
fn target<'a>(
    rec: &Record,
    sections: &[(&str, &'a PulseLibrary)],
) -> Result<Option<&'a PulseLibrary>, LibraryError> {
    let Some(&(_, lib)) = sections.iter().find(|(name, _)| *name == rec.section) else {
        return Ok(None);
    };
    if rec.key.policy() != lib.policy() {
        return Err(LibraryError::PolicyMismatch {
            expected: lib.policy(),
            found: rec.key.policy().as_str().to_string(),
        });
    }
    // A pulse optimized for one control stack must never warm-start a
    // compile targeting another: the waveform would be mis-conditioned.
    if rec.key.hw() != lib.profile_hash() {
        return Err(LibraryError::HwProfileMismatch {
            expected: lib.profile_hash(),
            found: rec.key.hw(),
        });
    }
    Ok(Some(lib))
}

/// Loads a library file or journal into the libraries of `sections`,
/// returning how many entries were restored. A missing file loads zero
/// (a fresh start). Existing entries are kept (loads merge); hit/miss
/// counters are untouched. Loaded entries bypass the insert observer:
/// they are already on disk and must not be re-journaled.
///
/// The `pulse_lib.insert` fail point drops loaded records exactly as it
/// drops live inserts — chaos tests use it to model a lost library.
///
/// # Errors
///
/// Nothing is applied on any error (see the module's recovery rules):
///
/// * [`LibraryError::Io`] — the file cannot be read (other than not
///   existing), or the torn-tail truncation fails.
/// * [`LibraryError::Corrupt`] — a terminated line that is not a valid
///   record, or a last line that is not even the start of one.
/// * [`LibraryError::PolicyMismatch`] /
///   [`LibraryError::HwProfileMismatch`] — a record of a requested
///   section keyed under another policy or hardware profile.
///
/// Callers treat any error as "start cold": recomputing is always safe.
pub fn load_library_file(
    path: &Path,
    sections: &[(&str, &PulseLibrary)],
) -> Result<usize, LibraryError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(io_error(path, e)),
    };
    let corrupt = |offset: usize, reason: String| LibraryError::Corrupt {
        path: path.display().to_string(),
        reason: format!("line at byte {offset}: {reason}"),
    };

    // Phase 1: parse and validate every line.
    let mut records = Vec::new();
    let mut torn_at = None;
    let mut offset = 0usize;
    for chunk in text.split_inclusive('\n') {
        let (line, terminated) = chunk.strip_suffix('\n').map_or((chunk, false), |l| (l, true));
        match parse_record(line) {
            Ok(rec) => {
                if let Some(lib) = target(&rec, sections)? {
                    records.push((lib, rec.key, rec.entry));
                }
            }
            Err(_) if !terminated && is_record_start(line) => torn_at = Some(offset),
            Err(reason) => return Err(corrupt(offset, reason)),
        }
        offset += chunk.len();
    }

    // Phase 2: cut off a torn tail, then apply every record in order.
    if let Some(end) = torn_at {
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .and_then(|f| f.set_len(end as u64))
            .map_err(|e| io_error(path, e))?;
        epoc_rt::telemetry::counter_add("pulse_lib.torn_tails", 1);
    }
    let mut loaded = 0usize;
    for (lib, key, entry) in records {
        if epoc_rt::faults::fail_point("pulse_lib.insert") {
            continue;
        }
        lib.store().put(key, entry);
        loaded += 1;
    }
    epoc_rt::telemetry::counter_add("pulse_lib.loaded", loaded as u64);
    Ok(loaded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::KeyPolicy;
    use epoc_circuit::Gate;

    fn entry(d: f64) -> PulseEntry {
        PulseEntry {
            duration: d,
            fidelity: 0.999,
            n_slots: d as usize,
            waveform: None,
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("epoc-journal-{}-{name}", std::process::id()))
    }

    #[test]
    fn append_sync_replay_round_trips() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        let path = temp_path("roundtrip.jsonl");
        std::fs::remove_file(&path).ok();
        let journal = JournalWriter::open_append(&path).unwrap();
        let h = Gate::H.unitary_matrix();
        let x = Gate::X.unitary_matrix();
        journal.append("grape", &lib.cache_key(&h), &entry(26.0)).unwrap();
        journal.append("grape", &lib.cache_key(&x), &entry(25.0)).unwrap();
        journal.sync().unwrap();
        let restored = PulseLibrary::new(KeyPolicy::PhaseAware);
        assert_eq!(
            load_library_file(&path, &[("grape", &restored)]).unwrap(),
            2
        );
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.peek(&h).map(|e| e.duration), Some(26.0));
        assert_eq!(restored.peek(&x).map(|e| e.duration), Some(25.0));
        std::fs::remove_file(&path).ok();
    }

    /// A record line, checksum included, is pinned at the bytes existing
    /// library files and journals carry.
    #[test]
    fn record_line_bytes_are_pinned() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        let line = record_line("grape", &lib.cache_key(&Gate::X.unitary_matrix()), &entry(25.0));
        assert_eq!(
            line,
            concat!(
                r#"{"crc":"2287f224acde95d3","rec":{"section":"grape","key":{"kind":"phase_aware","#,
                r#""dim":2,"cells":[0,0,1000000,0,1000000,0,0,0],"hw":"0000000000000000"},"#,
                r#""entry":{"duration":25.0,"fidelity":0.999,"n_slots":25,"waveform":null}}}"#
            )
        );
    }

    #[test]
    fn missing_journal_replays_zero() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        let path = temp_path("missing.jsonl");
        std::fs::remove_file(&path).ok();
        assert_eq!(load_library_file(&path, &[("grape", &lib)]).unwrap(), 0);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_recovered() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        let path = temp_path("torn.jsonl");
        std::fs::remove_file(&path).ok();
        let journal = JournalWriter::open_append(&path).unwrap();
        journal
            .append("grape", &lib.cache_key(&Gate::H.unitary_matrix()), &entry(26.0))
            .unwrap();
        journal.sync().unwrap();
        // Tear: append half of a second record by hand.
        let line = record_line("grape", &lib.cache_key(&Gate::X.unitary_matrix()), &entry(25.0));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&line.as_bytes()[..line.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();
        let restored = PulseLibrary::new(KeyPolicy::PhaseAware);
        assert_eq!(load_library_file(&path, &[("grape", &restored)]).unwrap(), 1);
        assert_eq!(restored.len(), 1);
        // The torn tail was physically truncated away.
        let after = std::fs::read_to_string(&path).unwrap();
        assert!(after.ends_with('\n'));
        assert_eq!(after.lines().count(), 1);
        std::fs::remove_file(&path).ok();
    }

    /// A torn checkpoint loads exactly the whole records before the tear
    /// (each is checksummed), and the file is cut back to them.
    #[test]
    fn truncated_library_file_loads_its_whole_records() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        for g in [Gate::H, Gate::X, Gate::Sx] {
            lib.insert(&g.unitary_matrix(), entry(26.0));
        }
        let path = temp_path("torn-library.json");
        save_library_file(&path, &[("grape", &lib)]).unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in [full.len() / 4, full.len() / 2, full.len() - 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let whole = full[..cut].iter().filter(|&&b| b == b'\n').count()
                + usize::from(cut == full.len() - 1);
            let restored = PulseLibrary::new(KeyPolicy::PhaseAware);
            assert_eq!(
                load_library_file(&path, &[("grape", &restored)]).unwrap(),
                whole,
                "cut at {cut}"
            );
            assert_eq!(restored.len(), whole, "cut at {cut}");
            // A whole last record stays; a torn one is cut off.
            let end = if cut == full.len() - 1 {
                cut
            } else {
                full[..cut].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
            };
            assert_eq!(std::fs::read(&path).unwrap(), &full[..end], "cut at {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn midfile_corruption_fails_closed_applying_nothing() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        let path = temp_path("corrupt.jsonl");
        std::fs::remove_file(&path).ok();
        let journal = JournalWriter::open_append(&path).unwrap();
        journal
            .append("grape", &lib.cache_key(&Gate::H.unitary_matrix()), &entry(26.0))
            .unwrap();
        journal
            .append("grape", &lib.cache_key(&Gate::X.unitary_matrix()), &entry(25.0))
            .unwrap();
        journal.sync().unwrap();
        // Flip one byte inside the FIRST record (a terminated line).
        let mut bytes = std::fs::read(&path).unwrap();
        let i = 20;
        bytes[i] = if bytes[i] == b'3' { b'4' } else { b'3' };
        std::fs::write(&path, &bytes).unwrap();
        let restored = PulseLibrary::new(KeyPolicy::PhaseAware);
        let err = load_library_file(&path, &[("grape", &restored)]).unwrap_err();
        assert!(matches!(err, LibraryError::Corrupt { .. }), "{err:?}");
        assert!(restored.is_empty(), "fail closed must apply nothing");
        std::fs::remove_file(&path).ok();
    }

    /// A checksum-valid record whose payload nests too deep to parse is
    /// corrupt like any other unparseable record: the load fails closed
    /// and applies nothing, rather than overflowing the stack.
    #[test]
    fn deeply_nested_record_fails_closed_applying_nothing() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        let path = temp_path("deep.jsonl");
        let good = record_line("grape", &lib.cache_key(&Gate::H.unitary_matrix()), &entry(26.0));
        let payload = format!("{}{}", "[".repeat(300_000), "]".repeat(300_000));
        let deep = format!("{RECORD_PREFIX}{}\",\"rec\":{payload}}}", payload_checksum(&payload));
        std::fs::write(&path, format!("{good}\n{deep}\n")).unwrap();
        let err = load_library_file(&path, &[("grape", &lib)]).unwrap_err();
        assert!(matches!(err, LibraryError::Corrupt { .. }), "{err:?}");
        assert!(lib.is_empty(), "fail closed must apply nothing");
        std::fs::remove_file(&path).ok();
    }

    /// A library in the earlier snapshot format — one unterminated
    /// `{"version":2,…}` line — is a foreign file, not a torn record: it
    /// fails closed as `Corrupt` and is left byte for byte as it was.
    #[test]
    fn old_format_library_fails_closed_untouched() {
        let path = temp_path("old-format.json");
        let old = concat!(
            r#"{"version":2,"checksum":"0123456789abcdef","libraries":{"grape":"#,
            r#"{"policy":"phase_aware","hw":"0000000000000000","entries":[]}}}"#
        );
        std::fs::write(&path, old).unwrap();
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        let err = load_library_file(&path, &[("grape", &lib)]).unwrap_err();
        assert!(matches!(err, LibraryError::Corrupt { .. }), "{err:?}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), old);
        // A torn record line stops short of the record prefix only as a
        // prefix of it; any other short line is foreign too.
        for (tail, torn) in [("{\"cr", true), ("{\"ver", false), ("\n", false)] {
            std::fs::write(&path, tail).unwrap();
            let result = load_library_file(&path, &[("grape", &lib)]);
            assert_eq!(result.is_ok(), torn, "{tail:?}: {result:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_empties_the_file() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        let path = temp_path("compact.jsonl");
        std::fs::remove_file(&path).ok();
        let journal = JournalWriter::open_append(&path).unwrap();
        journal
            .append("grape", &lib.cache_key(&Gate::H.unitary_matrix()), &entry(26.0))
            .unwrap();
        journal.sync().unwrap();
        journal.compact().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // And appends keep working after a compaction.
        journal
            .append("grape", &lib.cache_key(&Gate::X.unitary_matrix()), &entry(25.0))
            .unwrap();
        journal.sync().unwrap();
        let restored = PulseLibrary::new(KeyPolicy::PhaseAware);
        assert_eq!(load_library_file(&path, &[("grape", &restored)]).unwrap(), 1);
        std::fs::remove_file(&path).ok();
    }

    /// Records of sections the caller did not ask for are validated but
    /// skipped.
    #[test]
    fn unknown_sections_are_skipped_not_corrupt() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        let path = temp_path("sections.jsonl");
        std::fs::remove_file(&path).ok();
        let journal = JournalWriter::open_append(&path).unwrap();
        journal
            .append("grape", &lib.cache_key(&Gate::H.unitary_matrix()), &entry(26.0))
            .unwrap();
        journal.sync().unwrap();
        let other = PulseLibrary::new(KeyPolicy::PhaseAware);
        assert_eq!(load_library_file(&path, &[("model", &other)]).unwrap(), 0);
        assert!(other.is_empty());
        std::fs::remove_file(&path).ok();
    }

    /// A journal record keyed under another policy fails closed with the
    /// typed error.
    #[test]
    fn policy_mismatch_fails_closed() {
        let aware = PulseLibrary::new(KeyPolicy::PhaseAware);
        let path = temp_path("policy.jsonl");
        std::fs::remove_file(&path).ok();
        let journal = JournalWriter::open_append(&path).unwrap();
        journal
            .append("grape", &aware.cache_key(&Gate::H.unitary_matrix()), &entry(26.0))
            .unwrap();
        journal.sync().unwrap();
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
    fn insert_observer_feeds_the_journal() {
        use std::sync::Arc;
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        let path = temp_path("observer.jsonl");
        std::fs::remove_file(&path).ok();
        let journal = Arc::new(JournalWriter::open_append(&path).unwrap());
        let j = Arc::clone(&journal);
        lib.set_insert_observer(Some(Arc::new(move |key, entry| {
            j.append("grape", key, entry).expect("journal append");
        })));
        lib.insert(&Gate::H.unitary_matrix(), entry(26.0));
        journal.sync().unwrap();
        let restored = PulseLibrary::new(KeyPolicy::PhaseAware);
        assert_eq!(load_library_file(&path, &[("grape", &restored)]).unwrap(), 1);
        assert_eq!(
            restored.peek(&Gate::H.unitary_matrix()),
            lib.peek(&Gate::H.unitary_matrix())
        );
        // Loads bypass the observer: loading into `lib` itself must not
        // grow the journal.
        let before = std::fs::metadata(&path).unwrap().len();
        load_library_file(&path, &[("grape", &lib)]).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
        std::fs::remove_file(&path).ok();
    }
}
