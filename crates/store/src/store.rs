//! The persistence layer: an append-only ingest writer and a read-only
//! query snapshot over one store file.
//!
//! # On-disk format
//!
//! One [`DesignRecord`] per line, `serde_json`-encoded (JSONL). The
//! format is append-friendly — ingest never rewrites earlier bytes —
//! and mergeable: multiple lines may share a `(dataset, fingerprint)`
//! key, with later lines filling in the optional fields of earlier
//! ones (test accuracy after a front evaluation, the `selected` flag
//! after the pipeline's select stage). Loading replays the merge, so
//! the in-memory index holds exactly one record per unique design
//! regardless of how its information arrived.
//!
//! Corrupt input — a truncated final line after a crash, edited bytes,
//! a fingerprint that no longer matches its network, a network the
//! cost model cannot price — surfaces as a [`StoreError`], never a
//! panic.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions, TryLockError};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use pe_arith::Summand;

use crate::fault::{self, FaultAction, SITE_STORE_APPEND};
use crate::record::{fingerprint_of, DesignRecord};

/// Why a store file could not be opened, read or appended to.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// The underlying file operation failed.
    Io {
        /// The store file involved.
        path: PathBuf,
        /// The OS error description.
        reason: String,
    },
    /// A line of the store file is not a valid record (truncated
    /// write, edited bytes, a fingerprint/network mismatch, or a
    /// network the cost model cannot price).
    Corrupt {
        /// The store file involved.
        path: PathBuf,
        /// 1-based line number of the offending record.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, reason } => {
                write!(f, "design store {}: {reason}", path.display())
            }
            StoreError::Corrupt { path, line, reason } => {
                write!(
                    f,
                    "design store {} is corrupt at line {line}: {reason}",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Lifetime ingest counters of a [`StoreWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Unique designs inserted (new `(dataset, fingerprint)` keys).
    pub ingested: u64,
    /// Ingest calls that hit an already-stored design (including
    /// annotation passes that only filled in optional fields).
    pub deduplicated: u64,
    /// Bytes appended to the store file.
    pub bytes_written: u64,
}

/// What one [`StoreWriter::ingest`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// `true` when the record introduced a new unique design.
    pub new_design: bool,
    /// Bytes appended to the store file (0 for a pure duplicate).
    pub bytes: u64,
}

/// Dedup key of a record: dataset plus design fingerprint.
type Key = (String, u64);

/// The merged in-memory view of a store: one record per unique design
/// plus an index from dedup key to record position.
#[derive(Debug, Clone, Default)]
struct Table {
    records: Vec<DesignRecord>,
    index: HashMap<Key, usize>,
}

enum Merge {
    /// A new unique design (or an unindexable 64-bit collision).
    Inserted,
    /// An existing design gained information (options filled,
    /// `selected` set).
    Updated,
    /// Nothing new: the design was already stored with this content.
    Duplicate,
}

impl Table {
    fn merge(&mut self, record: DesignRecord) -> Merge {
        let key = (record.dataset.clone(), record.fingerprint);
        if let Some(&at) = self.index.get(&key) {
            if self.records[at].mlp == record.mlp {
                return if self.records[at].absorb(&record) {
                    Merge::Updated
                } else {
                    Merge::Duplicate
                };
            }
            // A genuine 64-bit fingerprint collision: keep both
            // records (the newcomer stays unindexed, so it cannot be
            // deduplicated against — conservative and vanishingly
            // rare).
            self.records.push(record);
            return Merge::Inserted;
        }
        self.index.insert(key, self.records.len());
        self.records.push(record);
        Merge::Inserted
    }
}

/// What [`StoreWriter::open_salvaged`] / [`DesignStore::open_salvaged`]
/// did to make the file loadable.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SalvageReport {
    /// Unique designs loaded after salvage.
    pub kept: usize,
    /// Trailing unparseable lines dropped (0 when the file was clean).
    pub dropped_lines: usize,
    /// Bytes truncated off the end of the file.
    pub dropped_bytes: u64,
    /// Where the pre-salvage file contents were preserved (`None` when
    /// nothing was dropped).
    pub backup: Option<PathBuf>,
}

impl fmt::Display for SalvageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dropped_lines == 0 {
            write!(f, "store was clean ({} designs)", self.kept)
        } else {
            write!(
                f,
                "dropped {} trailing torn line(s), {} bytes; kept {} designs (backup: {})",
                self.dropped_lines,
                self.dropped_bytes,
                self.kept,
                self.backup
                    .as_deref()
                    .map_or_else(|| "none".into(), |p| p.display().to_string()),
            )
        }
    }
}

fn io_error(path: &Path, err: &std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        reason: err.to_string(),
    }
}

/// Acquire an advisory lock on `file` with bounded retry-with-backoff,
/// so concurrent multi-process writers serialize their appends instead
/// of failing or interleaving. Advisory locks are released by the OS
/// when the holder dies, so a killed writer never wedges the store.
fn lock_with_retry(file: &File, path: &Path, exclusive: bool) -> Result<(), StoreError> {
    let mut delay = Duration::from_millis(1);
    for _ in 0..12 {
        let attempt = if exclusive {
            file.try_lock()
        } else {
            file.try_lock_shared()
        };
        match attempt {
            Ok(()) => return Ok(()),
            Err(TryLockError::WouldBlock) => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(200));
            }
            Err(TryLockError::Error(err)) => return Err(io_error(path, &err)),
        }
    }
    Err(StoreError::Io {
        path: path.to_path_buf(),
        reason: "timed out waiting for the store file lock".into(),
    })
}

/// Scan the file for corruption and, when every bad line is trailing
/// (nothing valid follows the first unparseable line), truncate the
/// file back to the last good record, preserving the original bytes in
/// a `.bak` sibling. Returns how many lines/bytes were dropped, or
/// `Ok(None)`-equivalent zeros when the file was already clean or
/// absent.
///
/// Mid-file corruption — a valid record *after* a bad line — is not
/// salvageable by truncation and stays a hard [`StoreError::Corrupt`].
fn salvage_trailing(path: &Path) -> Result<SalvageReport, StoreError> {
    let data = match std::fs::read(path) {
        Ok(data) => data,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
            return Ok(SalvageReport::default())
        }
        Err(err) => return Err(io_error(path, &err)),
    };
    let mut pos = 0usize;
    let mut line_no = 0usize;
    let mut truncate_at: Option<(usize, usize)> = None; // (byte offset, line number)
    let mut dropped_lines = 0usize;
    while pos < data.len() {
        let end = data[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(data.len(), |i| pos + i + 1);
        line_no += 1;
        let parsed = std::str::from_utf8(&data[pos..end]).ok().map(str::trim);
        match parsed {
            Some("") => {} // blank lines are ignored by the loader
            Some(line)
                if serde_json::from_str::<DesignRecord>(line).is_ok_and(|r| verify(&r).is_ok()) =>
            {
                if let Some((_, bad_line)) = truncate_at {
                    return Err(StoreError::Corrupt {
                        path: path.to_path_buf(),
                        line: bad_line,
                        reason: format!(
                            "valid records follow the corrupt line (line {line_no} parses); \
                             truncation cannot salvage mid-file corruption"
                        ),
                    });
                }
            }
            _ => {
                if truncate_at.is_none() {
                    truncate_at = Some((pos, line_no));
                }
                dropped_lines += 1;
            }
        }
        pos = end;
    }
    let Some((offset, _)) = truncate_at else {
        return Ok(SalvageReport::default());
    };
    // Preserve the original bytes, then truncate in place. The backup
    // goes through atomic_write so a crash mid-salvage cannot leave a
    // torn backup next to a truncated store.
    let mut backup_name = path.as_os_str().to_owned();
    backup_name.push(".bak");
    let backup = PathBuf::from(backup_name);
    crate::io::atomic_write(&backup, &data).map_err(|err| io_error(&backup, &err))?;
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|err| io_error(path, &err))?;
    file.set_len(offset as u64)
        .and_then(|()| file.sync_all())
        .map_err(|err| io_error(path, &err))?;
    Ok(SalvageReport {
        kept: 0, // filled in by the caller once the remainder loads
        dropped_lines,
        dropped_bytes: (data.len() - offset) as u64,
        backup: Some(backup),
    })
}

/// Why a parsed record cannot be loaded, if it cannot: its fingerprint
/// does not match its network, or the cost model would panic on the
/// network — a live weight that does not fit its layer's input width,
/// a layer whose fan-in differs from the previous layer's width, or a
/// layer after the argmax output layer.
fn verify(record: &DesignRecord) -> Result<(), String> {
    if record.fingerprint != fingerprint_of(&record.mlp) {
        return Err("fingerprint does not match the stored network".into());
    }
    let layers = &record.mlp.layers;
    let mut width = layers
        .first()
        .and_then(|layer| layer.neurons.first())
        .map_or(0, |neuron| neuron.weights.len());
    for (li, layer) in layers.iter().enumerate() {
        if li > 0 && layers[li - 1].qrelu.is_none() {
            return Err(format!("layer {li} follows the argmax output layer"));
        }
        for (ni, neuron) in layer.neurons.iter().enumerate() {
            if neuron.weights.len() != width {
                return Err(format!(
                    "layer {li} neuron {ni} has fan-in {}, but its layer's inputs are {width} wide",
                    neuron.weights.len()
                ));
            }
            // The summand of each live weight, validated as the cost
            // model validates it, built in place: allocating a spec per
            // neuron made this check ~6x slower.
            for weight in neuron.weights.iter().filter(|w| w.mask != 0) {
                Summand::MaskedInput {
                    input_bits: layer.input_bits,
                    mask: u64::from(weight.mask),
                    shift: u32::from(weight.shift),
                    negative: weight.negative,
                }
                .validate()
                .map_err(|err| format!("layer {li} neuron {ni}: {err}"))?;
            }
        }
        width = layer.neurons.len();
    }
    Ok(())
}

/// Parse every line of a store file into records, [`verify`]ing each.
/// `missing_ok` treats an absent file as empty (the writer's
/// create-on-open case); readers keep it strict.
fn load_lines(path: &Path, missing_ok: bool) -> Result<Vec<DesignRecord>, StoreError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) if missing_ok && err.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(err) => return Err(io_error(path, &err)),
    };
    let mut records = Vec::new();
    for (at, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: DesignRecord =
            serde_json::from_str(line).map_err(|err| StoreError::Corrupt {
                path: path.to_path_buf(),
                line: at + 1,
                reason: err.to_string(),
            })?;
        verify(&record).map_err(|reason| StoreError::Corrupt {
            path: path.to_path_buf(),
            line: at + 1,
            reason,
        })?;
        records.push(record);
    }
    Ok(records)
}

/// The ingest side of a store file: thread-safe, append-only,
/// deduplicating.
///
/// Opening loads any existing records (so dedup spans sessions), then
/// every [`ingest`](Self::ingest) either appends one JSON line (new
/// design, or new information about a stored one) or is a counted
/// no-op (pure duplicate). All state is behind a mutex plus atomics,
/// so one writer can be shared across search threads; the lifetime
/// counters ([`stats`](Self::stats)) are totals and therefore
/// independent of thread interleaving.
#[derive(Debug)]
pub struct StoreWriter {
    path: PathBuf,
    inner: Mutex<Inner>,
    ingested: AtomicU64,
    deduplicated: AtomicU64,
    bytes_written: AtomicU64,
}

#[derive(Debug)]
struct Inner {
    file: File,
    table: Table,
}

impl StoreWriter {
    /// Open (creating if absent, including parent directories) the
    /// store file at `path` and load its existing records.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be created or read;
    /// [`StoreError::Corrupt`] when an existing line fails to parse or
    /// verify.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|err| io_error(&path, &err))?;
            }
        }
        let file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|err| io_error(&path, &err))?;
        // Load under a shared lock so a concurrent writer's in-flight
        // append cannot be observed half-written.
        lock_with_retry(&file, &path, false)?;
        let loaded = load_lines(&path, true);
        let _ = file.unlock();
        let mut table = Table::default();
        for record in loaded? {
            let _ = table.merge(record);
        }
        Ok(Self {
            path,
            inner: Mutex::new(Inner { file, table }),
            ingested: AtomicU64::new(0),
            deduplicated: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        })
    }

    /// [`open`](Self::open), but a store whose only corruption is a
    /// trailing torn line (the signature of a killed append) is
    /// repaired first: the file is truncated back to the last good
    /// record, the original bytes are kept in a `.bak` sibling, and
    /// the report says what was dropped. Mid-file corruption still
    /// fails hard.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures;
    /// [`StoreError::Corrupt`] when valid records follow the first
    /// corrupt line (truncation would lose good data).
    pub fn open_salvaged(path: impl Into<PathBuf>) -> Result<(Self, SalvageReport), StoreError> {
        let path = path.into();
        let mut report = salvage_trailing(&path)?;
        let writer = Self::open(path)?;
        report.kept = writer.len();
        Ok((writer, report))
    }

    /// The store file this writer appends to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Ingest one record: deduplicate against the in-memory index and
    /// append a JSON line when the record is new or carries new
    /// information about a stored design.
    ///
    /// The append itself happens under an advisory file lock (acquired
    /// with bounded retry-with-backoff), so several processes can
    /// share one store file without interleaving their lines; the lock
    /// is released by the OS if the holder dies mid-append, and the
    /// torn tail such a death leaves behind is what
    /// [`open_salvaged`](Self::open_salvaged) repairs.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the append fails (or when a `PE_FAULT`
    /// rule for the `store_append` site injects a failure). The
    /// in-memory index is updated first, so a failed append degrades
    /// to a memory-only record rather than inconsistent state.
    pub fn ingest(&self, record: DesignRecord) -> Result<IngestOutcome, StoreError> {
        let line = serde_json::to_string(&record).map_err(|err| StoreError::Io {
            path: self.path.clone(),
            reason: format!("serialize record: {err}"),
        })?;
        let mut inner = self.lock();
        let merge = inner.table.merge(record);
        if matches!(merge, Merge::Duplicate) {
            self.deduplicated.fetch_add(1, Ordering::Relaxed);
            return Ok(IngestOutcome {
                new_design: false,
                bytes: 0,
            });
        }
        let mut payload = line.into_bytes();
        payload.push(b'\n');
        lock_with_retry(&inner.file, &self.path, true)?;
        match fault::check(SITE_STORE_APPEND) {
            Some(FaultAction::Err) => {
                let _ = inner.file.unlock();
                return Err(StoreError::Io {
                    path: self.path.clone(),
                    reason: "injected fault: store_append".into(),
                });
            }
            Some(FaultAction::Kill) => {
                // Crash drill: half a line reaches the file, then the
                // process dies holding the lock — the exact torn tail
                // salvage must repair (and the OS must release).
                let _ = inner.file.write_all(&payload[..payload.len() / 2]);
                let _ = inner.file.sync_all();
                fault::kill_now();
            }
            None => {}
        }
        let appended = inner.file.write_all(&payload);
        let _ = inner.file.unlock();
        appended.map_err(|err| io_error(&self.path, &err))?;
        drop(inner);
        let bytes = payload.len() as u64;
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        let new_design = matches!(merge, Merge::Inserted);
        if new_design {
            self.ingested.fetch_add(1, Ordering::Relaxed);
        } else {
            self.deduplicated.fetch_add(1, Ordering::Relaxed);
        }
        Ok(IngestOutcome { new_design, bytes })
    }

    /// Snapshot the lifetime ingest counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            ingested: self.ingested.load(Ordering::Relaxed),
            deduplicated: self.deduplicated.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Unique designs currently held (across all datasets).
    pub fn len(&self) -> usize {
        self.lock().table.records.len()
    }

    /// Whether the store holds no designs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clone the current merged records, optionally restricted to one
    /// dataset — the warm-start path captures this once, before the
    /// run it seeds writes anything.
    pub fn snapshot(&self, dataset: Option<&str>) -> Vec<DesignRecord> {
        let inner = self.lock();
        inner
            .table
            .records
            .iter()
            .filter(|r| dataset.is_none_or(|d| r.dataset == d))
            .cloned()
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The query side: a read-only, fully merged snapshot of a store file.
///
/// Loading never writes; queries over a `DesignStore` are pure reads.
#[derive(Debug, Clone)]
pub struct DesignStore {
    path: PathBuf,
    table: Table,
}

impl DesignStore {
    /// Load and merge every record of the store file at `path`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be read (including when
    /// it does not exist); [`StoreError::Corrupt`] when a line fails
    /// to parse or verify.
    pub fn load(path: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let path = path.into();
        let mut table = Table::default();
        for record in load_lines(&path, false)? {
            let _ = table.merge(record);
        }
        Ok(Self { path, table })
    }

    /// [`load`](Self::load), but a trailing torn line (the signature
    /// of a crash mid-append) is truncated back to the last good
    /// record first, with the original bytes preserved in a `.bak`
    /// sibling. The report says what (if anything) was dropped;
    /// mid-file corruption still fails hard.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be read or repaired
    /// (including when it does not exist);
    /// [`StoreError::Corrupt`] when valid records follow the first
    /// corrupt line (truncation would lose good data).
    pub fn open_salvaged(path: impl Into<PathBuf>) -> Result<(Self, SalvageReport), StoreError> {
        let path = path.into();
        let mut report = salvage_trailing(&path)?;
        let store = Self::load(path)?;
        report.kept = store.len();
        Ok((store, report))
    }

    /// The file this snapshot was loaded from.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Every unique design, in first-seen order.
    #[must_use]
    pub fn records(&self) -> &[DesignRecord] {
        &self.table.records
    }

    /// The designs of one dataset, in first-seen order.
    pub fn dataset<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a DesignRecord> + 'a {
        let name = name.to_string();
        self.table.records.iter().filter(move |r| r.dataset == name)
    }

    /// Sorted unique dataset names present in the store.
    #[must_use]
    pub fn datasets(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .table
            .records
            .iter()
            .map(|r| r.dataset.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Look one design up by its dedup key.
    #[must_use]
    pub fn get(&self, dataset: &str, fingerprint: u64) -> Option<&DesignRecord> {
        self.table
            .index
            .get(&(dataset.to_string(), fingerprint))
            .map(|&at| &self.table.records[at])
    }

    /// The design a pipeline select stage marked for `dataset`, if
    /// any.
    #[must_use]
    pub fn selected(&self, dataset: &str) -> Option<&DesignRecord> {
        self.dataset(dataset).find(|r| r.selected)
    }

    /// Number of unique designs (across all datasets).
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.records.len()
    }

    /// Whether the store holds no designs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_mlp::{AxLayer, AxMlp, AxNeuron, AxWeight, QReluCfg};
    use std::sync::atomic::AtomicUsize;

    fn scratch_path(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "pe-store-test-{}-{tag}-{unique}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn mlp(bias: i32) -> AxMlp {
        AxMlp {
            layers: vec![AxLayer {
                input_bits: 4,
                neurons: vec![AxNeuron {
                    weights: vec![AxWeight {
                        mask: 0b1011,
                        shift: 2,
                        negative: false,
                    }],
                    bias,
                }],
                qrelu: Some(QReluCfg {
                    out_bits: 8,
                    shift: 1,
                }),
            }],
        }
    }

    fn record(bias: i32) -> DesignRecord {
        DesignRecord::new("demo", mlp(bias), 0.9, 10.0)
    }

    #[test]
    fn round_trip_preserves_records() {
        let path = scratch_path("round-trip");
        let writer = StoreWriter::open(&path).expect("open");
        for bias in [1, 2, 3] {
            let outcome = writer.ingest(record(bias)).expect("ingest");
            assert!(outcome.new_design);
        }
        let loaded = DesignStore::load(&path).expect("load");
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded.records()[1], record(2));
        assert_eq!(loaded.get("demo", record(3).fingerprint), Some(&record(3)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicates_collapse_and_are_counted() {
        let path = scratch_path("dedup");
        let writer = StoreWriter::open(&path).expect("open");
        assert!(writer.ingest(record(5)).expect("ingest").new_design);
        let dup = writer.ingest(record(5)).expect("ingest");
        assert!(!dup.new_design);
        assert_eq!(dup.bytes, 0);
        assert_eq!(
            writer.stats(),
            StoreStats {
                ingested: 1,
                deduplicated: 1,
                bytes_written: writer.stats().bytes_written,
            }
        );
        assert!(writer.stats().bytes_written > 0);
        assert_eq!(DesignStore::load(&path).expect("load").len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dedup_spans_sessions() {
        let path = scratch_path("sessions");
        {
            let writer = StoreWriter::open(&path).expect("open");
            let _ = writer.ingest(record(7)).expect("ingest");
        }
        let writer = StoreWriter::open(&path).expect("reopen");
        assert!(!writer.ingest(record(7)).expect("ingest").new_design);
        assert_eq!(writer.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn annotation_merges_into_the_same_design() {
        let path = scratch_path("annotate");
        let writer = StoreWriter::open(&path).expect("open");
        let _ = writer.ingest(record(9)).expect("ingest");
        let mut annotated = record(9);
        annotated.test_accuracy = Some(0.87);
        annotated.selected = true;
        let outcome = writer.ingest(annotated).expect("annotate");
        assert!(!outcome.new_design);
        assert!(outcome.bytes > 0, "new information is persisted");
        let loaded = DesignStore::load(&path).expect("load");
        assert_eq!(loaded.len(), 1);
        let merged = loaded.selected("demo").expect("selected design");
        assert_eq!(merged.test_accuracy, Some(0.87));
        assert_eq!(merged.train_accuracy, 0.9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_line_is_a_clean_error() {
        let path = scratch_path("truncated");
        {
            let writer = StoreWriter::open(&path).expect("open");
            let _ = writer.ingest(record(1)).expect("ingest");
        }
        // Simulate a crash mid-append: drop the trailing half of the
        // file.
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, &text[..text.len() / 2]).expect("truncate");
        let err = DesignStore::load(&path).expect_err("truncated store must not load");
        assert!(matches!(err, StoreError::Corrupt { line: 1, .. }), "{err}");
        assert!(err.to_string().contains("corrupt"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tampered_fingerprint_is_a_clean_error() {
        let path = scratch_path("tampered");
        {
            let writer = StoreWriter::open(&path).expect("open");
            let _ = writer.ingest(record(1)).expect("ingest");
        }
        let mut tampered = record(1);
        tampered.fingerprint ^= 1;
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str(&serde_json::to_string(&tampered).expect("serialize"));
        text.push('\n');
        std::fs::write(&path, text).expect("write");
        let err = DesignStore::load(&path).expect_err("bad fingerprint must not load");
        assert!(matches!(err, StoreError::Corrupt { line: 2, .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn networks_the_cost_model_cannot_price_are_a_clean_error() {
        let layer = |width: usize, fan_in: usize, qrelu: Option<QReluCfg>| AxLayer {
            input_bits: 4,
            neurons: vec![
                AxNeuron {
                    weights: vec![
                        AxWeight {
                            mask: 0b1011,
                            shift: 2,
                            negative: false,
                        };
                        fan_in
                    ],
                    bias: 0,
                };
                width
            ],
            qrelu,
        };
        let hidden = Some(QReluCfg {
            out_bits: 4,
            shift: 1,
        });
        // An 8-bit mask on a 4-bit layer.
        let mut wide_mask = AxMlp {
            layers: vec![layer(2, 2, None)],
        };
        wide_mask.layers[0].neurons[0].weights[0].mask = 0xFF;
        // A fan-in-3 neuron after a 2-neuron layer.
        let fan_in = AxMlp {
            layers: vec![layer(2, 2, hidden), layer(2, 3, None)],
        };
        // A layer after the argmax output layer.
        let after_argmax = AxMlp {
            layers: vec![layer(2, 2, None), layer(2, 2, None)],
        };
        for (mlp, why) in [
            (wide_mask, "mask"),
            (fan_in, "fan-in"),
            (after_argmax, "argmax"),
        ] {
            let mut bad = record(1);
            bad.fingerprint = fingerprint_of(&mlp);
            bad.mlp = mlp;
            let text: String = [record(2), bad]
                .iter()
                .map(|r| serde_json::to_string(r).expect("serialize") + "\n")
                .collect();
            let path = scratch_path("unpriceable");
            std::fs::write(&path, text).expect("write");
            let err = DesignStore::load(&path).expect_err("unpriceable network must not load");
            assert!(matches!(err, StoreError::Corrupt { line: 2, .. }), "{err}");
            assert!(err.to_string().contains(why), "{err}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn salvage_truncates_a_trailing_torn_line() {
        let path = scratch_path("salvage-tail");
        {
            let writer = StoreWriter::open(&path).expect("open");
            let _ = writer.ingest(record(1)).expect("ingest");
            let _ = writer.ingest(record(2)).expect("ingest");
        }
        let clean = std::fs::read(&path).expect("read");
        // Simulate a killed append: a half-written third record.
        let torn_line = serde_json::to_string(&record(3)).expect("serialize");
        let mut torn = clean.clone();
        torn.extend_from_slice(&torn_line.as_bytes()[..torn_line.len() / 2]);
        std::fs::write(&path, &torn).expect("write torn");

        assert!(DesignStore::load(&path).is_err(), "strict load refuses");
        let (store, report) = DesignStore::open_salvaged(&path).expect("salvage");
        assert_eq!(store.len(), 2);
        assert_eq!(report.kept, 2);
        assert_eq!(report.dropped_lines, 1);
        assert_eq!(report.dropped_bytes, (torn.len() - clean.len()) as u64);
        let backup = report.backup.expect("backup kept");
        assert_eq!(std::fs::read(&backup).expect("read backup"), torn);
        // The repaired file is byte-identical to the pre-crash state
        // and appendable again.
        assert_eq!(std::fs::read(&path).expect("read"), clean);
        let (writer, report) = StoreWriter::open_salvaged(&path).expect("reopen");
        assert_eq!(report.dropped_lines, 0, "already repaired");
        assert!(writer.ingest(record(3)).expect("append resumes").new_design);
        assert_eq!(DesignStore::load(&path).expect("load").len(), 3);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&backup);
    }

    #[test]
    fn salvage_reports_a_clean_file_untouched() {
        let path = scratch_path("salvage-clean");
        {
            let writer = StoreWriter::open(&path).expect("open");
            let _ = writer.ingest(record(4)).expect("ingest");
        }
        let before = std::fs::read(&path).expect("read");
        let (store, report) = DesignStore::open_salvaged(&path).expect("salvage");
        assert_eq!(store.len(), 1);
        assert_eq!(
            report,
            SalvageReport {
                kept: 1,
                ..SalvageReport::default()
            }
        );
        assert_eq!(std::fs::read(&path).expect("read"), before);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn salvage_refuses_mid_file_corruption() {
        let path = scratch_path("salvage-mid");
        {
            let writer = StoreWriter::open(&path).expect("open");
            let _ = writer.ingest(record(1)).expect("ingest");
            let _ = writer.ingest(record(2)).expect("ingest");
        }
        // Corrupt the FIRST line: a later line still parses, so
        // truncation would destroy good data and must be refused.
        let text = std::fs::read_to_string(&path).expect("read");
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[0] = lines[0][..lines[0].len() / 2].to_string();
        std::fs::write(&path, lines.join("\n") + "\n").expect("write");
        let err = DesignStore::open_salvaged(&path).expect_err("must refuse");
        assert!(matches!(err, StoreError::Corrupt { line: 1, .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn salvage_of_a_wholly_torn_file_yields_an_empty_store() {
        let path = scratch_path("salvage-all");
        std::fs::write(&path, "{\"half\":").expect("write");
        let (writer, report) = StoreWriter::open_salvaged(&path).expect("salvage");
        assert!(writer.is_empty());
        assert_eq!(report.kept, 0);
        assert_eq!(report.dropped_lines, 1);
        assert!(writer.ingest(record(1)).expect("ingest").new_design);
        let backup = report.backup.expect("backup kept");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&backup);
    }

    #[test]
    fn concurrent_writers_on_one_file_lose_no_records() {
        // Two independent writers (as two processes would open them)
        // interleave appends on one path; every record must survive
        // and the merged load must see the union.
        let path = scratch_path("two-writers");
        let a = StoreWriter::open(&path).expect("open a");
        let b = StoreWriter::open(&path).expect("open b");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for bias in 0..20 {
                    let _ = a.ingest(record(bias)).expect("a ingests");
                }
            });
            scope.spawn(|| {
                for bias in 10..30 {
                    let _ = b.ingest(record(bias)).expect("b ingests");
                }
            });
        });
        let loaded = DesignStore::load(&path).expect("interleaved file loads");
        assert_eq!(loaded.len(), 30, "the union of both writers survives");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_errors_for_readers_but_not_writers() {
        let path = scratch_path("missing");
        assert!(matches!(
            DesignStore::load(&path),
            Err(StoreError::Io { .. })
        ));
        let writer = StoreWriter::open(&path).expect("writer creates the file");
        assert!(writer.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_filters_by_dataset() {
        let path = scratch_path("snapshot");
        let writer = StoreWriter::open(&path).expect("open");
        let _ = writer.ingest(record(1)).expect("ingest");
        let other = DesignRecord::new("other", mlp(2), 0.8, 9.0);
        let _ = writer.ingest(other).expect("ingest");
        assert_eq!(writer.snapshot(None).len(), 2);
        assert_eq!(writer.snapshot(Some("demo")).len(), 1);
        assert_eq!(writer.snapshot(Some("absent")).len(), 0);
        let _ = std::fs::remove_file(&path);
    }
}
