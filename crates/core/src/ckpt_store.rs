//! Atomic, self-healing on-disk storage for training snapshots.
//!
//! A [`CheckpointStore`] owns one directory of `DROPBKv2` snapshot files
//! and upholds two promises:
//!
//! 1. **Writes are atomic.** A snapshot is streamed to a `.partial` temp
//!    file, `fsync`-ed, and only then renamed into place (followed by a
//!    best-effort directory fsync). A crash mid-write leaves at worst a
//!    stray `.partial` file that loading ignores — never a truncated
//!    snapshot under the real name.
//! 2. **Loads fall back.** [`CheckpointStore::load_latest`] walks
//!    snapshots newest-first and skips any that fail validation
//!    (truncation, CRC mismatch, hostile lengths), recording what it
//!    skipped so callers can warn. Only *incompatibility* (wrong seed,
//!    model, optimizer) aborts the walk — falling back past those would
//!    silently resume a different experiment.
//!
//! The store retains the newest `keep` snapshots and prunes the rest.
//! For tests, [`CheckpointStore::inject_write_fault`] arms a
//! deterministic [`FaultMode`] for the *n*-th write, proving the recovery
//! path end to end.

use crate::chaos::{FaultInjector, FaultMode};
use crate::checkpoint::CheckpointError;
use crate::train_state::TrainState;
use dropback_telemetry::{Event, Stopwatch, Telemetry};
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

const SNAPSHOT_EXT: &str = "dbk2";
const PARTIAL_SUFFIX: &str = ".partial";

/// Directory-backed snapshot storage with atomic writes, bounded
/// retention, and corruption fallback on load.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
    every: usize,
    resume: bool,
    /// Armed test faults: 0-based write ordinal → fault to inject.
    write_faults: BTreeMap<u64, FaultMode>,
    writes: u64,
    skipped: Vec<(PathBuf, CheckpointError)>,
}

impl CheckpointStore {
    /// Opens (creating if needed) a snapshot directory. Defaults: keep
    /// the 3 newest snapshots, snapshot every epoch, resume enabled.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            keep: 3,
            every: 1,
            resume: true,
            write_faults: BTreeMap::new(),
            writes: 0,
            skipped: Vec::new(),
        })
    }

    /// Retain the newest `n` snapshots (minimum 1).
    pub fn keep(mut self, n: usize) -> Self {
        self.keep = n.max(1);
        self
    }

    /// Snapshot every `n` epochs (minimum 1; the final epoch is always
    /// snapshotted regardless).
    pub fn every(mut self, n: usize) -> Self {
        self.every = n.max(1);
        self
    }

    /// Whether `Trainer::run_resumable` should load the latest snapshot
    /// before training (`true`, the default) or start fresh and only
    /// write snapshots (`false`).
    pub fn resume(mut self, yes: bool) -> Self {
        self.resume = yes;
        self
    }

    /// The snapshot directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether loading on resume is enabled.
    pub fn resume_enabled(&self) -> bool {
        self.resume
    }

    /// True when the epoch that just finished (`epoch`, 0-based, out of
    /// `total`) is due a snapshot: every `every`-th epoch and the last.
    pub fn due(&self, epoch: usize, total: usize) -> bool {
        (epoch + 1).is_multiple_of(self.every) || epoch + 1 == total
    }

    /// Arms a deterministic fault for the `nth` snapshot write (0-based).
    /// Test hook: proves torn writes are survived, not just hoped about.
    pub fn inject_write_fault(&mut self, nth: u64, mode: FaultMode) {
        self.write_faults.insert(nth, mode);
    }

    /// Corrupt or unreadable snapshots skipped by [`Self::load_latest`]
    /// since the last call, oldest-skip first. Callers surface these as
    /// warnings.
    pub fn take_skipped(&mut self) -> Vec<(PathBuf, CheckpointError)> {
        std::mem::take(&mut self.skipped)
    }

    fn snapshot_path(&self, next_epoch: usize) -> PathBuf {
        // Zero-padded so lexicographic order == numeric order.
        self.dir
            .join(format!("state-{next_epoch:08}.{SNAPSHOT_EXT}"))
    }

    /// Snapshot files in the directory, sorted ascending by name (and
    /// therefore by epoch). `.partial` leftovers are excluded.
    fn list_snapshots(&self) -> Result<Vec<PathBuf>, CheckpointError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let is_snapshot = path
                .extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| e == SNAPSHOT_EXT);
            if is_snapshot && path.is_file() {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }

    /// Atomically writes `state` as the snapshot for its `next_epoch`,
    /// prunes snapshots beyond the retention limit, and records
    /// `checkpoint.write_ns` / `checkpoint.bytes` telemetry.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (including injected faults). On failure
    /// the target path is untouched; at worst a `.partial` temp file
    /// remains, which subsequent loads ignore and subsequent saves
    /// overwrite.
    pub fn save(
        &mut self,
        state: &TrainState,
        telemetry: &mut Telemetry,
    ) -> Result<PathBuf, CheckpointError> {
        let watch = Stopwatch::started_if(telemetry.is_active());
        let fault = self
            .write_faults
            .remove(&self.writes)
            .unwrap_or(FaultMode::None);
        self.writes += 1;

        let final_path = self.snapshot_path(state.progress.next_epoch);
        let tmp_path = {
            let mut name = final_path
                .file_name()
                .map(|n| n.to_os_string())
                .unwrap_or_default();
            name.push(PARTIAL_SUFFIX);
            self.dir.join(name)
        };

        let result = self.write_snapshot(state, &tmp_path, fault);
        match result {
            Ok(bytes) => {
                fs::rename(&tmp_path, &final_path)?;
                // Best-effort directory fsync so the rename itself is
                // durable; some filesystems refuse fsync on directories.
                if let Ok(d) = File::open(&self.dir) {
                    let _ = d.sync_all();
                }
                self.prune()?;
                if telemetry.is_active() {
                    telemetry.collector().counter("checkpoint.bytes").add(bytes);
                    if let Some(ns) = watch.elapsed_ns() {
                        telemetry
                            .collector()
                            .histogram("checkpoint.write_ns")
                            .record(ns as f64);
                    }
                    telemetry.emit(
                        Event::new("checkpoint")
                            .with("path", final_path.to_string_lossy().as_ref())
                            .with("bytes", bytes),
                    );
                }
                Ok(final_path)
            }
            Err(e) => {
                // Leave no half-written file behind under the temp name.
                let _ = fs::remove_file(&tmp_path);
                if telemetry.is_active() {
                    telemetry
                        .collector()
                        .counter("checkpoint.write_failed")
                        .add(1);
                    telemetry.emit(
                        Event::new("checkpoint_write_failed")
                            .with("path", final_path.to_string_lossy().as_ref())
                            .with("error", e.to_string().as_str()),
                    );
                }
                Err(e)
            }
        }
    }

    fn write_snapshot(
        &self,
        state: &TrainState,
        tmp_path: &Path,
        fault: FaultMode,
    ) -> Result<u64, CheckpointError> {
        let file = File::create(tmp_path)?;
        let mut sink = FaultInjector::new(BufWriter::new(file), fault);
        state.write_to(&mut sink)?;
        sink.flush()?;
        let bytes = sink.position();
        let inner = sink.into_inner();
        inner
            .into_inner()
            .map_err(|e| CheckpointError::Io(e.into_error()))?
            .sync_all()?;
        Ok(bytes)
    }

    fn prune(&self) -> Result<(), CheckpointError> {
        let snapshots = self.list_snapshots()?;
        if snapshots.len() > self.keep {
            for old in &snapshots[..snapshots.len() - self.keep] {
                fs::remove_file(old)?;
            }
        }
        Ok(())
    }

    /// Name of the newest *committed* snapshot, without opening it: a
    /// directory listing plus a sort, no decode and no CRC. "Valid" here
    /// means the file was committed via the atomic temp-write + rename
    /// protocol (a `.partial` leftover is never returned); byte-level
    /// validation still happens in [`Self::load_latest`], which falls
    /// back past corruption.
    ///
    /// This is the cheap poll a hot-swap watcher runs every tick: only
    /// when the returned path *changes* does it pay for a full
    /// [`Self::load_latest`]. Returns `Ok(None)` for an empty directory.
    ///
    /// # Errors
    ///
    /// Fails only if the directory cannot be listed.
    pub fn latest_valid(&self) -> Result<Option<PathBuf>, CheckpointError> {
        Ok(self.list_snapshots()?.pop())
    }

    /// Loads the newest readable snapshot, falling back past corrupt or
    /// truncated files (each recorded for [`Self::take_skipped`] and
    /// counted as `checkpoint.recovered`). Returns `Ok(None)` when the
    /// directory holds no readable snapshot.
    ///
    /// # Errors
    ///
    /// Directory listing failures only — per-file corruption is handled
    /// by falling back, not returned.
    pub fn load_latest(
        &mut self,
        telemetry: &mut Telemetry,
    ) -> Result<Option<TrainState>, CheckpointError> {
        let mut snapshots = self.list_snapshots()?;
        snapshots.reverse(); // newest first
        for path in snapshots {
            match self.read_snapshot(&path) {
                Ok(state) => {
                    if telemetry.is_active() {
                        telemetry.emit(
                            Event::new("checkpoint_loaded")
                                .with("path", path.to_string_lossy().as_ref())
                                .with("next_epoch", state.progress.next_epoch as u64),
                        );
                    }
                    return Ok(Some(state));
                }
                Err(e) => {
                    if telemetry.is_active() {
                        telemetry.collector().counter("checkpoint.recovered").add(1);
                        telemetry.emit(
                            Event::new("checkpoint_skipped")
                                .with("path", path.to_string_lossy().as_ref())
                                .with("error", e.to_string().as_str()),
                        );
                    }
                    self.skipped.push((path, e));
                }
            }
        }
        Ok(None)
    }

    fn read_snapshot(&self, path: &Path) -> Result<TrainState, CheckpointError> {
        let file = File::open(path)?;
        TrainState::read_from(BufReader::new(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train_state::TrainProgress;
    use dropback_nn::models;
    use dropback_optim::{DropBack, Optimizer};
    use std::io::{Read, Seek, SeekFrom};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dropback-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn snapshot_at(epoch: usize) -> TrainState {
        let mut net = models::mnist_100_100(11);
        let mut opt = DropBack::new(500);
        opt.step(net.store_mut(), 0.0);
        // Perturb a few weights so the snapshot has entries.
        for i in 0..8 {
            net.store_mut().params_mut()[i * 100] = epoch as f32 + i as f32;
        }
        let progress = TrainProgress {
            next_epoch: epoch,
            iteration: epoch as u64 * 10,
            ..TrainProgress::fresh()
        };
        TrainState::capture(&net, &opt, 0x5EED, &progress)
    }

    #[test]
    fn save_then_load_round_trips() {
        let dir = tmp_dir("roundtrip");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut tel = Telemetry::disabled();
        let state = snapshot_at(1);
        let path = store.save(&state, &mut tel).unwrap();
        assert!(path.ends_with("state-00000001.dbk2"));
        let loaded = store.load_latest(&mut tel).unwrap().unwrap();
        assert_eq!(state, loaded);
        assert!(store.take_skipped().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_only_the_newest() {
        let dir = tmp_dir("retention");
        let mut store = CheckpointStore::open(&dir).unwrap().keep(2);
        let mut tel = Telemetry::disabled();
        for epoch in 1..=5 {
            store.save(&snapshot_at(epoch), &mut tel).unwrap();
        }
        let files = store.list_snapshots().unwrap();
        let names: Vec<_> = files
            .iter()
            .filter_map(|p| p.file_name().and_then(|n| n.to_str()))
            .collect();
        assert_eq!(names, ["state-00000004.dbk2", "state-00000005.dbk2"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_leaves_previous_snapshot_loadable() {
        let dir = tmp_dir("torn");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut tel = Telemetry::disabled();
        let good = snapshot_at(1);
        store.save(&good, &mut tel).unwrap();
        // Second write dies partway through.
        store.inject_write_fault(1, FaultMode::FailWriteAfter(40));
        let err = store.save(&snapshot_at(2), &mut tel).unwrap_err();
        assert!(err.to_string().contains("injected"));
        // No .partial debris, no state-00000002 file.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(leftovers, ["state-00000001.dbk2"]);
        let loaded = store.load_latest(&mut tel).unwrap().unwrap();
        assert_eq!(good, loaded);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_falls_back_past_corrupted_newest() {
        let dir = tmp_dir("fallback");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut tel = Telemetry::disabled();
        let old = snapshot_at(1);
        store.save(&old, &mut tel).unwrap();
        let newest = store.save(&snapshot_at(2), &mut tel).unwrap();
        // Flip a byte in the newest snapshot's payload.
        let mut f = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&newest)
            .unwrap();
        f.seek(SeekFrom::Start(60)).unwrap();
        let mut b = [0u8; 1];
        f.read_exact(&mut b).unwrap();
        f.seek(SeekFrom::Start(60)).unwrap();
        f.write_all(&[b[0] ^ 0x40]).unwrap();
        drop(f);

        let loaded = store.load_latest(&mut tel).unwrap().unwrap();
        assert_eq!(old, loaded);
        let skipped = store.take_skipped();
        assert_eq!(skipped.len(), 1);
        assert!(skipped[0].0.ends_with("state-00000002.dbk2"));
        assert!(skipped[0].1.is_corruption());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_fully_corrupt_directory_loads_none() {
        let dir = tmp_dir("empty");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut tel = Telemetry::disabled();
        assert!(store.load_latest(&mut tel).unwrap().is_none());
        // A lone garbage file is skipped, not fatal.
        fs::write(dir.join("state-00000009.dbk2"), b"not a snapshot").unwrap();
        assert!(store.load_latest(&mut tel).unwrap().is_none());
        assert_eq!(store.take_skipped().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_valid_is_a_cheap_name_poll() {
        let dir = tmp_dir("latest-valid");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut tel = Telemetry::disabled();
        assert_eq!(store.latest_valid().unwrap(), None);

        store.save(&snapshot_at(1), &mut tel).unwrap();
        let first = store.latest_valid().unwrap().unwrap();
        assert!(first.ends_with("state-00000001.dbk2"));

        // A stray .partial (torn write debris) is never the candidate.
        fs::write(dir.join("state-00000007.dbk2.partial"), b"torn").unwrap();
        assert_eq!(store.latest_valid().unwrap().unwrap(), first);

        // A newer committed snapshot changes the answer — this name flip
        // is the only signal the hot-swap watcher polls for.
        store.save(&snapshot_at(2), &mut tel).unwrap();
        let second = store.latest_valid().unwrap().unwrap();
        assert!(second.ends_with("state-00000002.dbk2"));
        assert_ne!(first, second);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn due_honours_interval_and_final_epoch() {
        let dir = tmp_dir("due");
        let store = CheckpointStore::open(&dir).unwrap().every(3);
        assert!(!store.due(0, 8));
        assert!(!store.due(1, 8));
        assert!(store.due(2, 8)); // 3rd epoch
        assert!(store.due(5, 8)); // 6th epoch
        assert!(store.due(7, 8)); // final epoch always
        let _ = fs::remove_dir_all(&dir);
    }
}
