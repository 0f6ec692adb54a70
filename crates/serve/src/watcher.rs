//! The hot-swap watcher: new snapshot on disk → new model in the slot.
//!
//! Every poll tick costs one directory listing
//! ([`dropback::CheckpointStore::latest_valid`]); only when the newest
//! committed snapshot *name* changes does the watcher pay for a full
//! [`dropback::CheckpointStore::load_latest`] — which reuses the
//! training stack's corruption fallback, so a torn or bit-rotted newest
//! file is skipped (counted, never served) and the walk lands on the
//! newest snapshot that actually validates. If that turns out to be the
//! generation already being served, the swap is a no-op and
//! `serve.swap_noop` ticks instead of `serve.swaps`.
//!
//! Counters: `serve.swaps` (generation replaced), `serve.swap_noop`
//! (newest name changed but no newer valid generation), `serve.swap_rejected`
//! (snapshots the fallback skipped as corrupt), `serve.swap_failed`
//! (valid snapshot that could not be turned into a servable model),
//! `serve.watch_errors` (poll failures, split into
//! `serve.watch_errors.io` — listing/socket-level — and
//! `serve.watch_errors.decode` — a snapshot that would not parse).
//! Gauge: `serve.model_epoch`. Histogram: `serve.densify_ns`, the time
//! each swap spent rebuilding and densifying the new generation.
//!
//! A failing poll is **not** billed a bare poll interval: consecutive
//! failures back off exponentially with seeded jitter
//! ([`crate::clock::Backoff`]), so a wedged NFS mount costs a handful of
//! log-spaced probes instead of a tight error loop, and the first
//! success snaps the cadence back to the configured interval.

use crate::clock::Backoff;
use crate::error::ServeError;
use crate::model::{ModelSlot, ServingModel};
use crate::rt::{self, Shutdown};
use dropback::CheckpointStore;
use dropback_telemetry::{Collector, Telemetry};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// One poll step, factored out of the loop so tests can drive it
/// synchronously. Returns the path it considered, if any.
fn poll_once(
    store: &mut CheckpointStore,
    last_seen: &mut Option<PathBuf>,
    slot: &ModelSlot,
    collector: &Collector,
) -> Result<Option<PathBuf>, ServeError> {
    let Some(candidate) = store.latest_valid()? else {
        return Ok(None);
    };
    if last_seen.as_ref() == Some(&candidate) {
        return Ok(Some(candidate));
    }
    *last_seen = Some(candidate.clone());

    // The newest name changed: now (and only now) decode + CRC-validate.
    let mut tel = Telemetry::disabled();
    let loaded = store.load_latest(&mut tel)?;
    let rejected = store.take_skipped();
    collector
        .counter("serve.swap_rejected")
        .add(rejected.len() as u64);
    let Some(state) = loaded else {
        // Nothing in the directory validates; keep serving what we have.
        collector.counter("serve.swap_noop").inc();
        return Ok(Some(candidate));
    };

    let current = slot.get();
    if current.name() == state.model && current.epoch() == state.progress.next_epoch {
        // The corruption fallback walked back to the generation already
        // being served (e.g. the newest file is torn) — don't churn.
        collector.counter("serve.swap_noop").inc();
        return Ok(Some(candidate));
    }

    // Snapshots are named state-{epoch:08}.dbk2 by the store, so the
    // loaded state's epoch names its source file.
    let source = store
        .dir()
        .join(format!("state-{:08}.dbk2", state.progress.next_epoch));
    match ServingModel::from_state(&state, source) {
        Ok(model) => {
            let epoch = model.epoch();
            collector
                .histogram("serve.densify_ns")
                .record(model.densify_ns() as f64);
            slot.swap(Arc::new(model));
            collector.counter("serve.swaps").inc();
            collector.gauge("serve.model_epoch").set(epoch as f64);
        }
        Err(_) => {
            collector.counter("serve.swap_failed").inc();
        }
    }
    Ok(Some(candidate))
}

/// Buckets a poll failure for the `serve.watch_errors.*` counters: I/O
/// failures (directory gone, permission flaps, network filesystems) are
/// transient and worth backing off on; anything else means a snapshot
/// reached the decoder and was refused.
fn classify(e: &ServeError) -> &'static str {
    match e {
        ServeError::Io(_) => "io",
        ServeError::Checkpoint(dropback::CheckpointError::Io(_)) => "io",
        _ => "decode",
    }
}

/// Records one poll failure and returns how long to sleep before the
/// next attempt (the backoff's jittered delay, never shorter than the
/// configured poll interval).
fn note_failure(
    e: &ServeError,
    collector: &Collector,
    backoff: &mut Backoff,
    poll: Duration,
) -> Duration {
    collector.counter("serve.watch_errors").inc();
    collector
        .counter(&format!("serve.watch_errors.{}", classify(e)))
        .inc();
    backoff.next_delay().max(poll)
}

/// Spawns the watcher thread: polls `store` every `poll`, hot-swapping
/// `slot` when a newer valid snapshot appears, until `stop` triggers.
/// Consecutive poll failures stretch the interval via seeded-jitter
/// exponential backoff; a success resets it.
///
/// `last_seen` starts at the snapshot the server booted from, so the
/// first tick does not reload it.
///
/// # Errors
///
/// Propagates the OS error if the thread cannot be created.
pub fn start(
    mut store: CheckpointStore,
    initial_source: PathBuf,
    slot: Arc<ModelSlot>,
    collector: Arc<Collector>,
    stop: Arc<Shutdown>,
    poll: Duration,
) -> std::io::Result<rt::JoinHandle> {
    rt::spawn("watcher", move || {
        let mut last_seen = Some(initial_source);
        // The backoff seed only drives retry jitter, never results; a
        // fixed constant keeps watcher timing replayable run to run.
        let mut backoff = Backoff::new(0xD0_9BAC_C0FF, poll, Duration::from_secs(30));
        let mut wait = poll;
        while !stop.wait_for(wait) {
            wait = match poll_once(&mut store, &mut last_seen, &slot, &collector) {
                Ok(_) => {
                    backoff.reset();
                    poll
                }
                Err(e) => note_failure(&e, &collector, &mut backoff, poll),
            };
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dropback::{FaultInjector, FaultMode, TrainProgress, TrainState};
    use dropback_nn::models;
    use dropback_optim::{DropBack, Optimizer};
    use std::fs;
    use std::io::Write as _;
    use std::path::Path;

    fn state_at(epoch: usize) -> TrainState {
        let mut net = models::mnist_100_100(33);
        let mut opt = DropBack::new(200);
        opt.step(net.store_mut(), 0.0);
        for i in 0..16 {
            net.store_mut().params_mut()[i * 211] = epoch as f32 + 0.5;
        }
        let progress = TrainProgress {
            next_epoch: epoch,
            ..TrainProgress::fresh()
        };
        TrainState::capture(&net, &opt, 7, &progress)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dropback-watch-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Writes a snapshot file *without* the store's atomic protocol,
    /// dying mid-write: the torn file ends up visible under the real
    /// snapshot name, exactly what the fallback must refuse to serve.
    fn write_torn_snapshot(dir: &Path, epoch: usize, keep_bytes: u64) {
        let state = state_at(epoch);
        let path = dir.join(format!("state-{epoch:08}.dbk2"));
        let file = fs::File::create(&path).unwrap();
        let mut sink = FaultInjector::new(file, FaultMode::FailWriteAfter(keep_bytes));
        let _ = state.write_to(&mut sink);
        let _ = sink.flush();
    }

    #[test]
    fn newer_snapshot_swaps_and_torn_newest_is_skipped_not_served() {
        let dir = tmp_dir("swap");
        let mut store = CheckpointStore::open(&dir).unwrap().keep(10);
        let mut tel = Telemetry::disabled();
        let first = store.save(&state_at(1), &mut tel).unwrap();

        let slot = ModelSlot::new(ServingModel::from_state(&state_at(1), &first).unwrap());
        let collector = Collector::new();
        let mut last_seen = Some(first);

        // Tick with nothing new: no load, no counters.
        poll_once(&mut store, &mut last_seen, &slot, &collector).unwrap();
        assert_eq!(collector.counter("serve.swaps").get(), 0);

        // A newer valid snapshot appears → swap.
        store.save(&state_at(2), &mut tel).unwrap();
        poll_once(&mut store, &mut last_seen, &slot, &collector).unwrap();
        assert_eq!(collector.counter("serve.swaps").get(), 1);
        assert_eq!(slot.get().epoch(), 2);

        // A torn snapshot lands under the newest name → fallback walks
        // back to epoch 2, which is already serving: noop + rejected.
        write_torn_snapshot(&dir, 3, 64);
        poll_once(&mut store, &mut last_seen, &slot, &collector).unwrap();
        assert_eq!(slot.get().epoch(), 2, "torn snapshot must not be served");
        assert_eq!(collector.counter("serve.swap_noop").get(), 1);
        assert!(collector.counter("serve.swap_rejected").get() >= 1);
        assert_eq!(collector.counter("serve.swaps").get(), 1);

        // Same torn file on the next tick: name unchanged, no re-read.
        poll_once(&mut store, &mut last_seen, &slot, &collector).unwrap();
        assert_eq!(collector.counter("serve.swap_noop").get(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn poll_failures_are_classified_and_backed_off() {
        use dropback::CheckpointError;
        let io_err = ServeError::Io(std::io::Error::other("mount flapped"));
        let store_io = ServeError::Checkpoint(CheckpointError::Io(std::io::Error::other("gone")));
        let decode = ServeError::Checkpoint(CheckpointError::InvalidData("bad magic".into()));
        assert_eq!(classify(&io_err), "io");
        assert_eq!(classify(&store_io), "io");
        assert_eq!(classify(&decode), "decode");

        let collector = Collector::new();
        let poll = Duration::from_millis(10);
        let mut backoff = Backoff::new(5, poll, Duration::from_secs(30));
        let mut waits = Vec::new();
        for _ in 0..5 {
            waits.push(note_failure(&io_err, &collector, &mut backoff, poll));
        }
        let decode_wait = note_failure(&decode, &collector, &mut backoff, poll);

        assert_eq!(collector.counter("serve.watch_errors").get(), 6);
        assert_eq!(collector.counter("serve.watch_errors.io").get(), 5);
        assert_eq!(collector.counter("serve.watch_errors.decode").get(), 1);
        assert!(
            waits.iter().all(|w| *w >= poll),
            "a failing poll never fires faster than the configured interval"
        );
        assert!(
            decode_wait > poll * 4,
            "six consecutive failures must stretch the interval well past \
             the base ({decode_wait:?} vs {poll:?})"
        );
    }

    #[test]
    fn a_vanished_snapshot_directory_is_a_counted_error_not_a_crash() {
        let dir = tmp_dir("vanish");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut tel = Telemetry::disabled();
        let first = store.save(&state_at(1), &mut tel).unwrap();
        let slot = ModelSlot::new(ServingModel::from_state(&state_at(1), &first).unwrap());
        let collector = Collector::new();
        let mut last_seen = Some(first);

        fs::remove_dir_all(&dir).unwrap();
        let err = poll_once(&mut store, &mut last_seen, &slot, &collector).unwrap_err();
        assert_eq!(classify(&err), "io", "missing dir is an I/O flap: {err}");
        assert_eq!(slot.get().epoch(), 1, "the serving model is untouched");
    }

    #[test]
    fn watcher_thread_swaps_live_and_exits_on_shutdown() {
        let dir = tmp_dir("live");
        let mut store = CheckpointStore::open(&dir).unwrap().keep(10);
        let mut tel = Telemetry::disabled();
        let first = store.save(&state_at(1), &mut tel).unwrap();
        let slot = Arc::new(ModelSlot::new(
            ServingModel::from_state(&state_at(1), &first).unwrap(),
        ));
        let collector = Arc::new(Collector::new());
        let stop = Arc::new(Shutdown::new());

        let handle = start(
            CheckpointStore::open(&dir).unwrap().keep(10),
            first,
            Arc::clone(&slot),
            Arc::clone(&collector),
            Arc::clone(&stop),
            Duration::from_millis(5),
        )
        .unwrap();

        store.save(&state_at(4), &mut tel).unwrap();
        // Wait (bounded) for the watcher to notice.
        for _ in 0..400 {
            if slot.get().epoch() == 4 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(slot.get().epoch(), 4);
        assert_eq!(collector.gauge("serve.model_epoch").get(), 4.0);

        stop.trigger();
        handle.join().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
