//! The headline crash-safety guarantee: training `n` epochs straight and
//! training `m < n` epochs, "crashing", and resuming to `n` produce
//! **bit-identical** reports and parameter stores — including when
//! snapshot writes fail mid-run and when the newest snapshot on disk is
//! corrupt.

use dropback::prelude::*;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dropback-resume-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(epochs: usize) -> TrainConfig {
    TrainConfig::new(epochs, 32)
        .lr(LrSchedule::Constant(0.1))
        .patience(None)
}

fn data(seed: u64) -> (Dataset, Dataset) {
    synthetic_mnist(192, 48, seed)
}

/// Bitwise fingerprint of every parameter — `f32` equality is not enough
/// to claim bit-identity (−0.0 == 0.0, NaN != NaN).
fn param_bits(net: &Network) -> Vec<u32> {
    net.store().params().iter().map(|p| p.to_bits()).collect()
}

/// Trains `epochs` epochs straight through with no snapshotting.
fn straight_run(
    opt_factory: &dyn Fn() -> Box<dyn Optimizer>,
    epochs: usize,
) -> (TrainReport, Vec<u32>) {
    let (train, val) = data(7);
    let mut net = models::mnist_100_100(7);
    let mut opt = opt_factory();
    let report = Trainer::new(config(epochs)).run_mut(
        &mut net,
        opt.as_mut(),
        &train,
        &val,
        &mut NoProbe,
        &mut Telemetry::disabled(),
    );
    (report, param_bits(&net))
}

/// Trains `kill_after` epochs with snapshots, throws everything away (the
/// "crash"), then resumes from disk and trains to `epochs`.
fn interrupted_run(
    opt_factory: &dyn Fn() -> Box<dyn Optimizer>,
    kill_after: usize,
    epochs: usize,
    dir: &PathBuf,
) -> (TrainReport, Vec<u32>) {
    let (train, val) = data(7);
    let mut tel = Telemetry::disabled();
    {
        let mut net = models::mnist_100_100(7);
        let mut opt = opt_factory();
        let mut store = CheckpointStore::open(dir).unwrap();
        let _ = Trainer::new(config(kill_after))
            .run_resumable(&mut net, opt.as_mut(), &train, &val, &mut store, &mut tel)
            .unwrap();
        // net, opt, and store dropped here: the process "died".
    }
    let mut net = models::mnist_100_100(7);
    let mut opt = opt_factory();
    let mut store = CheckpointStore::open(dir).unwrap();
    let report = Trainer::new(config(epochs))
        .run_resumable(&mut net, opt.as_mut(), &train, &val, &mut store, &mut tel)
        .unwrap();
    assert!(
        store.take_skipped().is_empty(),
        "no snapshot should have been skipped"
    );
    (report, param_bits(&net))
}

fn assert_bit_identical(a: (TrainReport, Vec<u32>), b: (TrainReport, Vec<u32>)) {
    // The rendered JSON covers every report field, including each epoch's
    // stats, so byte-equality here is bit-identity of the full report.
    assert_eq!(a.0.to_json().render(), b.0.to_json().render());
    assert_eq!(a.1, b.1, "parameter stores differ");
}

#[test]
fn frozen_dropback_resume_is_bit_identical() {
    // Freezes after epoch 3 and resumes from the epoch-3 snapshot: the
    // first resumed step runs on a restored, frozen tracked set.
    let dir = tmp_dir("frozen");
    let mk: &dyn Fn() -> Box<dyn Optimizer> = &|| Box::new(DropBack::new(4_000).freeze_after(3));
    let straight = straight_run(mk, 5);
    let resumed = interrupted_run(mk, 3, 5, &dir);
    assert_bit_identical(straight, resumed);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn dense_dropback_resume_is_bit_identical() {
    let dir = tmp_dir("dense");
    let mk: &dyn Fn() -> Box<dyn Optimizer> = &|| Box::new(DropBack::new(8_000));
    let straight = straight_run(mk, 4);
    let resumed = interrupted_run(mk, 2, 4, &dir);
    assert_bit_identical(straight, resumed);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sgd_resume_is_bit_identical() {
    let dir = tmp_dir("sgd");
    let mk: &dyn Fn() -> Box<dyn Optimizer> = &|| Box::new(Sgd::new());
    let straight = straight_run(mk, 4);
    let resumed = interrupted_run(mk, 1, 4, &dir);
    assert_bit_identical(straight, resumed);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_survives_injected_write_faults_bit_identically() {
    let dir = tmp_dir("faulty");
    let mk = || DropBack::new(4_000).freeze_after(3);
    let mk_dyn: &dyn Fn() -> Box<dyn Optimizer> = &|| Box::new(mk());
    let straight = straight_run(mk_dyn, 5);

    let (train, val) = data(7);
    let mut tel = Telemetry::disabled();
    {
        let mut net = models::mnist_100_100(7);
        let mut opt = mk();
        let mut store = CheckpointStore::open(&dir).unwrap();
        // The epoch-1 and epoch-2 snapshots both die partway through a
        // seeded torn write; only the epoch-0 snapshot lands. Training
        // must shrug and keep going.
        store.inject_write_fault(1, FaultMode::seeded_tear(11, 10_000));
        store.inject_write_fault(2, FaultMode::seeded_tear(12, 10_000));
        let report = Trainer::new(config(3))
            .run_resumable(&mut net, &mut opt, &train, &val, &mut store, &mut tel)
            .unwrap();
        assert_eq!(
            report.history.len(),
            3,
            "write faults must not kill the run"
        );
    }
    // Only state-00000001 exists, so the resume replays epochs 1–4.
    let names: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(names, ["state-00000001.dbk2"]);
    let mut net = models::mnist_100_100(7);
    let mut opt = mk();
    let mut store = CheckpointStore::open(&dir).unwrap();
    let report = Trainer::new(config(5))
        .run_resumable(&mut net, &mut opt, &train, &val, &mut store, &mut tel)
        .unwrap();
    assert_bit_identical(straight, (report, param_bits(&net)));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_falls_back_past_corrupted_newest_snapshot() {
    let dir = tmp_dir("corrupt-newest");
    let mk = || DropBack::new(4_000).freeze_after(3);
    let mk_dyn: &dyn Fn() -> Box<dyn Optimizer> = &|| Box::new(mk());
    let straight = straight_run(mk_dyn, 5);

    let (train, val) = data(7);
    let mut tel = Telemetry::disabled();
    {
        let mut net = models::mnist_100_100(7);
        let mut opt = mk();
        let mut store = CheckpointStore::open(&dir).unwrap();
        let _ = Trainer::new(config(3))
            .run_resumable(&mut net, &mut opt, &train, &val, &mut store, &mut tel)
            .unwrap();
    }
    // Bit-rot hits the newest snapshot after the "crash".
    let newest = dir.join("state-00000003.dbk2");
    let len = fs::metadata(&newest).unwrap().len();
    let FaultMode::FlipReadByte { offset, xor } = FaultMode::seeded_flip(21, len) else {
        panic!("seeded_flip on a non-empty file");
    };
    let mut f = fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&newest)
        .unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(&[b[0] ^ xor]).unwrap();
    drop(f);

    let mut net = models::mnist_100_100(7);
    let mut opt = mk();
    let mut store = CheckpointStore::open(&dir).unwrap();
    let report = Trainer::new(config(5))
        .run_resumable(&mut net, &mut opt, &train, &val, &mut store, &mut tel)
        .unwrap();
    // The epoch-2 snapshot was the fallback; epoch 2 replayed.
    let skipped = store.take_skipped();
    assert_eq!(skipped.len(), 1);
    assert!(skipped[0].0.ends_with("state-00000003.dbk2"));
    assert!(skipped[0].1.is_corruption());
    assert_bit_identical(straight, (report, param_bits(&net)));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_with_wrong_seed_is_a_typed_incompatibility() {
    let dir = tmp_dir("wrong-seed");
    let (train, val) = data(7);
    let mut tel = Telemetry::disabled();
    {
        let mut net = models::mnist_100_100(7);
        let mut opt = DropBack::new(4_000);
        let mut store = CheckpointStore::open(&dir).unwrap();
        let _ = Trainer::new(config(2))
            .run_resumable(&mut net, &mut opt, &train, &val, &mut store, &mut tel)
            .unwrap();
    }
    // Different init seed: untracked weights would regenerate differently.
    let mut net = models::mnist_100_100(8);
    let mut opt = DropBack::new(4_000);
    let mut store = CheckpointStore::open(&dir).unwrap();
    let err = Trainer::new(config(4))
        .run_resumable(&mut net, &mut opt, &train, &val, &mut store, &mut tel)
        .unwrap_err();
    assert!(matches!(err, CheckpointError::SeedMismatch { .. }));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_disabled_starts_fresh_but_still_snapshots() {
    let dir = tmp_dir("no-resume");
    let (train, val) = data(7);
    let mut tel = Telemetry::disabled();
    for _ in 0..2 {
        let mut net = models::mnist_100_100(7);
        let mut opt = Sgd::new();
        let mut store = CheckpointStore::open(&dir).unwrap().resume(false);
        let report = Trainer::new(config(2))
            .run_resumable(&mut net, &mut opt, &train, &val, &mut store, &mut tel)
            .unwrap();
        // Epoch 0 ran both times: with resume off, nothing was loaded.
        assert_eq!(report.history.len(), 2);
        assert_eq!(report.history[0].epoch, 0);
    }
    assert!(dir.join("state-00000002.dbk2").exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn early_stop_state_survives_resume() {
    let dir = tmp_dir("patience");
    // lr = 0: nothing ever improves after epoch 0, so patience 2 stops
    // the straight run early. The resumed run must stop at the same epoch
    // with the same report, not run out the full budget.
    let cfg = |epochs| {
        TrainConfig::new(epochs, 32)
            .lr(LrSchedule::Constant(0.0))
            .patience(Some(2))
    };
    let (train, val) = data(7);
    let mut tel = Telemetry::disabled();
    let mut net_a = models::mnist_100_100(7);
    let mut opt_a = Sgd::new();
    let straight =
        Trainer::new(cfg(10)).run_mut(&mut net_a, &mut opt_a, &train, &val, &mut NoProbe, &mut tel);
    assert!(straight.history.len() < 10, "early stop must fire");

    {
        let mut net = models::mnist_100_100(7);
        let mut opt = Sgd::new();
        let mut store = CheckpointStore::open(&dir).unwrap();
        let _ = Trainer::new(cfg(2))
            .run_resumable(&mut net, &mut opt, &train, &val, &mut store, &mut tel)
            .unwrap();
    }
    let mut net = models::mnist_100_100(7);
    let mut opt = Sgd::new();
    let mut store = CheckpointStore::open(&dir).unwrap();
    let resumed = Trainer::new(cfg(10))
        .run_resumable(&mut net, &mut opt, &train, &val, &mut store, &mut tel)
        .unwrap();
    assert_eq!(straight.to_json().render(), resumed.to_json().render());
    assert_eq!(param_bits(&net_a), param_bits(&net));
    let _ = fs::remove_dir_all(&dir);
}
