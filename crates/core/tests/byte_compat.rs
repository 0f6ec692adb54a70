//! Byte-compatibility pin for both on-disk formats.
//!
//! A fixed, seeded mnist-100-100 `DropBack` run is serialized as a
//! `DROPBKv2` training snapshot and as a `DROPBKv1` model checkpoint, and
//! the CRC-32 of each byte stream is compared against constants recorded
//! from the format's reference implementation. Any change to what the
//! writers emit — field order, entry selection, float encoding — fails
//! here, so "the formats are unchanged" is checked rather than assumed.
//!
//! Snapshots written by the retired `dropback-sparse` rule (its tracked
//! set stored as a `Pairs` optimizer field) must keep decoding too.

use dropback::crc32;
use dropback::optim::{OptState, StateField};
use dropback::prelude::*;

/// CRC-32 of the `DROPBKv2` snapshot bytes of [`seeded_run`].
const V2_CRC: u32 = 0xb22d_4cf7;
/// CRC-32 of the `DROPBKv1` checkpoint bytes of [`seeded_run`].
const V1_CRC: u32 = 0xd991_51df;

/// Two epochs of mnist-100-100 under `DropBack` (k = 3000, frozen after
/// the first epoch), all seeds fixed.
fn seeded_run() -> (Network, DropBack, TrainProgress) {
    let (train, _) = synthetic_mnist(256, 32, 5);
    let mut net = models::mnist_100_100(5);
    let mut opt = DropBack::new(3_000).freeze_after(1);
    let batcher = Batcher::new(64, 0x5EED);
    let mut iteration = 0u64;
    for epoch in 0..2u64 {
        for (x, labels) in batcher.epoch(&train, epoch) {
            net.store_mut().zero_grads();
            let _ = net.loss_backward(&x, &labels);
            opt.step(net.store_mut(), 0.1);
            iteration += 1;
        }
        opt.end_epoch(epoch as usize, net.store_mut());
    }
    let progress = TrainProgress {
        next_epoch: 2,
        iteration,
        best_val: 0.5,
        ..TrainProgress::fresh()
    };
    (net, opt, progress)
}

#[test]
fn snapshot_and_checkpoint_bytes_match_the_recorded_crcs() {
    let (net, opt, progress) = seeded_run();
    let mut v2 = Vec::new();
    TrainState::capture(&net, &opt, 0x5EED, &progress)
        .write_to(&mut v2)
        .unwrap();
    let mut v1 = Vec::new();
    Checkpoint::new(net.store().seed(), opt.tracked(net.store()))
        .write_to(&mut v1)
        .unwrap();
    assert_eq!(crc32(&v2), V2_CRC, "DROPBKv2 bytes changed");
    assert_eq!(crc32(&v1), V1_CRC, "DROPBKv1 bytes changed");
}

/// The snapshot a `dropback-sparse` run wrote for [`seeded_run`]: the same
/// entries, with the rule's counters and its tracked set as `Pairs`.
fn legacy_sparse_snapshot() -> TrainState {
    let (net, opt, progress) = seeded_run();
    let mut state = TrainState::capture(&net, &opt, 0x5EED, &progress);
    let tracked = opt.tracked(net.store()).entries().to_vec();
    state.optimizer = "dropback-sparse".into();
    state.opt_state = OptState::new("dropback-sparse")
        .with("k", StateField::U64(3_000))
        .with("freeze_after", StateField::U64(1))
        .with("frozen", StateField::U64(1))
        .with("steps", StateField::U64(progress.iteration))
        .with("epoch_swaps", StateField::U64(0))
        .with("last_epoch_churn", StateField::U64(0))
        .with("tracked", StateField::Pairs(tracked));
    state
}

#[test]
fn legacy_sparse_snapshots_decode_but_do_not_resume() {
    let state = legacy_sparse_snapshot();
    let mut bytes = Vec::new();
    state.write_to(&mut bytes).unwrap();
    let loaded = TrainState::read_from(&bytes[..]).unwrap();
    assert_eq!(loaded, state);
    // The entries still rebuild the trained model on their own...
    let (net, _, _) = seeded_run();
    let mut rebuilt = models::mnist_100_100(5);
    loaded.entries.overlay(rebuilt.store_mut()).unwrap();
    assert_eq!(rebuilt.store().params(), net.store().params());
    // ...but the run cannot continue under DropBack.
    let err = loaded
        .restore_into(
            &mut models::mnist_100_100(5),
            &mut DropBack::new(3_000).freeze_after(1),
            0x5EED,
        )
        .unwrap_err();
    assert!(matches!(err, CheckpointError::Incompatible(_)), "{err}");
    assert!(err.to_string().contains("dropback-sparse"), "{err}");
}
