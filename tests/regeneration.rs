//! Integration tests for the regeneration storage story: the `k` tracked
//! entries plus the seed are the whole model, and the weight memory a
//! trained network actually needs.

use dropback::optim::Optimizer as _;
use dropback::prelude::*;

#[test]
fn sparse_and_dense_dropback_agree_on_a_real_network() {
    // The sparse view — seed plus the tracked entries — densifies to the
    // dense parameters bit for bit after every step, ranking and frozen.
    let (train, _) = synthetic_mnist(600, 100, 17);
    let mut net = models::mnist_100_100(17);
    let mut opt = DropBack::new(8_000).freeze_after(1);
    let mut sparse_net = models::mnist_100_100(17);
    let batcher = Batcher::new(64, 13);
    let bits =
        |net: &Network| -> Vec<u32> { net.store().params().iter().map(|p| p.to_bits()).collect() };
    for epoch in 0..2u64 {
        for (x, labels) in batcher.epoch(&train, epoch) {
            let _ = net.loss_backward(&x, &labels);
            opt.step(net.store_mut(), 0.1);
            let tracked = opt.tracked(net.store());
            assert_eq!(tracked.len(), 8_000);
            tracked.overlay(sparse_net.store_mut()).unwrap();
            assert_eq!(bits(&net), bits(&sparse_net), "epoch {epoch}");
        }
        opt.end_epoch(epoch as usize, net.store_mut());
    }
    assert!(opt.is_frozen());
}

#[test]
fn trained_model_reconstructs_from_k_weights_plus_seed() {
    // The deployment claim: a DropBack-trained model is fully described by
    // (seed, k tracked index/value pairs). Rebuild one and check inference
    // matches.
    let (train, test) = synthetic_mnist(800, 200, 23);
    let mut net = models::mnist_100_100(23);
    let mut opt = DropBack::new(6_000);
    let batcher = Batcher::new(64, 19);
    for epoch in 0..2u64 {
        for (x, labels) in batcher.epoch(&train, epoch) {
            let _ = net.loss_backward(&x, &labels);
            opt.step(net.store_mut(), 0.1);
        }
    }
    let original_acc = net.accuracy(&test, 256);
    let tracked = opt.tracked(net.store());

    // "Ship" only (seed, tracked) and rebuild the network from scratch.
    let mut rebuilt = models::mnist_100_100(23);
    assert_eq!(rebuilt.store().params().len(), net.store().params().len());
    for &(i, w) in tracked.entries() {
        rebuilt.store_mut().params_mut()[i as usize] = w;
    }
    let rebuilt_acc = rebuilt.accuracy(&test, 256);
    assert_eq!(
        original_acc, rebuilt_acc,
        "rebuilt model must match exactly"
    );
    for (a, b) in net.store().params().iter().zip(rebuilt.store().params()) {
        assert_eq!(a, b);
    }
}

#[test]
fn regenerated_inits_are_stable_across_processish_boundaries() {
    // Two independently constructed stores with the same seed regenerate
    // identical initializations — nothing about regeneration depends on
    // in-process state.
    let a = models::lenet_300_100(99);
    let b = models::lenet_300_100(99);
    assert_eq!(a.store().params(), b.store().params());
    assert_eq!(a.store().regen_initial(), b.store().regen_initial());
}

#[test]
fn different_seeds_train_to_different_but_similar_quality_models() {
    let (train, test) = synthetic_mnist(800, 200, 31);
    let accs: Vec<f32> = [1u64, 2, 3]
        .iter()
        .map(|&s| {
            let cfg = TrainConfig::new(3, 64)
                .lr(LrSchedule::Constant(0.1))
                .patience(None);
            Trainer::new(cfg)
                .run(
                    models::mnist_100_100(s),
                    DropBack::new(20_000),
                    &train,
                    &test,
                )
                .best_val_acc
        })
        .collect();
    // All seeds learn...
    assert!(accs.iter().all(|&a| a > 0.6), "{accs:?}");
    // ...and the spread is modest.
    let max = accs.iter().cloned().fold(f32::MIN, f32::max);
    let min = accs.iter().cloned().fold(f32::MAX, f32::min);
    assert!(max - min < 0.2, "{accs:?}");
}
