//! Same-seed runs must be bit-identical — the DropBack contract that the
//! whole `dropback-lint` rule set exists to protect. Two independent
//! trainings from the same `(seed, architecture, k)` must agree on the
//! tracked index set, every tracked value's bits, and the rendered
//! `TrainReport` JSON, byte for byte.

use dropback::prelude::*;

/// Trains a fresh model under DropBack and returns it with its optimizer.
fn dropback_run(seed: u64) -> (Network, DropBack) {
    let (train, _) = synthetic_mnist(400, 64, seed);
    let mut net = models::mnist_100_100(seed);
    let mut opt = DropBack::new(5_000).freeze_after(2);
    let batcher = Batcher::new(64, 3);
    for epoch in 0..3u64 {
        for (x, labels) in batcher.epoch(&train, epoch) {
            let _ = net.loss_backward(&x, &labels);
            opt.step(net.store_mut(), 0.1);
        }
        opt.end_epoch(epoch as usize, net.store_mut());
    }
    (net, opt)
}

#[test]
fn same_seed_runs_produce_identical_tracked_sets() {
    let (net_a, a) = dropback_run(41);
    let (net_b, b) = dropback_run(41);
    let (set_a, set_b) = (a.tracked(net_a.store()), b.tracked(net_b.store()));
    let idx = |set: &dropback::nn::TrackedSet| -> Vec<u64> {
        set.entries().iter().map(|&(i, _)| i).collect()
    };
    assert_eq!(idx(&set_a), idx(&set_b), "tracked index sets diverged");
    // Values must agree to the bit, not to a tolerance: untracked weights
    // are regenerated from regen(seed, index), so any drift in the stored
    // ones breaks checkpoint replay.
    for (&(i, va), &(_, vb)) in set_a.entries().iter().zip(set_b.entries()) {
        assert_eq!(va.to_bits(), vb.to_bits(), "weight {i} drifted");
    }
    // And the entries are in index order — the property checkpoint
    // serialization relies on.
    assert!(
        idx(&set_a).windows(2).all(|w| w[0] < w[1]),
        "not index-ordered"
    );
}

#[test]
fn same_seed_reports_render_identical_json() {
    let report = |seed: u64| {
        let (train, test) = synthetic_mnist(300, 64, seed);
        let cfg = TrainConfig::new(2, 64);
        Trainer::new(cfg)
            .run(
                models::mnist_100_100(seed),
                DropBack::new(5_000),
                &train,
                &test,
            )
            .to_json()
            .render()
    };
    let a = report(17);
    let b = report(17);
    assert_eq!(a, b, "same-seed TrainReport JSON must be byte-identical");
    // A different seed must actually change the trajectory, or the
    // comparison above proves nothing.
    assert_ne!(a, report(18));
}
