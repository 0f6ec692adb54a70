//! The deployment story end to end: train on a weight budget with
//! DropBack, ship `(seed, k entries)` as a checkpoint file, and rebuild
//! a bit-identical model from architecture + checkpoint alone.
//!
//! ```text
//! cargo run --release --example checkpoint_deploy
//! ```

use dropback::prelude::*;
use dropback::Checkpoint;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (train, test) = synthetic_mnist(2500, 500, 77);

    // "Device A": train MNIST-100-100 storing only 8,000 weights.
    let mut net = models::mnist_100_100(77);
    let mut opt = DropBack::new(8_000).freeze_after(3);
    let batcher = Batcher::new(64, 9);
    for epoch in 0..6u64 {
        for (x, labels) in batcher.epoch(&train, epoch) {
            let _ = net.loss_backward(&x, &labels);
            opt.step(net.store_mut(), 0.15);
        }
        opt.end_epoch(epoch as usize, net.store_mut());
    }
    let acc = net.accuracy(&test, 256);
    println!(
        "trained: val acc {acc:.4} with {} stored weights",
        opt.tracked_count()
    );

    // Cut the checkpoint: seed + tracked entries, nothing else.
    let ckpt = Checkpoint::new(net.store().seed(), opt.tracked(net.store()));
    let path = std::env::temp_dir().join("dropback_deploy.dbk");
    ckpt.write_to(std::fs::File::create(&path)?)?;
    let dense_bytes = net.num_params() * 4;
    println!(
        "checkpoint: {} bytes on disk vs {} bytes dense ({:.1}x smaller)",
        ckpt.size_bytes(),
        dense_bytes,
        dense_bytes as f32 / ckpt.size_bytes() as f32
    );

    // "Device B": knows only the architecture; loads seed + entries.
    let loaded = Checkpoint::read_from(std::fs::File::open(&path)?)?;
    let mut device_b = models::mnist_100_100(loaded.seed());
    loaded.apply(&mut device_b)?;
    let acc_b = device_b.accuracy(&test, 256);
    println!("rebuilt: val acc {acc_b:.4} (must match exactly)");
    assert_eq!(acc, acc_b);

    std::fs::remove_file(&path)?;
    Ok(())
}
