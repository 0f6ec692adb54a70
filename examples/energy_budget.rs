//! Size an edge-accelerator weight budget with the energy model, and
//! demonstrate the sparse weight store that makes the budget real.
//!
//! ```text
//! cargo run --release --example energy_budget
//! ```

use dropback::optim::Optimizer as _;
use dropback::prelude::*;

fn main() {
    let m = EnergyModel::paper_45nm();
    println!(
        "45nm energy model: DRAM access {} pJ, FLOP {} pJ, regen {:.1} pJ ({:.0}x cheaper than DRAM)\n",
        m.dram_access_pj,
        m.flop_pj,
        m.regen_pj(),
        m.regen_advantage()
    );

    // Sweep the weight budget for LeNet-300-100 and print the energy frontier.
    let params = 266_610u64;
    println!("training-step weight energy vs budget (LeNet-300-100, {params} params):");
    let base = TrainingTraffic::baseline(params);
    for k in [params, 50_000, 20_000, 5_000, 1_500] {
        let t = TrainingTraffic::dropback(params, k);
        println!(
            "  k = {k:>7}  ({:>6.2}x compression): {:>8.1} µJ/step  ({:.1}x less than dense)",
            params as f64 / k as f64,
            t.step().energy_pj(&m) / 1e6,
            t.advantage_over(&base, &m)
        );
    }

    // The k-weight memory claim end to end: the tracked set never grows
    // past the budget, and it alone rebuilds the trained model.
    println!("\ntraining MNIST-100-100 with a 5,000-weight tracked set...");
    let (train, test) = synthetic_mnist(2000, 400, 33);
    let mut net = models::mnist_100_100(33);
    let mut opt = DropBack::new(5_000).freeze_after(2);
    let batcher = Batcher::new(64, 3);
    for epoch in 0..4u64 {
        for (x, labels) in batcher.epoch(&train, epoch) {
            let _ = net.loss_backward(&x, &labels);
            opt.step(net.store_mut(), 0.1);
        }
        opt.end_epoch(epoch as usize, net.store_mut());
        println!(
            "  epoch {epoch}: val acc {:.3}, tracked entries {} (≤ 5000)",
            net.accuracy(&test, 256),
            opt.tracked_count()
        );
    }
    let mut rebuilt = models::mnist_100_100(33);
    opt.tracked(net.store())
        .overlay(rebuilt.store_mut())
        .expect("tracked indices lie inside the model");
    assert_eq!(rebuilt.store().params(), net.store().params());
    println!(
        "\nevery weight outside those {} entries is regenerated from seed+index on\n\
         access — the entries alone rebuild the trained model bit for bit.",
        opt.tracked_count()
    );
}
