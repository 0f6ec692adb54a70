//! Figure 4 — VGG-S on CIFAR-10: validation accuracy per epoch for
//! DropBack (5x), variational dropout, and the baseline.
//!
//! The paper's shape: DropBack starts slightly slower than the baseline but
//! matches it after ~20 epochs; variational dropout learns fast early and
//! plateaus at lower accuracy.
//!
//! ```text
//! cargo run --release -p dropback-bench --bin repro_fig4
//! ```

use dropback::prelude::*;
use dropback_bench::{banner, env_usize, runners, seed, sparkline, Table};

fn main() {
    banner(
        "Figure 4",
        "VGG-S convergence: DropBack vs variational dropout vs baseline",
    );
    let epochs = env_usize("DROPBACK_EPOCHS", 12);
    let n_train = env_usize("DROPBACK_TRAIN", 1200);
    let n_test = env_usize("DROPBACK_TEST", 400);
    let hw = dropback::nn::models::CIFAR_NANO_HW;
    let (train, test) = synthetic_cifar(n_train, n_test, hw, hw, seed());

    let base = runners::run_cifar(
        models::vgg_s_nano(seed()),
        Sgd::new(),
        &train,
        &test,
        epochs,
    );
    let db = {
        let net = models::vgg_s_nano(seed());
        let k = (net.num_params() / 5).max(1); // the 5x point of Figure 4
        runners::run_cifar(net, DropBack::new(k), &train, &test, epochs)
    };
    let vd = {
        let cfg = TrainConfig::new(epochs, 32)
            .lr(LrSchedule::Constant(0.05))
            .patience(None)
            .kl_anneal(KlAnneal::new(epochs / 2 + 1, 2e-4));
        Trainer::new(cfg).run(models::vgg_s_nano_vd(seed()), Sgd::new(), &train, &test)
    };

    let curves = [
        ("baseline", &base),
        ("dropback 5x", &db),
        ("variational", &vd),
    ];
    println!("validation accuracy per epoch:");
    for (name, r) in &curves {
        let c: Vec<f32> = r.val_curve().iter().map(|&(_, a)| a).collect();
        println!(
            "  {:<12} {}  (best {:.4} @ epoch {})",
            name,
            sparkline(&c),
            r.best_val_acc,
            r.best_epoch
        );
    }
    let mut t = Table::new(&["epoch", "baseline", "dropback", "variational"]);
    for e in 0..epochs {
        let get = |r: &TrainReport| {
            r.history
                .get(e)
                .map(|s| format!("{:.4}", s.val_acc))
                .unwrap_or_else(|| "-".into())
        };
        t.row(&[&e, &get(&base), &get(&db), &get(&vd)]);
    }
    println!("{}", t.render());
    println!(
        "shape check: DropBack's curve should approach the baseline by the end of\n\
         training (the paper: slower for ~20 epochs, then identical convergence) —\n\
         note the nano model is far less over-parameterized than the 15M-param VGG-S,\n\
         so the 5x point costs more accuracy here than in the paper."
    );
    assert!(
        (base.best_val_acc - db.best_val_acc).abs() < 0.2,
        "DropBack failed to track the baseline"
    );
    // DropBack's late-epoch slope should be non-negative (still improving
    // toward the baseline), mirroring the paper's catch-up behaviour. The
    // early and late windows are up to three epochs each, and never
    // overlap.
    let db_curve: Vec<f32> = db.val_curve().iter().map(|&(_, a)| a).collect();
    assert!(
        db_curve.len() >= 2,
        "the early-vs-late check needs at least 2 epochs, got {} (DROPBACK_EPOCHS={epochs})",
        db_curve.len()
    );
    let window = (db_curve.len() / 2).min(3);
    let mean = |w: &[f32]| w.iter().sum::<f32>() / w.len() as f32;
    let early_mean = mean(&db_curve[..window]);
    let late_mean = mean(&db_curve[db_curve.len() - window..]);
    assert!(late_mean > early_mean, "DropBack never improved");
    println!("PASS");
}
