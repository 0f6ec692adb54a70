//! Exact-bits pin for DropBack's incremental step.
//!
//! [`FullSweep`] is the step as Algorithm 1 states it: score all `n`
//! weights, rank them all with [`top_k_mask`], update the tracked ones and
//! regenerate every untracked one. `DropBack` scores only the tracked
//! weights and the untracked ones that can enter, and regenerates only
//! evicted ones. Both run side by side on the same gradient streams, and
//! after every step their parameter bits, masks and swap counts must
//! agree.

use dropback_nn::{InitScheme, ParamStore};
use dropback_optim::{top_k_mask, DropBack, Optimizer};
use dropback_prng::Xorshift64;

/// The full-sweep step: the reference `DropBack::step` is checked against.
#[derive(Debug, Clone)]
struct FullSweep {
    k: usize,
    frozen: bool,
    zero_untracked: bool,
    mask: Vec<bool>,
    last_swaps: usize,
    steps: u64,
}

impl FullSweep {
    fn new(k: usize, zero_untracked: bool) -> Self {
        Self {
            k,
            frozen: false,
            zero_untracked,
            mask: Vec::new(),
            last_swaps: 0,
            steps: 0,
        }
    }

    fn origin(&self, ps: &ParamStore, i: usize) -> f32 {
        if self.zero_untracked {
            0.0
        } else {
            ps.init_value(i)
        }
    }

    fn step(&mut self, ps: &mut ParamStore, lr: f32) {
        let n = ps.len();
        if self.mask.len() != n {
            self.mask = vec![false; n];
        }
        let new_mask = if self.frozen {
            self.mask.clone()
        } else {
            let scores: Vec<f32> = (0..n)
                .map(|i| {
                    if self.mask[i] {
                        (ps.params()[i] - self.origin(ps, i)).abs()
                    } else {
                        (lr * ps.grads()[i]).abs()
                    }
                })
                .collect();
            top_k_mask(&scores, self.k)
        };
        self.last_swaps = if self.frozen {
            0
        } else if self.steps == 0 {
            new_mask.iter().filter(|&&m| m).count()
        } else {
            new_mask
                .iter()
                .zip(&self.mask)
                .filter(|&(&new, &old)| new && !old)
                .count()
        };
        let origins: Vec<f32> = (0..n).map(|i| self.origin(ps, i)).collect();
        let (params, grads) = ps.update_view();
        for (i, p) in params.iter_mut().enumerate() {
            if new_mask[i] {
                *p -= lr * grads[i];
            } else {
                *p = origins[i];
            }
        }
        self.mask = new_mask;
        self.steps += 1;
    }
}

/// A store with normal, uniform and constant-init ranges (BN-style `γ = 1`
/// and `β = 0`), 260 weights.
fn mixed_store(seed: u64) -> ParamStore {
    let mut ps = ParamStore::new(seed);
    ps.register("fc1.weight", 120, InitScheme::lecun_normal(12));
    ps.register("bn.gamma", 20, InitScheme::Constant(1.0));
    ps.register("bn.beta", 20, InitScheme::Constant(0.0));
    ps.register("fc2.weight", 90, InitScheme::Uniform { bound: 0.3 });
    ps.register("fc2.bias", 10, InitScheme::Constant(0.0));
    ps
}

/// A store whose every weight starts at zero, so tracked scores `|w|` and
/// candidate scores `|lr·g|` fall on one grid and tie at λ all the time.
fn zero_store(n: usize) -> ParamStore {
    let mut ps = ParamStore::new(3);
    ps.register("w", n, InitScheme::Constant(0.0));
    ps
}

/// How a stream draws its gradients.
#[derive(Clone, Copy)]
enum Grads {
    /// Uniform in `[-1, 1)`.
    Random,
    /// From `{-1, -0.5, 0, 0.5, 1}`, most of them zero.
    Grid,
    /// Random, with one weight in ten NaN or ±inf.
    NonFinite,
}

fn fill_grads(ps: &mut ParamStore, rng: &mut Xorshift64, grads: Grads) {
    ps.zero_grads();
    for g in ps.grads_mut() {
        let u = rng.next_f32();
        *g = match grads {
            Grads::Random => u * 2.0 - 1.0,
            Grads::Grid => {
                let step = (rng.next_f32() * 9.0) as i32 - 4;
                if step.abs() > 2 {
                    0.0
                } else {
                    step as f32 * 0.5
                }
            }
            Grads::NonFinite => match (u * 40.0) as u32 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => -f32::NAN,
                _ => rng.next_f32() * 2.0 - 1.0,
            },
        };
    }
}

fn bits(ps: &ParamStore) -> Vec<u32> {
    ps.params().iter().map(|v| v.to_bits()).collect()
}

fn assert_same(db: &DropBack, reference: &FullSweep, a: &ParamStore, b: &ParamStore, at: &str) {
    assert_eq!(db.mask(), &reference.mask[..], "mask at {at}");
    assert_eq!(db.last_swaps(), reference.last_swaps, "swaps at {at}");
    assert_eq!(bits(a), bits(b), "params at {at}");
    assert_eq!(
        db.tracked_count(),
        reference.mask.iter().filter(|&&m| m).count(),
        "tracked count at {at}"
    );
}

/// One stream: `epochs × steps` steps through both rules, freezing the
/// reference whenever `DropBack` freezes, compared after every step.
fn run(
    make_store: impl Fn() -> ParamStore,
    mut db: DropBack,
    grads: Grads,
    seed: u64,
    epochs: usize,
) {
    let zero_untracked = db.name() == "dropback-zeroed";
    let mut reference = FullSweep::new(db.budget(), zero_untracked);
    let (mut ps_db, mut ps_ref) = (make_store(), make_store());
    let mut rng = Xorshift64::new(seed);
    for epoch in 0..epochs {
        for step in 0..12 {
            fill_grads(&mut ps_db, &mut rng, grads);
            ps_ref.grads_mut().copy_from_slice(ps_db.grads());
            let lr = 0.5 / (1 + epoch) as f32;
            db.step(&mut ps_db, lr);
            reference.step(&mut ps_ref, lr);
            assert_same(&db, &reference, &ps_db, &ps_ref, &format!("{epoch}:{step}"));
        }
        db.end_epoch(epoch, &mut ps_db);
        reference.frozen = db.is_frozen();
    }
}

#[test]
fn random_streams_over_mixed_ranges() {
    for (seed, k) in [(1u64, 1usize), (2, 7), (3, 40), (4, 130), (5, 259)] {
        run(
            || mixed_store(seed),
            DropBack::new(k),
            Grads::Random,
            seed,
            4,
        );
    }
}

#[test]
fn heavy_ties_and_ties_at_lambda() {
    for (seed, k) in [(11u64, 3usize), (12, 25), (13, 64), (14, 99)] {
        run(|| zero_store(100), DropBack::new(k), Grads::Grid, seed, 4);
        run(|| mixed_store(seed), DropBack::new(k), Grads::Grid, seed, 3);
    }
}

#[test]
fn nan_and_infinite_scores() {
    for (seed, k) in [(21u64, 5usize), (22, 50), (23, 200)] {
        run(
            || mixed_store(seed),
            DropBack::new(k),
            Grads::NonFinite,
            seed,
            3,
        );
        run(
            || zero_store(80),
            DropBack::new(k.min(60)),
            Grads::NonFinite,
            seed,
            3,
        );
    }
}

#[test]
fn budget_at_least_n() {
    for k in [260usize, 261, 10_000] {
        run(|| mixed_store(31), DropBack::new(k), Grads::Random, 31, 2);
    }
}

#[test]
fn freezing() {
    for (seed, k) in [(41u64, 10usize), (42, 90)] {
        run(
            || mixed_store(seed),
            DropBack::new(k).freeze_after(2),
            Grads::Random,
            seed,
            4,
        );
        run(
            || zero_store(60),
            DropBack::new(k.min(30)).freeze_after(1),
            Grads::Grid,
            seed,
            3,
        );
    }
}

#[test]
fn zeroed_ablation() {
    for (seed, k) in [(51u64, 12usize), (52, 100)] {
        run(
            || mixed_store(seed),
            DropBack::new(k).with_zeroed_untracked(),
            Grads::Random,
            seed,
            3,
        );
        run(
            || mixed_store(seed),
            DropBack::new(k).with_zeroed_untracked().freeze_after(2),
            Grads::Grid,
            seed,
            3,
        );
    }
}

#[test]
fn snapshot_restore_mid_run() {
    // One DropBack is snapshotted mid-epoch and replaced by a fresh
    // instance restored from it, at several points of the run (before and
    // after freezing); the reference runs straight through.
    for restore_at in [1usize, 7, 18, 30] {
        let make = || DropBack::new(20).freeze_after(2);
        let mut db = make();
        let mut reference = FullSweep::new(20, false);
        let (mut ps_db, mut ps_ref) = (mixed_store(61), mixed_store(61));
        let mut rng = Xorshift64::new(61);
        let mut step = 0;
        for epoch in 0..4 {
            for _ in 0..12 {
                if step == restore_at {
                    let snap = db.snapshot_state();
                    db = make();
                    db.restore_state(&snap).unwrap();
                }
                fill_grads(&mut ps_db, &mut rng, Grads::Random);
                ps_ref.grads_mut().copy_from_slice(ps_db.grads());
                db.step(&mut ps_db, 0.3);
                reference.step(&mut ps_ref, 0.3);
                assert_same(
                    &db,
                    &reference,
                    &ps_db,
                    &ps_ref,
                    &format!("restore {restore_at}, step {step}"),
                );
                step += 1;
            }
            db.end_epoch(epoch, &mut ps_db);
            reference.frozen = db.is_frozen();
        }
    }
}
