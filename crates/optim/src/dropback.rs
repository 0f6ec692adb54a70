//! The DropBack training rule (Algorithm 1 of the paper).

use crate::state::encode_opt_epoch;
use crate::topk::{key_score, rank_key, top_k_mask_sharded, Cut};
use crate::{OptState, Optimizer, StateError, StateField};
use dropback_nn::{ParamRange, ParamStore, TrackedSet};
use dropback_telemetry::{trace, Span};
use dropback_tensor::pool;

/// Elements per parallel chunk for the score/candidate/regen sweeps.
/// Fixed (never derived from the thread count), so the per-element work
/// assignment is identical at any `DROPBACK_THREADS` value.
const CHUNK: usize = 1 << 14;

/// Tracked weights per parallel chunk when scoring them. Each costs an
/// init regeneration, so small chunks spread the `k` of them evenly over
/// the workers.
const TRACKED_CHUNK: usize = 1 << 11;

/// DropBack: continuous pruning during training.
///
/// Following Algorithm 1, each step ranks every weight by an
/// *accumulated-gradient* score and keeps only the top `k` updated:
///
/// * a **tracked** weight's score is `|w − w₀|` — its total accumulated
///   update, recomputed from `W(t−1) − W(0)`, which is why the tracked
///   set "requires no storage" beyond the weights themselves;
/// * an **untracked** weight competes with its current `|lr · g|` (the
///   displacement it would have after entering).
///
/// The top-`k` scores become the new tracked set (`λ = S_k`,
/// `mask = 1(S > λ)`, ties broken by index). Tracked weights take the SGD
/// update `w -= lr · g`; untracked weights hold their **initialization
/// values** — the invariant `untracked ⇒ w[i] == init(i)` holds after
/// every step, so only `k` weights ever need storing: [`DropBack::tracked`]
/// overlaid on a fresh store reproduces the trained parameters exactly.
///
/// The invariant also spares most of the work on the `n` weights: only
/// the `k` tracked scores need an init regeneration, only untracked
/// weights scoring at least the lowest tracked score (Algorithm 1's λ) can
/// enter, so one compare pass over the gradients finds every candidate,
/// and only evicted weights need regenerating. The first step,
/// the first after [`Optimizer::restore_state`], and every step with
/// `k ≥ n` rank and regenerate all `n` weights instead.
///
/// After [`DropBack::freeze_after`] epochs the tracked set is fixed and
/// untracked gradients stop participating (§2.1: "Freeze the set of tracked
/// weights after a few epochs").
#[derive(Debug, Clone)]
pub struct DropBack {
    k: usize,
    freeze_after: Option<usize>,
    frozen: bool,
    zero_untracked: bool,
    mask: Vec<bool>,
    /// The indices `mask` selects, ascending.
    tracked: Vec<u32>,
    /// Whether the parameters and `mask` are known to satisfy what the
    /// incremental step assumes: `min(k, n)` tracked, every untracked
    /// weight at its origin. False until a full step has run.
    synced: bool,
    last_swaps: usize,
    epoch_swaps: usize,
    last_epoch_churn: usize,
    epoch_candidates: usize,
    last_epoch_candidates: usize,
    epoch_evictions: usize,
    last_epoch_evictions: usize,
    steps: u64,
}

/// What one step's selection did.
#[derive(Default)]
struct Selection {
    /// Untracked weights the selection ranked.
    candidates: usize,
    /// Tracked weights that left the set.
    evictions: usize,
    /// Their indices, ascending; empty on a full step, which regenerates
    /// every untracked weight instead.
    evicted: Vec<u32>,
    /// The `k`-th largest score; `None` on a frozen step.
    lambda: Option<f32>,
}

/// The values untracked weights hold, for ascending indices: each call
/// advances a cursor over the parameter ranges.
#[derive(Clone, Copy)]
struct Origins<'a> {
    ranges: &'a [ParamRange],
    seed: u64,
    zero_untracked: bool,
    range: usize,
}

impl<'a> Origins<'a> {
    fn new(ranges: &'a [ParamRange], seed: u64, zero_untracked: bool) -> Self {
        Self {
            ranges,
            seed,
            zero_untracked,
            range: 0,
        }
    }

    /// The origin of weight `i`, which must not be below the previous `i`.
    fn at(&mut self, i: usize) -> f32 {
        while self.ranges[self.range].end() <= i {
            self.range += 1;
        }
        if self.zero_untracked {
            0.0
        } else {
            self.ranges[self.range].scheme().value(self.seed, i as u64)
        }
    }
}

impl DropBack {
    /// Creates a DropBack rule tracking at most `k` weights, never frozen.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "must track at least one weight");
        Self {
            k,
            freeze_after: None,
            frozen: false,
            zero_untracked: false,
            mask: Vec::new(),
            tracked: Vec::new(),
            synced: false,
            last_swaps: 0,
            epoch_swaps: 0,
            last_epoch_churn: 0,
            epoch_candidates: 0,
            last_epoch_candidates: 0,
            epoch_evictions: 0,
            last_epoch_evictions: 0,
            steps: 0,
        }
    }

    /// **Ablation switch** (§2.1): set untracked weights to zero instead of
    /// regenerating their initialization values. The paper reports this
    /// destroys the "scaffolding" — compression drops from 60× to 2× on
    /// MNIST — and `repro_ablation_zeroed` reproduces the effect.
    pub fn with_zeroed_untracked(mut self) -> Self {
        self.zero_untracked = true;
        self
    }

    /// Freezes the tracked set once `epoch + 1 >= freeze_epoch` at an
    /// epoch boundary, as the paper's "Freeze Epoch" column configures.
    pub fn freeze_after(mut self, epoch: usize) -> Self {
        self.freeze_after = Some(epoch);
        self
    }

    /// The tracked-weight budget `k`.
    pub fn budget(&self) -> usize {
        self.k
    }

    /// Whether the tracked set is currently frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Number of weights that entered the tracked set on the latest step —
    /// the churn quantity of the paper's Figure 2.
    pub fn last_swaps(&self) -> usize {
        self.last_swaps
    }

    /// Total swaps over the most recently finished epoch (updated by
    /// [`Optimizer::end_epoch`]) — the per-epoch churn telemetry reports.
    pub fn epoch_churn(&self) -> usize {
        self.last_epoch_churn
    }

    /// The current tracked mask (empty before the first step).
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// The tracked weights of `ps` as `(index, value)` entries — with the
    /// init seed, everything needed to rebuild the model
    /// ([`TrackedSet::overlay`]). Empty before the first step. The
    /// [`DropBack::with_zeroed_untracked`] ablation does not overlay back
    /// to its parameters: overlay resets untracked weights to their init
    /// values, and the ablation holds them at zero.
    pub fn tracked(&self, ps: &ParamStore) -> TrackedSet {
        TrackedSet::from_mask(ps.params(), &self.mask)
    }

    /// Number of currently tracked weights.
    pub fn tracked_count(&self) -> usize {
        self.tracked.len()
    }

    /// Tracked-weight count per registered parameter range as
    /// `(name, tracked, total)` — the per-layer breakdown of Table 2.
    pub fn tracked_per_range(&self, ps: &ParamStore) -> Vec<(String, usize, usize)> {
        ps.ranges()
            .iter()
            .map(|r| {
                let tracked = (r.start()..r.end())
                    .filter(|&i| self.mask.get(i).copied().unwrap_or(false))
                    .count();
                (r.name().to_string(), tracked, r.len())
            })
            .collect()
    }

    /// Weight-compression ratio `total params / k` (what the paper's tables
    /// report, e.g. "DropBack 20k → 13.33×" on a 267k model).
    pub fn compression(&self, ps: &ParamStore) -> f32 {
        ps.len() as f32 / self.k.min(ps.len()) as f32
    }

    /// Rebuilds `tracked` from `mask`.
    fn index_mask(&mut self) {
        self.tracked.clear();
        self.tracked
            .extend((0..).zip(&self.mask).filter_map(|(i, &m)| m.then_some(i)));
    }

    /// Ranks all `n` scores with [`top_k_mask_sharded`] (the tracked set
    /// stays as it is when frozen). Makes no assumption about the
    /// parameters, so it is the step after construction and restore.
    fn select_all(&mut self, ps: &ParamStore, lr: f32) -> Selection {
        let (new_mask, lambda) = if self.frozen {
            (self.mask.clone(), None)
        } else {
            let _rank_span = Span::enter("topk-rank");
            // Score: tracked -> |w - w0| (recomputed, Algorithm 1's T);
            //        untracked -> |lr·g| (Algorithm 1's U).
            // Each score depends only on its own index, so the sweep is
            // chunked over the pool.
            let mut scores = vec![0.0f32; ps.len()];
            let mask = &self.mask;
            let (params, grads) = (ps.params(), ps.grads());
            let origins = Origins::new(ps.ranges(), ps.seed(), self.zero_untracked);
            pool::for_each_chunk_mut(&mut scores, CHUNK, |ci, chunk| {
                let mut origins = origins;
                for (i, s) in (ci * CHUNK..).zip(chunk.iter_mut()) {
                    *s = if mask[i] {
                        (params[i] - origins.at(i)).abs()
                    } else {
                        (lr * grads[i]).abs()
                    };
                }
            });
            let new_mask = top_k_mask_sharded(&scores, self.k);
            let lambda = scores
                .iter()
                .zip(&new_mask)
                .filter_map(|(&s, &m)| m.then_some(rank_key(s)))
                .min()
                .map(key_score);
            (new_mask, lambda)
        };
        let (mut candidates, mut evictions) = (0, 0);
        self.last_swaps = 0;
        for (&old, &new) in self.mask.iter().zip(&new_mask) {
            candidates += usize::from(!old);
            evictions += usize::from(old && !new);
            self.last_swaps += usize::from(new && !old);
        }
        self.mask = new_mask;
        self.index_mask();
        Selection {
            candidates: if self.frozen { 0 } else { candidates },
            evictions,
            evicted: Vec::new(),
            lambda,
        }
    }

    /// Algorithm 1 over just the weights that can be selected. With
    /// exactly `k` tracked, `k` scores are at least λ, the lowest tracked
    /// score, so no untracked weight scoring below λ can be selected: the
    /// top `k` of the tracked weights plus the untracked ones scoring at
    /// least λ is the top `k` of all `n`, ties included.
    fn select_incremental(&mut self, ps: &ParamStore, lr: f32) -> Selection {
        let _rank_span = Span::enter("topk-rank");
        let Self {
            k,
            zero_untracked,
            mask,
            tracked,
            ..
        } = self;
        let (params, grads) = (ps.params(), ps.grads());
        // Algorithm 1's T: the tracked scores |w - w0|.
        let origins = Origins::new(ps.ranges(), ps.seed(), *zero_untracked);
        let mut keys = vec![0; tracked.len()];
        pool::for_each_chunk_mut(&mut keys, TRACKED_CHUNK, |ci, chunk| {
            let mut origins = origins;
            let indices = &tracked[ci * TRACKED_CHUNK..];
            for (key, &i) in chunk.iter_mut().zip(indices) {
                let i = i as usize;
                *key = rank_key((params[i] - origins.at(i)).abs());
            }
        });
        let lambda = keys.iter().copied().min().unwrap_or(0);
        // Algorithm 1's U, kept only where |lr·g| reaches λ. Ties count:
        // a candidate at λ with a lower index than a tracked weight at λ
        // takes its place. On these non-negative scores, `s >= floor`
        // orders as the keys do; a NaN λ ranks below everything, so then
        // every untracked weight is a candidate.
        let floor = key_score(lambda);
        let admit_all = floor.is_nan();
        let n = mask.len();
        let key_of = |i: u32| rank_key((lr * grads[i as usize]).abs());
        let found = pool::map_indexed(n.div_ceil(CHUNK), |c| {
            let (lo, hi) = (c * CHUNK, ((c + 1) * CHUNK).min(n));
            let mut hits = Vec::new();
            for (i, &tracked) in (lo as u32..).zip(&mask[lo..hi]) {
                let s = (lr * grads[i as usize]).abs();
                if !tracked & (admit_all | (s >= floor)) {
                    hits.push(i);
                }
            }
            hits
        });
        let entering = found.concat();
        if entering.is_empty() {
            self.last_swaps = 0;
            return Selection {
                lambda: Some(floor),
                ..Selection::default()
            };
        }
        let mut cut = Cut::new(
            keys.iter()
                .copied()
                .chain(entering.iter().map(|&i| key_of(i))),
            *k,
        );
        // Walk the tracked weights and the candidates together, ascending
        // by index, so the tie-fill sees them in the order the full ranking
        // would.
        let previous = std::mem::replace(tracked, Vec::with_capacity(*k));
        let (mut evicted, mut a, mut b, mut entered) = (Vec::new(), 0, 0, 0);
        while a < previous.len() || b < entering.len() {
            let (i, key) =
                if b < entering.len() && (a == previous.len() || entering[b] < previous[a]) {
                    b += 1;
                    (entering[b - 1], key_of(entering[b - 1]))
                } else {
                    a += 1;
                    (previous[a - 1], keys[a - 1])
                };
            let slot = &mut mask[i as usize];
            if cut.take(key) {
                tracked.push(i);
                entered += usize::from(!*slot);
                *slot = true;
            } else if *slot {
                *slot = false;
                evicted.push(i);
            }
        }
        self.last_swaps = entered;
        Selection {
            candidates: entering.len(),
            evictions: evicted.len(),
            evicted,
            lambda: Some(key_score(cut.threshold())),
        }
    }
}

impl Optimizer for DropBack {
    fn step(&mut self, ps: &mut ParamStore, lr: f32) {
        let n = ps.len();
        if self.mask.len() != n {
            assert!(u32::try_from(n).is_ok(), "{n} weights exceed u32 indices");
            self.mask = vec![false; n];
            self.tracked.clear();
            self.synced = false;
        }
        let full = !self.synced || self.k >= n;
        let selection = if full {
            self.select_all(ps, lr)
        } else if self.frozen {
            self.last_swaps = 0;
            Selection::default()
        } else {
            self.select_incremental(ps, lr)
        };
        self.epoch_swaps += self.last_swaps;
        self.epoch_candidates += selection.candidates;
        self.epoch_evictions += selection.evictions;
        trace::record_counter("dropback.candidates", selection.candidates as f64);
        trace::record_counter("dropback.evictions", selection.evictions as f64);
        if let Some(lambda) = selection.lambda {
            trace::record_counter("dropback.lambda", f64::from(lambda));
        }
        {
            let (params, grads) = ps.update_view();
            for &i in &self.tracked {
                let i = i as usize;
                params[i] -= lr * grads[i];
            }
        }
        // Untracked weights already sit at their origin (the invariant),
        // so only weights that just left the set need regenerating — none
        // on a frozen step. A full step cannot assume the invariant and
        // regenerates every untracked weight; regeneration is O(1) per
        // index (`scheme.value(seed, i)`), so it runs chunked on the pool.
        if full || !selection.evicted.is_empty() {
            let _regen_span = Span::enter("regen");
            let ranges = ps.ranges().to_vec();
            let mut origins = Origins::new(&ranges, ps.seed(), self.zero_untracked);
            if full {
                let mask = &self.mask;
                pool::for_each_chunk_mut(ps.params_mut(), CHUNK, |ci, chunk| {
                    let mut origins = origins;
                    for (i, p) in (ci * CHUNK..).zip(chunk.iter_mut()) {
                        if !mask[i] {
                            *p = origins.at(i);
                        }
                    }
                });
            } else {
                let params = ps.params_mut();
                for &i in &selection.evicted {
                    let i = i as usize;
                    params[i] = origins.at(i);
                }
            }
        }
        self.synced = true;
        self.steps += 1;
    }

    fn end_epoch(&mut self, epoch: usize, _ps: &mut ParamStore) {
        self.last_epoch_churn = std::mem::take(&mut self.epoch_swaps);
        self.last_epoch_candidates = std::mem::take(&mut self.epoch_candidates);
        self.last_epoch_evictions = std::mem::take(&mut self.epoch_evictions);
        if let Some(fe) = self.freeze_after {
            if epoch + 1 >= fe {
                self.frozen = true;
            }
        }
    }

    fn name(&self) -> &str {
        if self.zero_untracked {
            "dropback-zeroed"
        } else {
            "dropback"
        }
    }

    fn stored_weights(&self, ps: &ParamStore) -> usize {
        self.k.min(ps.len())
    }

    fn tracked(&self, ps: &ParamStore) -> Option<TrackedSet> {
        Some(DropBack::tracked(self, ps))
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("tracked_k", self.tracked_count() as f64),
            ("churn", self.last_epoch_churn as f64),
            ("candidates", self.last_epoch_candidates as f64),
            ("evictions", self.last_epoch_evictions as f64),
            ("frozen", if self.frozen { 1.0 } else { 0.0 }),
        ]
    }

    fn snapshot_state(&self) -> OptState {
        OptState::new(self.name())
            // Configuration, captured so a restore can refuse to resume a
            // run trained under different settings.
            .with("k", StateField::U64(self.k as u64))
            .with(
                "freeze_after",
                StateField::U64(encode_opt_epoch(self.freeze_after)),
            )
            .with(
                "zero_untracked",
                StateField::U64(u64::from(self.zero_untracked)),
            )
            // Mutable state: everything the next step/end_epoch reads.
            // The tracked index list is derived from `mask` on restore, and
            // the per-step buffers are refilled before every use. The
            // candidate and eviction sums are telemetry no step reads; a
            // restore starts them at zero.
            .with("frozen", StateField::U64(u64::from(self.frozen)))
            .with("steps", StateField::U64(self.steps))
            .with("last_swaps", StateField::U64(self.last_swaps as u64))
            .with("epoch_swaps", StateField::U64(self.epoch_swaps as u64))
            .with(
                "last_epoch_churn",
                StateField::U64(self.last_epoch_churn as u64),
            )
            .with("mask", StateField::Bools(self.mask.clone()))
    }

    fn restore_state(&mut self, state: &OptState) -> Result<(), StateError> {
        state.expect_name(self.name())?;
        state.expect_u64("k", self.k as u64)?;
        state.expect_u64("freeze_after", encode_opt_epoch(self.freeze_after))?;
        state.expect_u64("zero_untracked", u64::from(self.zero_untracked))?;
        self.frozen = state.u64("frozen")? != 0;
        self.steps = state.u64("steps")?;
        self.last_swaps = state.u64("last_swaps")? as usize;
        self.epoch_swaps = state.u64("epoch_swaps")? as usize;
        self.last_epoch_churn = state.u64("last_epoch_churn")? as usize;
        self.mask = state.bools("mask")?.to_vec();
        self.index_mask();
        // The restored parameters are not known to match the mask, so the
        // next step ranks and regenerates everything.
        self.synced = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dropback_nn::InitScheme;

    fn store_with_grads(n: usize, grads: &[f32]) -> ParamStore {
        let mut ps = ParamStore::new(7);
        let r = ps.register("w", n, InitScheme::lecun_normal(4));
        ps.accumulate_grad(&r, grads);
        ps
    }

    fn regrad(ps: &mut ParamStore, grads: &[f32]) {
        ps.zero_grads();
        let r = ps.ranges()[0].clone();
        ps.accumulate_grad(&r, grads);
    }

    #[test]
    fn untracked_weights_equal_init() {
        let grads = [0.0, 5.0, 0.1, 4.0, 0.0, 3.0];
        let mut ps = store_with_grads(6, &grads);
        let mut db = DropBack::new(2);
        db.step(&mut ps, 0.1);
        for i in 0..6 {
            if !db.mask()[i] {
                assert_eq!(ps.params()[i], ps.init_value(i), "untracked {i}");
            }
        }
        // Highest |lr·g| are indices 1 and 3.
        assert!(db.mask()[1] && db.mask()[3]);
        assert_eq!(db.tracked_count(), 2);
    }

    #[test]
    fn tracked_weights_take_sgd_update() {
        let grads = [0.0, 5.0, 0.0, 4.0];
        let mut ps = store_with_grads(4, &grads);
        let w1_init = ps.params()[1];
        let mut db = DropBack::new(2);
        db.step(&mut ps, 0.1);
        assert!((ps.params()[1] - (w1_init - 0.5)).abs() < 1e-6);
    }

    #[test]
    fn k_at_least_n_equals_sgd() {
        let grads: Vec<f32> = (0..8).map(|i| i as f32 * 0.3 - 1.0).collect();
        let mut ps_db = store_with_grads(8, &grads);
        let mut ps_sgd = ps_db.clone();
        DropBack::new(100).step(&mut ps_db, 0.2);
        crate::Sgd::new().step(&mut ps_sgd, 0.2);
        assert_eq!(ps_db.params(), ps_sgd.params());
    }

    #[test]
    fn tracked_score_is_displacement() {
        // A tracked weight with a big accumulated displacement survives a
        // one-shot larger gradient elsewhere only if its displacement wins.
        let mut ps = store_with_grads(3, &[10.0, 0.0, 0.0]);
        let mut db = DropBack::new(1);
        db.step(&mut ps, 0.1); // index 0 tracked, displacement 1.0
                               // Current gradient 5.0 at index 1 -> candidate score 0.5 < 1.0.
        regrad(&mut ps, &[0.0, 5.0, 0.0]);
        db.step(&mut ps, 0.1);
        assert!(db.mask()[0], "displacement 1.0 should beat candidate 0.5");
        // Current gradient 30 at index 1 -> candidate score 3.0 > 1.0.
        regrad(&mut ps, &[0.0, 30.0, 0.0]);
        db.step(&mut ps, 0.1);
        assert!(db.mask()[1], "candidate 3.0 should evict displacement 1.0");
        assert!(!db.mask()[0]);
        assert_eq!(ps.params()[0], ps.init_value(0), "evicted weight reverts");
    }

    #[test]
    fn freezing_fixes_the_tracked_set() {
        let mut ps = store_with_grads(4, &[5.0, 0.0, 0.0, 0.0]);
        let mut db = DropBack::new(1).freeze_after(1);
        db.step(&mut ps, 0.1);
        db.end_epoch(0, &mut ps); // epoch 0 ends -> frozen (freeze_after=1)
        assert!(db.is_frozen());
        let mask_before = db.mask().to_vec();
        // Large gradient elsewhere must NOT change the set.
        for _ in 0..5 {
            regrad(&mut ps, &[0.0, 100.0, 0.0, 0.0]);
            db.step(&mut ps, 0.1);
        }
        assert_eq!(db.mask(), &mask_before[..]);
        assert_eq!(db.last_swaps(), 0);
    }

    #[test]
    fn swaps_counted() {
        let mut ps = store_with_grads(4, &[5.0, 0.0, 0.0, 0.0]);
        let mut db = DropBack::new(1);
        db.step(&mut ps, 0.1);
        assert_eq!(db.last_swaps(), 1); // first step: everything is new
        regrad(&mut ps, &[0.0, 0.0, 0.0, 100.0]);
        db.step(&mut ps, 0.1);
        assert_eq!(db.last_swaps(), 1); // index 3 replaced index 0
        assert!(db.mask()[3]);
    }

    #[test]
    fn epoch_churn_accumulates_and_resets() {
        let mut ps = store_with_grads(4, &[5.0, 0.0, 0.0, 0.0]);
        let mut db = DropBack::new(1);
        db.step(&mut ps, 0.1); // 1 swap (initial fill)
        regrad(&mut ps, &[0.0, 0.0, 0.0, 100.0]);
        db.step(&mut ps, 0.1); // 1 swap (index 3 evicts index 0)
        assert_eq!(db.epoch_churn(), 0, "no epoch has finished yet");
        db.end_epoch(0, &mut ps);
        assert_eq!(db.epoch_churn(), 2);
        let metrics = db.metrics();
        assert!(metrics.contains(&("tracked_k", 1.0)));
        assert!(metrics.contains(&("churn", 2.0)));
        assert!(metrics.contains(&("frozen", 0.0)));
        db.end_epoch(1, &mut ps);
        assert_eq!(db.epoch_churn(), 0, "stepless epoch has no churn");
    }

    #[test]
    fn per_range_breakdown_sums_to_k() {
        let mut ps = ParamStore::new(3);
        let a = ps.register("a", 6, InitScheme::lecun_normal(2));
        let b = ps.register("b", 6, InitScheme::lecun_normal(2));
        ps.accumulate_grad(&a, &[9.0, 8.0, 0.0, 0.0, 0.0, 0.0]);
        ps.accumulate_grad(&b, &[7.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let mut db = DropBack::new(3);
        db.step(&mut ps, 0.1);
        let per = db.tracked_per_range(&ps);
        let total: usize = per.iter().map(|(_, t, _)| t).sum();
        assert_eq!(total, 3);
        assert_eq!(per[0].1, 2);
        assert_eq!(per[1].1, 1);
    }

    #[test]
    fn compression_matches_paper_arithmetic() {
        let mut ps = ParamStore::new(1);
        ps.register("w", 266_610, InitScheme::Constant(0.0));
        let db = DropBack::new(20_000);
        assert!((db.compression(&ps) - 13.33).abs() < 0.01);
    }

    #[test]
    fn stored_weights_is_k() {
        let mut ps = ParamStore::new(1);
        ps.register("w", 100, InitScheme::Constant(0.0));
        assert_eq!(DropBack::new(10).stored_weights(&ps), 10);
        assert_eq!(DropBack::new(500).stored_weights(&ps), 100);
    }

    #[test]
    fn zeroed_ablation_zeroes_untracked() {
        let grads = [0.0, 5.0, 0.1, 4.0];
        let mut ps = store_with_grads(4, &grads);
        let mut db = DropBack::new(2).with_zeroed_untracked();
        db.step(&mut ps, 0.1);
        assert_eq!(ps.params()[0], 0.0);
        assert_eq!(ps.params()[2], 0.0);
        assert_ne!(ps.params()[1], 0.0);
        assert_eq!(db.name(), "dropback-zeroed");
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        // Two optimizers stepped through the same gradient stream: one
        // straight through, one snapshot/restored midway into a fresh
        // instance. Their masks and parameter trajectories must agree
        // bit-for-bit afterwards.
        let grads = |t: usize| -> Vec<f32> { (0..6).map(|i| ((i + t) % 5) as f32 - 1.5).collect() };
        let mut ps_a = store_with_grads(6, &grads(0));
        let mut ps_b = ps_a.clone();
        let mut a = DropBack::new(2).freeze_after(4);
        let mut b = DropBack::new(2).freeze_after(4);
        for t in 0..3 {
            regrad(&mut ps_a, &grads(t));
            a.step(&mut ps_a, 0.1);
            regrad(&mut ps_b, &grads(t));
            b.step(&mut ps_b, 0.1);
        }
        a.end_epoch(0, &mut ps_a);
        b.end_epoch(0, &mut ps_b);
        // Kill b; bring up a fresh instance from its snapshot.
        let snap = b.snapshot_state();
        let mut b2 = DropBack::new(2).freeze_after(4);
        b2.restore_state(&snap).unwrap();
        for t in 3..8 {
            regrad(&mut ps_a, &grads(t));
            a.step(&mut ps_a, 0.1);
            regrad(&mut ps_b, &grads(t));
            b2.step(&mut ps_b, 0.1);
        }
        assert_eq!(a.mask(), b2.mask());
        assert_eq!(ps_a.params(), ps_b.params());
        assert_eq!(a.last_swaps(), b2.last_swaps());
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let snap = DropBack::new(2).snapshot_state();
        assert!(matches!(
            DropBack::new(3).restore_state(&snap),
            Err(StateError::ConfigMismatch { field: "k", .. })
        ));
        assert!(matches!(
            DropBack::new(2).freeze_after(1).restore_state(&snap),
            Err(StateError::ConfigMismatch {
                field: "freeze_after",
                ..
            })
        ));
        assert!(matches!(
            DropBack::new(2)
                .with_zeroed_untracked()
                .restore_state(&snap),
            Err(StateError::NameMismatch { .. })
        ));
    }

    #[test]
    fn k_tracked_weights_plus_seed_reconstruct_every_step() {
        // The paper's storage claim as an invariant: after every step —
        // ranking, frozen, and across ranges with different init schemes —
        // a fresh store overlaid with the `k` tracked entries is bit-equal
        // to the trained parameters.
        let make_store = || {
            let mut ps = ParamStore::new(11);
            ps.register("a", 40, InitScheme::lecun_normal(8));
            ps.register("bn", 8, InitScheme::Constant(1.0));
            ps
        };
        let mut ps = make_store();
        let mut db = DropBack::new(12).freeze_after(3);
        let mut rng = dropback_prng::Xorshift64::new(5);
        for epoch in 0..5 {
            for _ in 0..10 {
                let grads: Vec<f32> = (0..48).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
                ps.zero_grads();
                let (r0, r1) = (ps.ranges()[0].clone(), ps.ranges()[1].clone());
                ps.accumulate_grad(&r0, &grads[..40]);
                ps.accumulate_grad(&r1, &grads[40..]);
                db.step(&mut ps, 0.1);
                let tracked = db.tracked(&ps);
                assert_eq!(tracked.len(), 12, "epoch {epoch}");
                let mut rebuilt = make_store();
                tracked.overlay(&mut rebuilt).unwrap();
                let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(rebuilt.params()), bits(ps.params()), "epoch {epoch}");
            }
            db.end_epoch(epoch, &mut ps);
        }
        assert!(db.is_frozen());
    }

    #[test]
    fn tracked_is_empty_before_the_first_step() {
        let ps = store_with_grads(4, &[1.0; 4]);
        assert!(DropBack::new(2).tracked(&ps).is_empty());
    }

    #[test]
    fn constant_init_params_regenerate_to_constants() {
        // BN-style parameters (constant init) are prunable: untracked ones
        // sit at their constant, not at zero.
        let mut ps = ParamStore::new(5);
        let g = ps.register("bn.gamma", 4, InitScheme::Constant(1.0));
        ps.accumulate_grad(&g, &[5.0, 0.0, 0.0, 0.0]);
        let mut db = DropBack::new(1);
        db.step(&mut ps, 0.1);
        assert!((ps.params()[0] - 0.5).abs() < 1e-6); // tracked, updated
        assert_eq!(&ps.params()[1..], &[1.0, 1.0, 1.0]); // regenerated γ=1
    }
}
