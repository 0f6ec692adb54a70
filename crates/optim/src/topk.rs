//! Deterministic top-k selection used by DropBack's tracked-set update.
//!
//! Two implementations produce the exact same mask: the serial
//! [`top_k_mask`] reference, and [`top_k_mask_sharded`], which ranks fixed
//! `SHARD`-sized score shards in parallel on the `dropback-tensor` worker
//! pool and merges per-shard candidates. The sharded selection is
//! bit-identical to the serial one (same threshold, same lowest-index
//! tie-break) at any thread count — see `docs/PERFORMANCE.md` for the
//! argument and `tests/thread_invariance.rs` for the end-to-end pin.
//!
//! Both rank by one total-order key, `rank_key`: numbers compare as
//! usual (`-0.0` ties `0.0`) and **NaN ranks below every number**, so a
//! NaN score is selected only when fewer than `k` numbers exist, lowest
//! index first. With a total order, exactly `min(k, n)` weights are
//! selected whatever the input, and serial and sharded always agree.
//!
//! [`Cut`] applies the same threshold and tie-fill to a *subset* of the
//! scores. DropBack's incremental step uses it on the tracked weights plus
//! the untracked candidates that can enter, a subset that provably holds
//! every selected index (see `docs/PERFORMANCE.md`).

/// Maps a score to an integer whose order is the ranking order: the
/// usual order on numbers with `-0.0` and `0.0` equal, and every NaN
/// equal to each other and below `-inf`.
pub(crate) fn rank_key(s: f32) -> u32 {
    if s.is_nan() {
        return 0;
    }
    let bits = s.to_bits();
    if bits == 0x8000_0000 {
        // -0.0 ranks as 0.0.
        0x8000_0000
    } else if bits >> 31 == 1 {
        // Negative: larger magnitude ranks lower. `!bits` of -inf is
        // 0x007F_FFFF, so every number stays above the NaN key 0.
        !bits
    } else {
        bits | 0x8000_0000
    }
}

/// The score a key ranks: the inverse of [`rank_key`], with `0.0` for the
/// key `±0.0` share and NaN for the NaN key.
pub(crate) fn key_score(key: u32) -> f32 {
    if key == 0 {
        f32::NAN
    } else if key >> 31 == 1 {
        f32::from_bits(key & 0x7FFF_FFFF)
    } else {
        f32::from_bits(!key)
    }
}

/// The keys of `scores`, in order.
fn rank_keys(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|&s| rank_key(s)).collect()
}

/// Returns a boolean mask selecting exactly `min(k, n)` elements with the
/// largest `scores`, breaking ties by preferring lower indices
/// (deterministic, so the tracked set is reproducible across runs).
///
/// Runs in O(n) average time via quickselect on a copy of the scores.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn top_k_mask(scores: &[f32], k: usize) -> Vec<bool> {
    assert!(k > 0, "top-k of zero elements is meaningless");
    let n = scores.len();
    if k >= n {
        return vec![true; n];
    }
    let threshold = kth_largest(&mut rank_keys(scores), k);
    // First pass: everything strictly above the threshold.
    let mut mask: Vec<bool> = scores.iter().map(|&s| rank_key(s) > threshold).collect();
    fill_ties(scores, threshold, k, &mut mask);
    mask
}

/// The `k`-th largest key (1-indexed: `k = 1` is the maximum), selected
/// in place.
fn kth_largest(keys: &mut [u32], k: usize) -> u32 {
    // Descending order puts the k-th largest at position k - 1.
    let (_, nth, _) = keys.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
    *nth
}

/// Second pass: fills the slots left after the strict-greater pass with
/// threshold-equal scores, lowest index first. The threshold is the
/// `k`-th largest key, so exactly `k` end up selected.
fn fill_ties(scores: &[f32], threshold: u32, k: usize, mask: &mut [bool]) {
    let mut taken = mask.iter().filter(|&&m| m).count();
    for (i, &s) in scores.iter().enumerate() {
        if taken == k {
            break;
        }
        if !mask[i] && rank_key(s) == threshold {
            mask[i] = true;
            taken += 1;
        }
    }
    debug_assert_eq!(taken, k);
}

/// The top-`k` cut of a subset of scores, walked in ascending index
/// order: the threshold and lowest-index tie-fill of [`top_k_mask`]
/// applied to just those scores.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cut {
    threshold: u32,
    ties: usize,
}

impl Cut {
    /// The cut that keeps `k` of `keys`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < k <= keys.len()`.
    pub(crate) fn new(keys: impl IntoIterator<Item = u32>, k: usize) -> Self {
        let mut keys: Vec<u32> = keys.into_iter().collect();
        assert!(k > 0 && k <= keys.len(), "cut {k} of {}", keys.len());
        let threshold = kth_largest(&mut keys, k);
        let above = keys.iter().filter(|&&key| key > threshold).count();
        Self {
            threshold,
            ties: k - above,
        }
    }

    /// The `k`-th largest key.
    pub(crate) fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Whether the next key, in ascending index order, is selected.
    pub(crate) fn take(&mut self, key: u32) -> bool {
        if key > self.threshold {
            true
        } else if key == self.threshold && self.ties > 0 {
            self.ties -= 1;
            true
        } else {
            false
        }
    }
}

/// Scores per shard for [`top_k_mask_sharded`]. Fixed (never derived from
/// the thread count) so the shard boundaries — and the merged candidate
/// pool — are identical at any `DROPBACK_THREADS` value.
const SHARD: usize = 1 << 15;

/// Sharded [`top_k_mask`]: bit-identical result, parallel selection.
///
/// Each fixed-size shard contributes its top `min(k, shard_len)` values to
/// a candidate pool. Every element of the global top-k is in the pool:
/// a value `x` among the `k` largest overall has fewer than `k` elements
/// `≥ x` globally, hence fewer than `k` within its shard, so `x` survives
/// its shard's selection. The pool is also a sub-multiset of `scores`, so
/// its `k`-th largest equals the global `k`-th largest, and the final
/// strict-greater / lowest-index-tie-fill passes reproduce the serial mask
/// exactly.
///
/// Falls back to the serial reference when the input is small or `k` is a
/// large fraction of `n` (the candidate pool would approach `n` anyway) —
/// both paths return the same mask, so the cutover is invisible.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn top_k_mask_sharded(scores: &[f32], k: usize) -> Vec<bool> {
    assert!(k > 0, "top-k of zero elements is meaningless");
    let n = scores.len();
    if k >= n {
        return vec![true; n];
    }
    let shards = n.div_ceil(SHARD);
    if shards < 2 || k.saturating_mul(4) >= n {
        return top_k_mask(scores, k);
    }
    let candidates = dropback_tensor::pool::map_indexed(shards, |s| {
        let lo = s * SHARD;
        let hi = (lo + SHARD).min(n);
        let mut keys = rank_keys(&scores[lo..hi]);
        let kk = k.min(keys.len());
        keys.select_nth_unstable_by(kk - 1, |a, b| b.cmp(a));
        keys.truncate(kk);
        keys
    });
    let mut merged: Vec<u32> = candidates.into_iter().flatten().collect();
    let threshold = kth_largest(&mut merged, k);
    let mut mask = vec![false; n];
    // Strict-greater pass, parallel over the same fixed shards (each mask
    // element depends only on its own score).
    dropback_tensor::pool::for_each_chunk_mut(&mut mask, SHARD, |ci, chunk| {
        let base = ci * SHARD;
        for (j, m) in chunk.iter_mut().enumerate() {
            *m = rank_key(scores[base + j]) > threshold;
        }
    });
    // Serial tie-fill, lowest index first — identical to the reference.
    fill_ties(scores, threshold, k, &mut mask);
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn selected(mask: &[bool]) -> Vec<usize> {
        mask.iter()
            .enumerate()
            .filter_map(|(i, &m)| m.then_some(i))
            .collect()
    }

    #[test]
    fn selects_exactly_k() {
        let scores = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        for k in 1..=8 {
            let mask = top_k_mask(&scores, k);
            assert_eq!(mask.iter().filter(|&&m| m).count(), k, "k={k}");
        }
    }

    #[test]
    fn matches_sort_reference() {
        let scores = [0.3, -1.0, 0.7, 0.7, 2.0, -0.5, 0.0, 0.7, 1.5];
        let mask = top_k_mask(&scores, 4);
        // Sorted descending: 2.0(4), 1.5(8), 0.7(2), 0.7(3) — ties by index.
        assert_eq!(selected(&mask), vec![2, 3, 4, 8]);
    }

    #[test]
    fn k_larger_than_n_selects_all() {
        let mask = top_k_mask(&[1.0, 2.0], 10);
        assert_eq!(mask, vec![true, true]);
    }

    #[test]
    fn all_equal_breaks_ties_by_index() {
        let mask = top_k_mask(&[5.0; 6], 3);
        assert_eq!(selected(&mask), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn zero_k_panics() {
        top_k_mask(&[1.0], 0);
    }

    #[test]
    fn reference_equivalence_random() {
        // Property-style check against a full-sort reference; the sharded
        // implementation must agree with both.
        let mut state = 0x12345u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u32 << 24) as f32) - 0.5
        };
        for trial in 0..20 {
            let n = 50 + trial * 13;
            let scores: Vec<f32> = (0..n).map(|_| next()).collect();
            let k = 1 + trial * 2;
            let mask = top_k_mask(&scores, k.min(n));
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
            let expect: std::collections::BTreeSet<usize> =
                order[..k.min(n)].iter().copied().collect();
            let got: std::collections::BTreeSet<usize> = selected(&mask).into_iter().collect();
            assert_eq!(expect, got, "trial {trial}");
            assert_eq!(
                mask,
                top_k_mask_sharded(&scores, k.min(n)),
                "sharded diverged on trial {trial}"
            );
        }
    }

    /// Deterministic xorshift stream for the sharded property tests.
    fn rand_scores(n: usize, seed: u64, quantize: Option<f32>) -> Vec<f32> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let v = ((state >> 40) as f32 / (1u32 << 24) as f32) - 0.5;
                match quantize {
                    // Coarse grid => plenty of exact ties across shards.
                    Some(q) => (v * q).round() / q,
                    None => v,
                }
            })
            .collect()
    }

    #[test]
    fn sharded_matches_serial_on_random_vectors() {
        // Large enough to cross multiple shard boundaries.
        for (trial, &n) in [SHARD * 2 + 17, SHARD * 3, SHARD * 4 - 1]
            .iter()
            .enumerate()
        {
            let scores = rand_scores(n, 0xBEEF + trial as u64, None);
            for k in [1usize, 7, 100, n / 8] {
                assert_eq!(
                    top_k_mask(&scores, k),
                    top_k_mask_sharded(&scores, k),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn sharded_matches_serial_with_heavy_ties() {
        // Quantized scores force threshold ties that span shards, which is
        // exactly where the lowest-index tie-break must agree.
        let n = SHARD * 3 + 5;
        let scores = rand_scores(n, 0xD00D, Some(8.0));
        for k in [3usize, 64, n / 16, n / 5] {
            assert_eq!(
                top_k_mask(&scores, k),
                top_k_mask_sharded(&scores, k),
                "k={k}"
            );
        }
    }

    #[test]
    fn sharded_k_at_least_n_selects_all() {
        let scores = rand_scores(1000, 42, None);
        for k in [1000usize, 1001, 5000] {
            assert_eq!(top_k_mask_sharded(&scores, k), vec![true; 1000]);
        }
    }

    #[test]
    fn sharded_all_equal_breaks_ties_by_index() {
        let n = SHARD * 2 + 3;
        let scores = vec![1.25f32; n];
        let k = 77;
        let mask = top_k_mask_sharded(&scores, k);
        assert_eq!(mask, top_k_mask(&scores, k));
        assert_eq!(selected(&mask), (0..k).collect::<Vec<_>>());
    }

    #[test]
    fn nan_ranks_below_every_number_across_shards() {
        // Seeded NaNs scattered over more than two shards: the total order
        // must still select exactly min(k, n), identically in both paths.
        let n = SHARD * 2 + 77;
        let mut scores = rand_scores(n, 0xA11CE, None);
        let mut state = 0x5EEDu64;
        let mut nan_at = Vec::new();
        for _ in 0..(n / 3) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let i = (state % n as u64) as usize;
            scores[i] = if state & 1 == 0 { f32::NAN } else { -f32::NAN };
            nan_at.push(i);
        }
        let numbers = scores.iter().filter(|s| !s.is_nan()).count();
        for k in [1usize, 100, n / 8, numbers, numbers + 5, n - 1, n, n + 3] {
            let serial = top_k_mask(&scores, k);
            assert_eq!(selected(&serial).len(), k.min(n), "k={k}");
            assert_eq!(serial, top_k_mask_sharded(&scores, k), "k={k}");
            // NaN only enters once every number is in.
            let nans_taken = nan_at.iter().filter(|&&i| serial[i]).count();
            if k <= numbers {
                assert_eq!(nans_taken, 0, "k={k}");
            } else {
                assert!(scores.iter().zip(&serial).all(|(s, &m)| m || s.is_nan()));
            }
        }
    }

    #[test]
    fn rank_key_orders_numbers_and_sinks_nan() {
        let ordered = [
            f32::NEG_INFINITY,
            -3.0,
            -0.5,
            0.0,
            1e-30,
            2.0,
            f32::INFINITY,
        ];
        for w in ordered.windows(2) {
            assert!(rank_key(w[0]) < rank_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert_eq!(rank_key(-0.0), rank_key(0.0));
        assert!(rank_key(f32::NAN) < rank_key(f32::NEG_INFINITY));
        assert_eq!(rank_key(f32::NAN), rank_key(-f32::NAN));
    }

    #[test]
    fn key_score_inverts_rank_key() {
        for s in [
            0.0f32,
            1e-30,
            0.25,
            3.5,
            f32::MAX,
            f32::INFINITY,
            -2.0,
            f32::NEG_INFINITY,
        ] {
            assert_eq!(key_score(rank_key(s)).to_bits(), s.to_bits(), "{s}");
        }
        assert_eq!(key_score(rank_key(-0.0)).to_bits(), 0.0f32.to_bits());
        assert!(key_score(rank_key(f32::NAN)).is_nan());
    }

    #[test]
    fn cut_over_every_key_matches_the_mask() {
        for (trial, quantize) in [None, Some(8.0), Some(2.0)].into_iter().enumerate() {
            let mut scores = rand_scores(500, 0xC07 + trial as u64, quantize);
            scores[17] = f32::NAN;
            let keys = || scores.iter().map(|&s| rank_key(s));
            for k in [1usize, 5, 100, 499, 500] {
                let mut cut = Cut::new(keys(), k);
                let picked: Vec<bool> = keys().map(|key| cut.take(key)).collect();
                assert_eq!(picked, top_k_mask(&scores, k), "trial {trial} k={k}");
                assert_eq!(
                    cut.threshold(),
                    kth_largest(&mut keys().collect::<Vec<_>>(), k)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn sharded_zero_k_panics() {
        top_k_mask_sharded(&[1.0], 0);
    }
}
