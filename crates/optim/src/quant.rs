//! Weight quantization, composable with any training rule.
//!
//! The paper's related-work section notes that "quantization is orthogonal
//! to DropBack, and the two techniques can be combined". This module makes
//! the combination concrete: [`Quantizer`] fake-quantizes stored weights to
//! a `bits`-wide uniform grid after every update, and [`Quantized`] wraps
//! any [`Optimizer`] with that post-step. `repro_ablation_quant` sweeps the
//! bit width over a DropBack run.

use crate::{OptState, Optimizer, StateError};
use dropback_nn::{ParamStore, TrackedSet};

/// Uniform symmetric fake-quantizer for weight vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer {
    bits: u32,
}

impl Quantizer {
    /// Creates a quantizer with `bits` of precision (2..=16).
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 16`.
    pub fn new(bits: u32) -> Self {
        assert!((2..=16).contains(&bits), "bits must be in 2..=16");
        Self { bits }
    }

    /// The configured bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of representable levels.
    pub fn levels(&self) -> u32 {
        1u32 << self.bits
    }

    /// Quantizes one value onto the symmetric grid `[-scale, scale]`.
    #[inline]
    pub fn quantize(&self, v: f32, scale: f32) -> f32 {
        if scale <= 0.0 {
            return 0.0;
        }
        let half = (self.levels() / 2) as f32;
        let q = (v / scale * half).round().clamp(-half, half - 1.0);
        if q == 0.0 {
            0.0 // normalize away -0.0 so the grid has exactly 2^bits points
        } else {
            q / half * scale
        }
    }

    /// Fake-quantizes a whole slice in place, using its max-|v| as scale.
    /// Returns the scale used.
    pub fn quantize_slice(&self, values: &mut [f32]) -> f32 {
        let scale = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        if scale > 0.0 {
            for v in values.iter_mut() {
                *v = self.quantize(*v, scale);
            }
        }
        scale
    }
}

/// Wraps any optimizer with post-step weight quantization.
///
/// The inner rule runs unchanged (full-precision gradients), then every
/// stored weight is snapped to the quantization grid — the "quantize while
/// training" regime of Gupta et al. 2015 / Courbariaux et al. 2014 the
/// paper cites as combinable with DropBack. Under a rule with a tracked
/// set ([`Optimizer::tracked`]) the stored weights are the tracked ones:
/// each range's scale is their max-|w|, and untracked weights keep their
/// exact init values.
#[derive(Debug, Clone)]
pub struct Quantized<O> {
    inner: O,
    quantizer: Quantizer,
    name: String,
}

impl<O: Optimizer> Quantized<O> {
    /// Wraps `inner`, quantizing to `bits` after each step.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 16`.
    pub fn new(inner: O, bits: u32) -> Self {
        let name = format!("{}+q{bits}", inner.name());
        Self {
            inner,
            quantizer: Quantizer::new(bits),
            name,
        }
    }

    /// The wrapped optimizer.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// The quantizer in use.
    pub fn quantizer(&self) -> Quantizer {
        self.quantizer
    }
}

impl<O: Optimizer> Optimizer for Quantized<O> {
    fn step(&mut self, ps: &mut ParamStore, lr: f32) {
        self.inner.step(ps, lr);
        // Quantize per registered range so each layer gets its own scale.
        let ranges: Vec<_> = ps.ranges().to_vec();
        match self.inner.tracked(ps) {
            None => {
                for r in &ranges {
                    let slice = &mut ps.params_mut()[r.start()..r.end()];
                    self.quantizer.quantize_slice(slice);
                }
            }
            // Only stored weights live on the grid: untracked ones stay at
            // their init values, which the inner rule relies on.
            Some(set) => {
                let params = ps.params_mut();
                for r in &ranges {
                    let entries = set.within(r.start(), r.end());
                    let scale = entries.iter().fold(0.0f32, |m, &(_, v)| m.max(v.abs()));
                    if scale > 0.0 {
                        for &(i, v) in entries {
                            params[i as usize] = self.quantizer.quantize(v, scale);
                        }
                    }
                }
            }
        }
    }

    fn end_epoch(&mut self, epoch: usize, ps: &mut ParamStore) {
        self.inner.end_epoch(epoch, ps);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn stored_weights(&self, ps: &ParamStore) -> usize {
        self.inner.stored_weights(ps)
    }

    fn tracked(&self, ps: &ParamStore) -> Option<TrackedSet> {
        self.inner.tracked(ps)
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        self.inner.metrics()
    }

    /// The inner rule's state filed under this wrapper's name, so a
    /// restore refuses a snapshot of the bare rule or of another width.
    fn snapshot_state(&self) -> OptState {
        self.inner.snapshot_state().renamed(&self.name)
    }

    fn restore_state(&mut self, state: &OptState) -> Result<(), StateError> {
        state.expect_name(&self.name)?;
        self.inner
            .restore_state(&state.clone().renamed(self.inner.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sgd;
    use dropback_nn::InitScheme;

    #[test]
    fn quantize_snaps_to_grid() {
        let q = Quantizer::new(2); // 4 levels: -1, -0.5, 0, 0.5 (x scale)
        assert_eq!(q.levels(), 4);
        assert_eq!(q.quantize(0.9, 1.0), 0.5); // clamped to half-1 level
        assert_eq!(q.quantize(-1.2, 1.0), -1.0);
        assert_eq!(q.quantize(0.1, 1.0), 0.0);
    }

    #[test]
    fn quantize_slice_bounds_error() {
        let q = Quantizer::new(8);
        let mut values: Vec<f32> = (0..100).map(|i| (i as f32 * 0.37).sin()).collect();
        let orig = values.clone();
        let scale = q.quantize_slice(&mut values);
        assert!(scale > 0.0);
        let max_err = scale / 128.0; // half a level step
        for (v, o) in values.iter().zip(&orig) {
            assert!((v - o).abs() <= max_err + 1e-6, "{v} vs {o}");
        }
    }

    #[test]
    fn zero_slice_stays_zero() {
        let q = Quantizer::new(4);
        let mut z = vec![0.0f32; 8];
        assert_eq!(q.quantize_slice(&mut z), 0.0);
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "bits must be in")]
    fn one_bit_panics() {
        Quantizer::new(1);
    }

    #[test]
    fn quantized_sgd_steps_and_quantizes() {
        let mut ps = ParamStore::new(1);
        let r = ps.register("w", 4, InitScheme::Constant(0.0));
        ps.accumulate_grad(&r, &[1.0, 0.5, -1.0, 0.25]);
        let mut opt = Quantized::new(Sgd::new(), 2);
        opt.step(&mut ps, 1.0);
        // Post-SGD values [-1, -0.5, 1, -0.25] -> scale 1.0, grid 0.5.
        assert_eq!(ps.params(), &[-1.0, -0.5, 0.5, -0.5]);
        assert_eq!(opt.name(), "sgd+q2");
    }

    #[test]
    fn quantized_dropback_keeps_untracked_at_init_and_tracked_on_the_grid() {
        let mut ps = ParamStore::new(9);
        ps.register("w", 200, InitScheme::lecun_normal(20));
        ps.register("gamma", 16, InitScheme::Constant(1.0));
        let mut opt = Quantized::new(crate::DropBack::new(40).freeze_after(3), 3);
        let mut rng = dropback_prng::Xorshift64::new(17);
        for epoch in 0..4 {
            for step in 0..10 {
                ps.zero_grads();
                for g in ps.grads_mut() {
                    *g = rng.next_f32() * 2.0 - 1.0;
                }
                opt.step(&mut ps, 0.2);
                let mask = opt.inner().mask();
                for r in ps.ranges() {
                    let mut grid = std::collections::BTreeSet::new();
                    for (i, &tracked) in mask.iter().enumerate().take(r.end()).skip(r.start()) {
                        let w = ps.params()[i];
                        if tracked {
                            grid.insert(w.to_bits());
                        } else {
                            assert_eq!(
                                w.to_bits(),
                                ps.init_value(i).to_bits(),
                                "{epoch}:{step} {i}"
                            );
                        }
                    }
                    assert!(
                        grid.len() <= 8,
                        "{epoch}:{step} {}: {} levels",
                        r.name(),
                        grid.len()
                    );
                }
            }
            opt.end_epoch(epoch, &mut ps);
        }
    }

    #[test]
    fn quantized_dropback_resumes_bit_identically() {
        let store = || {
            let mut ps = ParamStore::new(9);
            ps.register("w", 200, InitScheme::lecun_normal(20));
            ps
        };
        let rule = || Quantized::new(crate::DropBack::new(20), 8);
        let (mut ps_a, mut ps_b) = (store(), store());
        let (mut a, mut b) = (rule(), rule());
        let mut rng = dropback_prng::Xorshift64::new(5);
        for step in 0..40 {
            if step == 20 {
                // Resume `b` from a snapshot into a freshly built rule.
                let state = b.snapshot_state();
                assert_eq!(state.name(), "dropback+q8");
                b = rule();
                b.restore_state(&state).unwrap();
                assert_eq!(b.metrics(), a.metrics());
            }
            let grads: Vec<f32> = (0..200).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
            for (ps, opt) in [(&mut ps_a, &mut a), (&mut ps_b, &mut b)] {
                ps.zero_grads();
                ps.grads_mut().copy_from_slice(&grads);
                opt.step(ps, 0.1);
            }
        }
        let bits = |ps: &ParamStore| ps.params().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ps_a), bits(&ps_b), "resumed run diverged");

        // The wrapper's name guards the restore.
        let state = a.snapshot_state();
        let mut other_width = Quantized::new(crate::DropBack::new(20), 4);
        assert!(matches!(
            other_width.restore_state(&state),
            Err(StateError::NameMismatch { .. })
        ));
        let bare = crate::DropBack::new(20).snapshot_state();
        assert!(matches!(
            rule().restore_state(&bare),
            Err(StateError::NameMismatch { .. })
        ));
    }

    #[test]
    fn quantized_dropback_preserves_budget_accounting() {
        let mut ps = ParamStore::new(1);
        ps.register("w", 100, InitScheme::lecun_normal(10));
        let opt = Quantized::new(crate::DropBack::new(10), 8);
        assert_eq!(opt.stored_weights(&ps), 10);
    }
}
