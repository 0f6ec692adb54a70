//! The [`Layer`] trait: explicit forward/backward with layer-owned caches.

use crate::param::ParamStore;
use dropback_tensor::Tensor;

/// Whether a pass uses training-time behaviour (dropout active, batch-norm
/// batch statistics) or inference behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: stochastic layers sample, normalization uses batch stats.
    Train,
    /// Evaluation: deterministic, normalization uses running stats.
    Eval,
}

/// A differentiable network stage.
///
/// Layers read their parameters from the shared [`ParamStore`] and own any
/// caches needed between `forward` and `backward` (input activations,
/// dropout masks, pooling argmaxes, ...). A `backward` call must follow the
/// `forward` call whose gradient it propagates.
///
/// Layers are `Send` so a whole [`crate::Network`] can move to (and be
/// locked by) another thread, e.g. a server's batch worker evaluating a
/// served generation.
pub trait Layer: Send {
    /// Computes the layer output, caching whatever `backward` will need.
    fn forward(&mut self, x: &Tensor, ps: &ParamStore, mode: Mode) -> Tensor;

    /// Propagates `dout` (gradient w.r.t. this layer's output), accumulating
    /// parameter gradients into `ps` and returning the gradient w.r.t. the
    /// layer's input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, dout: &Tensor, ps: &mut ParamStore) -> Tensor;

    /// The parameter ranges this layer registered, in order (empty for
    /// parameter-free layers).
    fn param_ranges(&self) -> Vec<crate::param::ParamRange> {
        Vec::new()
    }

    /// Accumulates any variational (KL) regularizer gradients this layer
    /// carries, scaled by `scale`, returning the (scaled) KL value. The
    /// default is a no-op; variational-dropout layers override it, and
    /// containers sum over children.
    fn kl_backward(&self, _ps: &mut ParamStore, _scale: f32) -> f32 {
        0.0
    }
}
