//! Neural-network substrate for the DropBack reproduction.
//!
//! The defining constraint from the paper: *every* parameter's
//! initialization value must be recomputable in O(1) from a seed and the
//! parameter's index, because DropBack regenerates untracked weights instead
//! of storing them. That pushes the design toward a flat, globally-indexed
//! parameter arena:
//!
//! * [`ParamStore`] — one flat `params`/`grads` vector pair for the whole
//!   network. Each layer registers a named range with an [`InitScheme`];
//!   the store can regenerate the initial value of any global index without
//!   touching the stored weights.
//! * [`TrackedSet`] — the index-sorted `(index, value)` entries a DropBack
//!   model stores; overlaid on a fresh store it densifies the whole model.
//! * [`Layer`] — explicit `forward`/`backward` with caches owned by the
//!   layer. No autograd tape: the backward formulas are hand-derived and
//!   finite-difference-tested, which is what lets the optimizer see plain
//!   flat gradient vectors.
//! * [`Network`] — a [`Sequential`] stack plus its store, with
//!   cross-entropy training helpers.
//! * [`models`] — the paper's evaluation networks: MNIST-100-100,
//!   LeNet-300-100, and architecture-faithful nano versions of VGG-S,
//!   DenseNet, and WRN-28-10 (see DESIGN.md for the scaling substitution).
//!
//! # Example
//!
//! ```
//! use dropback_nn::{models, Mode};
//! use dropback_tensor::Tensor;
//!
//! let mut net = models::mnist_100_100(42);
//! let x = Tensor::zeros(vec![4, 784]);
//! let logits = net.forward(&x, Mode::Eval);
//! assert_eq!(logits.shape(), &[4, 10]);
//! ```

#![deny(missing_docs)]

mod act;
mod act_extra;
mod blocks;
mod conv_layer;
pub mod gradcheck;
mod layer;
mod linear;
pub mod models;
mod network;
mod norm;
mod param;
mod pool;
mod sequential;
mod tracked;
mod vardrop;
mod vardrop_conv;

pub use act::{Dropout, Flatten, PRelu, Relu};
pub use act_extra::{Gelu, LayerNorm, Sigmoid, Tanh};
pub use blocks::{DenseBlock, ResidualBlock, Transition};
pub use conv_layer::Conv2d;
pub use dropback_prng::InitScheme;
pub use layer::{Layer, Mode};
pub use linear::Linear;
pub use network::Network;
pub use norm::BatchNorm;
pub use param::{ParamRange, ParamStore};
pub use pool::{AvgPool2d, GlobalAvgPool, MaxPool2d};
pub use sequential::Sequential;
pub use tracked::{TrackedError, TrackedSet};
pub use vardrop::VarDropLinear;
pub use vardrop_conv::VarDropConv2d;
