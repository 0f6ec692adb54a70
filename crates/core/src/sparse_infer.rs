//! Streaming-regeneration inference: compute a layer's forward pass
//! without ever materializing its dense weight matrix.
//!
//! This is the accelerator dataflow the paper describes — each weight is
//! either one of the `k` stored values or regenerated from `(seed, index)`
//! at the moment the MAC consumes it, then discarded. The rest of this
//! workspace rebuilds a dense view for the layer kernels (convenient on a
//! CPU); this module shows the dense view is unnecessary and counts the
//! traffic the energy model charges for.
//!
//! The stored weights arrive as a [`TrackedSet`], sorted by index. Each
//! layer keeps its own contiguous sub-slice and, because a forward pass
//! visits a layer's weights in ascending index order, walks it with a
//! forward cursor: one comparison per weight, no tree lookups.
//!
//! Shape errors surface as [`StreamError`] values rather than panics so a
//! caller wiring up a model zoo entry gets an actionable message instead
//! of a backtrace.

use dropback_nn::{InitScheme, ParamRange, ParamStore, TrackedSet};
use dropback_tensor::{pool, Tensor};

/// Output-neuron chunk size for the pooled batched forward. Fixed by
/// problem shape — never by thread count — so the partitioning (and the
/// per-neuron accumulation order) is identical at every
/// `DROPBACK_THREADS` value.
const OUT_CHUNK: usize = 32;

/// Why a streaming evaluator could not be built or run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The weight range length disagrees with `in_dim * out_dim`.
    ShapeMismatch {
        /// Name of the offending weight range.
        range: String,
        /// Length of the range in the parameter store.
        range_len: usize,
        /// Input dimension the caller requested.
        in_dim: usize,
        /// Output dimension the caller requested.
        out_dim: usize,
    },
    /// The input tensor is not `[n, in_dim]`.
    InputShape {
        /// Shape the caller passed.
        got: Vec<usize>,
        /// Input dimension the layer expects.
        in_dim: usize,
    },
    /// The parameter store has no `*.weight` ranges to stream.
    NoWeights,
    /// A weight range has no paired `*.bias` range, so its `[in, out]`
    /// split cannot be inferred without an input tensor.
    UnknownDims {
        /// Name of the bias-less weight range.
        range: String,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::ShapeMismatch {
                range,
                range_len,
                in_dim,
                out_dim,
            } => write!(
                f,
                "weight range `{range}` has {range_len} values but the layer \
                 was asked for {in_dim}x{out_dim} = {} — check the model's \
                 layer dimensions against the parameter store",
                in_dim * out_dim
            ),
            StreamError::InputShape { got, in_dim } => write!(
                f,
                "streaming forward expects input shape [n, {in_dim}], got {got:?}"
            ),
            StreamError::NoWeights => write!(
                f,
                "parameter store has no `*.weight` ranges — nothing to stream \
                 (was the store built by the model zoo?)"
            ),
            StreamError::UnknownDims { range } => write!(
                f,
                "weight range `{range}` has no paired `.bias` range to infer its \
                 [in, out] split from — streaming inference supports the model \
                 zoo's biased MLP naming (fcN.weight / fcN.bias)"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// Access counts from a streaming forward pass (feeds the energy model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Weights read from the tracked store.
    pub stored_reads: u64,
    /// Weights regenerated on the fly.
    pub regens: u64,
}

/// Forward cursor over one layer's tracked entries (ascending by index):
/// asked for strictly increasing global indices, it returns the stored
/// value where one exists and regenerates every other weight.
struct Cursor<'a> {
    entries: &'a [(u64, f32)],
    pos: usize,
    scheme: InitScheme,
    seed: u64,
}

impl<'a> Cursor<'a> {
    /// A cursor whose first request will be for global index `first`.
    fn new(entries: &'a [(u64, f32)], first: usize, scheme: InitScheme, seed: u64) -> Self {
        let pos = entries.partition_point(|&(i, _)| i < first as u64);
        Self {
            entries,
            pos,
            scheme,
            seed,
        }
    }

    fn weight(&mut self, gidx: usize, stats: &mut StreamStats) -> f32 {
        match self.entries.get(self.pos) {
            Some(&(i, w)) if i == gidx as u64 => {
                self.pos += 1;
                stats.stored_reads += 1;
                w
            }
            _ => {
                stats.regens += 1;
                self.scheme.value(self.seed, gidx as u64)
            }
        }
    }
}

/// A fully-connected layer evaluated by streaming weights from its tracked
/// entries plus regeneration — never holding the dense matrix.
#[derive(Debug, Clone)]
pub struct StreamingLinear {
    seed: u64,
    weight: ParamRange,
    bias: Option<ParamRange>,
    in_dim: usize,
    out_dim: usize,
    /// Tracked entries inside the weight range, ascending by index.
    weights: Vec<(u64, f32)>,
    /// Tracked entries inside the bias range, ascending by index.
    biases: Vec<(u64, f32)>,
}

impl StreamingLinear {
    /// Builds a streaming evaluator for the linear layer whose ranges are
    /// `weight` (length `in_dim * out_dim`, row-major `[out, in]`) and
    /// optional `bias`, with this layer's stored weights taken from
    /// `tracked` (global-index keyed, e.g. [`dropback_optim::DropBack::tracked`]).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::ShapeMismatch`] if the weight range length
    /// disagrees with the dimensions.
    pub fn new(
        seed: u64,
        weight: ParamRange,
        bias: Option<ParamRange>,
        in_dim: usize,
        out_dim: usize,
        tracked: &TrackedSet,
    ) -> Result<Self, StreamError> {
        if weight.len() != in_dim * out_dim {
            return Err(StreamError::ShapeMismatch {
                range: weight.name().to_string(),
                range_len: weight.len(),
                in_dim,
                out_dim,
            });
        }
        // Keep only this layer's entries (weight and bias ranges).
        let weights = tracked.within(weight.start(), weight.end()).to_vec();
        let biases = bias
            .as_ref()
            .map_or(&[][..], |b| tracked.within(b.start(), b.end()))
            .to_vec();
        Ok(Self {
            seed,
            weight,
            bias,
            in_dim,
            out_dim,
            weights,
            biases,
        })
    }

    /// Number of tracked (stored) weights this layer carries.
    pub fn stored(&self) -> usize {
        self.weights.len() + self.biases.len()
    }

    /// Forward pass `y = x·Wᵀ (+ b)` with on-demand weights; returns the
    /// output and the access statistics.
    ///
    /// The whole batch shares one weight walk: every weight is looked up
    /// (or regenerated) exactly once per call and consumed by all `n`
    /// rows, so micro-batching `n` requests costs one regeneration sweep
    /// instead of `n`. Output-neuron chunks run on the worker pool; the
    /// per-neuron accumulation order is fixed by problem shape alone, so
    /// results are bit-identical at any thread count.
    ///
    /// The layer's tracked entries are the only stored values consulted;
    /// everything else is regenerated per use.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InputShape`] if `x` is not `[n, in_dim]`.
    pub fn forward(&self, x: &Tensor) -> Result<(Tensor, StreamStats), StreamError> {
        if x.rank() != 2 || x.shape()[1] != self.in_dim {
            return Err(StreamError::InputShape {
                got: x.shape().to_vec(),
                in_dim: self.in_dim,
            });
        }
        let n = x.shape()[0];
        let scheme = self.weight.scheme();
        let mut stats = StreamStats::default();
        let mut out = vec![0.0f32; n * self.out_dim];
        // Each chunk of output neurons is an independent dot-product
        // block: partials are produced in index order and merged
        // serially, mirroring the pool's serial-order merge contract.
        let n_chunks = self.out_dim.div_ceil(OUT_CHUNK);
        let partials = pool::map_indexed(n_chunks, |ci| {
            let o_lo = ci * OUT_CHUNK;
            let o_hi = (o_lo + OUT_CHUNK).min(self.out_dim);
            let mut part = vec![0.0f32; (o_hi - o_lo) * n];
            let mut pstats = StreamStats::default();
            let first = self.weight.start() + o_lo * self.in_dim;
            let mut cursor = Cursor::new(&self.weights, first, scheme, self.seed);
            for o in o_lo..o_hi {
                let col = &mut part[(o - o_lo) * n..(o - o_lo + 1) * n];
                for i in 0..self.in_dim {
                    let w = cursor.weight(first + (o - o_lo) * self.in_dim + i, &mut pstats);
                    if w == 0.0 {
                        continue;
                    }
                    for (r, acc) in col.iter_mut().enumerate() {
                        *acc += x.data()[r * self.in_dim + i] * w;
                    }
                }
            }
            (part, pstats)
        });
        for (ci, (part, pstats)) in partials.into_iter().enumerate() {
            let o_lo = ci * OUT_CHUNK;
            for (local, col) in part.chunks_exact(n).enumerate() {
                for (r, &v) in col.iter().enumerate() {
                    out[r * self.out_dim + o_lo + local] = v;
                }
            }
            stats.stored_reads += pstats.stored_reads;
            stats.regens += pstats.regens;
        }
        // Bias values are constants at init; tracked entries override.
        if let Some(b) = &self.bias {
            let mut cursor = Cursor::new(&self.biases, b.start(), b.scheme(), self.seed);
            for o in 0..self.out_dim {
                let bv = cursor.weight(b.start() + o, &mut stats);
                for r in 0..n {
                    out[r * self.out_dim + o] += bv;
                }
            }
        }
        Ok((Tensor::from_vec(vec![n, self.out_dim], out), stats))
    }
}

/// A whole MLP prebuilt for repeated streaming inference: every layer's
/// tracked entries are sliced out once at construction, so a server can
/// evaluate thousands of micro-batches without re-walking the tracked set
/// or re-discovering parameter ranges per request.
///
/// Layers follow the model zoo's `fcN.weight`/`fcN.bias` naming; ReLU is
/// applied between layers (not after the last). Dimensions are inferred
/// from each weight's paired bias range (`out_dim = bias.len()`), so the
/// evaluator is self-contained given only a [`ParamStore`] and a
/// [`TrackedSet`] — exactly what a `(seed, k entries)` checkpoint holds.
#[derive(Debug, Clone)]
pub struct StreamingModel {
    layers: Vec<StreamingLinear>,
    in_dim: usize,
    out_dim: usize,
}

impl StreamingModel {
    /// Builds the evaluator from a parameter store plus tracked entries
    /// (global-index keyed, e.g. a sparse checkpoint's stored weights).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::NoWeights`] if the store has no `*.weight`
    /// ranges, [`StreamError::UnknownDims`] if a weight range lacks the
    /// paired bias needed to infer its dimensions, and
    /// [`StreamError::ShapeMismatch`] if a weight length is not divisible
    /// by its bias length.
    pub fn new(ps: &ParamStore, tracked: &TrackedSet) -> Result<Self, StreamError> {
        let weights: Vec<ParamRange> = ps
            .ranges()
            .iter()
            .filter(|r| r.name().ends_with(".weight"))
            .cloned()
            .collect();
        if weights.is_empty() {
            return Err(StreamError::NoWeights);
        }
        let mut layers = Vec::with_capacity(weights.len());
        for w in &weights {
            let bias = ps
                .ranges()
                .iter()
                .find(|r| r.name() == w.name().replace(".weight", ".bias"))
                .cloned();
            let Some(b) = &bias else {
                return Err(StreamError::UnknownDims {
                    range: w.name().to_string(),
                });
            };
            let out_dim = b.len();
            if out_dim == 0 || !w.len().is_multiple_of(out_dim) {
                return Err(StreamError::ShapeMismatch {
                    range: w.name().to_string(),
                    range_len: w.len(),
                    in_dim: w.len() / out_dim.max(1),
                    out_dim,
                });
            }
            let in_dim = w.len() / out_dim;
            layers.push(StreamingLinear::new(
                ps.seed(),
                w.clone(),
                bias,
                in_dim,
                out_dim,
                tracked,
            )?);
        }
        let in_dim = layers[0].in_dim;
        let out_dim = layers[layers.len() - 1].out_dim;
        Ok(Self {
            layers,
            in_dim,
            out_dim,
        })
    }

    /// Input feature width the first layer expects.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width (class logits) of the last layer.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Total tracked (stored) weights across all layers.
    pub fn stored(&self) -> usize {
        self.layers.iter().map(StreamingLinear::stored).sum()
    }

    /// Batched forward pass over `x: [n, in_dim]`: one streaming weight
    /// walk per layer for the whole micro-batch, run on the worker pool.
    /// A single sample is just `n == 1` — the CLI path and a serving
    /// micro-batch share this implementation.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InputShape`] if `x` is not `[n, in_dim]`.
    pub fn forward(&self, x: &Tensor) -> Result<(Tensor, StreamStats), StreamError> {
        let mut cur = x.clone();
        let mut total = StreamStats::default();
        let count = self.layers.len();
        for (li, layer) in self.layers.iter().enumerate() {
            let (y, stats) = layer.forward(&cur)?;
            total.stored_reads += stats.stored_reads;
            total.regens += stats.regens;
            cur = if li + 1 < count {
                y.map(|v| v.max(0.0))
            } else {
                y
            };
        }
        Ok((cur, total))
    }
}

/// Convenience: streams an entire MLP whose weight ranges follow the
/// `fcN.weight`/`fcN.bias` naming of the model zoo, applying ReLU between
/// layers. Returns class logits and total access statistics.
///
/// One-shot wrapper over [`StreamingModel`]; callers evaluating more than
/// once should build the model once and reuse it.
///
/// # Errors
///
/// Returns [`StreamError::NoWeights`] if the store has no `*.weight`
/// ranges, and propagates shape errors from [`StreamingModel`].
pub fn stream_mlp_forward(
    ps: &ParamStore,
    tracked: &TrackedSet,
    x: &Tensor,
) -> Result<(Tensor, StreamStats), StreamError> {
    StreamingModel::new(ps, tracked)?.forward(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dropback_data::{synthetic_mnist, Batcher};
    use dropback_nn::{models, Mode};
    use dropback_optim::{DropBack, Optimizer as _};

    #[test]
    fn streaming_matches_dense_forward_exactly() {
        let (train, test) = synthetic_mnist(400, 64, 13);
        let mut net = models::mnist_100_100(13);
        let mut opt = DropBack::new(6_000);
        let batcher = Batcher::new(64, 3);
        for (x, labels) in batcher.epoch(&train, 0) {
            let _ = net.loss_backward(&x, &labels);
            opt.step(net.store_mut(), 0.1);
        }
        let (x, _) = test.batch(0, 16);
        let dense = net.forward(&x, Mode::Eval);
        let (streamed, stats) = stream_mlp_forward(net.store(), &opt.tracked(net.store()), &x)
            .expect("zoo MLP streams");
        assert_eq!(dense.shape(), streamed.shape());
        for (a, b) in dense.data().iter().zip(streamed.data()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        // All 89,610 weights touched exactly once, split between stored
        // and regenerated.
        assert_eq!(stats.stored_reads + stats.regens, 89_610);
        assert_eq!(stats.stored_reads, 6_000);
    }

    #[test]
    fn untrained_model_streams_with_zero_stored_reads() {
        let net = models::mnist_100_100(29);
        let empty = TrackedSet::default();
        let x = Tensor::filled(vec![2, 784], 0.1);
        let (y, stats) = stream_mlp_forward(net.store(), &empty, &x).expect("zoo MLP streams");
        assert_eq!(y.shape(), &[2, 10]);
        assert_eq!(stats.stored_reads, 0);
        assert_eq!(stats.regens, 89_610);
        // And it matches the dense forward of the fresh (init-valued) net.
        let mut dense_net = models::mnist_100_100(29);
        let dense = dense_net.forward(&x, Mode::Eval);
        for (a, b) in dense.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn dimension_mismatch_is_an_actionable_error() {
        let net = models::mnist_100_100(1);
        let w = net.param_ranges()[0].clone();
        let err = StreamingLinear::new(1, w, None, 10, 10, &TrackedSet::default())
            .expect_err("78400 values cannot be a 10x10 layer");
        let msg = err.to_string();
        assert!(msg.contains("10x10"), "mentions requested dims: {msg}");
        assert!(msg.contains("78400"), "mentions actual length: {msg}");
    }

    #[test]
    fn input_shape_mismatch_is_an_actionable_error() {
        let net = models::mnist_100_100(2);
        let w = net.param_ranges()[0].clone();
        let layer =
            StreamingLinear::new(2, w, None, 784, 100, &TrackedSet::default()).expect("fc1");
        let bad = Tensor::filled(vec![2, 3], 0.0);
        let err = layer.forward(&bad).expect_err("wrong input width");
        assert_eq!(
            err,
            StreamError::InputShape {
                got: vec![2, 3],
                in_dim: 784
            }
        );
        assert!(err.to_string().contains("[n, 784]"));
    }

    #[test]
    fn batched_forward_is_bit_identical_to_per_sample_calls() {
        let (train, test) = synthetic_mnist(300, 48, 41);
        let mut net = models::mnist_100_100(41);
        let mut opt = DropBack::new(5_000);
        let batcher = Batcher::new(48, 1);
        for (x, labels) in batcher.epoch(&train, 0) {
            let _ = net.loss_backward(&x, &labels);
            opt.step(net.store_mut(), 0.1);
        }
        let model =
            StreamingModel::new(net.store(), &opt.tracked(net.store())).expect("zoo MLP streams");
        assert_eq!(model.in_dim(), 784);
        assert_eq!(model.out_dim(), 10);
        assert_eq!(model.stored(), 5_000);
        let (x, _) = test.batch(0, 8);
        let (batched, _) = model.forward(&x).expect("batched forward");
        // Evaluate each row alone through the same model; the micro-batch
        // must not perturb any individual result by even one bit.
        for r in 0..8 {
            let row = Tensor::from_vec(vec![1, 784], x.data()[r * 784..(r + 1) * 784].to_vec());
            let (single, _) = model.forward(&row).expect("single forward");
            assert_eq!(
                batched.data()[r * 10..(r + 1) * 10]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                single
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "row {r} differs between batched and single-sample forward"
            );
        }
    }

    #[test]
    fn streaming_model_is_thread_count_invariant() {
        let net = models::mnist_100_100(57);
        let model =
            StreamingModel::new(net.store(), &TrackedSet::default()).expect("zoo MLP streams");
        let x = Tensor::filled(vec![3, 784], 0.05);
        let before = dropback_tensor::pool::threads();
        let run = |t: usize| {
            dropback_tensor::pool::set_threads(t);
            let (y, _) = model.forward(&x).expect("forward");
            y.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let one = run(1);
        let four = run(4);
        dropback_tensor::pool::set_threads(before);
        assert_eq!(
            one, four,
            "pooled streaming forward must not depend on thread count"
        );
    }

    #[test]
    fn biasless_weight_range_reports_unknown_dims() {
        let mut ps = ParamStore::new(3);
        let _ = ps.register("solo.weight", 12, dropback_nn::InitScheme::Constant(0.0));
        let err =
            StreamingModel::new(&ps, &TrackedSet::default()).expect_err("no bias to infer dims");
        assert_eq!(
            err,
            StreamError::UnknownDims {
                range: "solo.weight".into()
            }
        );
        assert!(err.to_string().contains("no paired `.bias` range"));
    }

    #[test]
    fn empty_store_reports_no_weights() {
        let ps = ParamStore::new(7);
        let x = Tensor::filled(vec![1, 4], 0.0);
        let err =
            stream_mlp_forward(&ps, &TrackedSet::default(), &x).expect_err("nothing to stream");
        assert_eq!(err, StreamError::NoWeights);
        assert!(err.to_string().contains("no `*.weight` ranges"));
    }
}
