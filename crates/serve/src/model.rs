//! From snapshot to servable model, and the slot requests read it from.
//!
//! A `DROPBKv2` snapshot carries `(model name, init seed, k tracked
//! entries)`. [`ServingModel::from_state`] rebuilds the architecture from
//! the model zoo (every weight at its regenerated init value), checks the
//! entries' indices against it and writes the `k` entries over it. That
//! densify runs once per generation; every batch after it is the
//! trainer's own `Network::forward(x, Mode::Eval)` on the packed GEMM, so
//! served logits are bit-identical to the trainer's eval logits. The
//! snapshot on disk stays the paper's `(seed, k entries)` artifact.
//!
//! [`ModelSlot`] is the hot-swap point: requests clone out an
//! `Arc<ServingModel>` and evaluate against that pinned instance, so a
//! concurrent [`ModelSlot::swap`] never changes a request mid-flight —
//! in-flight work finishes on the old model, later requests see the new
//! one.

use crate::error::ServeError;
use crate::rt::{Monitor, Swap};
use dropback::{CheckpointError, TrainState};
use dropback_nn::{models, Mode, Network};
use dropback_telemetry::Stopwatch;
use dropback_tensor::Tensor;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Servable architectures by zoo name, with their input and logit widths.
fn build_network(name: &str, seed: u64) -> Option<(Network, usize, usize)> {
    match name {
        "mnist-100-100" => Some((models::mnist_100_100(seed), 784, 10)),
        "lenet-300-100" => Some((models::lenet_300_100(seed), 784, 10)),
        _ => None,
    }
}

/// One immutable, fully-loaded model generation.
#[derive(Debug)]
pub struct ServingModel {
    name: String,
    epoch: usize,
    source: PathBuf,
    entries: usize,
    in_dim: usize,
    out_dim: usize,
    densify_ns: u64,
    /// The densified network. Its forward caches activations and so takes
    /// `&mut self`; only the single batch worker evaluates, so the lock is
    /// uncontended.
    net: Monitor<Network>,
}

impl ServingModel {
    /// Builds a servable model from a loaded snapshot. `source` is the
    /// snapshot path the state came from (shown in `/healthz` and logs).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnsupportedModel`] for architectures outside the
    /// servable MLP zoo, [`ServeError::Checkpoint`] if an entry indexes
    /// past the parameter store.
    pub fn from_state(state: &TrainState, source: impl Into<PathBuf>) -> Result<Self, ServeError> {
        let watch = Stopwatch::started();
        let (mut net, in_dim, out_dim) = build_network(&state.model, state.init_seed)
            .ok_or_else(|| ServeError::UnsupportedModel(state.model.clone()))?;
        // The store was just built at its init values, so writing the
        // entries over it densifies the snapshot with one regen, not two.
        state
            .entries
            .write_into(net.store_mut())
            .map_err(CheckpointError::from)?;
        Ok(Self {
            name: state.model.clone(),
            epoch: state.progress.next_epoch,
            source: source.into(),
            entries: state.entries.len(),
            in_dim,
            out_dim,
            densify_ns: watch.elapsed_ns().unwrap_or(0),
            net: Monitor::new(net),
        })
    }

    /// Zoo name of the architecture being served.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Training epoch the snapshot was taken after (its generation id).
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Snapshot file this generation was loaded from.
    pub fn source(&self) -> &Path {
        &self.source
    }

    /// Number of stored (tracked) weight entries — the `k` of the paper.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Input feature width requests must supply.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Logit width of responses.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Nanoseconds [`ServingModel::from_state`] spent rebuilding and
    /// densifying this generation (`serve.densify_ns`).
    pub fn densify_ns(&self) -> u64 {
        self.densify_ns
    }

    /// Batched eval forward over `x: [n, in_dim]`, returning the `[n,
    /// out_dim]` logits and each row's predicted class, as the trainer's
    /// `Network::predict` computes it (the first largest logit wins ties).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] if `x` is not `[n, in_dim]`.
    pub fn infer(&self, x: &Tensor) -> Result<(Tensor, Vec<usize>), ServeError> {
        if x.rank() != 2 || x.shape()[1] != self.in_dim {
            return Err(ServeError::BadRequest(format!(
                "model {} (epoch {}) expects input shape [n, {}], got {:?}",
                self.name,
                self.epoch,
                self.in_dim,
                x.shape()
            )));
        }
        let logits = self.net.with(|net| net.forward(x, Mode::Eval));
        let argmax = logits.argmax_rows();
        Ok((logits, argmax))
    }
}

/// The single mutable cell of the whole server: which model generation
/// new requests see.
#[derive(Debug)]
pub struct ModelSlot {
    cur: Swap<ServingModel>,
}

impl ModelSlot {
    /// A slot serving `model`.
    pub fn new(model: ServingModel) -> Self {
        Self {
            cur: Swap::new(model),
        }
    }

    /// The current generation, pinned: the returned `Arc` keeps serving
    /// this exact model even if a swap lands immediately after.
    pub fn get(&self) -> Arc<ServingModel> {
        self.cur.get()
    }

    /// Atomically replaces the served generation, returning the old one.
    pub fn swap(&self, model: Arc<ServingModel>) -> Arc<ServingModel> {
        self.cur.swap(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dropback::{TrainProgress, TrainState};
    use dropback_optim::{DropBack, OptState, Optimizer, StateField};
    use dropback_tensor::simd;

    /// A mnist-100-100 network after `epoch + 1` DropBack steps on a
    /// fixed batch, with its optimizer.
    fn trained(epoch: usize, seed: u64) -> (Network, DropBack) {
        let mut net = models::mnist_100_100(seed);
        let mut opt = DropBack::new(400);
        let x = Tensor::from_fn(vec![16, 784], |i| ((i * 37 % 101) as f32) / 101.0);
        let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
        for _ in 0..=epoch {
            net.loss_backward(&x, &labels);
            opt.step(net.store_mut(), 0.1);
        }
        (net, opt)
    }

    fn capture(net: &Network, opt: &DropBack, epoch: usize) -> TrainState {
        let progress = TrainProgress {
            next_epoch: epoch,
            ..TrainProgress::fresh()
        };
        TrainState::capture(net, opt, 0x5EED, &progress)
    }

    fn state_at(epoch: usize, seed: u64) -> TrainState {
        let (net, opt) = trained(epoch, seed);
        capture(&net, &opt, epoch)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn served_logits_are_the_training_networks_eval_logits() {
        let (mut net, opt) = trained(3, 77);
        let state = capture(&net, &opt, 3);
        let model = ServingModel::from_state(&state, "/tmp/state-00000003.dbk2").unwrap();
        assert_eq!(model.name(), "mnist-100-100");
        assert_eq!(model.epoch(), 3);
        assert_eq!(model.in_dim(), 784);
        assert_eq!(model.out_dim(), 10);
        assert_eq!(model.entries(), state.entries.len());
        assert!(model.entries() > 0);

        let x256 = Tensor::from_fn(vec![256, 784], |i| ((i * 7919 % 997) as f32) / 997.0 - 0.3);
        let rows = |n: usize| Tensor::from_vec(vec![n, 784], x256.data()[..n * 784].to_vec());
        let (threads, simd) = (dropback_tensor::pool::threads(), simd::simd_active());
        let mut first: Option<Vec<u32>> = None;
        for (t, on) in [(1, false), (1, true), (4, false), (4, true)] {
            dropback_tensor::pool::set_threads(t);
            simd::set_simd(on);
            let (served, argmax) = model.infer(&x256).unwrap();
            assert_eq!(
                bits(&served),
                bits(&net.forward(&x256, Mode::Eval)),
                "threads {t}, simd {on}"
            );
            assert_eq!(argmax, net.predict(&x256));
            let want = first.get_or_insert_with(|| bits(&served));
            assert_eq!(&bits(&served), want, "threads {t}, simd {on}");
            // Rows do not interact: a micro-batch of the first n rows
            // answers exactly those rows of the 256-row batch.
            for n in [1, 2] {
                let (small, _) = model.infer(&rows(n)).unwrap();
                assert_eq!(bits(&small), bits(&net.forward(&rows(n), Mode::Eval)));
                assert_eq!(bits(&small)[..], want[..n * 10], "batch {n}");
            }
        }
        dropback_tensor::pool::set_threads(threads);
        simd::set_simd(simd);
    }

    #[test]
    fn input_shape_errors_are_typed_refusals() {
        let model = ServingModel::from_state(&state_at(1, 5), "/tmp/x").unwrap();
        for shape in [vec![2, 783], vec![784]] {
            let x = Tensor::filled(shape.clone(), 0.1);
            let err = model.infer(&x).unwrap_err();
            assert!(matches!(err, ServeError::BadRequest(_)), "{shape:?}: {err}");
            assert!(err.to_string().contains("[n, 784]"), "{err}");
        }
    }

    #[test]
    fn legacy_sparse_snapshots_still_decode_and_serve() {
        // Snapshots of the retired `dropback-sparse` rule carry its
        // tracked set as a `Pairs` field; they must keep serving.
        let mut state = state_at(2, 31);
        state.optimizer = "dropback-sparse".into();
        state.opt_state = OptState::new("dropback-sparse")
            .with("k", StateField::U64(400))
            .with("freeze_after", StateField::U64(u64::MAX))
            .with("frozen", StateField::U64(0))
            .with("steps", StateField::U64(1))
            .with("epoch_swaps", StateField::U64(400))
            .with("last_epoch_churn", StateField::U64(0))
            .with(
                "tracked",
                StateField::Pairs(state.entries.entries().to_vec()),
            );
        let mut bytes = Vec::new();
        state.write_to(&mut bytes).unwrap();
        let loaded = TrainState::read_from(&bytes[..]).unwrap();
        assert_eq!(loaded, state);
        let model = ServingModel::from_state(&loaded, "/tmp/state-00000002.dbk2").unwrap();
        assert_eq!(model.entries(), state.entries.len());
        let x = Tensor::filled(vec![3, 784], 0.02);
        let (served, _) = model.infer(&x).unwrap();
        let (mut net, _) = trained(2, 31);
        assert_eq!(bits(&served), bits(&net.forward(&x, Mode::Eval)));
    }

    #[test]
    fn conv_architectures_are_rejected_with_guidance() {
        let mut state = state_at(1, 5);
        state.model = "vgg-s-nano".into();
        let err = ServingModel::from_state(&state, "/tmp/x").unwrap_err();
        assert!(matches!(err, ServeError::UnsupportedModel(_)));
        assert!(err.to_string().contains("lenet-300-100"));
    }

    #[test]
    fn out_of_range_entries_are_a_checkpoint_error() {
        let mut state = state_at(1, 5);
        let mut entries = state.entries.entries().to_vec();
        entries.push((10_000_000, 1.0));
        state.entries = dropback::nn::TrackedSet::from_entries(entries).unwrap();
        let err = ServingModel::from_state(&state, "/tmp/x").unwrap_err();
        assert!(matches!(
            err,
            ServeError::Checkpoint(CheckpointError::IndexOutOfRange {
                index: 10_000_000,
                ..
            })
        ));
    }

    #[test]
    fn slot_pins_in_flight_generations_across_a_swap() {
        let slot = ModelSlot::new(ServingModel::from_state(&state_at(1, 9), "/a").unwrap());
        let pinned = slot.get();
        assert_eq!(pinned.epoch(), 1);
        let old = slot.swap(Arc::new(
            ServingModel::from_state(&state_at(2, 9), "/b").unwrap(),
        ));
        assert_eq!(old.epoch(), 1);
        // The pinned Arc still evaluates the old generation...
        assert_eq!(pinned.epoch(), 1);
        // ...while new readers see the new one.
        assert_eq!(slot.get().epoch(), 2);
    }
}
