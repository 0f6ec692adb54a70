//! Resumable training-state snapshots: the `DROPBKv2` format.
//!
//! DropBack's premise makes mid-training checkpoints nearly free: a run is
//! fully described by the init seed plus the tracked entries and their
//! optimizer accumulators. [`TrainState`] captures exactly the state the
//! training loop needs to continue **bit-identically** after a crash:
//!
//! * parameter deltas — every weight whose IEEE-754 bits differ from its
//!   regenerated init value (≤ `k` entries for DropBack rules, all `n`
//!   for dense baselines);
//! * the optimizer's [`OptState`] (tracked mask, momentum,
//!   counters) via [`dropback_optim::Optimizer::snapshot_state`];
//! * loop bookkeeping — epoch/iteration counters, shuffle seed,
//!   best-validation/patience state, and the per-epoch history so the
//!   final [`crate::TrainReport`] matches an uninterrupted run byte for
//!   byte.
//!
//! The wire format is defensive: a little-endian payload behind a magic
//! tag, a declared payload length, and a hand-rolled CRC-32 over the
//! payload. Every length field is validated against the bytes actually
//! remaining **before** any allocation, so truncated, bit-flipped, or
//! hostile files produce a clean [`CheckpointError`] — never a panic or
//! an attacker-sized allocation.
//!
//! The guarantee only covers models whose mutable state lives entirely in
//! the [`dropback_nn::ParamStore`] (the paper's MLPs). Layers with
//! private buffers (batch-norm running statistics) resume with those
//! buffers re-initialized; see `docs/CHECKPOINTS.md`.

use crate::checkpoint::CheckpointError;
use crate::crc::crc32;
use crate::report::EpochStats;
use dropback_nn::{Network, TrackedSet};
use dropback_optim::{OptState, Optimizer, StateField};
use std::io::{Read, Write};

const MAGIC: &[u8; 8] = b"DROPBKv2";

/// Hard ceiling on a snapshot payload (64 MiB — a dense WRN-nano snapshot
/// is well under 2 MiB). Larger declared lengths are rejected as corrupt
/// before any buffer is sized from them.
const MAX_PAYLOAD: u64 = 64 << 20;

/// Ceiling on embedded string lengths (model / optimizer / field names).
const MAX_NAME: usize = 256;

/// Ceiling on the number of optimizer state fields.
const MAX_FIELDS: usize = 256;

/// Loop bookkeeping that must survive a crash for the resumed run to make
/// every subsequent decision (shuffle order, learning rate, early stop,
/// best epoch) exactly as the uninterrupted run would.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainProgress {
    /// First epoch the resumed loop should execute.
    pub next_epoch: usize,
    /// Global optimizer-step counter.
    pub iteration: u64,
    /// Epoch with the best validation accuracy so far.
    pub best_epoch: usize,
    /// Epochs elapsed since the best (early-stop patience state).
    pub since_best: usize,
    /// Best validation accuracy so far (`-inf` before the first epoch).
    pub best_val: f32,
    /// Per-epoch statistics of the epochs already completed.
    pub history: Vec<EpochStats>,
}

impl TrainProgress {
    /// Progress of a run that has not executed any epochs yet.
    pub fn fresh() -> Self {
        Self {
            next_epoch: 0,
            iteration: 0,
            best_epoch: 0,
            since_best: 0,
            best_val: f32::NEG_INFINITY,
            history: Vec::new(),
        }
    }
}

/// A complete, versioned snapshot of an in-flight training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// Model architecture name (validated on restore).
    pub model: String,
    /// Optimizer name (validated on restore).
    pub optimizer: String,
    /// The network's regeneration seed.
    pub init_seed: u64,
    /// The run's shuffle seed (validated on restore — a different
    /// shuffle order would silently break bit-identity).
    pub shuffle_seed: u64,
    /// Parameter deltas: `(index, value)` for every weight whose bits
    /// differ from `regen(init_seed, index)`.
    pub entries: TrackedSet,
    /// Optimizer accumulators and counters.
    pub opt_state: OptState,
    /// Loop bookkeeping.
    pub progress: TrainProgress,
}

impl TrainState {
    /// Captures a snapshot of a run between two epochs.
    pub fn capture(
        net: &Network,
        optimizer: &dyn Optimizer,
        shuffle_seed: u64,
        progress: &TrainProgress,
    ) -> Self {
        Self {
            model: net.name().to_string(),
            optimizer: optimizer.name().to_string(),
            init_seed: net.store().seed(),
            shuffle_seed,
            entries: TrackedSet::deltas(net.store()),
            opt_state: optimizer.snapshot_state(),
            progress: progress.clone(),
        }
    }

    /// Restores the snapshot into a freshly-constructed network and
    /// optimizer, returning the loop bookkeeping to resume from. The
    /// entries are overlaid on the regenerated init values
    /// ([`TrackedSet::overlay`]), so the call is correct even on a
    /// partially-trained network.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::SeedMismatch`],
    /// [`CheckpointError::Incompatible`] (wrong model, optimizer, shuffle
    /// seed, or optimizer configuration), or
    /// [`CheckpointError::IndexOutOfRange`] if the snapshot references
    /// weights the network does not have.
    pub fn restore_into(
        &self,
        net: &mut Network,
        optimizer: &mut dyn Optimizer,
        shuffle_seed: u64,
    ) -> Result<TrainProgress, CheckpointError> {
        if self.model != net.name() {
            return Err(CheckpointError::Incompatible(format!(
                "snapshot is of model {:?}, not {:?}",
                self.model,
                net.name()
            )));
        }
        if self.init_seed != net.store().seed() {
            return Err(CheckpointError::SeedMismatch {
                expected: net.store().seed(),
                found: self.init_seed,
            });
        }
        if self.shuffle_seed != shuffle_seed {
            return Err(CheckpointError::Incompatible(format!(
                "snapshot used shuffle seed {}, this run uses {}; resume with the \
                 original shuffle seed or the batch order will diverge",
                self.shuffle_seed, shuffle_seed
            )));
        }
        if self.optimizer != optimizer.name() {
            return Err(CheckpointError::Incompatible(format!(
                "snapshot was trained with optimizer {:?}, not {:?}",
                self.optimizer,
                optimizer.name()
            )));
        }
        // Bounds first, so a bad snapshot leaves the optimizer untouched
        // too, not just the network.
        self.entries.check_bounds(net.num_params())?;
        optimizer.restore_state(&self.opt_state)?;
        self.entries.overlay(net.store_mut())?;
        Ok(self.progress.clone())
    }

    /// Serializes the snapshot: magic, payload length, CRC-32, payload.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to(&self, mut w: impl Write) -> Result<(), CheckpointError> {
        let payload = self.encode_payload();
        w.write_all(MAGIC)?;
        w.write_all(&(payload.len() as u64).to_le_bytes())?;
        w.write_all(&crc32(&payload).to_le_bytes())?;
        w.write_all(&payload)?;
        Ok(())
    }

    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        MAGIC.len() + 8 + 4 + self.encode_payload().len()
    }

    /// Reads and validates a snapshot written by [`TrainState::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::InvalidData`] on bad magic, an
    /// over-long declared payload, a CRC mismatch, or any internal length
    /// field that exceeds the bytes actually present; truncation surfaces
    /// as `InvalidData` or an `UnexpectedEof` I/O error, and so do
    /// parameter entries that are not strictly ascending. All of these
    /// satisfy [`CheckpointError::is_corruption`].
    pub fn read_from(mut r: impl Read) -> Result<Self, CheckpointError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(CheckpointError::InvalidData(
                "not a DropBack v2 training snapshot (bad magic)".into(),
            ));
        }
        let mut b8 = [0u8; 8];
        r.read_exact(&mut b8)?;
        let declared = u64::from_le_bytes(b8);
        if declared > MAX_PAYLOAD {
            return Err(CheckpointError::InvalidData(format!(
                "declared payload of {declared} bytes exceeds the {MAX_PAYLOAD}-byte limit"
            )));
        }
        let mut b4 = [0u8; 4];
        r.read_exact(&mut b4)?;
        let expected_crc = u32::from_le_bytes(b4);
        // `take` bounds the read; `read_to_end` grows the buffer only as
        // bytes arrive, so a truncated file cannot cause over-allocation.
        let mut payload = Vec::new();
        r.take(declared).read_to_end(&mut payload)?;
        if payload.len() as u64 != declared {
            return Err(CheckpointError::InvalidData(format!(
                "payload truncated: declared {declared} bytes, found {}",
                payload.len()
            )));
        }
        let actual_crc = crc32(&payload);
        if actual_crc != expected_crc {
            return Err(CheckpointError::InvalidData(format!(
                "CRC-32 mismatch: header says {expected_crc:#010x}, payload hashes to \
                 {actual_crc:#010x} (torn write or bit-rot)"
            )));
        }
        Self::decode_payload(&payload)
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.entries.len() * 12);
        put_u64(&mut out, self.init_seed);
        put_u64(&mut out, self.shuffle_seed);
        put_u64(&mut out, self.progress.next_epoch as u64);
        put_u64(&mut out, self.progress.iteration);
        put_u64(&mut out, self.progress.best_epoch as u64);
        put_u64(&mut out, self.progress.since_best as u64);
        put_f32(&mut out, self.progress.best_val);
        put_str(&mut out, &self.model);
        put_str(&mut out, &self.optimizer);
        put_u64(&mut out, self.entries.len() as u64);
        for &(i, v) in self.entries.entries() {
            put_u64(&mut out, i);
            put_f32(&mut out, v);
        }
        put_u64(&mut out, self.progress.history.len() as u64);
        for e in &self.progress.history {
            put_u64(&mut out, e.epoch as u64);
            put_f32(&mut out, e.lr);
            put_f32(&mut out, e.train_loss);
            put_f32(&mut out, e.train_acc);
            put_f32(&mut out, e.val_acc);
            put_f32(&mut out, e.kl);
        }
        put_str(&mut out, self.opt_state.name());
        put_u64(&mut out, self.opt_state.fields().len() as u64);
        for (name, field) in self.opt_state.fields() {
            put_str(&mut out, name);
            match field {
                StateField::U64(v) => {
                    out.push(0);
                    put_u64(&mut out, *v);
                }
                StateField::F32s(v) => {
                    out.push(1);
                    put_u64(&mut out, v.len() as u64);
                    for &x in v {
                        put_f32(&mut out, x);
                    }
                }
                StateField::Pairs(v) => {
                    out.push(2);
                    put_u64(&mut out, v.len() as u64);
                    for &(i, x) in v {
                        put_u64(&mut out, i);
                        put_f32(&mut out, x);
                    }
                }
                StateField::Bools(v) => {
                    out.push(3);
                    put_u64(&mut out, v.len() as u64);
                    out.extend(v.iter().map(|&b| b as u8));
                }
            }
        }
        out
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, CheckpointError> {
        let mut rd = Rd {
            buf: payload,
            pos: 0,
        };
        let init_seed = rd.u64()?;
        let shuffle_seed = rd.u64()?;
        let next_epoch = rd.u64()? as usize;
        let iteration = rd.u64()?;
        let best_epoch = rd.u64()? as usize;
        let since_best = rd.u64()? as usize;
        let best_val = rd.f32()?;
        let model = rd.string("model name")?;
        let optimizer = rd.string("optimizer name")?;
        let n_entries = rd.count(12, "parameter entries")?;
        let mut entries = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let i = rd.u64()?;
            let v = rd.f32()?;
            entries.push((i, v));
        }
        let entries = TrackedSet::from_entries(entries)?;
        let n_history = rd.count(28, "history records")?;
        let mut history = Vec::with_capacity(n_history);
        for _ in 0..n_history {
            history.push(EpochStats {
                epoch: rd.u64()? as usize,
                lr: rd.f32()?,
                train_loss: rd.f32()?,
                train_acc: rd.f32()?,
                val_acc: rd.f32()?,
                kl: rd.f32()?,
            });
        }
        let state_name = rd.string("optimizer state name")?;
        let n_fields = rd.count(1, "optimizer state fields")?;
        if n_fields > MAX_FIELDS {
            return Err(CheckpointError::InvalidData(format!(
                "{n_fields} optimizer state fields exceeds the {MAX_FIELDS}-field limit"
            )));
        }
        let mut opt_state = OptState::new(&state_name);
        for _ in 0..n_fields {
            let name = rd.string("field name")?;
            let tag = rd.u8()?;
            let field = match tag {
                0 => StateField::U64(rd.u64()?),
                1 => {
                    let n = rd.count(4, "f32 field")?;
                    let mut v = Vec::with_capacity(n);
                    for _ in 0..n {
                        v.push(rd.f32()?);
                    }
                    StateField::F32s(v)
                }
                2 => {
                    let n = rd.count(12, "pair field")?;
                    let mut v = Vec::with_capacity(n);
                    for _ in 0..n {
                        let i = rd.u64()?;
                        let x = rd.f32()?;
                        v.push((i, x));
                    }
                    StateField::Pairs(v)
                }
                3 => {
                    let n = rd.count(1, "bool field")?;
                    let bytes = rd.bytes(n)?;
                    let mut v = Vec::with_capacity(n);
                    for &b in bytes {
                        match b {
                            0 => v.push(false),
                            1 => v.push(true),
                            other => {
                                return Err(CheckpointError::InvalidData(format!(
                                    "bool field byte {other:#04x} is neither 0 nor 1"
                                )))
                            }
                        }
                    }
                    StateField::Bools(v)
                }
                other => {
                    return Err(CheckpointError::InvalidData(format!(
                        "unknown optimizer state field tag {other:#04x}"
                    )))
                }
            };
            opt_state.push(&name, field);
        }
        if rd.pos != payload.len() {
            return Err(CheckpointError::InvalidData(format!(
                "{} trailing bytes after the snapshot payload",
                payload.len() - rd.pos
            )));
        }
        Ok(Self {
            model,
            optimizer,
            init_seed,
            shuffle_seed,
            entries,
            opt_state,
            progress: TrainProgress {
                next_epoch,
                iteration,
                best_epoch,
                since_best,
                best_val,
                history,
            },
        })
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    // Strings are caller-controlled names, capped well under MAX_NAME.
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over the verified payload slice.
/// Every accessor returns `InvalidData` instead of slicing out of range.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if n > self.remaining() {
            return Err(CheckpointError::InvalidData(format!(
                "need {n} bytes, only {} remain in payload",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.bytes(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f32(&mut self) -> Result<f32, CheckpointError> {
        let b = self.bytes(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(f32::from_le_bytes(a))
    }

    /// Reads an element count and validates `count * elem_size` against
    /// the bytes actually remaining **before** the caller allocates.
    fn count(&mut self, elem_size: usize, what: &str) -> Result<usize, CheckpointError> {
        let declared = self.u64()?;
        let n = usize::try_from(declared).map_err(|_| {
            CheckpointError::InvalidData(format!("{what}: count {declared} exceeds address space"))
        })?;
        let need = n.checked_mul(elem_size).ok_or_else(|| {
            CheckpointError::InvalidData(format!("{what}: count {n} overflows size arithmetic"))
        })?;
        if need > self.remaining() {
            return Err(CheckpointError::InvalidData(format!(
                "{what}: {n} declared elements need {need} bytes, only {} remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn string(&mut self, what: &str) -> Result<String, CheckpointError> {
        let b = self.bytes(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        let len = u32::from_le_bytes(a) as usize;
        if len > MAX_NAME {
            return Err(CheckpointError::InvalidData(format!(
                "{what}: {len}-byte string exceeds the {MAX_NAME}-byte limit"
            )));
        }
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::InvalidData(format!("{what}: not valid UTF-8")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dropback_data::synthetic_mnist;
    use dropback_nn::models;
    use dropback_optim::{DropBack, SgdMomentum};

    fn trained_snapshot() -> (Network, DropBack, TrainState) {
        let (train, _) = synthetic_mnist(200, 40, 9);
        let mut net = models::mnist_100_100(9);
        let mut opt = DropBack::new(3_000).freeze_after(2);
        let batcher = dropback_data::Batcher::new(64, 0x5EED);
        let mut iteration = 0u64;
        for (x, labels) in batcher.epoch(&train, 0) {
            let _ = net.loss_backward(&x, &labels);
            opt.step(net.store_mut(), 0.1);
            iteration += 1;
        }
        opt.end_epoch(0, net.store_mut());
        let progress = TrainProgress {
            next_epoch: 1,
            iteration,
            best_epoch: 0,
            since_best: 0,
            best_val: 0.25,
            history: vec![EpochStats {
                epoch: 0,
                train_loss: 2.1,
                train_acc: 0.2,
                val_acc: 0.25,
                lr: 0.1,
                kl: 0.0,
            }],
        };
        let state = TrainState::capture(&net, &opt, 0x5EED, &progress);
        (net, opt, state)
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let (_, _, state) = trained_snapshot();
        let mut buf = Vec::new();
        state.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), state.size_bytes());
        let loaded = TrainState::read_from(&buf[..]).unwrap();
        assert_eq!(state, loaded);
    }

    #[test]
    fn restore_reconstructs_params_and_optimizer() {
        let (net, opt, state) = trained_snapshot();
        let mut net2 = models::mnist_100_100(9);
        let mut opt2 = DropBack::new(3_000).freeze_after(2);
        let progress = state.restore_into(&mut net2, &mut opt2, 0x5EED).unwrap();
        assert_eq!(net.store().params(), net2.store().params());
        assert_eq!(opt.mask(), opt2.mask());
        assert_eq!(progress.next_epoch, 1);
        assert_eq!(progress.history.len(), 1);
    }

    #[test]
    fn restore_resets_stale_parameters_first() {
        let (net, _, state) = trained_snapshot();
        let mut net2 = models::mnist_100_100(9);
        // Pollute the target: restore must regenerate, not trust, its params.
        for p in net2.store_mut().params_mut().iter_mut().take(100) {
            *p = 123.0;
        }
        let mut opt2 = DropBack::new(3_000).freeze_after(2);
        state.restore_into(&mut net2, &mut opt2, 0x5EED).unwrap();
        assert_eq!(net.store().params(), net2.store().params());
    }

    #[test]
    fn incompatibilities_are_typed_and_actionable() {
        let (_, _, state) = trained_snapshot();
        let mk_opt = || DropBack::new(3_000).freeze_after(2);
        // Wrong init seed.
        let err = state
            .restore_into(&mut models::mnist_100_100(10), &mut mk_opt(), 0x5EED)
            .unwrap_err();
        assert!(matches!(err, CheckpointError::SeedMismatch { .. }));
        // Wrong model.
        let err = state
            .restore_into(&mut models::lenet_300_100(9), &mut mk_opt(), 0x5EED)
            .unwrap_err();
        assert!(err.to_string().contains("model"));
        // Wrong shuffle seed.
        let err = state
            .restore_into(&mut models::mnist_100_100(9), &mut mk_opt(), 7)
            .unwrap_err();
        assert!(err.to_string().contains("shuffle seed"));
        // Wrong optimizer.
        let err = state
            .restore_into(
                &mut models::mnist_100_100(9),
                &mut SgdMomentum::new(0.9),
                0x5EED,
            )
            .unwrap_err();
        assert!(err.to_string().contains("optimizer"));
        // Wrong budget (optimizer config inside OptState).
        let err = state
            .restore_into(
                &mut models::mnist_100_100(9),
                &mut DropBack::new(99),
                0x5EED,
            )
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Incompatible(_)));
    }

    #[test]
    fn crc_catches_any_payload_bit_flip() {
        let (_, _, state) = trained_snapshot();
        let mut buf = Vec::new();
        state.write_to(&mut buf).unwrap();
        // Flip a byte in a few representative payload positions.
        for &offset in &[20usize, 100, buf.len() / 2, buf.len() - 1] {
            let mut bad = buf.clone();
            bad[offset] ^= 0x10;
            let err = TrainState::read_from(&bad[..]).unwrap_err();
            assert!(err.is_corruption(), "flip at {offset} escaped: {err}");
        }
    }

    #[test]
    fn truncation_at_any_point_is_clean() {
        let (_, _, state) = trained_snapshot();
        let mut buf = Vec::new();
        state.write_to(&mut buf).unwrap();
        for cut in [0, 3, 8, 12, 19, 20, 50, buf.len() - 1] {
            let err = TrainState::read_from(&buf[..cut]).unwrap_err();
            assert!(err.is_corruption(), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn hostile_payload_length_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = TrainState::read_from(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("limit"));
    }

    #[test]
    fn out_of_range_entries_are_rejected_before_any_write() {
        let (_, _, mut state) = trained_snapshot();
        state.entries = TrackedSet::from_entries(vec![(3, 1.0), (1 << 40, 2.0)]).unwrap();
        let mut net = models::mnist_100_100(9);
        let before = net.store().params().to_vec();
        let mut opt = DropBack::new(3_000).freeze_after(2);
        let opt_before = opt.snapshot_state();
        let err = state.restore_into(&mut net, &mut opt, 0x5EED).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::IndexOutOfRange {
                index: 0x100_0000_0000,
                ..
            }
        ));
        assert_eq!(net.store().params(), &before[..]);
        assert_eq!(
            opt.snapshot_state(),
            opt_before,
            "optimizer restored on error"
        );
    }

    #[test]
    fn unordered_entries_fail_to_decode() {
        let (_, _, state) = trained_snapshot();
        let mut payload = state.encode_payload();
        // The first two entries start after the fixed-width header, the
        // two names and the entry count; swap their indices.
        let first = 6 * 8 + 4 + 4 + state.model.len() + 4 + state.optimizer.len() + 8;
        let (a, b) = (first, first + 12);
        let (ia, ib) = (payload[a..a + 8].to_vec(), payload[b..b + 8].to_vec());
        payload[a..a + 8].copy_from_slice(&ib);
        payload[b..b + 8].copy_from_slice(&ia);
        let err = TrainState::decode_payload(&payload).unwrap_err();
        assert!(matches!(err, CheckpointError::InvalidData(_)), "{err}");
        assert!(err.is_corruption());
    }

    #[test]
    fn sparse_model_snapshot_is_compact() {
        let (net, _, state) = trained_snapshot();
        // ≤ k tracked entries stored, not the full dense vector.
        assert!(state.entries.len() <= 3_000);
        let dense_bytes = net.num_params() * 4;
        assert!(state.size_bytes() < dense_bytes / 2);
    }
}
