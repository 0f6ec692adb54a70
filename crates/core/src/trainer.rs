//! The epoch-loop training harness.

use crate::checkpoint::CheckpointError;
use crate::ckpt_store::CheckpointStore;
use crate::config::TrainConfig;
use crate::report::{EpochStats, TrainReport};
use crate::train_state::{TrainProgress, TrainState};
use dropback_data::{Batcher, Dataset};
use dropback_metrics::DiffusionTracker;
use dropback_nn::{Network, ParamStore};
use dropback_optim::Optimizer;
use dropback_telemetry::{take_phase_totals, trace, Event, Span, Stopwatch, Telemetry};

/// A per-step observation hook: receives the global iteration index and the
/// parameter store *after* the optimizer step. Used by the analysis
/// experiments (diffusion tracking, churn measurement, PCA snapshots).
pub trait StepProbe {
    /// Called after every optimizer step.
    fn after_step(&mut self, iteration: u64, ps: &ParamStore);

    /// Called after each epoch's validation with `(epoch, val_acc)`.
    fn after_epoch(&mut self, _epoch: usize, _val_acc: f32) {}
}

/// A no-op probe for runs that need no instrumentation.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoProbe;

impl StepProbe for NoProbe {
    fn after_step(&mut self, _iteration: u64, _ps: &ParamStore) {}
}

/// Everything one invocation of the epoch loop needs beyond the model,
/// optimizer, and data: the observation hook, the progress to resume
/// from, and (optionally) where to write snapshots.
struct LoopPlan<'a> {
    probe: &'a mut dyn StepProbe,
    carry: TrainProgress,
    store: Option<&'a mut CheckpointStore>,
}

/// Drives a [`Network`] + [`Optimizer`] pair over a dataset according to a
/// [`TrainConfig`], producing a [`TrainReport`].
#[derive(Debug, Clone, Copy)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Runs training to completion (epoch budget or early stop).
    pub fn run(
        &self,
        net: Network,
        optimizer: impl Optimizer,
        train: &Dataset,
        val: &Dataset,
    ) -> TrainReport {
        self.run_probed(net, optimizer, train, val, &mut NoProbe)
    }

    /// Runs training with a [`StepProbe`] observing every step.
    pub fn run_probed(
        &self,
        net: Network,
        optimizer: impl Optimizer,
        train: &Dataset,
        val: &Dataset,
        probe: &mut dyn StepProbe,
    ) -> TrainReport {
        self.run_telemetry(
            net,
            optimizer,
            train,
            val,
            probe,
            &mut Telemetry::disabled(),
        )
    }

    /// Runs training with a [`StepProbe`] and a [`Telemetry`] bundle.
    ///
    /// When the bundle is active the trainer emits one `"step"` event per
    /// optimizer step (`iteration`, `epoch`, `loss`, `acc`, `lr`), one
    /// `"epoch"` event per epoch (the [`EpochStats`] fields, every
    /// [`Optimizer::metrics`] entry such as `tracked_k` and `churn`, and a
    /// `<phase>_ns` wall-time sum for each recorded span phase — forward,
    /// backward, topk-rank, regen, optimizer-step, eval), and a final
    /// `"run"` summary event. A disabled bundle costs nothing measurable.
    pub fn run_telemetry(
        &self,
        mut net: Network,
        mut optimizer: impl Optimizer,
        train: &Dataset,
        val: &Dataset,
        probe: &mut dyn StepProbe,
        telemetry: &mut Telemetry,
    ) -> TrainReport {
        self.run_mut(&mut net, &mut optimizer, train, val, probe, telemetry)
    }

    /// Like [`Trainer::run_telemetry`], but borrows the network and
    /// optimizer instead of consuming them, so callers can inspect both
    /// after training (e.g. to build a [`crate::Checkpoint`] from the
    /// optimizer's tracked set).
    pub fn run_mut(
        &self,
        net: &mut Network,
        optimizer: &mut dyn Optimizer,
        train: &Dataset,
        val: &Dataset,
        probe: &mut dyn StepProbe,
        telemetry: &mut Telemetry,
    ) -> TrainReport {
        self.run_loop(
            net,
            optimizer,
            train,
            val,
            telemetry,
            LoopPlan {
                probe,
                carry: TrainProgress::fresh(),
                store: None,
            },
        )
    }

    /// Crash-safe training: snapshots the full training state into
    /// `store` at the cadence the store was configured with, and — when
    /// the store has resume enabled and holds a readable snapshot —
    /// restores it and continues from the epoch after it was taken.
    ///
    /// The headline guarantee (pinned by `tests/resume.rs`): training
    /// `n` epochs straight and training `m < n` epochs, "crashing", and
    /// resuming to `n` produce **bit-identical** [`TrainReport`]s and
    /// parameter stores. This holds for models whose mutable state lives
    /// entirely in the parameter store; see `docs/CHECKPOINTS.md`.
    ///
    /// Snapshot *write* failures mid-run are non-fatal: the run
    /// continues and the failure is recorded as `checkpoint.write_failed`
    /// telemetry. Corrupt snapshots on *load* are skipped (newest-first
    /// fallback inside [`CheckpointStore::load_latest`]).
    ///
    /// # Errors
    ///
    /// Fails if the snapshot directory is unreadable, or if the latest
    /// readable snapshot is incompatible with this run (different init
    /// seed, shuffle seed, model, or optimizer configuration).
    pub fn run_resumable(
        &self,
        net: &mut Network,
        optimizer: &mut dyn Optimizer,
        train: &Dataset,
        val: &Dataset,
        store: &mut CheckpointStore,
        telemetry: &mut Telemetry,
    ) -> Result<TrainReport, CheckpointError> {
        let carry = if store.resume_enabled() {
            match store.load_latest(telemetry)? {
                Some(state) => state.restore_into(net, optimizer, self.config.shuffle_seed)?,
                None => TrainProgress::fresh(),
            }
        } else {
            TrainProgress::fresh()
        };
        Ok(self.run_loop(
            net,
            optimizer,
            train,
            val,
            telemetry,
            LoopPlan {
                probe: &mut NoProbe,
                carry,
                store: Some(store),
            },
        ))
    }

    fn run_loop(
        &self,
        net: &mut Network,
        optimizer: &mut dyn Optimizer,
        train: &Dataset,
        val: &Dataset,
        telemetry: &mut Telemetry,
        plan: LoopPlan<'_>,
    ) -> TrainReport {
        let cfg = &self.config;
        let LoopPlan {
            probe,
            carry,
            mut store,
        } = plan;
        let active = telemetry.is_active();
        // When timeline tracing is on (`trace::start_tracing`, wired from
        // `--trace` / `DROPBACK_TRACE`), each epoch also emits the paper's
        // Fig. 5 observables as trace counters: weight-diffusion ℓ2 from
        // init, tracked-set churn, and the tensor-allocation high-water
        // mark. The diffusion anchor is only computed when tracing —
        // `regen_initial` is a full parameter materialization.
        let tracing = trace::is_tracing();
        let diffusion = tracing.then(|| DiffusionTracker::new(&net.store().regen_initial()));
        let (step_counter, step_hist, val_gauge) = if active {
            let c = telemetry.collector();
            (
                Some(c.counter("train.steps")),
                Some(c.histogram("train.step_ns")),
                Some(c.gauge("train.val_acc")),
            )
        } else {
            (None, None, None)
        };
        if active {
            // Old totals (e.g. from a previous run in this process) must not
            // leak into the first epoch's phase sums.
            let _ = take_phase_totals();
        }
        let batcher = Batcher::new(cfg.batch_size, cfg.shuffle_seed);
        let TrainProgress {
            next_epoch: start_epoch,
            mut iteration,
            mut best_epoch,
            mut since_best,
            mut best_val,
            mut history,
        } = carry;
        history.reserve(cfg.epochs.saturating_sub(history.len()));
        for epoch in start_epoch..cfg.epochs {
            // A resumed snapshot may carry already-exhausted patience (it
            // was taken at the exact epoch the straight run stopped on);
            // running further epochs would diverge from that run.
            if !history.is_empty() {
                if let Some(p) = cfg.patience {
                    if since_best >= p {
                        break;
                    }
                }
            }
            let lr = cfg.schedule.at(epoch);
            let kl_scale = cfg.kl.map(|a| a.at(epoch)).unwrap_or(0.0);
            let mut loss_sum = 0.0f64;
            let mut acc_sum = 0.0f64;
            let mut kl_sum = 0.0f64;
            let mut batches = 0usize;
            for (x, labels) in batcher.epoch(train, epoch as u64) {
                let step_timer = Stopwatch::started_if(active);
                // One umbrella span per optimizer step: the trace analyzer
                // derives step-time percentiles from its durations, and in
                // Perfetto the kernel spans nest under it.
                let step_span = Span::enter("train-step");
                let (loss, acc) = net.loss_backward(&x, &labels);
                if kl_scale > 0.0 {
                    kl_sum += net.kl_backward(kl_scale) as f64;
                }
                {
                    let _span = Span::enter("optimizer-step");
                    optimizer.step(net.store_mut(), lr);
                }
                probe.after_step(iteration, net.store());
                drop(step_span);
                if let Some(step_ns) = step_timer.elapsed_ns() {
                    if let Some(h) = &step_hist {
                        h.record(step_ns as f64);
                    }
                    if let Some(c) = &step_counter {
                        c.inc();
                    }
                    telemetry.emit(
                        Event::new("step")
                            .with("iteration", iteration)
                            .with("epoch", epoch)
                            .with("loss", loss)
                            .with("acc", acc)
                            .with("lr", lr),
                    );
                }
                loss_sum += loss as f64;
                acc_sum += acc as f64;
                batches += 1;
                iteration += 1;
            }
            optimizer.end_epoch(epoch, net.store_mut());
            let val_acc = net.accuracy(val, cfg.eval_batch);
            probe.after_epoch(epoch, val_acc);
            if tracing {
                if let Some(d) = &diffusion {
                    let dist = d.distance(net.store().params());
                    trace::record_counter("diffusion.l2_from_init", f64::from(dist));
                }
                for (name, value) in optimizer.metrics() {
                    if name == "churn" {
                        trace::record_counter("tracked.churn", value);
                    }
                }
                trace::record_counter(
                    "tensor.alloc_hwm_bytes",
                    dropback_tensor::alloc::hwm_bytes() as f64,
                );
                trace::record_counter("pool.threads", dropback_tensor::pool::threads() as f64);
            }
            let stats = EpochStats {
                epoch,
                train_loss: (loss_sum / batches.max(1) as f64) as f32,
                train_acc: (acc_sum / batches.max(1) as f64) as f32,
                val_acc,
                lr,
                kl: (kl_sum / batches.max(1) as f64) as f32,
            };
            if active {
                if let Some(g) = &val_gauge {
                    g.set(val_acc as f64);
                }
                telemetry
                    .collector()
                    .gauge("tensor.alloc_hwm_bytes")
                    .set(dropback_tensor::alloc::hwm_bytes() as f64);
                let mut ev = Event::new("epoch")
                    .with("epoch", stats.epoch)
                    .with("train_loss", stats.train_loss)
                    .with("train_acc", stats.train_acc)
                    .with("val_acc", stats.val_acc)
                    .with("lr", stats.lr)
                    .with("kl", stats.kl);
                for (name, value) in optimizer.metrics() {
                    ev.push(name, value);
                }
                for (phase, stat) in take_phase_totals() {
                    ev.push(&format!("{}_ns", phase.replace('-', "_")), stat.total_ns);
                }
                telemetry.emit(ev);
            }
            history.push(stats);
            let mut stop = false;
            if val_acc > best_val {
                best_val = val_acc;
                best_epoch = epoch;
                since_best = 0;
            } else {
                since_best += 1;
                if let Some(p) = cfg.patience {
                    if since_best >= p {
                        stop = true;
                    }
                }
            }
            if let Some(st) = store.as_deref_mut() {
                if st.due(epoch, cfg.epochs) || stop {
                    let progress = TrainProgress {
                        next_epoch: epoch + 1,
                        iteration,
                        best_epoch,
                        since_best,
                        best_val,
                        history: history.clone(),
                    };
                    let snap = TrainState::capture(net, &*optimizer, cfg.shuffle_seed, &progress);
                    // A failed snapshot write must not kill the run; the
                    // store records it as `checkpoint.write_failed`.
                    let _ = st.save(&snap, telemetry);
                }
            }
            if stop {
                break;
            }
        }
        let stored = optimizer.stored_weights(net.store());
        let report = TrainReport {
            model: net.name().to_string(),
            optimizer: optimizer.name().to_string(),
            history,
            best_epoch,
            best_val_acc: best_val,
            params: net.num_params(),
            stored_weights: stored,
        };
        if active {
            telemetry.emit(
                Event::new("run")
                    .with("model", report.model.as_str())
                    .with("optimizer", report.optimizer.as_str())
                    .with("epochs", report.history.len())
                    .with("best_epoch", report.best_epoch)
                    .with("best_val_acc", report.best_val_acc)
                    .with("params", report.params)
                    .with("stored_weights", report.stored_weights)
                    .with("compression", report.compression()),
            );
            telemetry.flush();
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dropback_data::synthetic_mnist;
    use dropback_nn::models;
    use dropback_optim::{DropBack, LrSchedule, Sgd};
    use dropback_telemetry::{Json, JsonlSink};

    fn quick_config(epochs: usize) -> TrainConfig {
        TrainConfig::new(epochs, 32)
            .lr(LrSchedule::Constant(0.1))
            .patience(None)
    }

    #[test]
    fn sgd_learns_synthetic_mnist() {
        let (train, val) = synthetic_mnist(600, 150, 42);
        let net = models::mnist_100_100(42);
        let report = Trainer::new(quick_config(3)).run(net, Sgd::new(), &train, &val);
        assert_eq!(report.history.len(), 3);
        assert!(
            report.best_val_acc > 0.5,
            "val acc only {}",
            report.best_val_acc
        );
        assert!((report.compression() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dropback_learns_with_small_budget() {
        let (train, val) = synthetic_mnist(600, 150, 43);
        let net = models::mnist_100_100(43);
        let report = Trainer::new(quick_config(3)).run(net, DropBack::new(20_000), &train, &val);
        assert!(
            report.best_val_acc > 0.5,
            "val acc only {}",
            report.best_val_acc
        );
        assert!((report.compression() - 89_610.0 / 20_000.0).abs() < 1e-3);
    }

    #[test]
    fn early_stopping_truncates() {
        let (train, val) = synthetic_mnist(200, 50, 44);
        let net = models::mnist_100_100(44);
        // lr=0: nothing improves, so patience=2 stops after epoch 2.
        let cfg = TrainConfig::new(50, 32)
            .lr(LrSchedule::Constant(0.0))
            .patience(Some(2));
        let report = Trainer::new(cfg).run(net, Sgd::new(), &train, &val);
        assert!(
            report.history.len() <= 4,
            "{} epochs ran",
            report.history.len()
        );
    }

    #[test]
    fn probe_sees_every_step() {
        struct Counter(u64);
        impl StepProbe for Counter {
            fn after_step(&mut self, it: u64, _ps: &ParamStore) {
                assert_eq!(it, self.0);
                self.0 += 1;
            }
        }
        let (train, val) = synthetic_mnist(96, 32, 45);
        let net = models::mnist_100_100(45);
        let mut probe = Counter(0);
        let cfg = quick_config(2);
        let _ = Trainer::new(cfg).run_probed(net, Sgd::new(), &train, &val, &mut probe);
        // 96/32 = 3 batches per epoch, 2 epochs.
        assert_eq!(probe.0, 6);
    }

    /// A probe that relies on the default no-op `after_epoch` body while
    /// still observing steps — the default implementation must be callable
    /// and harmless.
    struct StepsOnly(u64);
    impl StepProbe for StepsOnly {
        fn after_step(&mut self, _it: u64, _ps: &ParamStore) {
            self.0 += 1;
        }
    }

    #[test]
    fn default_after_epoch_is_a_no_op() {
        let (train, val) = synthetic_mnist(64, 32, 46);
        let net = models::mnist_100_100(46);
        let mut probe = StepsOnly(0);
        let report =
            Trainer::new(quick_config(2)).run_probed(net, Sgd::new(), &train, &val, &mut probe);
        assert_eq!(probe.0, 4, "2 batches x 2 epochs");
        assert_eq!(report.history.len(), 2);
        // Exercise the default body directly as well.
        probe.after_epoch(0, 0.5);
        assert_eq!(probe.0, 4, "after_epoch must not affect probe state");
    }

    #[test]
    fn early_stop_still_fires_after_epoch_for_every_ran_epoch() {
        struct EpochLog(Vec<(usize, f32)>);
        impl StepProbe for EpochLog {
            fn after_step(&mut self, _it: u64, _ps: &ParamStore) {}
            fn after_epoch(&mut self, epoch: usize, val_acc: f32) {
                self.0.push((epoch, val_acc));
            }
        }
        let (train, val) = synthetic_mnist(200, 50, 47);
        let net = models::mnist_100_100(47);
        let cfg = TrainConfig::new(50, 32)
            .lr(LrSchedule::Constant(0.0))
            .patience(Some(2));
        let mut probe = EpochLog(Vec::new());
        let report = Trainer::new(cfg).run_probed(net, Sgd::new(), &train, &val, &mut probe);
        // The probe saw exactly the epochs that ran, in order, even though
        // early stopping truncated the budget.
        assert_eq!(probe.0.len(), report.history.len());
        for (i, &(epoch, val_acc)) in probe.0.iter().enumerate() {
            assert_eq!(epoch, i);
            assert_eq!(val_acc, report.history[i].val_acc);
        }
        assert!(probe.0.len() < 50);
    }

    #[test]
    fn telemetry_run_emits_epoch_records_with_dropback_metrics() {
        let (train, val) = synthetic_mnist(96, 32, 48);
        let net = models::mnist_100_100(48);
        // A clonable writer so we can read the JSONL back after the run
        // consumes the sink.
        use std::io::Write;
        #[derive(Clone, Default)]
        struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf::default();
        let mut tel = Telemetry::with_sink(Box::new(JsonlSink::new(buf.clone())));
        let report = Trainer::new(quick_config(2)).run_telemetry(
            net,
            DropBack::new(20_000),
            &train,
            &val,
            &mut NoProbe,
            &mut tel,
        );
        dropback_telemetry::set_enabled(false);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        let epochs: Vec<&Json> = lines
            .iter()
            .filter(|j| j.get("event").and_then(Json::as_str) == Some("epoch"))
            .collect();
        assert_eq!(epochs.len(), report.history.len());
        for (i, e) in epochs.iter().enumerate() {
            assert_eq!(e.get("epoch").unwrap().as_u64(), Some(i as u64));
            assert!(e.get("train_loss").unwrap().as_f64().is_some());
            assert!(e.get("val_acc").unwrap().as_f64().is_some());
            assert_eq!(e.get("tracked_k").unwrap().as_u64(), Some(20_000));
            let count = |key: &str| e.get(key).and_then(Json::as_u64).unwrap();
            // Every entry evicts a tracked weight, except the k that fill
            // the empty set on the first step.
            let fill = if i == 0 { 20_000 } else { 0 };
            assert_eq!(count("churn"), count("evictions") + fill, "epoch {i}");
            // An entering weight was a candidate first.
            assert!(count("candidates") >= count("churn"), "epoch {i}");
            // Per-phase wall-time sums from the span registry.
            for phase in ["forward_ns", "backward_ns", "optimizer_step_ns", "eval_ns"] {
                assert!(
                    e.get(phase).and_then(Json::as_u64).unwrap_or(0) > 0,
                    "missing phase sum {phase} in epoch record {i}"
                );
            }
        }
        let steps: usize = lines
            .iter()
            .filter(|j| j.get("event").and_then(Json::as_str) == Some("step"))
            .count();
        assert_eq!(steps, 6, "3 batches x 2 epochs");
        let run = lines
            .iter()
            .find(|j| j.get("event").and_then(Json::as_str) == Some("run"))
            .expect("run summary event");
        assert_eq!(run.get("stored_weights").unwrap().as_u64(), Some(20_000));
    }
}
