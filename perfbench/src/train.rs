//! Training workloads: `mlp-rank`, `mlp-frozen` and `conv-vgg`.
//!
//! The untraced run goes through `Trainer::run_resumable`; step times come
//! from the trainer's own `step` events, timestamped by an event sink
//! (span timing stays off). The traced run replays the same loop one
//! public call at a time in [`drive`], each call in a `bench.*` span.

use crate::{
    finish_trace, note_trace, peak_rss_mb, quantile, serve, sorted, span_ms, Outcome, Res, Run,
    Scale, Workload, SETUP_TRIALS,
};
use dropback::prelude::*;
use dropback::telemetry::{set_enabled, trace, Json, Span, Stopwatch};
use dropback::tensor::alloc;
use dropback::TraceAnalysis;
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;

const MIB: f64 = 1024.0 * 1024.0;

/// Seconds one timed epoch (train + eval + checkpoint) takes on the
/// reference host; `--seconds` is divided by these to size a run.
const MLP_RANK_EPOCH_S: f64 = 0.49;
const MLP_FROZEN_EPOCH_S: f64 = 0.36;
const CONV_EPOCH_S: f64 = 2.5;

/// One training run's fixed work.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Plan {
    pub model: fn(u64) -> Network,
    pub cifar: bool,
    pub k: usize,
    pub freeze: bool,
    pub batch: usize,
    pub lr: f32,
    pub train_n: usize,
    pub val_n: usize,
    /// Epochs, the warm-up epoch included.
    pub epochs: usize,
}

impl Plan {
    /// The mnist-100-100 / k = 20,000 run the serving workloads also
    /// train their snapshots with.
    pub(crate) fn mlp(epochs: usize, train_n: usize, val_n: usize) -> Self {
        Plan {
            model: models::mnist_100_100,
            cifar: false,
            k: 20_000,
            freeze: false,
            batch: 64,
            lr: 0.2,
            train_n,
            val_n,
            epochs,
        }
    }

    fn for_workload(w: Workload, scale: Scale, seconds: u64) -> Self {
        let timed = |epoch_s: f64| ((seconds as f64 / epoch_s).round() as usize).max(1);
        let tiny = scale == Scale::Tiny;
        match w {
            Workload::MlpRank | Workload::MlpFrozen => {
                let frozen = w == Workload::MlpFrozen;
                let epoch_s = if frozen {
                    MLP_FROZEN_EPOCH_S
                } else {
                    MLP_RANK_EPOCH_S
                };
                Plan {
                    freeze: frozen,
                    ..if tiny {
                        Plan::mlp(2, 256, 128)
                    } else {
                        Plan::mlp(1 + timed(epoch_s), 8_192, 4_096)
                    }
                }
            }
            _ => {
                let (epochs, train_n, val_n) = if tiny {
                    (2, 64, 32)
                } else {
                    // At least 4 x 31 timed step intervals.
                    (1 + timed(CONV_EPOCH_S).max(4), 1_024, 512)
                };
                Plan {
                    model: models::vgg_s_nano,
                    cifar: true,
                    k: 40_000,
                    freeze: false,
                    batch: 32,
                    lr: 0.1,
                    train_n,
                    val_n,
                    epochs,
                }
            }
        }
    }

    pub(crate) fn data(&self, seed: u64) -> (Dataset, Dataset) {
        if self.cifar {
            let hw = models::CIFAR_NANO_HW;
            synthetic_cifar(self.train_n, self.val_n, hw, hw, seed)
        } else {
            synthetic_mnist(self.train_n, self.val_n, seed)
        }
    }

    pub(crate) fn optimizer(&self) -> DropBack {
        let opt = DropBack::new(self.k);
        if self.freeze {
            opt.freeze_after(1)
        } else {
            opt
        }
    }

    /// The dropback-cli schedule: halve the rate every fifth of the run.
    /// Early stopping is off so every run does all its epochs.
    pub(crate) fn config(&self, seed: u64) -> TrainConfig {
        TrainConfig::new(self.epochs, self.batch)
            .lr(LrSchedule::StepDecay {
                initial: self.lr,
                factor: 0.5,
                every: (self.epochs / 5).max(1),
            })
            .shuffle_seed(seed)
            .patience(None)
    }

    /// Samples trained in the timed (post-warm-up) epochs.
    fn timed_samples(&self) -> f64 {
        ((self.epochs - 1) * self.train_n) as f64
    }
}

pub(crate) fn run(run: &Run) -> Res<Outcome> {
    let plan = Plan::for_workload(run.workload, run.scale, run.seconds);
    let (train, val) = plan.data(run.seed);
    let mut out = Outcome::default();
    out.note(format!(
        "{}: {} epochs (1 warm-up) x {} samples, k = {}",
        run.workload.name(),
        plan.epochs,
        plan.train_n,
        plan.k
    ));
    if run.trace {
        traced(run, &plan, (&train, &val), &mut out)?;
    } else {
        untraced(run, &plan, (&train, &val), &mut out)?;
    }
    Ok(out)
}

/// When one trainer event arrived, in nanoseconds since the run started.
#[derive(Debug, Clone, Copy)]
struct StepMark {
    ns: u64,
    epoch: u64,
    finite_loss: bool,
}

#[derive(Debug, Default)]
struct EventLog {
    steps: Vec<StepMark>,
    /// Arrival of each epoch's `epoch` event (after its eval, before its
    /// checkpoint save).
    epochs: Vec<u64>,
}

/// Timestamps the trainer's `step` and `epoch` events.
struct EventClock {
    clock: Stopwatch,
    log: Rc<RefCell<EventLog>>,
}

impl EventSink for EventClock {
    fn emit(&mut self, event: &Event) {
        let ns = self.clock.elapsed_ns().unwrap_or(0);
        let mut log = self.log.borrow_mut();
        match event.kind() {
            "step" => log.steps.push(StepMark {
                ns,
                epoch: event.get("epoch").and_then(Json::as_u64).unwrap_or(0),
                finite_loss: event
                    .get("loss")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
            }),
            "epoch" => log.epochs.push(ns),
            _ => {}
        }
    }
}

/// One `Trainer::run_resumable` run and its event timeline.
struct TrainerRun {
    net: Network,
    opt: DropBack,
    report: TrainReport,
    store: CheckpointStore,
    log: EventLog,
    end_ns: u64,
}

impl TrainerRun {
    /// Samples per second from the end of the warm-up epoch's eval to the
    /// end of the run.
    fn samples_per_s(&self, plan: &Plan) -> f64 {
        let start = self.log.epochs.first().copied().unwrap_or(0);
        plan.timed_samples() / (self.end_ns.saturating_sub(start).max(1) as f64 / 1e9)
    }
}

/// Builds the model and optimizer and trains through the trainer, timing
/// from the first call into the system.
fn trainer_run(plan: &Plan, data: (&Dataset, &Dataset), seed: u64, dir: &Path) -> Res<TrainerRun> {
    let log = Rc::new(RefCell::new(EventLog::default()));
    let clock = Stopwatch::started();
    let mut tel = Telemetry::with_sink(Box::new(EventClock {
        clock,
        log: Rc::clone(&log),
    }));
    // The sink only needs events; keep process-wide span timing off so
    // the untraced run pays nothing for in-program spans.
    set_enabled(false);
    let mut net = (plan.model)(seed);
    let mut opt = plan.optimizer();
    let mut store = CheckpointStore::open(dir).map_err(|e| e.to_string())?;
    let report = Trainer::new(plan.config(seed))
        .run_resumable(&mut net, &mut opt, data.0, data.1, &mut store, &mut tel)
        .map_err(|e| format!("training failed: {e}"))?;
    let end_ns = clock.elapsed_ns().unwrap_or(0);
    drop(tel);
    let log = log.take();
    Ok(TrainerRun {
        net,
        opt,
        report,
        store,
        log,
        end_ns,
    })
}

/// The first two batches and one batch of validation: the set-up trials
/// train on these so they stop soon after their first step.
fn setup_data(plan: &Plan, train: &Dataset, val: &Dataset) -> (Dataset, Dataset) {
    let cut = |d: &Dataset, n: usize| {
        let (x, y) = d.batch(0, n.min(d.len()));
        Dataset::new(x, y, d.classes())
    };
    (cut(train, 2 * plan.batch), cut(val, plan.batch))
}

fn untraced(run: &Run, plan: &Plan, data: (&Dataset, &Dataset), out: &mut Outcome) -> Res<()> {
    let (s_train, s_val) = setup_data(plan, data.0, data.1);
    let setup_plan = Plan { epochs: 1, ..*plan };
    let mut setups = Vec::with_capacity(SETUP_TRIALS);
    for i in 0..SETUP_TRIALS {
        let dir = run.dir.join(format!("setup-{i}"));
        let t = trainer_run(&setup_plan, (&s_train, &s_val), run.seed, &dir)?;
        let first = t.log.steps.first().map(|s| s.ns);
        setups.push(first.ok_or("a set-up trial took no step")? as f64 / 1e9);
    }

    let mut t = trainer_run(plan, data, run.seed, &run.dir.join("main"))?;
    let steps = &t.log.steps;
    let nonfinite = steps.iter().filter(|s| !s.finite_loss).count();
    out.attempted = steps.len() as u64;
    out.failed = nonfinite as u64;
    out.check(nonfinite == 0, || {
        format!("{nonfinite} steps had a non-finite loss")
    });
    let intervals: Vec<f64> = steps
        .windows(2)
        .filter(|w| w[0].epoch == w[1].epoch && w[1].epoch >= 1)
        .map(|w| (w[1].ns - w[0].ns) as f64 / 1e6)
        .collect();
    // p90 needs at least ten samples beyond it.
    out.check(run.scale == Scale::Tiny || intervals.len() >= 100, || {
        format!("only {} timed step intervals", intervals.len())
    });
    let intervals = sorted(intervals);
    let samples_per_s = t.samples_per_s(plan);
    let val_acc = t.report.history.last().map_or(0.0, |e| e.val_acc);

    check_invariants(out, &t.net, &t.opt, plan.k);
    let crc = params_crc(&t.net);
    check_resume(out, plan, &mut t.store, run.seed, crc)?;

    out.note(format!(
        "{} step intervals timed; val acc {val_acc:.4}",
        intervals.len()
    ));
    out.metric("setup_s", "s", quantile(&sorted(setups), 0.5));
    out.metric("latency_p50_ms", "ms", quantile(&intervals, 0.5));
    out.metric("latency_p90_ms", "ms", quantile(&intervals, 0.9));
    out.metric("throughput_per_s", "1/s", samples_per_s);
    out.metric("accuracy", "fraction", f64::from(val_acc));
    out.metric("peak_rss_mb", "MiB", peak_rss_mb()?);
    Ok(())
}

fn traced(run: &Run, plan: &Plan, data: (&Dataset, &Dataset), out: &mut Outcome) -> Res<()> {
    let reference = trainer_run(plan, data, run.seed, &run.dir.join("trainer"))?;
    let trainer_sps = reference.samples_per_s(plan);
    let trainer_crc = params_crc(&reference.net);
    drop(reference);

    trace::start_tracing();
    let mut store = CheckpointStore::open(run.dir.join("driven")).map_err(|e| e.to_string())?;
    let driven = drive(plan, data, run.seed, &mut store)?;
    check_invariants(out, &driven.net, &driven.opt, plan.k);
    let crc = params_crc(&driven.net);
    check_resume(out, plan, &mut store, run.seed, crc)?;
    let analysis = finish_trace(&run.trace_path)?;

    out.attempted = driven.steps;
    out.failed = driven.nonfinite;
    out.check(driven.nonfinite == 0, || {
        format!("{} steps had a non-finite loss", driven.nonfinite)
    });
    out.check(crc == trainer_crc, || {
        format!("traced run ended on params crc {crc:08x}, Trainer on {trainer_crc:08x}")
    });
    let traced_sps = plan.timed_samples() / (driven.timed_ns.max(1) as f64 / 1e9);
    out.note(format!(
        "params crc {crc:08x} (Trainer {trainer_crc:08x}); tracing overhead: {traced_sps:.0} vs \
         {trainer_sps:.0} samples/s untraced ({:.3}x)",
        traced_sps / trainer_sps
    ));
    note_trace(out, &analysis, &run.trace_path);
    layer_metrics(out, &analysis, &driven);
    serve::layer_metrics(out, &[]);
    Ok(())
}

/// A run driven one public call at a time.
pub(crate) struct Driven {
    pub net: Network,
    pub opt: DropBack,
    pub steps: u64,
    pub swaps: u64,
    pub nonfinite: u64,
    /// From the end of the warm-up epoch's eval to the end of the run.
    pub timed_ns: u64,
    pub snapshot_bytes: usize,
}

/// Does what `Trainer::run_resumable` does for `plan` — same batch order,
/// lr schedule, `end_epoch`, eval and checkpoint calls, so it ends on the
/// same parameters — with each public call in a `bench.<layer>.<call>`
/// span.
pub(crate) fn drive(
    plan: &Plan,
    (train, val): (&Dataset, &Dataset),
    seed: u64,
    store: &mut CheckpointStore,
) -> Res<Driven> {
    let cfg = plan.config(seed);
    let mut tel = Telemetry::disabled();
    let clock = Stopwatch::started();
    let mut net = (plan.model)(seed);
    let mut opt = plan.optimizer();
    let resumed = {
        let _s = Span::enter("bench.core.load");
        store.load_latest(&mut tel).map_err(|e| e.to_string())?
    };
    if resumed.is_some() {
        return Err(format!(
            "{} already holds a snapshot",
            store.dir().display()
        ));
    }
    let batcher = Batcher::new(cfg.batch_size, cfg.shuffle_seed);
    let mut progress = TrainProgress::fresh();
    let (mut swaps, mut nonfinite, mut timed_from, mut snapshot_bytes) = (0u64, 0u64, 0u64, 0);
    for epoch in 0..cfg.epochs {
        let lr = cfg.schedule.at(epoch);
        let (mut loss_sum, mut acc_sum, mut batches) = (0.0f64, 0.0f64, 0usize);
        let mut batches_iter = batcher.epoch(train, epoch as u64);
        loop {
            let next = {
                let _s = Span::enter("bench.data.next");
                batches_iter.next()
            };
            let Some((x, labels)) = next else { break };
            let (loss, acc) = {
                let _s = Span::enter("bench.nn.loss_backward");
                net.loss_backward(&x, &labels)
            };
            {
                let _s = Span::enter("bench.optim.step");
                opt.step(net.store_mut(), lr);
            }
            swaps += opt.last_swaps() as u64;
            nonfinite += u64::from(!loss.is_finite());
            loss_sum += f64::from(loss);
            acc_sum += f64::from(acc);
            batches += 1;
            progress.iteration += 1;
        }
        {
            let _s = Span::enter("bench.optim.end_epoch");
            opt.end_epoch(epoch, net.store_mut());
        }
        let val_acc = {
            let _s = Span::enter("bench.nn.accuracy");
            net.accuracy(val, cfg.eval_batch)
        };
        if epoch == 0 {
            timed_from = clock.elapsed_ns().unwrap_or(0);
        }
        progress.history.push(EpochStats {
            epoch,
            train_loss: (loss_sum / batches.max(1) as f64) as f32,
            train_acc: (acc_sum / batches.max(1) as f64) as f32,
            val_acc,
            lr,
            kl: 0.0,
        });
        if val_acc > progress.best_val {
            progress.best_val = val_acc;
            progress.best_epoch = epoch;
            progress.since_best = 0;
        } else {
            progress.since_best += 1;
        }
        if store.due(epoch, cfg.epochs) {
            progress.next_epoch = epoch + 1;
            let snap = {
                let _s = Span::enter("bench.core.capture");
                TrainState::capture(&net, &opt, cfg.shuffle_seed, &progress)
            };
            snapshot_bytes = snap.size_bytes();
            let _s = Span::enter("bench.core.save");
            store
                .save(&snap, &mut tel)
                .map_err(|e| format!("checkpoint save failed: {e}"))?;
        }
    }
    let timed_ns = clock.elapsed_ns().unwrap_or(0).saturating_sub(timed_from);
    Ok(Driven {
        net,
        opt,
        steps: progress.iteration,
        swaps,
        nonfinite,
        timed_ns,
        snapshot_bytes,
    })
}

/// The training-layer half of the per-layer metrics.
pub(crate) fn layer_metrics(out: &mut Outcome, analysis: &TraceAnalysis, driven: &Driven) {
    let n = driven.net.num_params() as f64;
    out.metric("data.next_ms", "ms", span_ms(analysis, "bench.data.next"));
    out.metric(
        "nn.loss_backward_ms",
        "ms",
        span_ms(analysis, "bench.nn.loss_backward"),
    );
    out.metric(
        "nn.accuracy_ms",
        "ms",
        span_ms(analysis, "bench.nn.accuracy"),
    );
    out.metric(
        "tensor.alloc_hwm_mb",
        "MiB",
        alloc::hwm_bytes() as f64 / MIB,
    );
    out.metric("optim.step_ms", "ms", span_ms(analysis, "bench.optim.step"));
    out.metric(
        "optim.swaps_per_step",
        "count",
        driven.swaps as f64 / driven.steps.max(1) as f64,
    );
    out.metric("optim.tracked", "count", driven.opt.tracked_count() as f64);
    out.metric(
        "prng.regen_ns_per_weight",
        "ns",
        span_ms(analysis, "bench.prng.regen_initial") * 1e6 / n,
    );
    out.metric(
        "core.capture_ms",
        "ms",
        span_ms(analysis, "bench.core.capture"),
    );
    out.metric("core.save_ms", "ms", span_ms(analysis, "bench.core.save"));
    out.metric("core.load_ms", "ms", span_ms(analysis, "bench.core.load"));
    out.metric("core.snapshot_bytes", "bytes", driven.snapshot_bytes as f64);
}

/// CRC-32 of the parameter bits.
pub(crate) fn params_crc(net: &Network) -> u32 {
    let bytes: Vec<u8> = net
        .store()
        .params()
        .iter()
        .flat_map(|p| p.to_le_bytes())
        .collect();
    dropback::crc32(&bytes)
}

/// Exactly `k` weights tracked, and every untracked weight bit-equal to
/// its regenerated init value — checked over every index.
pub(crate) fn check_invariants(out: &mut Outcome, net: &Network, opt: &DropBack, k: usize) {
    let tracked = opt.tracked_count();
    out.check(tracked == k, || {
        format!("{tracked} weights tracked, budget {k}")
    });
    let init = {
        let _s = Span::enter("bench.prng.regen_initial");
        net.store().regen_initial()
    };
    let (params, mask) = (net.store().params(), opt.mask());
    out.check(mask.len() == params.len(), || {
        format!("mask covers {} of {} weights", mask.len(), params.len())
    });
    let drifted = params
        .iter()
        .zip(&init)
        .zip(mask)
        .filter(|((p, i), &tracked)| !tracked && p.to_bits() != i.to_bits())
        .count();
    out.check(drifted == 0, || {
        format!("{drifted} untracked weights differ from their init values")
    });
}

/// The newest checkpoint restores to the parameters the run ended on.
fn check_resume(
    out: &mut Outcome,
    plan: &Plan,
    store: &mut CheckpointStore,
    seed: u64,
    crc: u32,
) -> Res<()> {
    let state = {
        let _s = Span::enter("bench.core.load");
        store
            .load_latest(&mut Telemetry::disabled())
            .map_err(|e| e.to_string())?
    };
    let Some(state) = state else {
        out.violations.push("the run wrote no checkpoint".into());
        return Ok(());
    };
    let mut net = (plan.model)(seed);
    let mut opt = plan.optimizer();
    match state.restore_into(&mut net, &mut opt, seed) {
        Ok(progress) => {
            out.check(progress.next_epoch == plan.epochs, || {
                format!(
                    "last checkpoint resumes at epoch {}, not {}",
                    progress.next_epoch, plan.epochs
                )
            });
            let restored = params_crc(&net);
            out.check(restored == crc, || {
                format!("checkpoint restores params crc {restored:08x}, run ended on {crc:08x}")
            });
        }
        Err(e) => out
            .violations
            .push(format!("last checkpoint does not restore: {e}")),
    }
    Ok(())
}
