//! Serving workloads: `serve-read` and `serve-swap`.
//!
//! An in-process `Server` serves a mnist-100-100 snapshot the bench
//! trains first (with [`train::drive`], outside every measured window).
//! Two client threads, one keep-alive connection each, load it in two
//! phases:
//!
//! 1. open loop, seeded Poisson arrivals at a mean 150 rps: request `i`
//!    is due at a fixed time and its latency runs from that due time, so
//!    a stalled generator is charged for the wait it causes;
//! 2. closed loop: each client sends its next request as soon as the
//!    previous reply lands, and the reply rate is the throughput two
//!    connections get.
//!
//! In `serve-swap` the main thread meanwhile saves a new generation every
//! 60–140 ms (drawn from the seed, so writes do not phase-lock to the
//! watcher's 50 ms poll).

use crate::train::{self, Driven, Plan};
use crate::{
    finish_trace, mean, note_trace, peak_rss_mb, quantile, sorted, Outcome, Res, Run, Scale,
    Workload, SETUP_TRIALS,
};
use dropback::prelude::*;
use dropback::prng::Xorshift64;
use dropback::telemetry::{trace, Span, Stopwatch};
use dropback_serve::client::{infer_body, parse_reply};
use dropback_serve::rt::{self, Monitor};
use dropback_serve::{HttpClient, InferReply, Server, ServerConfig, ServingModel};
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// The open-loop rate latency is reported at.
const OPEN_RPS: f64 = 150.0;

/// Replies per second two closed-loop connections get on the reference
/// host; sizes the closed-loop phase.
const CLOSED_RPS: f64 = 330.0;

/// Client threads, one keep-alive connection each.
const CLIENTS: u64 = 2;

/// Training steps between two `serve-swap` generations.
const STEPS_PER_GENERATION: usize = 4;

/// Logits per reply (mnist-100-100 has ten classes).
const CLASSES: usize = 10;

/// Which part of the run a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Setup,
    Open,
    Closed,
}

/// One run's fixed work.
struct Sizes {
    train_n: usize,
    val_n: usize,
    /// Epochs of the snapshot's training run.
    epochs: usize,
    /// Held-out images requests cycle through.
    pool: usize,
    open_requests: u64,
    closed_requests: u64,
    /// `serve-swap` generations prepared (writes stop when they run out).
    generations: usize,
}

impl Sizes {
    fn new(scale: Scale, seconds: u64) -> Self {
        let s = seconds as f64;
        match scale {
            // Six tenths of the time open loop, three tenths closed loop.
            Scale::Full => Sizes {
                train_n: 8_192,
                val_n: 1_024,
                epochs: 3,
                pool: 256,
                open_requests: (0.6 * s * OPEN_RPS).round().max(150.0) as u64,
                closed_requests: (0.3 * s * CLOSED_RPS).round().max(100.0) as u64,
                generations: (s * 10.0).ceil() as usize,
            },
            Scale::Tiny => Sizes {
                train_n: 256,
                val_n: 64,
                epochs: 1,
                pool: 8,
                open_requests: 30,
                closed_requests: 20,
                generations: 3,
            },
        }
    }
}

/// The request inputs and what every generation must answer for them.
struct Pool {
    bodies: Vec<String>,
    labels: Vec<usize>,
    /// Request `i` sends image `order[i % pool]`.
    order: Vec<usize>,
    x: Tensor,
    /// Per generation (`reply.epoch`): `pool × CLASSES` logits from one
    /// batched `ServingModel::infer`.
    expected: BTreeMap<usize, Vec<f32>>,
}

impl Pool {
    fn new(val: &Dataset, n: usize, seed: u64) -> Self {
        let (x, labels) = val.batch(0, n.min(val.len()));
        let width = x.data().len() / labels.len();
        let bodies = x.data().chunks(width).map(infer_body).collect();
        let mut order: Vec<usize> = (0..labels.len()).collect();
        let mut rng = Xorshift64::new(seed ^ 0x0DE5_1A7E);
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        Pool {
            bodies,
            labels,
            order,
            x,
            expected: BTreeMap::new(),
        }
    }

    fn add_generation(&mut self, state: &TrainState, corrupt: bool) -> Res<()> {
        let model = {
            let _s = Span::enter("bench.serve.model_build");
            ServingModel::from_state(state, "expected")
        }
        .map_err(|e| format!("cannot build generation {}: {e}", state.progress.next_epoch))?;
        let (logits, _) = {
            let _s = Span::enter("bench.serve.model_infer");
            model.infer(&self.x)
        }
        .map_err(|e| e.to_string())?;
        let mut logits = logits.data().to_vec();
        if corrupt {
            for v in &mut logits {
                *v = f32::from_bits(v.to_bits() ^ 1);
            }
        }
        self.expected.insert(state.progress.next_epoch, logits);
        Ok(())
    }

    /// `None` when `reply` names a generation the bench did not write,
    /// else whether it answers `image` with exactly the expected bits.
    fn matches(&self, image: usize, reply: &InferReply) -> Option<bool> {
        let table = self.expected.get(&reply.epoch)?;
        let want = &table[image * CLASSES..(image + 1) * CLASSES];
        Some(
            reply.logits.len() == CLASSES
                && reply
                    .logits
                    .iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
        )
    }
}

/// One request as the client saw it; times are ns on the load clock.
struct Sample {
    phase: Phase,
    image: usize,
    due_ns: u64,
    sent_ns: u64,
    done_ns: u64,
    reply: Result<InferReply, String>,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Increments a finished-thread count when dropped, panics included, so
/// the coordinator never waits on a dead client.
struct Finished(Arc<Monitor<u64>>);

impl Drop for Finished {
    fn drop(&mut self) {
        self.0.update(|n| *n += 1);
    }
}

/// `serve-swap`'s writer: saves prepared generations at seeded intervals.
struct Writer {
    store: CheckpointStore,
    generations: std::vec::IntoIter<TrainState>,
    rng: Xorshift64,
    next_ns: u64,
    /// `(generation, ns when its save returned)`.
    written: Vec<(usize, u64)>,
}

impl Writer {
    fn wait(&self, clock: Stopwatch) -> Duration {
        Duration::from_nanos(self.next_ns.saturating_sub(clock.elapsed_ns().unwrap_or(0)))
    }

    fn write_if_due(&mut self, clock: Stopwatch) -> Res<()> {
        if clock.elapsed_ns().unwrap_or(0) < self.next_ns {
            return Ok(());
        }
        let Some(state) = self.generations.next() else {
            self.next_ns = u64::MAX;
            return Ok(());
        };
        {
            let _s = Span::enter("bench.core.save");
            self.store
                .save(&state, &mut Telemetry::disabled())
                .map_err(|e| format!("generation save failed: {e}"))?;
        }
        let saved = clock.elapsed_ns().unwrap_or(0);
        self.written.push((state.progress.next_epoch, saved));
        self.next_ns = saved + (60 + self.rng.next_u64() % 81) * 1_000_000;
        Ok(())
    }
}

fn start_server(dir: &Path) -> Res<Server> {
    let store = CheckpointStore::open(dir).map_err(|e| e.to_string())?;
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    let _s = Span::enter("bench.serve.start");
    Server::start(cfg, store).map_err(|e| format!("server start failed: {e}"))
}

/// One `/infer` round trip with a pre-rendered body.
fn request(client: &mut HttpClient, body: &str) -> Result<InferReply, String> {
    let _s = Span::enter("bench.serve.request");
    let resp = client.post("/infer", body).map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("status {}", resp.status));
    }
    parse_reply(&resp.body).map_err(|e| e.to_string())
}

/// The time from `Server::start` to the first reply, and that reply (it
/// is verified with the rest).
fn setup_trial(dir: &Path, pool: &Pool) -> Res<(f64, Sample)> {
    let sw = Stopwatch::started();
    let server = start_server(dir)?;
    let reply = HttpClient::connect(server.addr())
        .map_err(|e| e.to_string())
        .and_then(|mut c| request(&mut c, &pool.bodies[0]));
    let secs = sw.elapsed_ns().unwrap_or(0) as f64 / 1e9;
    let _ = server.stop();
    let sample = Sample {
        phase: Phase::Setup,
        image: 0,
        due_ns: 0,
        sent_ns: 0,
        done_ns: 0,
        reply,
    };
    Ok((secs, sample))
}

/// Seeded Poisson arrivals: the due offset of each of `count` requests at
/// a mean of `rps`, in ns.
fn poisson_schedule(rps: f64, count: u64, seed: u64) -> Vec<u64> {
    let mut rng = Xorshift64::new(seed);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            // Uniform in (0, 1]: the top 53 bits, shifted off zero.
            let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            t -= u.ln() / rps;
            (t * 1e9) as u64
        })
        .collect()
}

/// Sends requests `first..first + count` from `CLIENTS` threads, request
/// `i` on client `i % CLIENTS` — due at `schedule[i]` when given (open
/// loop), else back to back (closed loop) — while the calling thread runs
/// the writer.
fn load(
    addr: SocketAddr,
    clock: Stopwatch,
    (phase, schedule, first, count): (Phase, Option<Arc<Vec<u64>>>, u64, u64),
    pool: &Arc<Pool>,
    writer: &mut Option<Writer>,
) -> Res<Vec<Sample>> {
    let samples = Arc::new(Monitor::new(Vec::new()));
    let finished = Arc::new(Monitor::new(0u64));
    let start_ns = clock.elapsed_ns().unwrap_or(0) + 5_000_000;
    let mut handles = Vec::new();
    for lane in 0..CLIENTS {
        let (pool, samples) = (Arc::clone(pool), Arc::clone(&samples));
        let schedule = schedule.clone();
        let done = Finished(Arc::clone(&finished));
        let spawned = rt::spawn(&format!("load-{lane}"), move || {
            let _done = done;
            let mut client = HttpClient::connect(addr).ok();
            let mut mine = Vec::new();
            for i in (lane..count).step_by(CLIENTS as usize) {
                let now = clock.elapsed_ns().unwrap_or(0);
                let due_ns = schedule.as_ref().map_or(now, |s| start_ns + s[i as usize]);
                if due_ns > now {
                    std::thread::sleep(Duration::from_nanos(due_ns - now));
                }
                let image = pool.order[((first + i) % pool.order.len() as u64) as usize];
                let sent_ns = clock.elapsed_ns().unwrap_or(0);
                let reply = match client.as_mut() {
                    Some(c) => request(c, &pool.bodies[image]),
                    None => Err("not connected".into()),
                };
                let done_ns = clock.elapsed_ns().unwrap_or(0);
                if reply.is_err() {
                    client = HttpClient::connect(addr).ok();
                }
                mine.push(Sample {
                    phase,
                    image,
                    due_ns,
                    sent_ns,
                    done_ns,
                    reply,
                });
            }
            samples.update(|all: &mut Vec<Sample>| all.extend(mine));
        });
        handles.push(spawned.map_err(|e| format!("cannot spawn a client: {e}"))?);
    }
    let poll = Duration::from_millis(100);
    loop {
        let wait = writer.as_ref().map_or(poll, |w| w.wait(clock).min(poll));
        if finished
            .wait_for_within(wait, |n| (*n == CLIENTS).then_some(()))
            .is_some()
        {
            break;
        }
        if let Some(w) = writer.as_mut() {
            w.write_if_due(clock)?;
        }
    }
    for h in handles {
        h.join()
            .map_err(|_| "a client thread panicked".to_string())?;
    }
    Ok(samples.update(std::mem::take))
}

/// Trains `STEPS_PER_GENERATION` more steps per generation past the
/// snapshot and captures each, numbered after it.
fn swap_generations(
    driven: &mut Driven,
    plan: &Plan,
    train: &Dataset,
    seed: u64,
    count: usize,
) -> Vec<TrainState> {
    let cfg = plan.config(seed);
    let lr = cfg.schedule.at(plan.epochs - 1);
    let batcher = Batcher::new(cfg.batch_size, cfg.shuffle_seed);
    let mut progress = TrainProgress::fresh();
    let mut states = Vec::with_capacity(count);
    let mut epoch = plan.epochs as u64;
    let mut batches = batcher.epoch(train, epoch);
    while states.len() < count {
        let mut steps = 0;
        while steps < STEPS_PER_GENERATION {
            let next = {
                let _s = Span::enter("bench.data.next");
                batches.next()
            };
            let Some((x, labels)) = next else {
                epoch += 1;
                batches = batcher.epoch(train, epoch);
                continue;
            };
            {
                let _s = Span::enter("bench.nn.loss_backward");
                driven.net.loss_backward(&x, &labels);
            }
            let _s = Span::enter("bench.optim.step");
            driven.opt.step(driven.net.store_mut(), lr);
            steps += 1;
        }
        progress.next_epoch = plan.epochs + states.len() + 1;
        let _s = Span::enter("bench.core.capture");
        states.push(TrainState::capture(
            &driven.net,
            &driven.opt,
            cfg.shuffle_seed,
            &progress,
        ));
    }
    states
}

pub(crate) fn run(run: &Run) -> Res<Outcome> {
    let sizes = Sizes::new(run.scale, run.seconds);
    let swap = run.workload == Workload::ServeSwap;
    let mut out = Outcome::default();
    if run.trace {
        trace::start_tracing();
    }

    // The bench's own preparation, outside every measured window: train
    // the snapshot (and for serve-swap the generations to write), and
    // compute what each generation must answer.
    let plan = Plan::mlp(sizes.epochs, sizes.train_n, sizes.val_n);
    let (train, val) = plan.data(run.seed);
    let snap_dir = run.dir.join("snapshots");
    let mut snap_store = CheckpointStore::open(&snap_dir)
        .map_err(|e| e.to_string())?
        .keep(1);
    let mut driven = train::drive(&plan, (&train, &val), run.seed, &mut snap_store)?;
    train::check_invariants(&mut out, &driven.net, &driven.opt, plan.k);
    let base = {
        let _s = Span::enter("bench.core.load");
        snap_store.load_latest(&mut Telemetry::disabled())
    }
    .map_err(|e| e.to_string())?
    .ok_or("the snapshot run wrote no checkpoint")?;
    let mut pool = Pool::new(&val, sizes.pool, run.seed);
    pool.add_generation(&base, run.corrupt_expected)?;
    let generations = if swap {
        swap_generations(&mut driven, &plan, &train, run.seed, sizes.generations)
    } else {
        Vec::new()
    };
    for g in &generations {
        pool.add_generation(g, run.corrupt_expected)?;
    }
    if run.trace {
        note_infer_batches(&mut out, &base, &pool.x)?;
    }
    out.note(format!(
        "{}: snapshot epoch {} (k = {}), {} images, {} generations to write",
        run.workload.name(),
        base.progress.next_epoch,
        base.entries.len(),
        pool.labels.len(),
        generations.len()
    ));
    let pool = Arc::new(pool);

    let mut setups = Vec::new();
    let mut samples = Vec::new();
    if !run.trace {
        for _ in 0..SETUP_TRIALS {
            let (secs, sample) = setup_trial(&snap_dir, &pool)?;
            setups.push(secs);
            samples.push(sample);
        }
    }

    let server = start_server(&snap_dir)?;
    let addr = server.addr();
    for body in pool.bodies.iter().take(8) {
        let mut warm = HttpClient::connect(addr).map_err(|e| e.to_string())?;
        request(&mut warm, body).map_err(|e| format!("warm-up request failed: {e}"))?;
    }
    let mut writer = if swap {
        Some(Writer {
            store: CheckpointStore::open(&snap_dir)
                .map_err(|e| e.to_string())?
                .keep(3),
            generations: generations.into_iter(),
            rng: Xorshift64::new(run.seed ^ 0x5AA9_0000),
            next_ns: 0,
            written: Vec::new(),
        })
    } else {
        None
    };
    let clock = Stopwatch::started();
    let arrivals = poisson_schedule(OPEN_RPS, sizes.open_requests, run.seed ^ 0xA771_7A15);
    let open = (
        Phase::Open,
        Some(Arc::new(arrivals)),
        0,
        sizes.open_requests,
    );
    samples.extend(load(addr, clock, open, &pool, &mut writer)?);
    let closed = (
        Phase::Closed,
        None,
        sizes.open_requests,
        sizes.closed_requests,
    );
    samples.extend(load(addr, clock, closed, &pool, &mut writer)?);
    let _ = server.stop();
    let analysis = if run.trace {
        Some(finish_trace(&run.trace_path)?)
    } else {
        None
    };

    let (mut mismatched, mut unknown, mut refused, mut labelled) = (0u64, 0u64, 0u64, 0u64);
    let mut good = Vec::new();
    for s in &samples {
        match &s.reply {
            Ok(reply) => match pool.matches(s.image, reply) {
                Some(true) => {
                    labelled += u64::from(reply.argmax == pool.labels[s.image]);
                    good.push((reply, s.done_ns.saturating_sub(s.sent_ns), s.done_ns));
                }
                Some(false) => mismatched += 1,
                None => unknown += 1,
            },
            Err(_) => refused += 1,
        }
    }
    out.attempted = samples.len() as u64;
    out.failed = mismatched + unknown + refused;
    out.check(mismatched == 0, || {
        format!("{mismatched} replies differ from the expected logits")
    });
    out.check(unknown == 0, || {
        format!("{unknown} replies name a generation the bench did not write")
    });
    if let Some(Err(first)) = samples.iter().map(|s| &s.reply).find(|r| r.is_err()) {
        out.note(format!(
            "{refused} requests got no 200 reply; the first: {first}"
        ));
    }
    if let Some(w) = &writer {
        note_freshness(&mut out, &w.written, &good);
    }

    let phase_samples = |p: Phase| samples.iter().filter(move |s| s.phase == p);
    let open_latency = sorted(phase_samples(Phase::Open).map(Sample::latency_ms).collect());
    let late_max_ms = phase_samples(Phase::Open)
        .map(|s| s.sent_ns.saturating_sub(s.due_ns) as f64 / 1e6)
        .fold(0.0, f64::max);
    let closed_ns = phase_samples(Phase::Closed)
        .map(|s| s.done_ns)
        .max()
        .unwrap_or(0)
        - phase_samples(Phase::Closed)
            .map(|s| s.sent_ns)
            .min()
            .unwrap_or(0);
    let throughput = sizes.closed_requests as f64 / (closed_ns.max(1) as f64 / 1e9);
    out.note(format!(
        "open loop {OPEN_RPS} rps: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, generator late by at \
         most {late_max_ms:.3} ms; closed loop: {throughput:.1} replies/s",
        quantile(&open_latency, 0.5),
        quantile(&open_latency, 0.9),
        quantile(&open_latency, 0.99),
    ));

    if let Some(analysis) = analysis {
        note_trace(&mut out, &analysis, &run.trace_path);
        train::layer_metrics(&mut out, &analysis, &driven);
        let replies: Vec<(&InferReply, u64)> = good.iter().map(|&(r, rtt, _)| (r, rtt)).collect();
        layer_metrics(&mut out, &replies);
        return Ok(out);
    }
    out.metric("setup_s", "s", quantile(&sorted(setups), 0.5));
    out.metric("latency_p50_ms", "ms", quantile(&open_latency, 0.5));
    out.metric("latency_p90_ms", "ms", quantile(&open_latency, 0.9));
    out.metric("throughput_per_s", "1/s", throughput);
    out.metric(
        "accuracy",
        "fraction",
        labelled as f64 / good.len().max(1) as f64,
    );
    out.metric("peak_rss_mb", "MiB", peak_rss_mb()?);
    Ok(out)
}

/// For each write, the time from its `save` returning to the first reply
/// naming that generation or a later one.
fn note_freshness(out: &mut Outcome, written: &[(usize, u64)], good: &[(&InferReply, u64, u64)]) {
    let mut by_done: Vec<(u64, usize)> = good.iter().map(|&(r, _, done)| (done, r.epoch)).collect();
    by_done.sort_unstable();
    let visible = sorted(
        written
            .iter()
            .filter_map(|&(generation, saved)| {
                by_done
                    .iter()
                    .find(|&&(done, epoch)| done >= saved && epoch >= generation)
                    .map(|&(done, _)| (done - saved) as f64 / 1e6)
            })
            .collect(),
    );
    out.note(format!(
        "swap visible: p50 {:.1} ms, p90 {:.1} ms over {} of {} writes",
        quantile(&visible, 0.5),
        quantile(&visible, 0.9),
        visible.len(),
        written.len()
    ));
}

/// Mean `ServingModel::infer` time at batch 1 and 2 — what the server
/// pays per micro-batch with two connections.
fn note_infer_batches(out: &mut Outcome, state: &TrainState, x: &Tensor) -> Res<()> {
    let model = ServingModel::from_state(state, "digest").map_err(|e| e.to_string())?;
    let width = x.data().len() / x.shape()[0];
    for batch in [1usize, 2] {
        let rows = Tensor::from_vec(vec![batch, width], x.data()[..batch * width].to_vec());
        let sw = Stopwatch::started();
        for _ in 0..20 {
            model.infer(&rows).map_err(|e| e.to_string())?;
        }
        out.note(format!(
            "ServingModel::infer at batch {batch}: {:.3} ms",
            sw.elapsed_ns().unwrap_or(0) as f64 / 20.0 / 1e6
        ));
    }
    Ok(())
}

/// The serving-layer half of the per-layer metrics, from verified replies
/// and their client round trips in ns; all 0 when nothing was served.
pub(crate) fn layer_metrics(out: &mut Outcome, replies: &[(&InferReply, u64)]) {
    let rtt = replies
        .iter()
        .map(|&(_, rtt)| rtt as f64)
        .sum::<f64>()
        .max(1.0);
    let queue = replies.iter().map(|(r, _)| r.queue_ns as f64).sum::<f64>() / rtt;
    let infer = replies.iter().map(|(r, _)| r.infer_ns as f64).sum::<f64>() / rtt;
    let transport = if replies.is_empty() {
        0.0
    } else {
        (1.0 - queue - infer).max(0.0)
    };
    let fills: Vec<f64> = replies.iter().map(|(r, _)| r.batch as f64).collect();
    let generations: BTreeSet<usize> = replies.iter().map(|(r, _)| r.epoch).collect();
    out.metric("serve.queue_share", "fraction", queue);
    out.metric("serve.infer_share", "fraction", infer);
    out.metric("serve.transport_share", "fraction", transport);
    out.metric("serve.batch_fill", "count", mean(&fills));
    out.metric("serve.generations_seen", "count", generations.len() as f64);
}
