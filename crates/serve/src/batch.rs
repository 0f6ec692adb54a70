//! Micro-batching: many concurrent requests, one forward pass.
//!
//! Handler threads park each request in a bounded queue; a single batch
//! worker drains it into one batched [`crate::ServingModel::infer`] call
//! the moment either the batch is full or the oldest queued request has
//! waited out the flush deadline. The forward is one GEMM per layer over
//! the generation's densified weights, so `n` riders share one pass
//! (`serve.batch_fill` vs `serve.requests` in the telemetry digest).
//!
//! The model is resolved **at flush time**, not at submit time: a batch
//! always evaluates against one single generation, so a hot-swap can
//! never split a batch across two models.

use crate::clock::Deadline;
use crate::error::ServeError;
use crate::model::ModelSlot;
use crate::rt::{self, Monitor};
use dropback_telemetry::{trace, Collector, Span, Stopwatch};
use dropback_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Knobs for the batching queue.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Flush as soon as this many requests are queued.
    pub max_batch: usize,
    /// Flush when the first request of a forming batch has waited this
    /// long, even if the batch is not full.
    pub flush: Duration,
    /// Requests queued beyond this bound are refused with
    /// [`ServeError::Overloaded`] (HTTP 503) instead of growing the queue
    /// without limit.
    pub queue_cap: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            flush: Duration::from_millis(2),
            queue_cap: 256,
        }
    }
}

/// What a request gets back from a flushed batch.
#[derive(Debug, Clone, PartialEq)]
pub struct InferReply {
    /// Class logits, bit-identical to the trainer's eval forward of the
    /// network the serving snapshot was captured from.
    pub logits: Vec<f32>,
    /// Index of the largest logit (first wins ties).
    pub argmax: usize,
    /// Epoch of the model generation that evaluated the request.
    pub epoch: usize,
    /// Size of the micro-batch this request rode in.
    pub batch: usize,
    /// Id of the micro-batch this request rode in (0 = unknown, e.g. a
    /// reply parsed from an older server).
    pub batch_id: u64,
    /// Nanoseconds this request waited in the queue before its batch
    /// flushed (0 = unknown).
    pub queue_ns: u64,
    /// Nanoseconds the batched forward took — shared by every rider of
    /// the batch (0 = unknown).
    pub infer_ns: u64,
}

/// A one-shot slot the submitting thread parks on until its batch lands.
#[derive(Debug, Default)]
struct ReplySlot {
    value: Monitor<Option<Result<InferReply, ServeError>>>,
}

impl ReplySlot {
    fn fulfill(&self, r: Result<InferReply, ServeError>) {
        self.value.update(|v| *v = Some(r));
    }

    fn wait(&self) -> Result<InferReply, ServeError> {
        self.value.wait_for(Option::take)
    }
}

struct Pending {
    /// The request id threaded from the accept loop; keys this request's
    /// `serve.queue` trace lane and its access-log record.
    id: u64,
    /// Whether this request's lanes go to the trace buffer — snapshotted
    /// once when the request entered the server, so a lane whose begin
    /// and end straddle a tracing toggle still pairs up (see
    /// [`trace::async_begin_for`]).
    traced: bool,
    input: Vec<f32>,
    reply: Arc<ReplySlot>,
    /// Shed the request unevaluated if this passes before its batch
    /// flushes — a backlog must never spend a forward pass on a reply
    /// nobody is waiting for anymore.
    deadline: Option<Deadline>,
    /// Measures queue wait from enqueue to dequeue (`serve.queue_ns`).
    queued: Stopwatch,
}

struct QueueState {
    queue: VecDeque<Pending>,
    shutdown: bool,
}

/// The bounded request queue plus its flush conditions.
pub struct BatchQueue {
    state: Monitor<QueueState>,
    cfg: BatchConfig,
}

impl std::fmt::Debug for BatchQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchQueue")
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl BatchQueue {
    /// An empty queue with the given knobs.
    pub fn new(cfg: BatchConfig) -> Self {
        Self {
            state: Monitor::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            cfg,
        }
    }

    /// The queue's configuration.
    pub fn config(&self) -> &BatchConfig {
        &self.cfg
    }

    /// Queues one input and blocks until its micro-batch has been
    /// evaluated, returning this request's row of the batched forward.
    /// A `deadline` caps how stale the request may get: if it passes
    /// before the batch flushes, the worker sheds the request without
    /// evaluating it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the queue is at capacity,
    /// [`ServeError::DeadlineExceeded`] when the deadline passes while
    /// queued, [`ServeError::ShuttingDown`] when the server stops before
    /// the request is evaluated, [`ServeError::BadRequest`] when the
    /// input width does not match the model, and evaluation errors
    /// propagated from the worker.
    pub fn submit(
        &self,
        id: u64,
        traced: bool,
        input: Vec<f32>,
        deadline: Option<Deadline>,
    ) -> Result<InferReply, ServeError> {
        let reply = Arc::new(ReplySlot::default());
        self.state.update(|s| {
            if s.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if s.queue.len() >= self.cfg.queue_cap {
                return Err(ServeError::Overloaded);
            }
            // The lane opens under the lock: the worker cannot dequeue
            // (and emit the matching `e`) until this closure returns, so
            // `b` always precedes `e` — on the trace clock and in the
            // flight recorder's claim order alike.
            trace::async_begin_for(traced, "serve.queue", id, &[]);
            s.queue.push_back(Pending {
                id,
                traced,
                input,
                reply: Arc::clone(&reply),
                deadline,
                queued: Stopwatch::started(),
            });
            Ok(())
        })?;
        reply.wait()
    }

    /// Trips shutdown: queued-but-unevaluated requests are refused with
    /// [`ServeError::ShuttingDown`] and the worker exits.
    pub fn stop(&self) {
        self.state.update(|s| {
            s.shutdown = true;
            for p in s.queue.drain(..) {
                // Close each refused request's queue lane so a trace cut
                // by shutdown still balances: every `Pending` is
                // fulfilled exactly once, here or in `run_batch`.
                trace::async_end_for(p.traced, "serve.queue", p.id, &[]);
                p.reply.fulfill(Err(ServeError::ShuttingDown));
            }
        });
    }

    /// Blocks until a batch is ready per the flush rules, returning
    /// `None` on shutdown. A returned batch is non-empty and at most
    /// `max_batch` long.
    fn next_batch(&self) -> Option<Vec<Pending>> {
        // Phase 1: wait for the first request (or shutdown). Only this
        // worker drains the queue, so once non-empty it stays non-empty
        // until the drain below.
        let alive = self
            .state
            .wait_for(|s| match (s.shutdown, s.queue.is_empty()) {
                (true, _) => Some(false),
                (false, false) => Some(true),
                (false, true) => None,
            });
        if !alive {
            return None;
        }
        // Phase 2: the flush window — fill up to max_batch or deadline.
        let max = self.cfg.max_batch;
        self.state.wait_for_within(self.cfg.flush, |s| {
            (s.shutdown || s.queue.len() >= max).then_some(())
        });
        self.state.with(|s| {
            if s.shutdown {
                // stop() already refused everything still queued.
                return None;
            }
            let n = s.queue.len().min(max);
            Some(s.queue.drain(..n).collect())
        })
    }

    /// Evaluates one batch against the generation current at flush time.
    fn run_batch(&self, batch: Vec<Pending>, slot: &ModelSlot, collector: &Collector) {
        let model = slot.get();
        let in_dim = model.in_dim();
        let out_dim = model.out_dim();

        // Width-check every request against *this* generation; mismatches
        // are refused individually so the rest of the batch still runs.
        // Every dequeued request leaves the `serve.queue` lane here —
        // shed, refused, or riding — so request timelines stay balanced
        // no matter which exit a request takes.
        let mut rows = Vec::with_capacity(batch.len());
        let mut flat = Vec::with_capacity(batch.len() * in_dim);
        for p in batch {
            let queue_ns = p.queued.elapsed_ns().unwrap_or(0);
            trace::async_end_for(p.traced, "serve.queue", p.id, &[]);
            collector
                .histogram("serve.queue_ns")
                .record(queue_ns as f64);
            // Shed expired requests *before* inference: their handlers
            // answer 503, and the forward pass never pays for them.
            if p.deadline.is_some_and(|d| d.expired()) {
                collector.counter("serve.batch_expired").inc();
                p.reply.fulfill(Err(ServeError::DeadlineExceeded));
                continue;
            }
            if p.input.len() != in_dim {
                p.reply.fulfill(Err(ServeError::BadRequest(format!(
                    "input has {} features, model {} (epoch {}) expects {in_dim}",
                    p.input.len(),
                    model.name(),
                    model.epoch()
                ))));
                continue;
            }
            flat.extend_from_slice(&p.input);
            rows.push((p.id, p.traced, p.reply, queue_ns));
        }
        let n = rows.len();
        if n == 0 {
            return;
        }

        let batch_id = rt::next_batch_id();
        let _span = Span::enter("serve.batch");
        for (id, traced, _, _) in &rows {
            trace::async_begin_for(
                *traced,
                "serve.infer",
                *id,
                &[("batch_id", batch_id as f64)],
            );
        }
        let watch = Stopwatch::started();
        let result = model.infer(&Tensor::from_vec(vec![n, in_dim], flat));
        let infer_ns = watch.elapsed_ns().unwrap_or(0);
        for (id, traced, _, _) in &rows {
            trace::async_end_for(*traced, "serve.infer", *id, &[]);
            collector
                .histogram("serve.infer_ns")
                .record(infer_ns as f64);
        }
        collector
            .histogram("serve.batch_ns")
            .record(infer_ns as f64);
        collector.histogram("serve.batch_fill").record(n as f64);
        collector.counter("serve.batches").inc();
        trace::record_counter("serve.batch_fill", n as f64);

        // One instant per flushed batch: the fill/generation annotations
        // the batch-fill digest in `dropback-trace` aggregates over time.
        trace::async_instant(
            "serve.batch",
            batch_id,
            &[("fill", n as f64), ("epoch", model.epoch() as f64)],
        );

        match result {
            Ok((y, argmaxes)) => {
                let logits = y.data().chunks_exact(out_dim);
                for (((_, _, reply, queue_ns), logits), argmax) in
                    rows.into_iter().zip(logits).zip(argmaxes)
                {
                    reply.fulfill(Ok(InferReply {
                        logits: logits.to_vec(),
                        argmax,
                        epoch: model.epoch(),
                        batch: n,
                        batch_id,
                        queue_ns,
                        infer_ns,
                    }));
                }
            }
            Err(e) => {
                collector.counter("serve.batch_failed").inc();
                let msg = match e {
                    ServeError::BadRequest(msg) => msg,
                    e => e.to_string(),
                };
                for (_, _, reply, _) in rows {
                    reply.fulfill(Err(ServeError::BadRequest(msg.clone())));
                }
            }
        }
    }

    /// Spawns the batch worker thread. It drains the queue until
    /// [`BatchQueue::stop`] is called.
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the thread cannot be created.
    pub fn start_worker(
        self: &Arc<Self>,
        slot: Arc<ModelSlot>,
        collector: Arc<Collector>,
    ) -> std::io::Result<rt::JoinHandle> {
        let queue = Arc::clone(self);
        rt::spawn("batch", move || {
            while let Some(batch) = queue.next_batch() {
                queue.run_batch(batch, &slot, &collector);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelSlot, ServingModel};
    use dropback::{TrainProgress, TrainState};
    use dropback_nn::models;
    use dropback_optim::{DropBack, Optimizer};

    fn slot() -> Arc<ModelSlot> {
        let mut net = models::mnist_100_100(21);
        let mut opt = DropBack::new(100);
        opt.step(net.store_mut(), 0.0);
        let state = TrainState::capture(&net, &opt, 1, &TrainProgress::fresh());
        Arc::new(ModelSlot::new(
            ServingModel::from_state(&state, "/tmp/t").unwrap(),
        ))
    }

    #[test]
    fn submitted_requests_come_back_with_logits() {
        let q = Arc::new(BatchQueue::new(BatchConfig {
            max_batch: 4,
            flush: Duration::from_millis(1),
            queue_cap: 16,
        }));
        let collector = Arc::new(Collector::new());
        let worker = q.start_worker(slot(), Arc::clone(&collector)).unwrap();

        let reply = q.submit(1, false, vec![0.1; 784], None).unwrap();
        assert_eq!(reply.logits.len(), 10);
        assert!(reply.argmax < 10);
        assert!(reply.batch >= 1);
        assert_ne!(reply.batch_id, 0, "every flushed batch is numbered");
        assert!(
            reply.infer_ns > 0,
            "the batched forward's duration rides the reply"
        );
        assert_eq!(collector.counter("serve.batches").get(), 1);
        assert_eq!(
            collector.histogram("serve.queue_ns").count(),
            1,
            "queue wait is recorded per dequeued request"
        );
        assert_eq!(collector.histogram("serve.infer_ns").count(), 1);

        q.stop();
        worker.join().unwrap();
    }

    #[test]
    fn full_batches_flush_without_waiting_for_the_deadline() {
        let q = Arc::new(BatchQueue::new(BatchConfig {
            max_batch: 2,
            // A deadline long enough that only the size trigger can
            // plausibly flush within the test's runtime.
            flush: Duration::from_secs(5),
            queue_cap: 16,
        }));
        let collector = Arc::new(Collector::new());
        let worker = q.start_worker(slot(), Arc::clone(&collector)).unwrap();

        let q2 = Arc::clone(&q);
        let peer = rt::spawn("peer", move || {
            q2.submit(2, false, vec![0.2; 784], None).unwrap();
        })
        .unwrap();
        let reply = q.submit(3, false, vec![0.1; 784], None).unwrap();
        peer.join().unwrap();
        assert_eq!(reply.batch, 2, "both requests must ride one batch");

        q.stop();
        worker.join().unwrap();
    }

    #[test]
    fn wrong_width_is_refused_per_request_not_per_batch() {
        let q = Arc::new(BatchQueue::new(BatchConfig {
            max_batch: 2,
            flush: Duration::from_secs(5),
            queue_cap: 16,
        }));
        let collector = Arc::new(Collector::new());
        let worker = q.start_worker(slot(), Arc::clone(&collector)).unwrap();

        let q2 = Arc::clone(&q);
        let bad = rt::spawn("bad", move || {
            let err = q2.submit(4, false, vec![0.5; 3], None).unwrap_err();
            assert_eq!(err.http_status(), 400);
            assert!(err.to_string().contains("784"));
        })
        .unwrap();
        let good = q.submit(5, false, vec![0.1; 784], None).unwrap();
        bad.join().unwrap();
        assert_eq!(good.logits.len(), 10, "good request survives a bad peer");

        q.stop();
        worker.join().unwrap();
    }

    #[test]
    fn expired_requests_are_shed_before_inference_peers_still_run() {
        let q = Arc::new(BatchQueue::new(BatchConfig {
            max_batch: 2,
            flush: Duration::from_secs(5),
            queue_cap: 16,
        }));
        let collector = Arc::new(Collector::new());
        let worker = q.start_worker(slot(), Arc::clone(&collector)).unwrap();

        // An already-expired deadline: the worker must shed it without
        // spending a forward pass, while its fresh peer still evaluates.
        let q2 = Arc::clone(&q);
        let expired = rt::spawn("expired", move || {
            let err = q2
                .submit(
                    6,
                    false,
                    vec![0.3; 784],
                    Some(Deadline::after(Duration::ZERO)),
                )
                .unwrap_err();
            assert!(matches!(err, ServeError::DeadlineExceeded), "{err}");
            assert_eq!(err.http_status(), 503);
        })
        .unwrap();
        let fresh = q
            .submit(
                7,
                false,
                vec![0.1; 784],
                Some(Deadline::after(Duration::from_secs(60))),
            )
            .unwrap();
        expired.join().unwrap();
        assert_eq!(fresh.logits.len(), 10, "fresh peer survives a shed one");
        assert_eq!(collector.counter("serve.batch_expired").get(), 1);

        q.stop();
        worker.join().unwrap();
    }

    #[test]
    fn request_lanes_balance_in_the_exported_trace() {
        use dropback_telemetry::trace::{self, TracePhase};

        let q = Arc::new(BatchQueue::new(BatchConfig {
            max_batch: 2,
            flush: Duration::from_secs(5),
            queue_cap: 16,
        }));
        let collector = Arc::new(Collector::new());
        let worker = q.start_worker(slot(), Arc::clone(&collector)).unwrap();

        // Ids far above anything the global counter reaches in this test
        // binary, so concurrent server tests cannot collide with them.
        const A: u64 = 900_001;
        const B: u64 = 900_002;
        let _ = trace::take_trace();
        trace::start_tracing();
        let q2 = Arc::clone(&q);
        let peer = rt::spawn("peer", move || {
            q2.submit(B, true, vec![0.2; 784], None).unwrap();
        })
        .unwrap();
        let reply = q.submit(A, true, vec![0.1; 784], None).unwrap();
        peer.join().unwrap();
        trace::stop_tracing();

        let records = trace::take_trace();
        // Each request's queue and infer lanes open and close exactly once.
        for (lane, id) in [
            ("serve.queue", A),
            ("serve.queue", B),
            ("serve.infer", A),
            ("serve.infer", B),
        ] {
            let phases: Vec<_> = records
                .iter()
                .filter(|r| r.name == lane && r.id == Some(id))
                .map(|r| r.phase)
                .collect();
            assert_eq!(
                phases,
                vec![TracePhase::AsyncBegin, TracePhase::AsyncEnd],
                "{lane} lane for id {id}"
            );
        }
        // The flushed batch dropped one instant carrying its fill.
        let instant = records
            .iter()
            .find(|r| r.name == "serve.batch" && r.id == Some(reply.batch_id))
            .expect("batch instant");
        assert_eq!(instant.phase, TracePhase::AsyncInstant);
        assert!(instant.args.contains(&("fill", 2.0)));

        q.stop();
        worker.join().unwrap();
    }

    #[test]
    fn overload_and_shutdown_are_refusals_not_hangs() {
        let q = BatchQueue::new(BatchConfig {
            max_batch: 8,
            flush: Duration::from_millis(1),
            queue_cap: 0,
        });
        // No worker running: capacity zero refuses immediately.
        assert!(matches!(
            q.submit(8, false, vec![0.0; 784], None),
            Err(ServeError::Overloaded)
        ));
        q.stop();
        assert!(matches!(
            q.submit(9, false, vec![0.0; 784], None),
            Err(ServeError::ShuttingDown)
        ));
    }
}
