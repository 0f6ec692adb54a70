//! End-to-end hot-swap correctness over real HTTP.
//!
//! The contract under test: a reply from the server is bit-identical to
//! the eval forward (`Network::forward(x, Mode::Eval)`) of the training
//! network the snapshot was captured from — for the boot checkpoint, for
//! a newer checkpoint after a live hot swap, and *still* for the old
//! checkpoint when the newest file on disk is torn (the corruption
//! fallback must skip it, never serve it).

use dropback::telemetry::{Json, Telemetry};
use dropback::{CheckpointStore, FaultInjector, FaultMode, TrainProgress, TrainState};
use dropback_nn::{models, Mode, Network};
use dropback_optim::{DropBack, Optimizer};
use dropback_serve::{BatchConfig, HttpClient, InferReply, Server, ServerConfig};
use dropback_tensor::Tensor;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A deterministic training network whose weights depend visibly on
/// `epoch`, so generations produce different logits.
fn trained(epoch: usize, seed: u64) -> (Network, DropBack) {
    let mut net = models::mnist_100_100(seed);
    let mut opt = DropBack::new(500);
    opt.step(net.store_mut(), 0.0);
    for i in 0..64 {
        net.store_mut().params_mut()[i * 139] = epoch as f32 * 0.5 + i as f32 * 0.02 - 0.3;
    }
    (net, opt)
}

/// The snapshot of [`trained`]`(epoch, seed)`.
fn state_at(epoch: usize, seed: u64) -> TrainState {
    let (net, opt) = trained(epoch, seed);
    let progress = TrainProgress {
        next_epoch: epoch,
        ..TrainProgress::fresh()
    };
    TrainState::capture(&net, &opt, seed, &progress)
}

/// Ground truth: the training network's own eval forward, no snapshot
/// and no server involved.
fn direct_logits(epoch: usize, seed: u64, input: &[f32]) -> Vec<f32> {
    let (mut net, _) = trained(epoch, seed);
    let x = Tensor::from_vec(vec![1, input.len()], input.to_vec());
    net.forward(&x, Mode::Eval).data().to_vec()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

fn probe_input(dims: usize) -> Vec<f32> {
    (0..dims)
        .map(|i| ((i * 37) % 113) as f32 / 113.0 - 0.4)
        .collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dropback-hot-swap-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Dies mid-write under the *committed* snapshot name — the corrupt-file
/// shape the store's own atomic writer can never produce, simulating a
/// foreign writer or bit rot.
fn write_torn_snapshot(dir: &Path, state: &TrainState, keep_bytes: u64) {
    let path = dir.join(format!("state-{:08}.dbk2", state.progress.next_epoch));
    let file = std::fs::File::create(&path).unwrap();
    let mut sink = FaultInjector::new(file, FaultMode::FailWriteAfter(keep_bytes));
    let _ = state.write_to(&mut sink);
    let _ = sink.flush();
}

fn healthz_epoch(client: &mut HttpClient) -> Option<u64> {
    let resp = client.get("/healthz").ok()?;
    Json::parse(&resp.body)
        .ok()?
        .get("epoch")
        .and_then(|e| e.as_u64())
}

/// Polls `/healthz` on fresh connections until the served epoch matches,
/// bounded so a broken watcher fails the test instead of hanging it.
fn wait_for_epoch(addr: std::net::SocketAddr, want: u64) {
    for _ in 0..600 {
        let mut c = HttpClient::connect(addr).unwrap();
        if healthz_epoch(&mut c) == Some(want) {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("server never started serving epoch {want}");
}

fn counter(metrics_body: &str, name: &str) -> u64 {
    Json::parse(metrics_body)
        .ok()
        .and_then(|j| {
            j.get("counters")
                .and_then(|c| c.get(name).and_then(|v| v.as_u64()))
        })
        .unwrap_or(0)
}

#[test]
fn replies_stay_bit_identical_to_direct_inference_across_swaps_and_corruption() {
    let dir = tmp_dir("main");
    let seed = 0xD120_BACC;
    let state1 = state_at(1, seed);
    let state2 = state_at(2, seed);

    let mut store = CheckpointStore::open(&dir).unwrap().keep(10);
    let mut tel = Telemetry::disabled();
    store.save(&state1, &mut tel).unwrap();

    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        batch: BatchConfig {
            max_batch: 4,
            flush: Duration::from_millis(1),
            queue_cap: 64,
        },
        poll: Duration::from_millis(10),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, CheckpointStore::open(&dir).unwrap().keep(10)).unwrap();
    let addr = server.addr();
    let input = probe_input(784);

    // Phase 1: the boot checkpoint serves exactly what the training
    // network's eval forward computes.
    let mut client = HttpClient::connect(addr).unwrap();
    let reply: InferReply = client.infer(&input).unwrap();
    assert_eq!(reply.epoch, 1);
    assert_eq!(reply.logits.len(), 10);
    assert_eq!(
        bits(&reply.logits),
        bits(&direct_logits(1, seed, &input)),
        "served logits must be bit-identical to direct inference (epoch 1)"
    );

    // Phase 2: a newer snapshot lands through the store's atomic writer;
    // the watcher hot-swaps and replies flip to the new generation —
    // still bit-identical, and provably different from epoch 1's.
    store.save(&state2, &mut tel).unwrap();
    wait_for_epoch(addr, 2);
    let reply2 = client.infer(&input).unwrap();
    assert_eq!(reply2.epoch, 2);
    assert_eq!(
        bits(&reply2.logits),
        bits(&direct_logits(2, seed, &input)),
        "served logits must be bit-identical to direct inference (epoch 2)"
    );
    assert_ne!(
        bits(&reply2.logits),
        bits(&reply.logits),
        "the two generations must actually differ or the swap proves nothing"
    );

    // Phase 3: the newest file on disk is torn. The watcher's fallback
    // must skip it (counted as rejected) and keep serving epoch 2
    // bit-for-bit; the torn generation must never appear in /healthz.
    write_torn_snapshot(&dir, &state_at(3, seed), 64);
    let mut metrics = String::new();
    for _ in 0..600 {
        metrics = client.get("/metrics").unwrap().body;
        if counter(&metrics, "serve.swap_rejected") >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        counter(&metrics, "serve.swap_rejected") >= 1,
        "watcher never rejected the torn snapshot: {metrics}"
    );
    assert_eq!(healthz_epoch(&mut client), Some(2));
    let reply3 = client.infer(&input).unwrap();
    assert_eq!(reply3.epoch, 2, "torn snapshot must not be served");
    assert_eq!(bits(&reply3.logits), bits(&reply2.logits));

    // Teardown: clean shutdown, and the digest agrees with what happened.
    let digest = server.stop();
    let json = Json::parse(&digest.to_json().render()).unwrap();
    let dig_counter = |name: &str| {
        json.get("counters")
            .and_then(|c| c.get(name).and_then(|v| v.as_u64()))
            .unwrap_or(0)
    };
    assert_eq!(dig_counter("serve.swaps"), 1);
    let densified = json
        .get("histograms")
        .and_then(|h| h.get("serve.densify_ns"))
        .and_then(|h| h.get("count"))
        .and_then(|c| c.as_u64());
    assert_eq!(densified, Some(2), "one densify at boot, one per swap");
    assert!(dig_counter("serve.swap_rejected") >= 1);
    assert!(dig_counter("serve.requests") >= 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn requests_in_flight_during_a_swap_complete_on_a_single_generation() {
    let dir = tmp_dir("inflight");
    let seed = 0xA11CE;
    let mut store = CheckpointStore::open(&dir).unwrap().keep(10);
    let mut tel = Telemetry::disabled();
    store.save(&state_at(1, seed), &mut tel).unwrap();

    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        batch: BatchConfig {
            max_batch: 8,
            flush: Duration::from_millis(1),
            queue_cap: 64,
        },
        poll: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, CheckpointStore::open(&dir).unwrap().keep(10)).unwrap();
    let addr = server.addr();
    let expect: Vec<Vec<u32>> = (1..=2)
        .map(|e| bits(&direct_logits(e, seed, &probe_input(784))))
        .collect();

    // Hammer /infer from several closed-loop clients while the snapshot
    // flips underneath them: every reply must match one generation's
    // direct logits exactly — never a blend, never a torn generation.
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let expect = expect.clone();
            std::thread::spawn(move || {
                let input = probe_input(784);
                let mut client = HttpClient::connect(addr).unwrap();
                for _ in 0..50 {
                    let reply = client.infer(&input).unwrap();
                    let got = bits(&reply.logits);
                    assert_eq!(
                        got,
                        expect[reply.epoch - 1],
                        "reply claims epoch {} but logits do not match it",
                        reply.epoch
                    );
                }
            })
        })
        .collect();
    store.save(&state_at(2, seed), &mut tel).unwrap();
    for w in workers {
        w.join().unwrap();
    }
    wait_for_epoch(addr, 2);

    let digest = server.stop();
    let json = Json::parse(&digest.to_json().render()).unwrap();
    let requests = json
        .get("counters")
        .and_then(|c| c.get("serve.requests").and_then(|v| v.as_u64()))
        .unwrap_or(0);
    assert_eq!(requests, 200);
    let _ = std::fs::remove_dir_all(&dir);
}
