//! Deterministic chaos: the server under hostile clients and injected
//! socket faults.
//!
//! The contract under test, end to end over real sockets:
//!
//! * the server **never crashes or wedges** — after every abuse scenario
//!   a fresh `/healthz` on a fresh connection answers 200,
//! * overload is **shed, not queued to death** — refusals are `503` with
//!   a `Retry-After` hint, counted under `serve.shed.*`,
//! * whatever *does* get a 200 is **bit-identical** to the eval forward
//!   of the training network the snapshot was captured from — faults may
//!   cost requests, never answers,
//! * shutdown under load **drains**: in-flight requests finish, late
//!   arrivals are shed, and the digest says which was which.
//!
//! Faults come from [`dropback::FaultPlan`] — seeded or scripted, both
//! replayable — threaded into the server's accept path via
//! [`dropback_serve::ChaosHook`].

use dropback::telemetry::{Json, Telemetry};
use dropback::{CheckpointStore, FaultAction, FaultPlan, TrainProgress, TrainState};
use dropback_nn::{models, Mode, Network};
use dropback_optim::{DropBack, Optimizer};
use dropback_serve::{Backoff, BatchConfig, ChaosHook, HttpClient, Server, ServerConfig};
use dropback_tensor::Tensor;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A deterministic training network and its epoch-1 snapshot; logits
/// depend on the seed.
fn trained(seed: u64) -> (Network, TrainState) {
    let mut net = models::mnist_100_100(seed);
    let mut opt = DropBack::new(500);
    opt.step(net.store_mut(), 0.0);
    let progress = TrainProgress {
        next_epoch: 1,
        ..TrainProgress::fresh()
    };
    let state = TrainState::capture(&net, &opt, seed, &progress);
    (net, state)
}

/// Ground truth: the training network's own eval forward.
fn direct_logits(net: &mut Network, input: &[f32]) -> Vec<f32> {
    let x = Tensor::from_vec(vec![1, input.len()], input.to_vec());
    net.forward(&x, Mode::Eval).data().to_vec()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

fn probe_input(dims: usize) -> Vec<f32> {
    (0..dims)
        .map(|i| ((i * 41) % 127) as f32 / 127.0 - 0.5)
        .collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dropback-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Boots a server over a freshly seeded snapshot dir, returning the
/// training network the snapshot was captured from.
fn boot(tag: &str, seed: u64, cfg: ServerConfig) -> (Server, Network, PathBuf) {
    let dir = tmp_dir(tag);
    let (net, state) = trained(seed);
    let mut store = CheckpointStore::open(&dir).unwrap().keep(10);
    store.save(&state, &mut Telemetry::disabled()).unwrap();
    let server = Server::start(cfg, CheckpointStore::open(&dir).unwrap().keep(10)).unwrap();
    (server, net, dir)
}

fn assert_live(addr: std::net::SocketAddr) {
    let mut c = HttpClient::connect(addr).unwrap();
    assert_eq!(c.get("/healthz").unwrap().status, 200, "server not live");
}

fn counter(snap: &dropback::telemetry::TelemetrySnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

#[test]
fn slow_loris_costs_one_timeout_not_the_server() {
    let cfg = ServerConfig {
        io_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let (server, _, dir) = boot("loris", 0x10_0515, cfg);
    let addr = server.addr();

    // Half a request line, then silence: the peer never finishes.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(b"GET /heal").unwrap();
    std::thread::sleep(Duration::from_millis(300));
    // By now the server must have timed the read out and hung up; the
    // stalled socket reports EOF (or a reset) rather than blocking us.
    let mut rest = Vec::new();
    let _ = loris.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = loris.read_to_end(&mut rest);
    assert!(rest.is_empty(), "a half-sent request must earn no reply");

    assert_live(addr);
    let snap = server.stop();
    assert!(
        counter(&snap, "serve.timeout.read") >= 1,
        "the stalled read was not counted: {:?}",
        snap.counters
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_body_hangup_and_protocol_garbage_are_survived() {
    let (server, _, dir) = boot("hangup", 0xBAD_FEED, ServerConfig::default());
    let addr = server.addr();

    // Declared 4096 bytes, sent 14, vanished.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /infer HTTP/1.1\r\ncontent-length: 4096\r\n\r\n{\"input\":[0.1,")
            .unwrap();
    }
    // Pure line noise.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"\x00\x01\x02 not http at all\r\n\r\n")
            .unwrap();
    }
    assert_live(addr);
    let snap = server.stop();
    assert!(counter(&snap, "serve.connections") >= 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_body_and_headers_are_typed_refusals_on_the_wire() {
    let (server, _, dir) = boot("oversize", 0x0B_E5E, ServerConfig::default());
    let addr = server.addr();

    // A body the server would never accept: refused from the declared
    // length alone, before any of it is read.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"POST /infer HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n")
        .unwrap();
    let mut reply = String::new();
    let _ = s.take(64).read_to_string(&mut reply);
    assert!(
        reply.starts_with("HTTP/1.1 413"),
        "oversized body answered {reply:?}"
    );

    // A header line past the 8 KiB bound is a 431. The server refuses as
    // soon as the line crosses the limit, so stop writing there (pushing
    // more after the refusal just turns the close into a reset) and read.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\nx-padding: ")
        .unwrap();
    let _ = s.write_all(&vec![b'a'; 8300]);
    let mut reply = String::new();
    let _ = s.take(64).read_to_string(&mut reply);
    assert!(
        reply.starts_with("HTTP/1.1 431"),
        "oversized header answered {reply:?}"
    );

    assert_live(addr);
    let _ = server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flood twice the queue's size: some requests are shed with 503 +
/// `Retry-After`, and every 200 is bit-identical to direct inference.
#[test]
fn overload_sheds_cleanly_and_successes_stay_bit_identical() {
    let cfg = ServerConfig {
        batch: BatchConfig {
            max_batch: 2,
            flush: Duration::from_millis(40),
            queue_cap: 2,
        },
        ..ServerConfig::default()
    };
    let (server, mut net, dir) = boot("flood", 0xF100D, cfg);
    let addr = server.addr();
    let input = probe_input(784);
    let want = bits(&direct_logits(&mut net, &input));

    let clients = 12;
    let barrier = Arc::new(Barrier::new(clients));
    let mut handles = Vec::new();
    for _ in 0..clients {
        let barrier = Arc::clone(&barrier);
        let input = input.clone();
        handles.push(std::thread::spawn(move || {
            let mut c = HttpClient::connect(addr).unwrap();
            barrier.wait();
            let body = dropback_serve::client::infer_body(&input);
            let resp = c.post("/infer", &body).unwrap();
            match resp.status {
                200 => {
                    let reply = dropback_serve::client::parse_reply(&resp.body).unwrap();
                    (Some(reply.logits), false)
                }
                503 => {
                    assert_eq!(
                        resp.header("retry-after"),
                        Some("1"),
                        "a shed without a retry hint"
                    );
                    (None, true)
                }
                other => panic!("unexpected status {other}: {}", resp.body),
            }
        }));
    }
    let mut ok = 0;
    let mut shed = 0;
    for h in handles {
        let (logits, was_shed) = h.join().unwrap();
        if let Some(logits) = logits {
            assert_eq!(bits(&logits), want, "an overloaded 200 drifted");
            ok += 1;
        }
        if was_shed {
            shed += 1;
        }
    }
    assert!(ok >= 1, "the flood starved every request");
    assert!(shed >= 1, "a 2-deep queue absorbed 12 concurrent requests");

    assert_live(addr);
    let snap = server.stop();
    assert_eq!(counter(&snap, "serve.shed"), shed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shutdown mid-traffic: requests already in flight finish (and stay
/// bit-identical); requests arriving after the trigger are shed.
#[test]
fn graceful_drain_finishes_in_flight_work_and_sheds_late_arrivals() {
    let cfg = ServerConfig {
        batch: BatchConfig {
            max_batch: 4,
            flush: Duration::from_millis(80),
            queue_cap: 16,
        },
        ..ServerConfig::default()
    };
    let (server, mut net, dir) = boot("drain", 0xD0A1, cfg);
    let addr = server.addr();
    let input = probe_input(784);
    let want = bits(&direct_logits(&mut net, &input));

    // One request enters the queue and parks on the 80 ms flush window...
    let in_flight = {
        let input = input.clone();
        std::thread::spawn(move || {
            let mut c = HttpClient::connect(addr).unwrap();
            c.infer(&input).unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    // ...then the drain starts while it is still in flight.
    server.trigger_shutdown();
    let late = HttpClient::connect(addr)
        .and_then(|mut c| c.post("/infer", &dropback_serve::client::infer_body(&input)));
    let reply = in_flight.join().unwrap();
    assert_eq!(bits(&reply.logits), want, "a drained reply drifted");
    if let Ok(resp) = late {
        assert_eq!(resp.status, 503, "a post-trigger request was evaluated");
    }

    let snap = server.stop();
    assert!(counter(&snap, "serve.drained") >= 1, "{:?}", snap.counters);
    assert_eq!(counter(&snap, "serve.drain.forced"), 0);
    assert!(counter(&snap, "serve.shed.drain") >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Server-side injected resets: the first connection dies mid-exchange,
/// the client backs off and retries, and the retry's answer is
/// bit-identical to a no-fault run.
#[test]
fn injected_resets_are_recovered_by_backoff_retry_bit_identically() {
    let cfg = ServerConfig {
        chaos: Some(Arc::new(ChaosHook::new(FaultPlan::cycle(vec![
            FaultAction::ResetAfter { bytes: 20 },
            FaultAction::None,
        ])))),
        ..ServerConfig::default()
    };
    let (server, mut net, dir) = boot("reset", 0x2E5E7, cfg);
    let addr = server.addr();
    let input = probe_input(784);
    let want = bits(&direct_logits(&mut net, &input));

    let mut backoff = Backoff::new(0xC4A05, Duration::from_millis(5), Duration::from_millis(50));
    let mut reply = None;
    for _ in 0..4 {
        match HttpClient::connect(addr).and_then(|mut c| c.infer(&input)) {
            Ok(r) => {
                reply = Some(r);
                break;
            }
            Err(_) => std::thread::sleep(backoff.next_delay()),
        }
    }
    let reply = reply.expect("retry never got through a 1-in-2 reset plan");
    assert!(
        backoff.failures() >= 1,
        "the reset connection should have failed at least once"
    );
    assert_eq!(bits(&reply.logits), want, "a post-retry reply drifted");

    let _ = server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dribbling server (1–3 byte writes with pauses) is slow but still
/// correct: the response parses and matches direct inference.
#[test]
fn dribbled_responses_still_parse_and_match() {
    let cfg = ServerConfig {
        chaos: Some(Arc::new(ChaosHook::new(FaultPlan::cycle(vec![
            FaultAction::Dribble {
                chunk: 3,
                pause: Duration::from_micros(200),
            },
        ])))),
        ..ServerConfig::default()
    };
    let (server, mut net, dir) = boot("dribble", 0xD21B, cfg);
    let addr = server.addr();
    let input = probe_input(784);
    let want = bits(&direct_logits(&mut net, &input));

    let mut c = HttpClient::connect(addr).unwrap();
    let reply = c.infer(&input).unwrap();
    assert_eq!(bits(&reply.logits), want, "a dribbled reply drifted");

    let _ = server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The seeded plan exercises a mixed population (stalls, resets,
/// dribbles, flips, clean) against a short io-timeout server: nothing
/// crashes, the server stays live, and every intact answer is right.
/// (`/healthz`, not `/infer`: a byte-flip inside an `/infer` body can
/// yield a *valid but different* request, which the server would answer
/// faithfully — garbage-in is not a server fault.)
#[test]
fn a_seeded_fault_mix_never_takes_the_server_down() {
    let cfg = ServerConfig {
        io_timeout: Duration::from_millis(200),
        chaos: Some(Arc::new(ChaosHook::new(FaultPlan::seeded(0xCA05)))),
        ..ServerConfig::default()
    };
    let (server, _, dir) = boot("mix", 0x5EED, cfg);
    let addr = server.addr();

    let mut ok = 0;
    for _ in 0..24 {
        if let Ok(resp) = HttpClient::connect(addr).and_then(|mut c| c.get("/healthz")) {
            if resp.status == 200 {
                let health = Json::parse(&resp.body).unwrap();
                assert_eq!(health.get("epoch").and_then(|e| e.as_u64()), Some(1));
                ok += 1;
            }
        }
    }
    assert!(ok >= 1, "every single connection failed under the mix");

    // The hook has burned through two dozen planned faults; the server
    // itself must be unscathed. (/healthz below rides the plan too, so
    // retry a few times — liveness, not per-connection luck.)
    let live = (0..10).any(|_| {
        HttpClient::connect(addr)
            .and_then(|mut c| c.get("/healthz"))
            .map(|r| r.status == 200)
            .unwrap_or(false)
    });
    assert!(live, "server wedged after the fault mix");
    let snap = server.stop();
    assert!(counter(&snap, "serve.connections") >= 24);
    let _ = std::fs::remove_dir_all(&dir);
}
