//! `dropback-serve` — serve sparse checkpoints over HTTP, and the
//! tooling around it.
//!
//! ```text
//! dropback-serve prep  --dir ckpts --epochs 2            # make snapshots
//! dropback-serve serve --dir ckpts --addr 127.0.0.1:0 \
//!                      --addr-file /tmp/addr             # run the server
//! dropback-serve probe --addr 127.0.0.1:8080 --healthz   # curl substitute
//! ```
//!
//! Output contract: stdout carries only machine-parseable JSON (the final
//! telemetry digest for `serve`, response bodies for `probe`); progress
//! and diagnostics go to stderr. The workspace has no external
//! dependencies, so `probe` stands in for `curl` in `scripts/check.sh`.

use dropback::prelude::*;
use dropback::{CheckpointStore, FaultAction, FaultPlan};
use dropback_serve::client::infer_body;
use dropback_serve::rt::{self, Monitor};
use dropback_serve::{BatchConfig, HttpClient, Server, ServerConfig};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// A CLI failure: the message for stderr plus the process exit code.
struct CliError {
    message: String,
    code: u8,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        Self { message, code: 1 }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        Self::from(message.to_string())
    }
}

/// Flags each subcommand accepts; anything else is an error, not a
/// silent fallback to defaults.
fn known_flags(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "serve" => &[
            "dir",
            "addr",
            "addr-file",
            "max-batch",
            "flush-ms",
            "poll-ms",
            "queue-cap",
            "max-conns",
            "io-timeout-ms",
            "deadline-ms",
            "drain-ms",
            "retry-after-s",
            "threads",
            "trace",
            "access-log",
            "flightrec",
            "quiet",
        ],
        "prep" => &[
            "dir", "model", "epochs", "budget", "seed", "samples", "quiet",
        ],
        "probe" => &[
            "addr",
            "healthz",
            "infer",
            "dims",
            "repeat",
            "expect-epoch",
            "assert-latency",
            "flood",
            "seed",
            "expect-shed",
            "flightrec",
            "shutdown",
        ],
        _ => &[],
    }
}

fn parse_flags(cmd: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if !known_flags(cmd).contains(&key) {
                return Err(format!(
                    "unknown flag --{key} for {cmd:?} (valid: {})",
                    known_flags(cmd)
                        .iter()
                        .map(|f| format!("--{f}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                ));
            }
            // Boolean flags (`--quiet`) take no value: the next token is
            // a value only if it is not itself a flag.
            match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(value) => {
                    flags.insert(key.to_string(), value.clone());
                    i += 2;
                }
                None => {
                    flags.insert(key.to_string(), String::new());
                    i += 1;
                }
            }
        } else {
            return Err(format!("unexpected argument {:?}", args[i]));
        }
    }
    Ok(flags)
}

/// Reads `--key`: absent means `default`, present but unparsable is an
/// error naming the flag and the bad value.
fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flags.get(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|e| format!("invalid value {raw:?} for --{key}: {e}")),
    }
}

fn require<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    match flags.get(key).map(String::as_str) {
        Some(v) if !v.is_empty() => Ok(v),
        _ => Err(format!("--{key} is required")),
    }
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let dir = require(flags, "dir")?;
    let quiet = flags.contains_key("quiet");
    if let Some(t) = flags.get("threads") {
        let n: usize = t
            .parse()
            .map_err(|e| format!("invalid value {t:?} for --threads: {e}"))?;
        dropback::tensor::pool::set_threads(n);
    }
    let trace_path = flags.get("trace").filter(|p| !p.is_empty()).cloned();
    let flightrec_path = flags.get("flightrec").filter(|p| !p.is_empty()).cloned();
    let cfg = ServerConfig {
        addr: get(flags, "addr", "127.0.0.1:0".to_string())?,
        batch: BatchConfig {
            max_batch: get(flags, "max-batch", 8usize)?.max(1),
            flush: Duration::from_millis(get(flags, "flush-ms", 2u64)?),
            queue_cap: get(flags, "queue-cap", 256usize)?.max(1),
        },
        poll: Duration::from_millis(get(flags, "poll-ms", 50u64)?.max(1)),
        max_conns: get(flags, "max-conns", 256usize)?.max(1),
        io_timeout: Duration::from_millis(get(flags, "io-timeout-ms", 5_000u64)?.max(1)),
        request_deadline: Duration::from_millis(get(flags, "deadline-ms", 2_000u64)?.max(1)),
        drain: Duration::from_millis(get(flags, "drain-ms", 2_000u64)?),
        retry_after: Duration::from_secs(get(flags, "retry-after-s", 1u64)?.max(1)),
        chaos: None,
        access_log: flags
            .get("access-log")
            .filter(|p| !p.is_empty())
            .map(std::path::PathBuf::from),
        flightrec_dump: flightrec_path.as_ref().map(std::path::PathBuf::from),
    };
    if let Some(path) = &flightrec_path {
        // A panicking server is the flight recorder's other customer:
        // dump the ring before the process dies so the last moments of
        // every request lane survive the crash.
        let path = std::path::PathBuf::from(path);
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Ok(mut f) = std::fs::File::create(&path) {
                let _ = dropback::telemetry::flightrec::write_dump(&mut f);
            }
            previous(info);
        }));
    }
    if trace_path.is_some() {
        dropback::telemetry::trace::start_tracing();
    }
    let store = CheckpointStore::open(dir).map_err(|e| format!("cannot open {dir}: {e}"))?;
    let server = Server::start(cfg, store).map_err(|e| e.to_string())?;
    let addr = server.addr();
    {
        let model = server.model();
        if !quiet {
            eprintln!(
                "serving {} (epoch {}, {} stored entries) at http://{addr} — \
                 POST /infer, GET /healthz, GET /metrics, POST /shutdown",
                model.name(),
                model.epoch(),
                model.entries()
            );
        }
    }
    if let Some(path) = flags.get("addr-file").filter(|p| !p.is_empty()) {
        // Write-then-rename so a polling reader never sees half an address.
        let tmp = format!("{path}.partial");
        std::fs::write(&tmp, addr.to_string())
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| format!("cannot write --addr-file {path}: {e}"))?;
    }
    let digest = server.wait();
    if let Some(path) = &trace_path {
        dropback::telemetry::trace::stop_tracing();
        let records = dropback::telemetry::trace::take_trace();
        let mut file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create --trace {path}: {e}"))?;
        dropback::telemetry::trace::write_chrome_trace(&mut file, &records)
            .map_err(|e| format!("cannot write --trace {path}: {e}"))?;
        if !quiet {
            eprintln!(
                "wrote {} trace events to {path} — load in Perfetto or \
                 analyze with dropback-trace",
                records.len()
            );
        }
    }
    println!("{}", digest.to_json().render());
    if !quiet {
        eprintln!("shut down cleanly; final telemetry digest on stdout");
        eprintln!("{}", digest.render());
    }
    Ok(())
}

/// Trains a tiny synthetic-MNIST run and snapshots after every epoch —
/// enough real checkpoints for smoke tests and load benches, with zero
/// dataset downloads. Deterministic in all flags.
fn cmd_prep(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let dir = require(flags, "dir")?;
    let model_name: String = get(flags, "model", "mnist-100-100".to_string())?;
    let epochs: usize = get(flags, "epochs", 2usize)?.max(1);
    let budget: usize = get(flags, "budget", 20_000usize)?;
    let seed: u64 = get(flags, "seed", 42u64)?;
    let samples: usize = get(flags, "samples", 512usize)?.max(64);
    let quiet = flags.contains_key("quiet");

    let mut net = match model_name.as_str() {
        "mnist-100-100" => models::mnist_100_100(seed),
        "lenet-300-100" => models::lenet_300_100(seed),
        other => {
            return Err(CliError::from(format!(
                "--model {other:?} has no serving path (use mnist-100-100 or lenet-300-100)"
            )))
        }
    };
    let mut opt = DropBack::new(budget);
    let (train, _) = synthetic_mnist(samples, 64, seed);
    let batcher = Batcher::new(64, seed);
    let mut store = CheckpointStore::open(dir)
        .map_err(|e| format!("cannot open {dir}: {e}"))?
        .keep(epochs.max(3));
    let mut tel = Telemetry::disabled();
    let mut iteration = 0u64;
    for epoch in 0..epochs {
        for (x, labels) in batcher.epoch(&train, epoch as u64) {
            let _ = net.loss_backward(&x, &labels);
            opt.step(net.store_mut(), 0.1);
            iteration += 1;
        }
        opt.end_epoch(epoch, net.store_mut());
        let progress = TrainProgress {
            next_epoch: epoch + 1,
            iteration,
            ..TrainProgress::fresh()
        };
        let state = TrainState::capture(&net, &opt, seed, &progress);
        let path = store
            .save(&state, &mut tel)
            .map_err(|e| format!("cannot snapshot epoch {epoch}: {e}"))?;
        if !quiet {
            eprintln!(
                "epoch {epoch}: wrote {} ({} entries)",
                path.display(),
                state.entries.len()
            );
        }
    }
    Ok(())
}

/// A deterministic probe input: a ramp over `[0, 1)`, different per index.
fn ramp_input(dims: usize) -> Vec<f32> {
    (0..dims).map(|i| (i % 251) as f32 / 251.0).collect()
}

/// One flood participant. Returns which tally slot it lands in:
/// 0 = answered 200, 1 = shed with 503, 2 = deliberately rude client
/// (sent half a body and vanished), 3 = anything else.
fn flood_client(addr: &str, action: FaultAction, body: &str) -> usize {
    if let FaultAction::ResetAfter { .. } = action {
        // A misbehaving peer: declare a body, send part of it, vanish.
        // The server must treat this as one cheap failed read, not a
        // wedged handler.
        if let Ok(mut s) = std::net::TcpStream::connect(addr) {
            let _ = std::io::Write::write_all(
                &mut s,
                b"POST /infer HTTP/1.1\r\ncontent-length: 4096\r\n\r\n{\"input\":[0.1,",
            );
        }
        return 2;
    }
    match HttpClient::connect(addr).and_then(|mut c| c.post("/infer", body)) {
        Ok(resp) if resp.status == 200 => 0,
        Ok(resp) if resp.status == 503 => 1,
        _ => 3,
    }
}

/// Slams the server with `clients` concurrent one-shot connections — a
/// seeded mix of real `/infer` requests and rude mid-body hangups — and
/// tallies `(ok, shed, aborted, failed)`. With `retry_until_shed`, the
/// flood reruns with derived seeds (bounded at 5 rounds) until at least
/// one 503 lands, so smoke runs never flake on a lucky thread schedule.
fn flood(
    addr: &str,
    clients: usize,
    seed: u64,
    dims: usize,
    retry_until_shed: bool,
) -> Result<(u64, u64, u64, u64), CliError> {
    let body = Arc::new(infer_body(&ramp_input(dims)));
    let counts = Arc::new(Monitor::new((0u64, 0u64, 0u64, 0u64)));
    for round in 0..5u64 {
        let plan = FaultPlan::seeded(seed.wrapping_add(round));
        let mut handles = Vec::with_capacity(clients);
        for i in 0..clients {
            let addr = addr.to_string();
            let body = Arc::clone(&body);
            let counts = Arc::clone(&counts);
            let action = plan.action(i as u64);
            let handle = rt::spawn("flood", move || {
                let slot = flood_client(&addr, action, &body);
                counts.update(|c| match slot {
                    0 => c.0 += 1,
                    1 => c.1 += 1,
                    2 => c.2 += 1,
                    _ => c.3 += 1,
                });
            })
            .map_err(|e| format!("cannot spawn flood client: {e}"))?;
            handles.push(handle);
        }
        for h in handles {
            let _ = h.join();
        }
        if !retry_until_shed || counts.with(|c| c.1 > 0) {
            break;
        }
    }
    Ok(counts.with(|c| *c))
}

fn cmd_probe(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let addr = require(flags, "addr")?;
    let connect = || {
        HttpClient::connect(addr).map_err(|e| CliError::from(format!("cannot reach {addr}: {e}")))
    };

    if let Some(want) = flags.get("expect-epoch") {
        let want: usize = want
            .parse()
            .map_err(|e| format!("invalid value {want:?} for --expect-epoch: {e}"))?;
        // Hot swaps land on the watcher's poll cadence; give it a bounded
        // window rather than failing on the first tick.
        let mut last = None;
        for _ in 0..200 {
            let mut client = connect()?;
            let resp = client.get("/healthz").map_err(|e| e.to_string())?;
            let epoch = dropback::telemetry::Json::parse(&resp.body)
                .ok()
                .and_then(|j| j.get("epoch").and_then(|e| e.as_u64()));
            last = epoch;
            if epoch == Some(want as u64) {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        if last != Some(want as u64) {
            return Err(CliError::from(format!(
                "server never reached epoch {want} (last seen: {last:?})"
            )));
        }
    }

    if flags.contains_key("healthz") {
        let resp = connect()?.get("/healthz").map_err(|e| e.to_string())?;
        println!("{}", resp.body);
        if resp.status != 200 {
            return Err(CliError::from(format!("/healthz answered {}", resp.status)));
        }
    }

    if flags.contains_key("infer") {
        let dims: usize = get(flags, "dims", 784usize)?;
        let repeat: usize = get(flags, "repeat", 1usize)?.max(1);
        let input = ramp_input(dims);
        let mut client = connect()?;
        let mut last = None;
        for _ in 0..repeat {
            last = Some(client.infer(&input).map_err(|e| e.to_string())?);
        }
        if let Some(reply) = last {
            println!(
                "{{\"argmax\":{},\"epoch\":{},\"batch\":{},\"logits\":{}}}",
                reply.argmax,
                reply.epoch,
                reply.batch,
                reply.logits.len()
            );
        }
    }

    if flags.contains_key("assert-latency") {
        let resp = connect()?.get("/metrics").map_err(|e| e.to_string())?;
        let json = dropback::telemetry::Json::parse(&resp.body)
            .map_err(|e| format!("/metrics is not JSON: {e}"))?;
        let quantile = |q: &str| {
            json.get("histograms")
                .and_then(|h| h.get("serve.request_ns"))
                .and_then(|h| h.get(q))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        };
        let (p50, p99) = (quantile("p50"), quantile("p99"));
        if p50 <= 0.0 || p99 <= 0.0 {
            return Err(CliError::from(format!(
                "serve.request_ns quantiles not populated (p50={p50}, p99={p99}) — \
                 did any /infer requests run?"
            )));
        }
        eprintln!("serve.request_ns p50={p50}ns p99={p99}ns");
    }

    if let Some(raw) = flags.get("flood") {
        let clients: usize = raw
            .parse()
            .map_err(|e| format!("invalid value {raw:?} for --flood: {e}"))?;
        let clients = clients.max(1);
        let seed: u64 = get(flags, "seed", 42u64)?;
        let dims: usize = get(flags, "dims", 784usize)?;
        let expect_shed = flags.contains_key("expect-shed");
        let counts = flood(addr, clients, seed, dims, expect_shed)?;
        println!(
            "{{\"flood\":{{\"clients\":{},\"ok\":{},\"shed\":{},\"aborted\":{},\"failed\":{}}}}}",
            clients, counts.0, counts.1, counts.2, counts.3
        );
        if expect_shed && counts.1 == 0 {
            return Err(CliError::from(
                "--expect-shed: the flood never drew a 503 out of the server".to_string(),
            ));
        }
        // The whole point of shedding is that the server survives it.
        let resp = connect()?.get("/healthz").map_err(|e| e.to_string())?;
        if resp.status != 200 {
            return Err(CliError::from(format!(
                "/healthz answered {} after the flood — the server did not stay live",
                resp.status
            )));
        }
    }

    if flags.contains_key("flightrec") {
        let resp = connect()?
            .get("/debug/flightrec")
            .map_err(|e| e.to_string())?;
        println!("{}", resp.body);
        if resp.status != 200 {
            return Err(CliError::from(format!(
                "/debug/flightrec answered {}",
                resp.status
            )));
        }
    }

    if flags.contains_key("shutdown") {
        let resp = connect()?
            .post("/shutdown", "")
            .map_err(|e| e.to_string())?;
        println!("{}", resp.body);
        if resp.status != 200 {
            return Err(CliError::from(format!(
                "/shutdown answered {}",
                resp.status
            )));
        }
    }
    Ok(())
}

fn usage() -> String {
    "usage: dropback-serve <serve|prep|probe> [--flags]\n\
     \x20 serve --dir DIR [--addr 127.0.0.1:0] [--addr-file PATH] [--max-batch 8]\n\
     \x20       [--flush-ms 2] [--poll-ms 50] [--queue-cap 256] [--max-conns 256]\n\
     \x20       [--io-timeout-ms 5000] [--deadline-ms 2000] [--drain-ms 2000]\n\
     \x20       [--retry-after-s 1] [--threads N] [--trace PATH]\n\
     \x20       [--access-log PATH] [--flightrec PATH] [--quiet]\n\
     \x20 prep  --dir DIR [--model mnist-100-100] [--epochs 2] [--budget 20000]\n\
     \x20       [--seed 42] [--samples 512] [--quiet]\n\
     \x20 probe --addr HOST:PORT [--healthz] [--infer [--dims 784] [--repeat 1]]\n\
     \x20       [--expect-epoch N] [--assert-latency] [--flightrec] [--shutdown]\n\
     \x20       [--flood N [--seed 42] [--expect-shed]]"
        .to_string()
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return Err(CliError::from(usage()));
    };
    let flags = parse_flags(cmd, &args[1..])?;
    match cmd.as_str() {
        "serve" => cmd_serve(&flags),
        "prep" => cmd_prep(&flags),
        "probe" => cmd_probe(&flags),
        other => Err(CliError::from(format!(
            "unknown subcommand {other:?}\n{}",
            usage()
        ))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dropback-serve: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}
