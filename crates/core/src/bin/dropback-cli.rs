//! `dropback-cli` — train, evaluate, checkpoint, and size models from the
//! command line.
//!
//! ```text
//! dropback-cli train --model mnist-100-100 --budget 20000 --epochs 8 \
//!                    --checkpoint model.dbk --telemetry run.jsonl
//! dropback-cli eval  --model mnist-100-100 --checkpoint model.dbk
//! dropback-cli info  --model lenet-300-100
//! dropback-cli energy --params 266610 --budget 20000
//! ```
//!
//! Output contract: stdout carries only the machine-parseable result (one
//! JSON line for `train`/`eval`, aligned text for `info`/`energy`); all
//! progress and diagnostics go to stderr. `--quiet` silences the stderr
//! progress; `--telemetry PATH` additionally streams every event as JSONL.

use dropback::prelude::*;
use dropback::Checkpoint;
use std::collections::HashMap;
use std::process::ExitCode;

/// Exit code for a resume request that cannot be honoured (snapshot from
/// a different seed / model / optimizer): the run configuration is wrong,
/// not the file system, so retrying will not help.
const EXIT_INCOMPATIBLE: u8 = 2;

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

/// Maps a resume failure to its exit code: incompatibility (wrong seed,
/// model, optimizer, shuffle seed) is a configuration error → exit 2
/// with the checkpoint's actionable message; anything else is a plain
/// failure → exit 1.
fn resume_error(e: CheckpointError) -> CliError {
    let code = match &e {
        CheckpointError::SeedMismatch { .. } | CheckpointError::Incompatible(_) => {
            EXIT_INCOMPATIBLE
        }
        _ => 1,
    };
    CliError {
        message: format!("cannot resume: {e}"),
        code,
    }
}

/// Flags each subcommand accepts; anything else is an error, not a silent
/// fallback to defaults.
fn known_flags(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "train" => &[
            "model",
            "epochs",
            "batch",
            "lr",
            "budget",
            "freeze",
            "checkpoint",
            "checkpoint-dir",
            "checkpoint-every",
            "resume",
            "data",
            "train",
            "test",
            "seed",
            "telemetry",
            "trace",
            "threads",
            "quiet",
        ],
        "eval" => &["model", "checkpoint", "data", "train", "test", "seed"],
        "info" => &["model", "seed"],
        "energy" => &["params", "budget", "sram", "model"],
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
            // Boolean flags (`--quiet`) take no value: the next token is a
            // value only if it is not itself a flag.
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

/// Reads `--key` from the parsed flags: absent means `default`, present
/// but unparsable is an error naming the flag and the bad value — never a
/// silent fall-back to the default.
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

/// A stderr progress sink that drops per-step events — epoch and run
/// summaries are progress; per-step spam is not.
struct EpochStderr(StderrSink);

impl EventSink for EpochStderr {
    fn emit(&mut self, event: &Event) {
        if event.kind() != "step" {
            self.0.emit(event);
        }
    }
}

/// Builds the telemetry bundle from `--telemetry PATH` and `--quiet`:
/// JSONL to the path (all events), human-readable epoch lines to stderr
/// unless quiet. With neither, telemetry is fully disabled.
fn telemetry_from_flags(flags: &HashMap<String, String>) -> Result<Telemetry, String> {
    let quiet = flags.contains_key("quiet");
    let mut tee = TeeSink::default();
    if let Some(path) = flags.get("telemetry") {
        if path.is_empty() {
            return Err("--telemetry requires a file path".into());
        }
        let sink = JsonlSink::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        tee.push(Box::new(sink));
    }
    if !quiet {
        tee.push(Box::new(EpochStderr(StderrSink)));
    }
    if tee.is_empty() {
        Ok(Telemetry::disabled())
    } else {
        Ok(Telemetry::with_sink(Box::new(tee)))
    }
}

/// Arms the timeline tracer when `--trace PATH` is present; returns the
/// path the Chrome trace should be written to after the run.
fn start_trace_from_flags(flags: &HashMap<String, String>) -> Result<Option<String>, String> {
    let Some(path) = flags.get("trace") else {
        return Ok(None);
    };
    if path.is_empty() {
        return Err("--trace requires a file path".into());
    }
    dropback::telemetry::trace::start_tracing();
    Ok(Some(path.clone()))
}

/// Stops tracing and writes the collected events as Chrome trace-event
/// JSON (load in Perfetto / `chrome://tracing`, or feed to
/// `dropback-trace` for a hotspot report).
fn finish_trace(path: &str, quiet: bool) -> Result<(), String> {
    use dropback::telemetry::trace;
    trace::stop_tracing();
    let records = trace::take_trace();
    let file =
        std::fs::File::create(path).map_err(|e| format!("cannot create trace {path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    trace::write_chrome_trace(&mut out, &records)
        .map_err(|e| format!("cannot write trace {path}: {e}"))?;
    if !quiet {
        eprintln!(
            "wrote {} trace events to {path} (analyze with dropback-trace, or load in Perfetto)",
            records.len()
        );
    }
    Ok(())
}

fn build_model(name: &str, seed: u64) -> Result<Network, String> {
    match name {
        "mnist-100-100" => Ok(models::mnist_100_100(seed)),
        "lenet-300-100" => Ok(models::lenet_300_100(seed)),
        "vgg-s-nano" => Ok(models::vgg_s_nano(seed)),
        "densenet-nano" => Ok(models::densenet_nano(seed)),
        "wrn-nano" => Ok(models::wrn_nano(seed, 1)),
        other => Err(format!(
            "unknown model {other:?}; available: mnist-100-100, lenet-300-100, \
             vgg-s-nano, densenet-nano, wrn-nano"
        )),
    }
}

fn load_data(
    flags: &HashMap<String, String>,
    model: &str,
    seed: u64,
) -> Result<(Dataset, Dataset), String> {
    let n_train = get(flags, "train", 4000usize)?;
    let n_test = get(flags, "test", 1000usize)?;
    if let Some(dir) = flags.get("data") {
        if dir != "synthetic" {
            match dropback::data::load_mnist_idx(dir) {
                Ok(pair) => return Ok(pair),
                Err(e) => eprintln!("could not load {dir}: {e}; using synthetic data"),
            }
        }
    }
    Ok(if model.contains("mnist") || model.contains("lenet") {
        synthetic_mnist(n_train, n_test, seed)
    } else {
        let hw = dropback::nn::models::CIFAR_NANO_HW;
        synthetic_cifar(n_train, n_test, hw, hw, seed)
    })
}

/// Builds the optional [`CheckpointStore`] from `--checkpoint-dir`,
/// `--checkpoint-every`, and `--resume`. `--resume` without a directory
/// is an error — there is nothing to resume from.
fn checkpoint_store_from_flags(
    flags: &HashMap<String, String>,
) -> Result<Option<CheckpointStore>, CliError> {
    let resume = flags.contains_key("resume");
    let Some(dir) = flags.get("checkpoint-dir") else {
        if resume {
            return Err("--resume requires --checkpoint-dir DIR".into());
        }
        return Ok(None);
    };
    if dir.is_empty() {
        return Err("--checkpoint-dir requires a directory path".into());
    }
    let every = get(flags, "checkpoint-every", 1usize)?;
    if every == 0 {
        return Err("--checkpoint-every must be at least 1".into());
    }
    let store = CheckpointStore::open(dir)
        .map_err(|e| CliError::from(format!("cannot open checkpoint dir {dir}: {e}")))?
        .every(every)
        .resume(resume);
    Ok(Some(store))
}

/// Runs the trainer, through the crash-safe path when a snapshot store is
/// configured. Corrupt snapshots skipped during resume are surfaced as
/// stderr warnings; an incompatible snapshot aborts with exit code 2.
fn run_with_store(
    trainer: &Trainer,
    net: &mut Network,
    opt: &mut dyn Optimizer,
    data: (&Dataset, &Dataset),
    store: Option<&mut CheckpointStore>,
    telemetry: &mut Telemetry,
) -> Result<TrainReport, CliError> {
    let (train, test) = data;
    match store {
        Some(st) => {
            let report = trainer
                .run_resumable(net, opt, train, test, st, telemetry)
                .map_err(resume_error)?;
            for (path, err) in st.take_skipped() {
                eprintln!(
                    "warning: skipped corrupt snapshot {}: {err}",
                    path.display()
                );
            }
            Ok(report)
        }
        None => Ok(trainer.run_mut(net, opt, train, test, &mut NoProbe, telemetry)),
    }
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let seed: u64 = get(flags, "seed", 42)?;
    let model_name = flags
        .get("model")
        .cloned()
        .unwrap_or_else(|| "mnist-100-100".into());
    let epochs = get(flags, "epochs", 8usize)?;
    let batch = get(flags, "batch", 64usize)?;
    let lr = get(flags, "lr", 0.2f32)?;
    let budget = get(flags, "budget", 0usize)?;
    let quiet = flags.contains_key("quiet");
    // Worker-pool override; results are bit-identical at any value (see
    // docs/PERFORMANCE.md), so this is purely a throughput knob.
    if let Some(threads) = flags.get("threads") {
        let n: usize = threads
            .parse()
            .map_err(|_| format!("--threads expects a positive integer, got {threads:?}"))?;
        dropback_tensor::pool::set_threads(n.max(1));
    }
    let mut telemetry = telemetry_from_flags(flags)?;
    let trace_path = start_trace_from_flags(flags)?;
    let mut net = build_model(&model_name, seed)?;
    let params = net.num_params();
    let (train, test) = load_data(flags, &model_name, seed)?;
    if !quiet {
        eprintln!(
            "training {model_name} ({params} params) for {epochs} epochs, batch {batch}, lr {lr}"
        );
    }
    let cfg = TrainConfig::new(epochs, batch).lr(LrSchedule::StepDecay {
        initial: lr,
        factor: 0.5,
        every: (epochs / 5).max(1),
    });
    let mut store = checkpoint_store_from_flags(flags)?;
    let trainer = Trainer::new(cfg);
    // Train DropBack when a budget is set so a checkpoint can be cut.
    if budget > 0 && budget < params {
        let freeze = get(flags, "freeze", epochs / 2)?;
        let mut opt = DropBack::new(budget).freeze_after(freeze.max(1));
        let report = run_with_store(
            &trainer,
            &mut net,
            &mut opt,
            (&train, &test),
            store.as_mut(),
            &mut telemetry,
        )?;
        let result = Event::new("result")
            .with("model", model_name.as_str())
            .with("optimizer", opt.name())
            .with("params", params)
            .with("stored_weights", opt.tracked_count())
            .with("compression", params as f32 / budget as f32)
            .with(
                "val_acc",
                report.history.last().map(|e| e.val_acc).unwrap_or(0.0),
            );
        println!("{}", result.to_json().render());
        if let Some(path) = flags.get("checkpoint") {
            let ckpt = Checkpoint::new(net.store().seed(), opt.tracked(net.store()));
            let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
            ckpt.write_to(file).map_err(|e| e.to_string())?;
            eprintln!("wrote {path} ({} bytes)", ckpt.size_bytes());
        }
    } else {
        if flags.contains_key("checkpoint") {
            return Err("--checkpoint requires a --budget below the model size".into());
        }
        let mut opt = Sgd::new();
        let report = run_with_store(
            &trainer,
            &mut net,
            &mut opt,
            (&train, &test),
            store.as_mut(),
            &mut telemetry,
        )?;
        if !quiet {
            eprint!("{}", report.to_table());
        }
        println!("{}", report.to_json().render());
    }
    if let Some(path) = &trace_path {
        finish_trace(path, quiet)?;
    }
    Ok(())
}

fn cmd_eval(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let seed: u64 = get(flags, "seed", 42)?;
    let model_name = flags
        .get("model")
        .cloned()
        .unwrap_or_else(|| "mnist-100-100".into());
    let path = flags
        .get("checkpoint")
        .ok_or("eval requires --checkpoint PATH")?;
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let ckpt = Checkpoint::read_from(file).map_err(|e| e.to_string())?;
    let mut net = build_model(&model_name, ckpt.seed())?;
    ckpt.apply(&mut net).map_err(|e| e.to_string())?;
    let (_, test) = load_data(flags, &model_name, seed)?;
    let val_acc = net.accuracy(&test, 256);
    eprintln!(
        "{model_name} from {path}: {} stored weights, val acc {val_acc:.4}",
        ckpt.len()
    );
    let result = Event::new("result")
        .with("model", model_name.as_str())
        .with("checkpoint", path.as_str())
        .with("stored_weights", ckpt.len())
        .with("val_acc", val_acc);
    println!("{}", result.to_json().render());
    Ok(())
}

fn cmd_info(flags: &HashMap<String, String>) -> Result<(), String> {
    let seed: u64 = get(flags, "seed", 42)?;
    let model_name = flags
        .get("model")
        .cloned()
        .unwrap_or_else(|| "mnist-100-100".into());
    let net = build_model(&model_name, seed)?;
    println!("{}: {} parameters", net.name(), net.num_params());
    for r in net.param_ranges() {
        println!("  {:<24} {:>8}  (init {:?})", r.name(), r.len(), r.scheme());
    }
    Ok(())
}

fn cmd_energy(flags: &HashMap<String, String>) -> Result<(), String> {
    let params: u64 = get(flags, "params", 266_610u64)?;
    let budget: u64 = get(flags, "budget", 20_000u64)?;
    let model = EnergyModel::paper_45nm();
    let base = TrainingTraffic::baseline(params);
    let db = TrainingTraffic::dropback(params, budget);
    println!("45nm weight-memory energy for {params} params at budget {budget}:");
    println!(
        "  dense SGD : {:>10.2} µJ/step",
        base.step().energy_pj(&model) / 1e6
    );
    println!(
        "  DropBack  : {:>10.2} µJ/step  ({:.1}x less)",
        db.step().energy_pj(&model) / 1e6,
        db.advantage_over(&base, &model)
    );
    let sram: u64 = get(flags, "sram", 256 * 1024u64)?;
    let acc = dropback::energy::Accelerator {
        sram_bytes: sram,
        word_bytes: 4,
        model,
        regen_unit: true,
    };
    println!(
        "  with {} KiB weight SRAM: tracked set {} on-chip; max trainable model at this\n\
         compression: {} weights",
        sram / 1024,
        if acc.fits_on_chip(budget) {
            "fits"
        } else {
            "spills"
        },
        acc.max_trainable_weights(params as f64 / budget as f64)
    );
    Ok(())
}

fn usage() -> String {
    "usage: dropback-cli <train|eval|info|energy> [--flag value ...]\n\
     train : --model M --epochs N --batch B --lr X --budget K --freeze E \
             --checkpoint PATH --checkpoint-dir DIR --checkpoint-every N --resume \
             --data synthetic|DIR --train N --test N --seed S \
             --telemetry PATH.jsonl --trace PATH.json --quiet\n\
     eval  : --model M --checkpoint PATH [--data ...]\n\
     info  : --model M\n\
     energy: --params N --budget K [--sram BYTES]\n\
     crash safety: --checkpoint-dir snapshots full training state each \
     --checkpoint-every epochs (atomic writes, CRC-validated); --resume \
     continues bit-identically from the newest readable snapshot (exit 2 \
     if the snapshot is from a different seed/model/optimizer)\n\
     profiling: --trace PATH.json records a Chrome trace-event timeline \
     (kernel spans + Fig. 5 counters); inspect with dropback-trace or \
     Perfetto\n\
     stdout carries one JSON result line (train/eval); progress goes to stderr"
        .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result: Result<(), CliError> = if known_flags(cmd).is_empty() {
        Err(usage().into())
    } else {
        match parse_flags(cmd, &args[1..]) {
            Err(e) => Err(e.into()),
            Ok(flags) => match cmd.as_str() {
                "train" => cmd_train(&flags),
                "eval" => cmd_eval(&flags),
                "info" => cmd_info(&flags).map_err(CliError::from),
                "energy" => cmd_energy(&flags).map_err(CliError::from),
                _ => unreachable!("known_flags gates the command set"),
            },
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}
