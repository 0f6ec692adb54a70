//! Hotspot analysis of Chrome trace-event JSON produced by
//! `dropback_telemetry::trace`.
//!
//! The `dropback-trace` binary is a thin wrapper over this module: it
//! parses a trace file back through the hand-rolled
//! [`Json`](dropback_telemetry::Json) parser, pairs begin/end events into
//! a per-thread span tree, and derives
//!
//! * a **hotspot table** per span name (count, total time, self time),
//! * **per-kernel GFLOP/s** from the `flops` annotations the tensor
//!   kernels attach to their begin events,
//! * **step-time percentiles** from the trainer's `train-step` spans, and
//! * the **regen vs topk-rank vs gemm breakdown** of DropBack step time —
//!   the overhead question frozen-weight schemes compete on,
//!
//! plus the trace's counter series (weight diffusion, churn, allocation
//! high-water mark). Pairing is strict: an `E` without a matching `B` on
//! the same thread, or a `B` left open at end of trace, is an error — the
//! `check.sh` trace-smoke stage relies on that to catch export bugs.

use dropback_telemetry::Json;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Why a trace file could not be analyzed.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The file is not valid JSON or lacks a `traceEvents` array.
    Parse(String),
    /// A begin/end pairing violation (orphan `E`, name mismatch, or a `B`
    /// still open at end of trace).
    Unpaired(String),
    /// An event is missing a required field (`name`, `ph`, `ts`, `tid`).
    Malformed(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Parse(m) => write!(f, "trace parse error: {m}"),
            TraceError::Unpaired(m) => write!(f, "unpaired trace event: {m}"),
            TraceError::Malformed(m) => write!(f, "malformed trace event: {m}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Aggregate timing for one span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseRow {
    /// Span name.
    pub name: String,
    /// Completed span count.
    pub count: u64,
    /// Sum of span durations, microseconds.
    pub total_us: f64,
    /// Total minus time spent in child spans, microseconds.
    pub self_us: f64,
    /// Sum of `flops` annotations on begin events (0 when unannotated).
    pub flops: f64,
    /// Portion of `total_us` spent inside `train-step` spans.
    pub in_step_us: f64,
}

impl PhaseRow {
    /// Achieved GFLOP/s over this phase's total time, if annotated.
    pub fn gflops(&self) -> Option<f64> {
        if self.flops > 0.0 && self.total_us > 0.0 {
            Some(self.flops / (self.total_us * 1e-6) / 1e9)
        } else {
            None
        }
    }
}

/// One counter's samples: `(ts_us, value)` in trace order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterSeries {
    /// Counter name.
    pub name: String,
    /// Samples in timestamp order.
    pub samples: Vec<(f64, f64)>,
}

/// Aggregate of one async lane name (`ph: "b"/"e"` pairs keyed by id) —
/// e.g. the serving stages `serve.queue`, `serve.infer`, `serve.write`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AsyncStage {
    /// Lane name.
    pub name: String,
    /// Completed begin/end pairs.
    pub count: u64,
    /// Sum of lane durations, microseconds.
    pub total_us: f64,
    /// Individual lane durations (microseconds), sorted ascending.
    pub durations_us: Vec<f64>,
}

impl AsyncStage {
    /// Nearest-rank percentile (`p` in 0..=100) of lane duration, in
    /// microseconds.
    pub fn percentile_us(&self, p: f64) -> Option<f64> {
        let n = self.durations_us.len();
        if n == 0 {
            return None;
        }
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(self.durations_us[rank.clamp(1, n) - 1])
    }
}

/// One async instant event (`ph: "n"`), e.g. a per-batch flow annotation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstantRow {
    /// Event name.
    pub name: String,
    /// Timestamp, microseconds.
    pub ts_us: f64,
    /// The async id the instant was keyed by (e.g. a batch id).
    pub id: u64,
    /// Numeric annotations.
    pub args: Vec<(String, f64)>,
}

impl InstantRow {
    /// The value of annotation `key`, if present.
    pub fn arg(&self, key: &str) -> Option<f64> {
        self.args.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// The batch-fill-over-time digest derived from `serve.batch` instants.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchFillDigest {
    /// Number of flushed batches in the trace.
    pub batches: u64,
    /// Mean batch fill.
    pub fill_mean: f64,
    /// Smallest batch fill.
    pub fill_min: f64,
    /// Largest batch fill.
    pub fill_max: f64,
    /// Timestamp of the first batch, microseconds.
    pub first_ts_us: f64,
    /// Timestamp of the last batch, microseconds.
    pub last_ts_us: f64,
}

/// The digest of one trace file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceAnalysis {
    /// Per-span-name aggregates, sorted by self time descending.
    pub phases: Vec<PhaseRow>,
    /// `train-step` span durations (microseconds), sorted ascending.
    pub step_durations_us: Vec<f64>,
    /// Counter series, sorted by name.
    pub counters: Vec<CounterSeries>,
    /// Async lane aggregates (`b`/`e` pairs keyed by id), sorted by name.
    pub async_stages: Vec<AsyncStage>,
    /// Async instant events (`ph: "n"`), in timestamp order.
    pub instants: Vec<InstantRow>,
    /// Total events consumed (B + E + C + b + n + e).
    pub events: usize,
}

/// The span name the trainer wraps each optimizer step in.
const STEP_SPAN: &str = "train-step";

/// One open frame on a thread's span stack.
struct Frame {
    name: String,
    ts_us: f64,
    child_us: f64,
    flops: f64,
    in_step: bool,
}

/// Parses and analyzes a Chrome trace-event JSON document.
///
/// # Errors
///
/// Returns [`TraceError`] on invalid JSON, missing/mistyped event fields,
/// or begin/end pairing violations.
pub fn analyze_chrome_trace(text: &str) -> Result<TraceAnalysis, TraceError> {
    let doc = Json::parse(text).map_err(|e| TraceError::Parse(e.to_string()))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or_else(|| TraceError::Parse("missing traceEvents array".to_string()))?;

    let mut stacks: BTreeMap<u64, Vec<Frame>> = BTreeMap::new();
    let mut phases: BTreeMap<String, PhaseRow> = BTreeMap::new();
    let mut counters: BTreeMap<String, CounterSeries> = BTreeMap::new();
    let mut steps: Vec<f64> = Vec::new();
    // Async lanes pair process-wide by (name, id) — a lane may begin on a
    // connection thread and end on the batch worker.
    let mut open_async: HashMap<(String, u64), f64> = HashMap::new();
    let mut async_stages: BTreeMap<String, AsyncStage> = BTreeMap::new();
    let mut instants: Vec<InstantRow> = Vec::new();
    let mut consumed = 0usize;

    for (i, e) in events.iter().enumerate() {
        let field = |key: &str| {
            e.get(key)
                .ok_or_else(|| TraceError::Malformed(format!("event {i} missing `{key}`")))
        };
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| TraceError::Malformed(format!("event {i}: `ph` is not a string")))?;
        // Metadata and unknown phases (e.g. "M" process names) pass through.
        if !matches!(ph, "B" | "E" | "C" | "b" | "n" | "e") {
            continue;
        }
        let name = field("name")?
            .as_str()
            .ok_or_else(|| TraceError::Malformed(format!("event {i}: `name` is not a string")))?;
        let ts_us = field("ts")?
            .as_f64()
            .ok_or_else(|| TraceError::Malformed(format!("event {i}: `ts` is not a number")))?;
        if matches!(ph, "b" | "n" | "e") {
            let id = field("id")?.as_u64().ok_or_else(|| {
                TraceError::Malformed(format!("async event {i}: `id` is not an integer"))
            })?;
            consumed += 1;
            match ph {
                "b" => {
                    if open_async.insert((name.to_string(), id), ts_us).is_some() {
                        return Err(TraceError::Unpaired(format!(
                            "async `b` for `{name}` id {id} while that lane is already open"
                        )));
                    }
                }
                "e" => {
                    let begin_ts = open_async.remove(&(name.to_string(), id)).ok_or_else(|| {
                        TraceError::Unpaired(format!(
                            "async `e` for `{name}` id {id} without a matching `b`"
                        ))
                    })?;
                    let stage =
                        async_stages
                            .entry(name.to_string())
                            .or_insert_with(|| AsyncStage {
                                name: name.to_string(),
                                ..AsyncStage::default()
                            });
                    let duration = (ts_us - begin_ts).max(0.0);
                    stage.count += 1;
                    stage.total_us += duration;
                    stage.durations_us.push(duration);
                }
                _ => {
                    let args = match e.get("args") {
                        Some(Json::Obj(pairs)) => pairs
                            .iter()
                            .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                            .collect(),
                        _ => Vec::new(),
                    };
                    instants.push(InstantRow {
                        name: name.to_string(),
                        ts_us,
                        id,
                        args,
                    });
                }
            }
            continue;
        }
        let tid = field("tid")?
            .as_u64()
            .ok_or_else(|| TraceError::Malformed(format!("event {i}: `tid` is not an integer")))?;
        consumed += 1;
        match ph {
            "B" => {
                let flops = e
                    .get("args")
                    .and_then(|a| a.get("flops"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                let stack = stacks.entry(tid).or_default();
                let in_step = name == STEP_SPAN
                    || stack
                        .last()
                        .map(|f| f.in_step || f.name == STEP_SPAN)
                        .unwrap_or(false);
                stack.push(Frame {
                    name: name.to_string(),
                    ts_us,
                    child_us: 0.0,
                    flops,
                    in_step,
                });
            }
            "E" => {
                let stack = stacks.entry(tid).or_default();
                let frame = stack.pop().ok_or_else(|| {
                    TraceError::Unpaired(format!("`E` for `{name}` on tid {tid} with empty stack"))
                })?;
                if frame.name != name {
                    return Err(TraceError::Unpaired(format!(
                        "`E` for `{name}` on tid {tid} closes open span `{}`",
                        frame.name
                    )));
                }
                let duration = (ts_us - frame.ts_us).max(0.0);
                if let Some(parent) = stack.last_mut() {
                    parent.child_us += duration;
                }
                let row = phases
                    .entry(frame.name.clone())
                    .or_insert_with(|| PhaseRow {
                        name: frame.name.clone(),
                        ..PhaseRow::default()
                    });
                row.count += 1;
                row.total_us += duration;
                row.self_us += (duration - frame.child_us).max(0.0);
                row.flops += frame.flops;
                if frame.in_step {
                    row.in_step_us += duration;
                }
                if frame.name == STEP_SPAN {
                    steps.push(duration);
                }
            }
            _ => {
                let value = e
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| {
                        TraceError::Malformed(format!("counter event {i} missing args.value"))
                    })?;
                counters
                    .entry(name.to_string())
                    .or_insert_with(|| CounterSeries {
                        name: name.to_string(),
                        samples: Vec::new(),
                    })
                    .samples
                    .push((ts_us, value));
            }
        }
    }

    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(TraceError::Unpaired(format!(
                "span `{}` on tid {tid} has no `E` (and {} more open)",
                open.name,
                stack.len() - 1
            )));
        }
    }
    if let Some(((name, id), _)) = open_async.iter().next() {
        return Err(TraceError::Unpaired(format!(
            "async lane `{name}` id {id} has no `e` (and {} more open)",
            open_async.len() - 1
        )));
    }

    let mut phases: Vec<PhaseRow> = phases.into_values().collect();
    phases.sort_by(|a, b| {
        b.self_us
            .partial_cmp(&a.self_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    });
    steps.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mut async_stages: Vec<AsyncStage> = async_stages.into_values().collect();
    for s in &mut async_stages {
        s.durations_us
            .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    }
    instants.sort_by(|a, b| {
        a.ts_us
            .partial_cmp(&b.ts_us)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(TraceAnalysis {
        phases,
        step_durations_us: steps,
        counters: counters.into_values().collect(),
        async_stages,
        instants,
        events: consumed,
    })
}

impl TraceAnalysis {
    /// The row for `name`, if that span ever completed.
    pub fn phase(&self, name: &str) -> Option<&PhaseRow> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// The async lane aggregate for `name`, if any lane completed.
    pub fn async_stage(&self, name: &str) -> Option<&AsyncStage> {
        self.async_stages.iter().find(|s| s.name == name)
    }

    /// The batch-fill-over-time digest, derived from `serve.batch`
    /// instant annotations; `None` when the trace has no batches.
    pub fn batch_fill_digest(&self) -> Option<BatchFillDigest> {
        let rows: Vec<&InstantRow> = self
            .instants
            .iter()
            .filter(|r| r.name == "serve.batch")
            .collect();
        if rows.is_empty() {
            return None;
        }
        let fills: Vec<f64> = rows.iter().map(|r| r.arg("fill").unwrap_or(0.0)).collect();
        Some(BatchFillDigest {
            batches: rows.len() as u64,
            fill_mean: fills.iter().sum::<f64>() / fills.len() as f64,
            fill_min: fills.iter().copied().fold(f64::INFINITY, f64::min),
            fill_max: fills.iter().copied().fold(0.0, f64::max),
            first_ts_us: rows.first().map(|r| r.ts_us).unwrap_or(0.0),
            last_ts_us: rows.last().map(|r| r.ts_us).unwrap_or(0.0),
        })
    }

    /// Nearest-rank percentile (`p` in 0..=100) of `train-step` duration,
    /// in microseconds. `None` when the trace holds no steps.
    pub fn step_percentile_us(&self, p: f64) -> Option<f64> {
        let n = self.step_durations_us.len();
        if n == 0 {
            return None;
        }
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(self.step_durations_us[rank.clamp(1, n) - 1])
    }

    /// Fraction of total `train-step` time spent in each of the DropBack
    /// cost centers — `gemm`, `topk-rank`, `regen`, and everything else —
    /// or `None` when the trace has no steps. The three named phases are
    /// mutually exclusive on the span tree, so the fractions plus `other`
    /// sum to 1.
    pub fn dropback_breakdown(&self) -> Option<Vec<(&'static str, f64)>> {
        let step_total: f64 = self.step_durations_us.iter().sum();
        if step_total <= 0.0 {
            return None;
        }
        let frac = |name: &str| {
            self.phase(name)
                .map(|p| (p.in_step_us / step_total).min(1.0))
                .unwrap_or(0.0)
        };
        let gemm = frac("gemm");
        let rank = frac("topk-rank");
        let regen = frac("regen");
        let other = (1.0 - gemm - rank - regen).max(0.0);
        Some(vec![
            ("gemm", gemm),
            ("topk-rank", rank),
            ("regen", regen),
            ("other", other),
        ])
    }

    /// Renders the human-readable report: hotspot table (top `top` rows),
    /// step percentiles, DropBack breakdown, and counter summaries.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        let self_sum: f64 = self.phases.iter().map(|p| p.self_us).sum();
        out.push_str(&format!(
            "trace: {} events, {} span names, {} steps\n\n",
            self.events,
            self.phases.len(),
            self.step_durations_us.len()
        ));
        out.push_str(&format!(
            "{:<16} {:>8} {:>12} {:>12} {:>7} {:>9}\n",
            "span", "count", "total ms", "self ms", "self%", "GFLOP/s"
        ));
        for p in self.phases.iter().take(top.max(1)) {
            let pct = if self_sum > 0.0 {
                100.0 * p.self_us / self_sum
            } else {
                0.0
            };
            let gflops = p
                .gflops()
                .map(|g| format!("{g:>9.2}"))
                .unwrap_or_else(|| format!("{:>9}", "-"));
            out.push_str(&format!(
                "{:<16} {:>8} {:>12.3} {:>12.3} {:>6.1}% {gflops}\n",
                p.name,
                p.count,
                p.total_us / 1e3,
                p.self_us / 1e3,
                pct
            ));
        }
        if !self.step_durations_us.is_empty() {
            out.push_str(&format!(
                "\nstep time (n={}): p50 {:.3} ms, p90 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms\n",
                self.step_durations_us.len(),
                self.step_percentile_us(50.0).unwrap_or(0.0) / 1e3,
                self.step_percentile_us(90.0).unwrap_or(0.0) / 1e3,
                self.step_percentile_us(95.0).unwrap_or(0.0) / 1e3,
                self.step_percentile_us(99.0).unwrap_or(0.0) / 1e3,
            ));
        }
        if let Some(breakdown) = self.dropback_breakdown() {
            out.push_str("dropback step breakdown:");
            for (name, f) in &breakdown {
                out.push_str(&format!(" {name} {:.1}%", f * 100.0));
            }
            out.push('\n');
        }
        if !self.async_stages.is_empty() {
            out.push_str("\nasync stages (request lanes):\n");
            out.push_str(&format!(
                "  {:<16} {:>8} {:>12} {:>12} {:>12}\n",
                "lane", "count", "p50 ms", "p90 ms", "p99 ms"
            ));
            for s in &self.async_stages {
                out.push_str(&format!(
                    "  {:<16} {:>8} {:>12.3} {:>12.3} {:>12.3}\n",
                    s.name,
                    s.count,
                    s.percentile_us(50.0).unwrap_or(0.0) / 1e3,
                    s.percentile_us(90.0).unwrap_or(0.0) / 1e3,
                    s.percentile_us(99.0).unwrap_or(0.0) / 1e3,
                ));
            }
        }
        if let Some(b) = self.batch_fill_digest() {
            out.push_str(&format!(
                "batch fill: n={} mean={:.2} min={:.0} max={:.0}\n",
                b.batches, b.fill_mean, b.fill_min, b.fill_max
            ));
        }
        if !self.counters.is_empty() {
            out.push_str("\ncounters:\n");
            for c in &self.counters {
                let first = c.samples.first().map(|&(_, v)| v).unwrap_or(0.0);
                let last = c.samples.last().map(|&(_, v)| v).unwrap_or(0.0);
                out.push_str(&format!(
                    "  {:<24} n={:<5} first={first:.6} last={last:.6}\n",
                    c.name,
                    c.samples.len()
                ));
            }
        }
        out
    }

    /// Machine-readable form of the analysis (the `--json` mode output and
    /// the schema of `BENCH_trace.json`).
    pub fn to_json(&self) -> Json {
        let phases: Vec<Json> = self
            .phases
            .iter()
            .map(|p| {
                let mut fields = vec![
                    ("name".to_string(), Json::from(p.name.as_str())),
                    ("count".to_string(), Json::from(p.count)),
                    ("total_ms".to_string(), Json::Num(p.total_us / 1e3)),
                    ("self_ms".to_string(), Json::Num(p.self_us / 1e3)),
                ];
                if let Some(g) = p.gflops() {
                    fields.push(("gflops".to_string(), Json::Num(g)));
                }
                Json::Obj(fields)
            })
            .collect();
        let steps = Json::Obj(vec![
            (
                "count".to_string(),
                Json::from(self.step_durations_us.len()),
            ),
            ("p50_ms".to_string(), pct_ms(self, 50.0)),
            ("p90_ms".to_string(), pct_ms(self, 90.0)),
            ("p95_ms".to_string(), pct_ms(self, 95.0)),
            ("p99_ms".to_string(), pct_ms(self, 99.0)),
        ]);
        let breakdown = self
            .dropback_breakdown()
            .map(|b| {
                Json::Obj(
                    b.into_iter()
                        .map(|(name, f)| (name.replace('-', "_"), Json::Num(f)))
                        .collect(),
                )
            })
            .unwrap_or(Json::Null);
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|c| {
                    let first = c.samples.first().map(|&(_, v)| v).unwrap_or(0.0);
                    let last = c.samples.last().map(|&(_, v)| v).unwrap_or(0.0);
                    (
                        c.name.clone(),
                        Json::Obj(vec![
                            ("n".to_string(), Json::from(c.samples.len())),
                            ("first".to_string(), Json::Num(first)),
                            ("last".to_string(), Json::Num(last)),
                        ]),
                    )
                })
                .collect(),
        );
        let async_stages = Json::Obj(
            self.async_stages
                .iter()
                .map(|s| {
                    (
                        s.name.clone(),
                        Json::Obj(vec![
                            ("count".to_string(), Json::from(s.count)),
                            ("total_ms".to_string(), Json::Num(s.total_us / 1e3)),
                            ("p50_ms".to_string(), opt_ms(s.percentile_us(50.0))),
                            ("p90_ms".to_string(), opt_ms(s.percentile_us(90.0))),
                            ("p99_ms".to_string(), opt_ms(s.percentile_us(99.0))),
                        ]),
                    )
                })
                .collect(),
        );
        let batches = self
            .batch_fill_digest()
            .map(|b| {
                Json::Obj(vec![
                    ("count".to_string(), Json::from(b.batches)),
                    ("fill_mean".to_string(), Json::Num(b.fill_mean)),
                    ("fill_min".to_string(), Json::Num(b.fill_min)),
                    ("fill_max".to_string(), Json::Num(b.fill_max)),
                    (
                        "span_ms".to_string(),
                        Json::Num((b.last_ts_us - b.first_ts_us) / 1e3),
                    ),
                ])
            })
            .unwrap_or(Json::Null);
        Json::Obj(vec![
            ("events".to_string(), Json::from(self.events)),
            ("steps".to_string(), steps),
            ("phases".to_string(), Json::Arr(phases)),
            ("dropback_breakdown".to_string(), breakdown),
            ("counters".to_string(), counters),
            ("async".to_string(), async_stages),
            ("batches".to_string(), batches),
        ])
    }
}

fn opt_ms(us: Option<f64>) -> Json {
    us.map(|v| Json::Num(v / 1e3)).unwrap_or(Json::Null)
}

fn pct_ms(a: &TraceAnalysis, p: f64) -> Json {
    a.step_percentile_us(p)
        .map(|us| Json::Num(us / 1e3))
        .unwrap_or(Json::Null)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, ph: &str, ts: f64, tid: u64, args: &str) -> String {
        let args = if args.is_empty() {
            String::new()
        } else {
            format!(",\"args\":{{{args}}}")
        };
        format!("{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":1,\"tid\":{tid}{args}}}")
    }

    fn doc(events: &[String]) -> String {
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }

    #[test]
    fn nested_spans_split_self_and_total_time() {
        // step [0, 1000] containing gemm [100, 700] containing im2col [200, 300].
        let text = doc(&[
            ev("train-step", "B", 0.0, 0, ""),
            ev("gemm", "B", 100.0, 0, "\"flops\":1200000"),
            ev("im2col", "B", 200.0, 0, ""),
            ev("im2col", "E", 300.0, 0, ""),
            ev("gemm", "E", 700.0, 0, ""),
            ev("train-step", "E", 1000.0, 0, ""),
        ]);
        let a = analyze_chrome_trace(&text).expect("valid trace");
        assert_eq!(a.events, 6);
        let step = a.phase("train-step").expect("step row");
        assert!((step.total_us - 1000.0).abs() < 1e-9);
        assert!((step.self_us - 400.0).abs() < 1e-9, "1000 - 600 gemm");
        let gemm = a.phase("gemm").expect("gemm row");
        assert!((gemm.total_us - 600.0).abs() < 1e-9);
        assert!((gemm.self_us - 500.0).abs() < 1e-9, "600 - 100 im2col");
        assert!(gemm.in_step_us > 0.0);
        // 1.2 MFLOP over 600 us = 2 GFLOP/s.
        assert!((gemm.gflops().expect("annotated") - 2.0).abs() < 1e-9);
        // Hotspots sorted by self time: gemm (500) first.
        assert_eq!(a.phases[0].name, "gemm");
    }

    #[test]
    fn step_percentiles_are_exact_nearest_rank() {
        let mut events = Vec::new();
        // 10 steps with durations 100, 200, ..., 1000 us.
        for i in 0..10u32 {
            let start = f64::from(i) * 10_000.0;
            events.push(ev("train-step", "B", start, 0, ""));
            events.push(ev(
                "train-step",
                "E",
                start + 100.0 * f64::from(i + 1),
                0,
                "",
            ));
        }
        let a = analyze_chrome_trace(&doc(&events)).expect("valid trace");
        assert_eq!(a.step_durations_us.len(), 10);
        assert!((a.step_percentile_us(50.0).expect("p50") - 500.0).abs() < 1e-9);
        assert!((a.step_percentile_us(90.0).expect("p90") - 900.0).abs() < 1e-9);
        assert!((a.step_percentile_us(100.0).expect("p100") - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn dropback_breakdown_fractions_sum_to_one() {
        let text = doc(&[
            ev("train-step", "B", 0.0, 0, ""),
            ev("gemm", "B", 0.0, 0, ""),
            ev("gemm", "E", 400.0, 0, ""),
            ev("topk-rank", "B", 400.0, 0, ""),
            ev("topk-rank", "E", 500.0, 0, ""),
            ev("regen", "B", 500.0, 0, ""),
            ev("regen", "E", 550.0, 0, ""),
            ev("train-step", "E", 1000.0, 0, ""),
            // A gemm outside any step (eval) must not count toward the
            // breakdown numerators.
            ev("gemm", "B", 2000.0, 0, ""),
            ev("gemm", "E", 2900.0, 0, ""),
        ]);
        let a = analyze_chrome_trace(&text).expect("valid trace");
        let b = a.dropback_breakdown().expect("has steps");
        let get = |n: &str| {
            b.iter()
                .find(|(k, _)| *k == n)
                .map(|&(_, v)| v)
                .unwrap_or(-1.0)
        };
        assert!((get("gemm") - 0.4).abs() < 1e-9, "in-step gemm only");
        assert!((get("topk-rank") - 0.1).abs() < 1e-9);
        assert!((get("regen") - 0.05).abs() < 1e-9);
        let total: f64 = b.iter().map(|&(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn counters_collected_in_order() {
        let text = doc(&[
            ev("diffusion.l2_from_init", "C", 10.0, 0, "\"value\":1.5"),
            ev("diffusion.l2_from_init", "C", 20.0, 0, "\"value\":2.5"),
        ]);
        let a = analyze_chrome_trace(&text).expect("valid trace");
        assert_eq!(a.counters.len(), 1);
        assert_eq!(a.counters[0].samples, vec![(10.0, 1.5), (20.0, 2.5)]);
    }

    #[test]
    fn orphan_end_is_rejected() {
        let text = doc(&[ev("gemm", "E", 10.0, 0, "")]);
        match analyze_chrome_trace(&text) {
            Err(TraceError::Unpaired(m)) => assert!(m.contains("empty stack"), "{m}"),
            other => panic!("expected Unpaired, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_end_name_is_rejected() {
        let text = doc(&[ev("a", "B", 0.0, 0, ""), ev("b", "E", 10.0, 0, "")]);
        assert!(matches!(
            analyze_chrome_trace(&text),
            Err(TraceError::Unpaired(_))
        ));
    }

    #[test]
    fn open_span_at_eof_is_rejected() {
        let text = doc(&[ev("gemm", "B", 0.0, 0, "")]);
        assert!(matches!(
            analyze_chrome_trace(&text),
            Err(TraceError::Unpaired(_))
        ));
    }

    #[test]
    fn same_name_on_different_threads_pairs_independently() {
        let text = doc(&[
            ev("gemm", "B", 0.0, 1, ""),
            ev("gemm", "B", 5.0, 2, ""),
            ev("gemm", "E", 30.0, 2, ""),
            ev("gemm", "E", 100.0, 1, ""),
        ]);
        let a = analyze_chrome_trace(&text).expect("valid trace");
        let gemm = a.phase("gemm").expect("gemm row");
        assert_eq!(gemm.count, 2);
        assert!((gemm.total_us - 125.0).abs() < 1e-9);
        // Parallel same-name spans on different tids don't nest.
        assert!((gemm.self_us - 125.0).abs() < 1e-9);
    }

    fn aev(name: &str, ph: &str, ts: f64, id: u64, args: &str) -> String {
        let args = if args.is_empty() {
            String::new()
        } else {
            format!(",\"args\":{{{args}}}")
        };
        format!(
            "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":1,\"tid\":0,\"id\":{id}{args}}}"
        )
    }

    #[test]
    fn async_lanes_pair_by_id_and_interleave_freely() {
        // Two request lanes interleaved: 1 opens, 2 opens, 2 closes, 1
        // closes — legal for async (unlike B/E stack discipline), and the
        // stage rows must aggregate both.
        let text = doc(&[
            aev("serve.queue", "b", 0.0, 1, ""),
            aev("serve.queue", "b", 10.0, 2, ""),
            aev("serve.queue", "e", 30.0, 2, ""),
            aev("serve.queue", "e", 100.0, 1, ""),
            aev("serve.infer", "b", 100.0, 1, ""),
            aev("serve.infer", "e", 150.0, 1, ""),
        ]);
        let a = analyze_chrome_trace(&text).expect("valid trace");
        assert_eq!(a.events, 6);
        let queue = a.async_stage("serve.queue").expect("queue stage");
        assert_eq!(queue.count, 2);
        assert_eq!(queue.durations_us, vec![20.0, 100.0]);
        assert!((queue.percentile_us(50.0).unwrap() - 20.0).abs() < 1e-9);
        assert!((queue.percentile_us(99.0).unwrap() - 100.0).abs() < 1e-9);
        let infer = a.async_stage("serve.infer").expect("infer stage");
        assert_eq!(infer.count, 1);
        // JSON carries the per-stage percentiles.
        let j = a.to_json();
        let q = j.get("async").and_then(|x| x.get("serve.queue")).unwrap();
        assert_eq!(q.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(q.get("p99_ms").and_then(Json::as_f64), Some(0.1));
    }

    #[test]
    fn orphan_async_end_is_rejected() {
        let text = doc(&[aev("serve.req", "e", 10.0, 5, "")]);
        match analyze_chrome_trace(&text) {
            Err(TraceError::Unpaired(m)) => assert!(m.contains("without a matching"), "{m}"),
            other => panic!("expected Unpaired, got {other:?}"),
        }
    }

    #[test]
    fn open_async_lane_at_eof_is_rejected() {
        let text = doc(&[aev("serve.req", "b", 0.0, 5, "")]);
        match analyze_chrome_trace(&text) {
            Err(TraceError::Unpaired(m)) => assert!(m.contains("has no `e`"), "{m}"),
            other => panic!("expected Unpaired, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_open_async_lane_is_rejected() {
        let text = doc(&[
            aev("serve.req", "b", 0.0, 5, ""),
            aev("serve.req", "b", 1.0, 5, ""),
        ]);
        match analyze_chrome_trace(&text) {
            Err(TraceError::Unpaired(m)) => assert!(m.contains("already open"), "{m}"),
            other => panic!("expected Unpaired, got {other:?}"),
        }
    }

    #[test]
    fn same_id_different_names_are_distinct_lanes() {
        let text = doc(&[
            aev("serve.req", "b", 0.0, 1, ""),
            aev("serve.queue", "b", 1.0, 1, ""),
            aev("serve.queue", "e", 2.0, 1, ""),
            aev("serve.req", "e", 3.0, 1, ""),
        ]);
        let a = analyze_chrome_trace(&text).expect("valid trace");
        assert_eq!(a.async_stages.len(), 2);
    }

    #[test]
    fn async_event_without_id_is_malformed() {
        let text = doc(&[ev("serve.req", "b", 0.0, 0, "")]);
        assert!(matches!(
            analyze_chrome_trace(&text),
            Err(TraceError::Malformed(_))
        ));
    }

    #[test]
    fn batch_instants_build_the_fill_digest() {
        let text = doc(&[
            aev("serve.batch", "n", 100.0, 1, "\"fill\":4,\"epoch\":2"),
            aev("serve.batch", "n", 300.0, 2, "\"fill\":8,\"epoch\":2"),
        ]);
        let a = analyze_chrome_trace(&text).expect("valid trace");
        assert_eq!(a.instants.len(), 2);
        let d = a.batch_fill_digest().expect("digest");
        assert_eq!(d.batches, 2);
        assert!((d.fill_mean - 6.0).abs() < 1e-9);
        assert_eq!(d.fill_min, 4.0);
        assert_eq!(d.fill_max, 8.0);
        let j = a.to_json();
        let b = j.get("batches").unwrap();
        assert_eq!(b.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(b.get("span_ms").and_then(Json::as_f64), Some(0.2));
        // The render names the new sections too.
        let a2 = analyze_chrome_trace(&doc(&[
            aev("serve.queue", "b", 0.0, 1, ""),
            aev("serve.queue", "e", 50.0, 1, ""),
            aev("serve.batch", "n", 20.0, 1, "\"fill\":1"),
        ]))
        .expect("valid");
        let report = a2.render(5);
        assert!(report.contains("async stages"), "{report}");
        assert!(report.contains("serve.queue"), "{report}");
        assert!(report.contains("batch fill"), "{report}");
    }

    #[test]
    fn garbage_input_is_a_parse_error() {
        assert!(matches!(
            analyze_chrome_trace("not json"),
            Err(TraceError::Parse(_))
        ));
        assert!(matches!(
            analyze_chrome_trace("{\"foo\":1}"),
            Err(TraceError::Parse(_))
        ));
    }

    #[test]
    fn render_and_json_cover_all_sections() {
        let text = doc(&[
            ev("train-step", "B", 0.0, 0, ""),
            ev("gemm", "B", 0.0, 0, "\"flops\":1000000"),
            ev("gemm", "E", 500.0, 0, ""),
            ev("train-step", "E", 1000.0, 0, ""),
            ev("tracked.churn", "C", 1000.0, 0, "\"value\":42"),
        ]);
        let a = analyze_chrome_trace(&text).expect("valid trace");
        let report = a.render(10);
        for needle in ["span", "gemm", "train-step", "step time", "tracked.churn"] {
            assert!(report.contains(needle), "missing {needle} in:\n{report}");
        }
        let j = a.to_json();
        assert_eq!(
            j.get("steps")
                .and_then(|s| s.get("count"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert!(j.get("phases").and_then(Json::as_array).is_some());
        assert!(j
            .get("counters")
            .and_then(|c| c.get("tracked.churn"))
            .is_some());
        // The JSON mode output itself round-trips through the parser.
        let reparsed = Json::parse(&j.render()).expect("to_json output parses");
        assert_eq!(
            reparsed
                .get("dropback_breakdown")
                .and_then(|b| b.get("gemm"))
                .and_then(Json::as_f64)
                .map(|v| (v - 0.5).abs() < 1e-9),
            Some(true)
        );
    }
}
