//! One benchmark for the SWAMP sensor-frame path.
//!
//! ```text
//! framebench --workload <field_secure|pilot_fleet|dashboard_reads>
//!            --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Every input is generated from the seed before timing starts. A run
//! repeats passes — set-up, the timed workload, then the untimed output
//! checks — until `--seconds` have gone by, and reports each timing as
//! the median over passes of the pass's own figure. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced passes and prints the per-layer metrics,
//! the residual share of wall time no layer accounts for, and the tracing
//! overhead. The last stdout line is one JSON object; a human summary goes
//! to stderr. The exit code is 1 if any output check fails, and 2 on bad
//! arguments.

mod common;
mod dash;
mod field;
mod fleet;
mod reads;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use crate::common::Pass;
use crate::reads::Kind;
use crate::stats::{median, peak_rss_mb, percentile, reset_peak_rss};
use crate::trace::{Layer, Off, Trace, Tracer};

/// Fewest passes a run makes, however long they take.
const MIN_PASSES: usize = 2;
/// Set-ups timed on their own before each untraced pass; with the pass's
/// own, they spread `setup_s`'s samples over the whole run.
const SETUPS_PER_PASS: usize = 3;
/// No new pass starts after this many seconds, so a run ends in time.
const MAX_RUN_S: f64 = 120.0;

const USAGE: &str = "usage: framebench --workload <field_secure|pilot_fleet|dashboard_reads> \
                     --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(name.to_owned(), value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_owned())?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be a u64".to_owned())?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

enum Work {
    Field(field::Field),
    Fleet(Box<fleet::Fleet>),
    Dash(dash::Dash),
}

impl Work {
    fn new(name: &str, seed: u64) -> Option<Work> {
        Some(match name {
            "field_secure" => Work::Field(field::Field::new(seed)),
            "pilot_fleet" => Work::Fleet(Box::new(fleet::Fleet::new(seed))),
            "dashboard_reads" => Work::Dash(dash::Dash::new(seed)),
            _ => return None,
        })
    }

    fn pass<T: Trace>(&self, trace: &mut T) -> Pass {
        match self {
            Work::Field(w) => w.pass(trace),
            Work::Fleet(w) => w.pass(trace),
            Work::Dash(w) => w.pass(trace),
        }
    }

    /// Times one set-up on its own.
    fn setup_s(&self) -> f64 {
        let t = Instant::now();
        let sp = match self {
            Work::Field(w) => w.setup(),
            Work::Fleet(w) => w.setup(),
            Work::Dash(w) => w.setup(),
        };
        let s = t.elapsed().as_secs_f64();
        drop(sp);
        s
    }

    fn shape(&self) -> String {
        match self {
            Work::Field(w) => w.shape(),
            Work::Fleet(w) => w.shape(),
            Work::Dash(w) => w.shape(),
        }
    }

    /// An untraced pass driving the same calls as the traced pass, where
    /// the untraced passes drive others: `pilot_fleet` on one worker,
    /// `field_secure` sealed in the benchmark without the radio. It is the
    /// baseline for the tracing overhead and must match the traced pass's
    /// deterministic outcome.
    fn baseline_pass(&self) -> Option<Pass> {
        match self {
            Work::Fleet(w) => Some(w.pass_on(&mut Off, 1)),
            Work::Field(w) => Some(w.pass_on(&mut Off, true)),
            Work::Dash(_) => None,
        }
    }

    /// Whether the traced pass drives the same calls as the untraced one
    /// (`field_secure`'s traced pass skips the radio).
    fn traced_same_calls(&self) -> bool {
        !matches!(self, Work::Field(_))
    }
}

/// Per-layer totals of one traced pass.
#[derive(Default)]
struct LayerTotals {
    /// Self time (ns) and span count per layer.
    own: BTreeMap<Layer, (u64, u64)>,
    /// Query durations (µs) per kind.
    query_us: BTreeMap<Kind, Vec<f64>>,
    /// Max ÷ mean shard pump time, per platform round.
    skew: Vec<f64>,
}

impl LayerTotals {
    fn from_tracer(t: &Tracer) -> LayerTotals {
        let mut out = LayerTotals::default();
        let mut pumps: Vec<(u64, u64)> = Vec::new();
        for (span, own) in t.spans.iter().zip(t.self_ns()) {
            if span.layer == Layer::Round {
                continue;
            }
            let slot = out.own.entry(span.layer).or_default();
            slot.0 += own;
            slot.1 += 1;
            match span.layer {
                Layer::Query(kind) => out
                    .query_us
                    .entry(kind)
                    .or_default()
                    .push(span.ns() as f64 / 1e3),
                Layer::Pump => pumps.push((span.id, span.ns())),
                _ => {}
            }
        }
        for group in pumps.chunk_by(|a, b| a.0 == b.0) {
            let max = group.iter().map(|p| p.1).max().unwrap_or(0) as f64;
            let mean = group.iter().map(|p| p.1).sum::<u64>() as f64 / group.len() as f64;
            if mean > 0.0 {
                out.skew.push(max / mean);
            }
        }
        out
    }

    fn merge(&mut self, other: LayerTotals) {
        for (layer, (ns, n)) in other.own {
            let slot = self.own.entry(layer).or_default();
            slot.0 += ns;
            slot.1 += n;
        }
        for (kind, v) in other.query_us {
            self.query_us.entry(kind).or_default().extend(v);
        }
        self.skew.extend(other.skew);
    }

    /// Self µs per span of a layer (0 if the workload never calls it).
    fn per_call_us(&self, layer: Layer) -> f64 {
        self.own
            .get(&layer)
            .map_or(0.0, |&(ns, n)| ns as f64 / 1e3 / n.max(1) as f64)
    }

    fn own_us(&self, layer: Layer) -> f64 {
        self.own.get(&layer).map_or(0.0, |&(ns, _)| ns as f64 / 1e3)
    }

    fn total_own_s(&self) -> f64 {
        self.own.values().map(|&(ns, _)| ns as f64).sum::<f64>() / 1e9
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// `setups` are set-up times and `peaks` each untraced pass's peak
/// resident memory.
fn end_to_end(passes: &[Pass], setups: &[f64], peaks: &[f64]) -> Vec<Metric> {
    // Each pass's figure first, then the median over passes, so one pass
    // slowed by the machine moves no metric on its own.
    let over = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let det = &passes[0].det;
    vec![
        metric(
            "records_per_s",
            over(&|p| p.records as f64 / p.wall_s),
            "1/s",
        ),
        metric(
            "round_ms_p50",
            over(&|p| percentile(&p.round_ms, 0.5)),
            "ms",
        ),
        metric(
            "round_ms_p90",
            over(&|p| percentile(&p.round_ms, 0.9)),
            "ms",
        ),
        metric("fresh_s_p50", det.fresh_p50, "sim_s"),
        metric("fresh_s_p99", det.fresh_p99, "sim_s"),
        metric("setup_s", median(setups), "s"),
        metric("peak_rss_mb", median(peaks), "MB"),
        metric(
            "query_us_p50",
            over(&|p| percentile(&p.query_us, 0.5)),
            "us",
        ),
        metric(
            "query_us_p99",
            over(&|p| percentile(&p.query_us, 0.99)),
            "us",
        ),
        metric("recall", det.recall, "ratio"),
        metric("precision", det.precision, "ratio"),
    ]
}

/// `untraced` are the untraced passes driving the traced pass's calls,
/// the baseline for the tracing overhead.
fn per_layer(
    plain: &[Pass],
    untraced: &[Pass],
    traced: &[Pass],
    layers: &LayerTotals,
) -> Vec<Metric> {
    let det = &plain[0].det;
    // Mean µs per call of one part of the admission breakdown, pooled
    // over the traced passes.
    let per = |part: fn(&common::TraceExtra) -> (f64, u64)| {
        let (us, n) = traced
            .iter()
            .map(|p| part(&p.extra))
            .fold((0.0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        us / n.max(1) as f64
    };
    let applied: u64 = traced.iter().map(|p| p.extra.applied).sum();
    let mut out = vec![
        metric("device.seal_us", layers.per_call_us(Layer::Seal), "us"),
        metric("admit.us", layers.per_call_us(Layer::Admit), "us"),
        metric("crypto.key_us", per(|e| e.key), "us"),
        metric("crypto.open_us", per(|e| e.open), "us"),
        metric("codec.decode_us", per(|e| e.decode), "us"),
        metric(
            "apply.us",
            layers.own_us(Layer::Apply) / applied.max(1) as f64,
            "us",
        ),
        metric("round.us", layers.per_call_us(Layer::Pump), "us"),
        metric("aggregate.us", layers.per_call_us(Layer::Aggregate), "us"),
        metric("shard.skew", median(&layers.skew), "ratio"),
    ];
    for kind in Kind::ALL {
        let v = layers.query_us.get(&kind).cloned().unwrap_or_default();
        out.push(metric(
            format!("query.{}_us_p50", kind.name()),
            percentile(&v, 0.5),
            "us",
        ));
        out.push(metric(
            format!("query.{}_us_p99", kind.name()),
            percentile(&v, 0.99),
            "us",
        ));
    }
    out.push(metric("lag.fog_s_p99", det.lag_fog_p99, "sim_s"));
    out.push(metric("lag.sync_s_p99", det.lag_sync_p99, "sim_s"));
    let c = |name: &str| det.counts.get(name).copied().unwrap_or(0) as f64;
    for name in [
        "net.lost",
        "ingest.accepted",
        "ingest.rejected_replay",
        "sync.transmissions",
        "sync.retransmissions",
    ] {
        out.push(metric(name, c(name), "count"));
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.push(metric(
        "sync.useful_ratio",
        ratio(c("sync.acked"), c("sync.transmissions")),
        "ratio",
    ));
    let pending_max = traced
        .iter()
        .map(|p| p.extra.pending_max)
        .fold(0.0, f64::max);
    out.push(metric("sync.pending_max", pending_max, "count"));
    for name in [
        "cloud.duplicates",
        "shardfwd.records",
        "query.segments_pruned",
        "query.segments_summarized",
        "query.segments_decoded",
    ] {
        out.push(metric(name, c(name), "count"));
    }
    let scanned = c("query.segments_summarized") + c("query.segments_decoded");
    out.push(metric(
        "query.summary_ratio",
        ratio(c("query.segments_summarized"), scanned),
        "ratio",
    ));
    for name in [
        "view.applied",
        "security.baseline.scored",
        "security.baseline.flagged",
    ] {
        out.push(metric(name, c(name), "count"));
    }
    let traced_wall: f64 = traced.iter().map(|p| p.wall_s).sum();
    out.push(metric(
        "residual_share",
        1.0 - layers.total_own_s() / traced_wall,
        "ratio",
    ));
    let walls = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    out.push(metric(
        "trace.overhead",
        walls(traced) / walls(untraced) - 1.0,
        "ratio",
    ));
    out
}

fn report_pass(kind: &str, p: &Pass) {
    eprintln!(
        "  pass ({kind}): setup {:.4} s, timed {:.3} s, {:.1} records/s",
        p.setup_s,
        p.wall_s,
        p.records as f64 / p.wall_s
    );
}

/// Writes the last traced pass's spans next to the benchmark's sources.
fn write_spans(workload: &str, seed: u64, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    let result =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
    match result {
        Ok(()) => eprintln!("spans: {} ({} spans)", path.display(), tracer.spans.len()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let generated = Instant::now();
    let Some(work) = Work::new(&args.workload, args.seed) else {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    eprintln!(
        "{} seed {}: {} (nproc {}; inputs generated in {:.2} s)",
        args.workload,
        args.seed,
        work.shape(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        generated.elapsed().as_secs_f64()
    );

    let started = Instant::now();
    let mut setups: Vec<f64> = Vec::new();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut baseline: Vec<Pass> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    let mut layers = LayerTotals::default();
    let mut last_tracer = None;
    loop {
        if !args.trace {
            setups.extend((0..SETUPS_PER_PASS).map(|_| work.setup_s()));
        }
        reset_peak_rss();
        plain.push(work.pass(&mut Off));
        peaks.push(peak_rss_mb());
        setups.push(plain[plain.len() - 1].setup_s);
        report_pass("untraced", &plain[plain.len() - 1]);
        if args.trace {
            baseline.extend(work.baseline_pass());
            let mut tracer = Tracer::new();
            traced.push(work.pass(&mut tracer));
            layers.merge(LayerTotals::from_tracer(&tracer));
            last_tracer = Some(tracer);
        }
        let elapsed = started.elapsed().as_secs_f64();
        if (plain.len() >= MIN_PASSES && elapsed >= args.seconds) || elapsed >= MAX_RUN_S {
            break;
        }
    }

    let mut problems: Vec<String> = Vec::new();
    if plain.windows(2).any(|w| w[0].det != w[1].det) {
        problems.push("deterministic outcome differs between untraced passes".into());
    }
    if traced.windows(2).any(|w| w[0].det != w[1].det) {
        problems.push("deterministic outcome differs between traced passes".into());
    }
    if let Some(t) = traced.first() {
        if baseline.iter().any(|p| p.det != t.det) {
            problems.push("traced pass and its untraced baseline disagree".into());
        }
    }
    if work.traced_same_calls() && traced.first().is_some_and(|t| t.det != plain[0].det) {
        problems
            .push("traced pass (one worker, per-shard calls) and untraced pass disagree".into());
    }
    let all = plain.iter().chain(&baseline).chain(&traced);
    let attempted: u64 = all.clone().map(|p| p.det.attempted).sum();
    let failed: u64 = all.map(|p| p.det.failed).sum();
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }
    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }

    let metrics = if args.trace {
        if let Some(t) = &last_tracer {
            write_spans(&args.workload, args.seed, t);
        }
        let untraced = if baseline.is_empty() {
            &plain
        } else {
            &baseline
        };
        per_layer(&plain, untraced, &traced, &layers)
    } else {
        end_to_end(&plain, &setups, &peaks)
    };
    eprintln!(
        "{} untraced + {} baseline + {} traced passes in {:.1} s; digest {:016x}; fail_ratio {}",
        plain.len(),
        baseline.len(),
        traced.len(),
        started.elapsed().as_secs_f64(),
        plain[0].det.digest,
        failed as f64 / attempted.max(1) as f64
    );
    let mut json = String::new();
    for (i, m) in metrics.iter().enumerate() {
        eprintln!("  {:<28} {:>16} {}", m.name, m.value, m.unit);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        problems.is_empty()
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
