//! `bench e15`: E15 columnar read path. Each device tier drives two
//! platforms — flat history (pre-segment layout) and 64-sample columnar
//! segments — through identical rounds of hot-tier ingest, zipfian query
//! bursts and retention passes.
//!
//! The gate holds the four claims the layout makes:
//!
//! 1. **Equivalence** — both layouts answer the end-state query battery
//!    byte-identically (hard, machine-independent);
//! 2. **Summary path engages** — at the largest tier the segmented store
//!    must have pruned whole segments on recent windows *and* answered
//!    wide [`Extremes`] windows from frozen summaries without decoding;
//! 3. **Wide reads win** — segmented wide-read p90 must beat flat's at
//!    the largest tier. On the full-horizon Extremes reads the flat
//!    layout walks every in-window sample while the segmented layout
//!    folds one frozen summary per segment. The gate statistic is the
//!    p90 *of the wide reads only*: zipfian mass puts the top decile of
//!    wide reads on deep hot series at every tier (hot-series depth is
//!    set by the round schedule, not the device count), and p90 sits
//!    below the scheduler-noise outliers that make the overall p99
//!    layout-independent;
//! 4. **Retention parity** — with the round-aligned horizon no segment
//!    straddles the cutoff, so segmented retention is whole-segment
//!    drops and must stay within 1.3× of the flat memmove (both are
//!    dominated by the cold per-series floor). Aggregate query
//!    throughput must hold at least 10k/s.
//!
//! [`Extremes`]: swamp_core::query::QueryRequest::Extremes

use swamp_codec::json::Json;
use swamp_pilots::experiments::{e15_read_path_observed, E15Result};

use crate::{cores, envelope, rounded, Args, Clock, Outcome};

const QUERIES_PER_ROUND: usize = 400;

fn check(result: &E15Result, sizes: &[usize]) -> Result<(), String> {
    for row in &result.rows {
        if !row.responses_match {
            return Err(format!(
                "{} devices / {}: end-state query battery diverged between layouts",
                row.devices, row.layout
            ));
        }
        if row.queries == 0 {
            return Err(format!(
                "{} devices / {}: no queries ran",
                row.devices, row.layout
            ));
        }
    }
    let largest = *sizes.iter().max().ok_or("empty tier list")?;
    let flat = result
        .row(largest, "flat")
        .ok_or_else(|| format!("missing flat row at {largest} devices"))?;
    let seg = result
        .row(largest, "segmented")
        .ok_or_else(|| format!("missing segmented row at {largest} devices"))?;
    if seg.segments_pruned == 0 {
        return Err(format!(
            "{largest} devices: segmented layout never pruned a segment — \
             recent-window pruning is not engaging"
        ));
    }
    if seg.segments_summarized == 0 {
        return Err(format!(
            "{largest} devices: no segment was answered from its frozen \
             summary — the wide-read path is not engaging"
        ));
    }
    if seg.wide_p90_us >= flat.wide_p90_us {
        return Err(format!(
            "{largest} devices: segmented wide-read p90 {:.1} µs did not beat \
             flat's {:.1} µs — summaries should beat the uncompacted scan",
            seg.wide_p90_us, flat.wide_p90_us
        ));
    }
    if seg.p99_us > flat.p99_us * 4.0 {
        return Err(format!(
            "{largest} devices: segmented overall p99 {:.1} µs regressed past \
             4x flat p99 {:.1} µs",
            seg.p99_us, flat.p99_us
        ));
    }
    if seg.retention_ms > flat.retention_ms * 1.3 {
        return Err(format!(
            "{largest} devices: segmented retention ({:.2} ms) regressed past \
             1.3x the flat scan-and-shift ({:.2} ms)",
            seg.retention_ms, flat.retention_ms
        ));
    }
    for row in [flat, seg] {
        if row.queries_per_s < 10_000.0 {
            return Err(format!(
                "{largest} devices / {}: query throughput {:.0}/s below the 10k/s floor",
                row.layout, row.queries_per_s
            ));
        }
    }
    Ok(())
}

pub fn run(args: &Args, clock: &Clock) -> Outcome {
    let (result, obs_reports) =
        e15_read_path_observed(42, &args.nums, QUERIES_PER_ROUND, &mut || clock.now());
    eprintln!("{}", result.report());

    let rows: Vec<Json> = result
        .rows
        .iter()
        .map(|r| {
            // Retention ratio vs the flat twin of the same tier. With
            // the round-aligned horizon this is a parity check, not a
            // headline: both layouts pay the same cold per-series floor.
            let retention_speedup = result
                .row(r.devices, "flat")
                .filter(|_| r.retention_ms > 0.0)
                .map(|f| f.retention_ms / r.retention_ms)
                .unwrap_or(0.0);
            Json::object([
                ("devices", Json::Number(r.devices as f64)),
                ("layout", Json::String(r.layout.into())),
                ("ingested", Json::Number(r.ingested as f64)),
                ("live_samples", Json::Number(r.live_samples as f64)),
                ("segments", Json::Number(r.segments as f64)),
                ("queries", Json::Number(r.queries as f64)),
                ("p50_us", rounded(r.p50_us, 10.0)),
                ("p99_us", rounded(r.p99_us, 10.0)),
                ("wide_p50_us", rounded(r.wide_p50_us, 10.0)),
                ("wide_p90_us", rounded(r.wide_p90_us, 10.0)),
                ("wide_p99_us", rounded(r.wide_p99_us, 10.0)),
                ("queries_per_s", Json::Number(r.queries_per_s.round())),
                ("segments_pruned", Json::Number(r.segments_pruned as f64)),
                (
                    "segments_summarized",
                    Json::Number(r.segments_summarized as f64),
                ),
                ("segments_decoded", Json::Number(r.segments_decoded as f64)),
                ("retention_ms", rounded(r.retention_ms, 100.0)),
                (
                    "retention_speedup_vs_flat",
                    rounded(retention_speedup, 100.0),
                ),
                (
                    "retention_removed",
                    Json::Number(r.retention_removed as f64),
                ),
                ("responses_match", Json::Bool(r.responses_match)),
            ])
        })
        .collect();
    let doc = envelope(
        "e15_read_path",
        "Mixed read/write wall-clock sweep over the columnar read \
         path: flat vs 64-sample segmented history per device \
         tier, with zipfian query bursts, hot-tier deep series \
         and per-round retention. Latencies are per-query \
         (p50/p99); the p99 tail is the full-horizon Extremes \
         reads, where segment summaries beat the uncompacted \
         scan; retention is parity under the round-aligned \
         horizon.",
        [
            ("available_parallelism", Json::Number(cores() as f64)),
            ("queries_per_round", Json::Number(QUERIES_PER_ROUND as f64)),
            ("rows", Json::Array(rows)),
        ],
    );
    Outcome {
        doc,
        obs: Some(obs_reports),
        gate: check(&result, &args.nums),
    }
}
