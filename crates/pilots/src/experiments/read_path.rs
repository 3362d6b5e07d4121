//! E15 — the columnar read path under mixed read/write load.
//!
//! Two platforms ingest the *same* seeded workload — sustained telemetry
//! with a deep hot tier (1% of devices report 512 sub-round samples, so
//! their series freeze into multiple columnar segments) — one on the
//! flat pre-segment layout (threshold `None`), one compacting every 64
//! appends. Each round interleaves ingest, a zipfian query burst through
//! [`swamp_core::drive::Drive::query`] and a retention pass, the regime
//! the ROADMAP's read-tier item describes: dashboards querying while the
//! fleet writes and retention trims.
//!
//! Three quantities come out per (tier, layout):
//!
//! 1. **Query latency** (p50/p99): recent-window reads are near-parity —
//!    a flat sorted vector already answers windows by binary search, so
//!    segment decode must not *cost* latency — but the wide-window
//!    [`QueryRequest::Extremes`] reads in the mix are where **segment
//!    pruning beats the uncompacted scan**: the flat layout walks every
//!    in-window sample of a deep hot series while the segmented layout
//!    folds whole-segment summaries without decoding
//!    (`query.segments_summarized`). The wide reads get their own
//!    percentiles (`wide_p50/p90/p99`); `bench e15 --check` gates the
//!    wide p90, which sits inside the hot-series mass at every tier and
//!    above scheduler noise, unlike the overall p99.
//! 2. **Retention**: `prune_before` on the flat layout shifts every
//!    surviving sample of every touched series per pass; the columnar
//!    layout drops whole expired segments in O(1) via their summaries.
//!    With the horizon round-aligned (no straddling segment to
//!    re-freeze), the two layouts run at parity — the per-series floor
//!    across the fleet dominates either layout's per-sample work.
//! 3. **Equivalence**: after all rounds, both platforms must serialize
//!    byte-identical answers to a fixed query battery — the bench-scale
//!    replay of the compaction differential.
//!
//! Wall-clock timing is injected (`clock`), keeping the library free of
//! ambient time sources; only the `bench` binary touches `Instant`.
//! Numbers are machine-dependent, so E15 is excluded from `run_all` and
//! EXPERIMENTS.md tables — `BENCH_e15.json` is its artifact.

use swamp_codec::ngsi::{Attribute, Entity};
use swamp_core::platform::{DeploymentConfig, Platform};
use swamp_core::query::{QueryRequest, QueryResponse};
use swamp_obs::ObsReport;
use swamp_sim::{SimDuration, SimRng, SimTime};

use crate::report::{fmt_f, Report};

/// Rounds of ingest+query+retention per tier.
const ROUNDS: u64 = 6;
/// Sub-round samples each hot device reports per round.
const HOT_SUBSAMPLES: u64 = 512;
/// Retention horizon: samples older than this are pruned every round.
const RETENTION: SimDuration = SimDuration::from_secs(120);
/// Segment threshold of the compacted platform.
const SEGMENT_THRESHOLD: usize = 64;

/// One (tier, layout) cell.
#[derive(Clone, Debug)]
pub struct E15Row {
    /// Fleet size.
    pub devices: usize,
    /// `"flat"` (threshold `None`) or `"segmented"` (threshold 64).
    pub layout: &'static str,
    /// Samples ingested over the run (before retention).
    pub ingested: u64,
    /// Live samples at the end (after retention).
    pub live_samples: u64,
    /// Frozen segments at the end (0 for flat).
    pub segments: usize,
    /// Queries answered.
    pub queries: u64,
    /// Median query latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile query latency, microseconds.
    pub p99_us: f64,
    /// Median latency of the wide-window `Extremes` reads only.
    pub wide_p50_us: f64,
    /// 90th-percentile wide-read latency — the `--check` gate statistic:
    /// deep inside the hot-series mass at every tier, above timer noise.
    pub wide_p90_us: f64,
    /// 99th-percentile wide-read latency.
    pub wide_p99_us: f64,
    /// Query throughput over the timed query phases.
    pub queries_per_s: f64,
    /// Frozen segments skipped via summaries across all queries.
    pub segments_pruned: u64,
    /// Frozen segments *answered* from summaries (wide `Extremes`
    /// windows) without decoding.
    pub segments_summarized: u64,
    /// Frozen segments decoded across all queries.
    pub segments_decoded: u64,
    /// Total wall-clock of the retention passes, milliseconds.
    pub retention_ms: f64,
    /// Samples removed by retention.
    pub retention_removed: u64,
    /// Whether the end-state query battery matched the flat twin
    /// byte-for-byte (trivially true for the flat row itself).
    pub responses_match: bool,
}

/// E15 results.
#[derive(Clone, Debug)]
pub struct E15Result {
    /// Two rows (flat, segmented) per device tier.
    pub rows: Vec<E15Row>,
}

impl E15Result {
    /// The table.
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "E15: columnar read path under mixed read/write load — summary-served wide reads win, retention parity (wall clock)",
            &[
                "devices",
                "layout",
                "ingested",
                "live",
                "segments",
                "queries",
                "p50_us",
                "p99_us",
                "wide_p50_us",
                "wide_p90_us",
                "queries_per_s",
                "seg_pruned",
                "seg_summarized",
                "seg_decoded",
                "retention_ms",
                "removed",
                "match",
            ],
        );
        for row in &self.rows {
            r.push_row(vec![
                row.devices.to_string(),
                row.layout.to_owned(),
                row.ingested.to_string(),
                row.live_samples.to_string(),
                row.segments.to_string(),
                row.queries.to_string(),
                fmt_f(row.p50_us, 1),
                fmt_f(row.p99_us, 1),
                fmt_f(row.wide_p50_us, 1),
                fmt_f(row.wide_p90_us, 1),
                fmt_f(row.queries_per_s, 0),
                row.segments_pruned.to_string(),
                row.segments_summarized.to_string(),
                row.segments_decoded.to_string(),
                fmt_f(row.retention_ms, 2),
                row.retention_removed.to_string(),
                row.responses_match.to_string(),
            ]);
        }
        r
    }

    /// The cell at the given coordinates, if present.
    pub fn row(&self, devices: usize, layout: &str) -> Option<&E15Row> {
        self.rows
            .iter()
            .find(|r| r.devices == devices && r.layout == layout)
    }
}

/// Zipfian rank sampler (s = 1.0) over `n` ranks via inverse CDF; rank 0
/// is the hottest. Hot devices occupy the head ranks, so the query
/// stream concentrates on exactly the deep multi-segment series.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / (rank + 1) as f64;
            cdf.push(acc);
        }
        let total = acc.max(f64::MIN_POSITIVE);
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c < u)
            .min(self.cdf.len().saturating_sub(1))
    }
}

fn build_platform(seed: u64, segmented: bool) -> Platform {
    let threshold = if segmented {
        Some(SEGMENT_THRESHOLD)
    } else {
        None
    };
    Platform::builder(DeploymentConfig::FarmFog)
        .seed(seed)
        .history_segment_threshold(threshold)
        .build()
}

/// Cheap use of a response so the timed query cannot be optimized away;
/// also a sanity count of how much data the battery touched.
fn resp_weight(resp: &QueryResponse) -> u64 {
    match resp {
        QueryResponse::Samples(s) => s.len() as u64,
        QueryResponse::Aggregate(a) => a.as_ref().map(|a| a.count).unwrap_or(0),
        QueryResponse::Extremes(e) => e.as_ref().map(|e| e.count).unwrap_or(0),
        QueryResponse::Buckets(b) => b.len() as u64,
        QueryResponse::Sample(s) => s.is_some() as u64,
        QueryResponse::Series(s) => s.iter().map(|e| e.samples.len() as u64).sum(),
        QueryResponse::Seqs(s) => s.len() as u64,
        QueryResponse::Views(v) => v.applied,
    }
}

/// The fixed end-state battery both layouts must answer byte-identically.
fn battery(devices: usize, now: SimTime) -> Vec<QueryRequest> {
    let hot = "urn:swamp:device:probe-0".to_owned();
    let cold = format!("urn:swamp:device:probe-{}", devices - 1);
    let attr = "water_flow".to_owned();
    vec![
        QueryRequest::SeriesDump,
        QueryRequest::Range {
            entity: hot.clone(),
            attr: attr.clone(),
            from: SimTime::ZERO,
            to: SimTime::MAX,
        },
        QueryRequest::Aggregate {
            entity: hot.clone(),
            attr: attr.clone(),
            from: back(now, RETENTION),
            to: now,
        },
        QueryRequest::Downsample {
            entity: hot.clone(),
            attr: attr.clone(),
            from: SimTime::ZERO,
            to: now,
            bucket: SimDuration::from_secs(30),
        },
        QueryRequest::Extremes {
            entity: hot.clone(),
            attr: attr.clone(),
            from: SimTime::ZERO,
            to: SimTime::MAX,
        },
        QueryRequest::Extremes {
            entity: cold.clone(),
            attr: attr.clone(),
            from: SimTime::ZERO,
            to: SimTime::MAX,
        },
        QueryRequest::Last { entity: cold, attr },
    ]
}

/// `now - d`, clamped at zero (sim time has no negative instants).
fn back(now: SimTime, d: SimDuration) -> SimTime {
    SimTime::ZERO + (now - SimTime::ZERO).saturating_sub(d)
}

fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

struct CellState {
    platform: Platform,
    layout: &'static str,
    latencies_us: Vec<f64>,
    wide_us: Vec<f64>,
    query_secs: f64,
    retention_secs: f64,
    retention_removed: u64,
    ingested: u64,
}

/// Runs E15 over the given device tiers. `queries_per_round` zipfian
/// queries hit each platform each round. `clock` returns monotonic
/// seconds and is the only time source (the binary passes `Instant`).
/// Returns the result plus one deterministic-shaped [`ObsReport`] per
/// cell (labelled `e15/<devices>/<layout>`; note the obs *span* values
/// are wall-clock dependent, so these are bench artifacts like the
/// latencies, not EXPERIMENTS.md material).
pub fn e15_read_path_observed(
    seed: u64,
    device_counts: &[usize],
    queries_per_round: usize,
    clock: &mut dyn FnMut() -> f64,
) -> (E15Result, Vec<ObsReport>) {
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for &devices in device_counts {
        if devices == 0 {
            continue;
        }
        let hot = (devices / 100).max(1);
        let zipf = Zipf::new(devices);
        let mut rng = SimRng::seed_from(seed).split("e15");
        let mut cells = [
            CellState {
                platform: build_platform(seed, false),
                layout: "flat",
                latencies_us: Vec::new(),
                wide_us: Vec::new(),
                query_secs: 0.0,
                retention_secs: 0.0,
                retention_removed: 0,
                ingested: 0,
            },
            CellState {
                platform: build_platform(seed, true),
                layout: "segmented",
                latencies_us: Vec::new(),
                wide_us: Vec::new(),
                query_secs: 0.0,
                retention_secs: 0.0,
                retention_removed: 0,
                ingested: 0,
            },
        ];
        let mut now = SimTime::from_secs(60);
        for _round in 0..ROUNDS {
            // --- Write: one batch, fed to both platforms identically.
            // Hot devices report HOT_SUBSAMPLES sub-round flow samples
            // (deep series -> multiple frozen segments); the cold tier
            // reports once.
            let mut batch: Vec<Entity> = Vec::new();
            for i in 0..devices {
                let subs = if i < hot { HOT_SUBSAMPLES } else { 1 };
                for k in 0..subs {
                    let mut e = Entity::new(format!("urn:swamp:device:probe-{i}"), "SoilProbe");
                    e.set_attribute(
                        "water_flow",
                        Attribute::new(1.0 + rng.uniform_f64())
                            .observed_at(now.as_millis() + k * (57_600 / HOT_SUBSAMPLES)),
                    );
                    batch.push(e);
                }
            }
            for cell in &mut cells {
                cell.ingested += cell.platform.ingest_entities(now, batch.iter().cloned()) as u64;
                cell.platform.pump(now);
            }

            // --- Read: one zipfian query burst, replayed on both
            // platforms. Recent windows dominate (dashboards), with a
            // full-horizon downsample and a point read mixed in.
            let queries: Vec<QueryRequest> = (0..queries_per_round)
                .map(|_| {
                    let entity =
                        format!("urn:swamp:device:probe-{}", zipf.sample(rng.uniform_f64()));
                    let attr = "water_flow".to_owned();
                    match rng.below(20) {
                        0..=7 => QueryRequest::Aggregate {
                            entity,
                            attr,
                            from: back(now, SimDuration::from_secs(60)),
                            to: now + SimDuration::from_secs(60),
                        },
                        8..=11 => QueryRequest::Range {
                            entity,
                            attr,
                            from: back(now, SimDuration::from_secs(45)),
                            to: now + SimDuration::from_secs(15),
                        },
                        // The wide-window envelope read: full horizon,
                        // summary-served on the segmented layout, a full
                        // sample walk on the flat one.
                        12..=16 => QueryRequest::Extremes {
                            entity,
                            attr,
                            from: SimTime::ZERO,
                            to: now + SimDuration::from_secs(60),
                        },
                        17..=18 => QueryRequest::Downsample {
                            entity,
                            attr,
                            from: back(now, RETENTION),
                            to: now + SimDuration::from_secs(60),
                            bucket: SimDuration::from_secs(30),
                        },
                        _ => QueryRequest::Last { entity, attr },
                    }
                })
                .collect();
            let mut touched = 0u64;
            for cell in &mut cells {
                for req in &queries {
                    let t0 = clock();
                    let resp = cell.platform.query(req);
                    let t1 = clock();
                    let us = (t1 - t0) * 1e6;
                    cell.latencies_us.push(us);
                    if matches!(req, QueryRequest::Extremes { .. }) {
                        cell.wide_us.push(us);
                    }
                    cell.query_secs += t1 - t0;
                    touched += resp_weight(&resp);
                }
            }
            std::hint::black_box(touched);

            // --- Retention: trim everything older than the horizon.
            // This is where the layouts diverge: the flat store shifts
            // every surviving sample of every touched series; the
            // segmented store drops whole expired segments by summary.
            let cutoff = back(now, RETENTION);
            for cell in &mut cells {
                let t0 = clock();
                let removed = cell.platform.history.prune_before(cutoff);
                let t1 = clock();
                cell.retention_secs += t1 - t0;
                cell.retention_removed += removed;
            }

            now += SimDuration::from_secs(60);
        }

        // --- Equivalence: both layouts answer the end-state battery
        // byte-identically (bench-scale differential replay).
        let docs: Vec<String> = cells
            .iter_mut()
            .map(|cell| {
                battery(devices, now)
                    .iter()
                    .map(|req| cell.platform.query(req).to_json().to_compact_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            })
            .collect();
        let responses_match = docs[0] == docs[1];

        for cell in &mut cells {
            let snap = cell.platform.observe();
            let mut lat = std::mem::take(&mut cell.latencies_us);
            lat.sort_by(f64::total_cmp);
            let mut wide = std::mem::take(&mut cell.wide_us);
            wide.sort_by(f64::total_cmp);
            rows.push(E15Row {
                devices,
                layout: cell.layout,
                ingested: cell.ingested,
                live_samples: cell.platform.history.len(),
                segments: cell.platform.history.segment_count(),
                queries: lat.len() as u64,
                p50_us: percentile(&lat, 0.50),
                p99_us: percentile(&lat, 0.99),
                wide_p50_us: percentile(&wide, 0.50),
                wide_p90_us: percentile(&wide, 0.90),
                wide_p99_us: percentile(&wide, 0.99),
                queries_per_s: if cell.query_secs > 0.0 {
                    lat.len() as f64 / cell.query_secs
                } else {
                    0.0
                },
                segments_pruned: snap
                    .counter("query.segments_pruned")
                    .expect("registered counter"),
                segments_summarized: snap
                    .counter("query.segments_summarized")
                    .expect("registered counter"),
                segments_decoded: snap
                    .counter("query.segments_decoded")
                    .expect("registered counter"),
                retention_ms: cell.retention_secs * 1e3,
                retention_removed: cell.retention_removed,
                responses_match,
            });
            let label = format!("e15/{devices}/{}", cell.layout);
            reports.push(ObsReport::new(&label, seed, snap));
        }
    }
    (E15Result { rows }, reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_layouts_agree_and_segment_layer_engages() {
        // Tiny tier keeps the test fast; `bench e15` runs the real sweep.
        let mut t = 0.0f64;
        let mut fake_clock = || {
            t += 1e-6;
            t
        };
        let (r, reports) = e15_read_path_observed(42, &[200], 40, &mut fake_clock);
        assert_eq!(r.rows.len(), 2);
        let flat = r.row(200, "flat").expect("flat row");
        let seg = r.row(200, "segmented").expect("segmented row");
        assert!(flat.responses_match && seg.responses_match);
        assert_eq!(flat.segments, 0, "flat layout must never freeze");
        assert!(seg.segments > 0, "hot series must freeze segments");
        assert!(seg.segments_pruned > 0, "recent windows must skip segments");
        assert!(
            seg.segments_summarized > 0,
            "wide Extremes reads must be served from frozen summaries"
        );
        assert_eq!(
            flat.segments_summarized, 0,
            "flat layout has no summaries to serve from"
        );
        assert_eq!(flat.ingested, seg.ingested);
        assert_eq!(flat.live_samples, seg.live_samples);
        assert_eq!(flat.retention_removed, seg.retention_removed);
        assert_eq!(flat.queries, seg.queries);
        assert!(flat.queries > 0);
        assert_eq!(reports.len(), 2);
        let table = r.report().to_string();
        assert!(table.contains("segmented"));
    }

    #[test]
    fn zipf_head_is_hot() {
        let z = Zipf::new(1_000);
        // The head rank owns ~13% of the s=1 mass at n=1000; u below
        // that maps to rank 0, the deep hot series.
        assert_eq!(z.sample(0.05), 0);
        assert!(z.sample(0.999) > 100);
    }
}
