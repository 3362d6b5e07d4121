//! What every workload shares: the platform round, the cloud-tier
//! analysis (freshness, lags, digest) and the result of one pass.

use std::collections::BTreeMap;

use swamp_codec::json::Json;
use swamp_codec::ngsi::Entity;
use swamp_core::Drive;
use swamp_fog::sync::UpdateRecord;
use swamp_shard::ShardedPlatform;
use swamp_sim::{SimDuration, SimTime};

use crate::reads::{ATTR, FLOW};
use crate::stats::percentile;
use crate::trace::{Layer, Trace};

/// Platform round cadence in simulated time.
pub const STEP: SimDuration = SimDuration::from_secs(60);

/// Owner recorded on every registered device.
pub const OWNER: &str = "owner:framebench";

/// Counters read through `Drive::observe` at the end of a pass.
pub const COUNTERS: [&str; 15] = [
    "net.lost",
    "ingest.accepted",
    "ingest.rejected_replay",
    "sync.transmissions",
    "sync.retransmissions",
    "sync.acked",
    "cloud.duplicates",
    "shardfwd.records",
    "query.segments_pruned",
    "query.segments_summarized",
    "query.segments_decoded",
    "view.applied",
    "security.baseline.scored",
    "security.baseline.flagged",
    "query.requests",
];

/// The deterministic outcome of a pass: identical on every pass of the
/// same workload and seed, at any worker count.
#[derive(Clone, Debug, PartialEq)]
pub struct Det {
    /// FNV-1a over the cloud tier's sorted `(key, payload)` records.
    pub digest: u64,
    pub fresh_p50: f64,
    pub fresh_p99: f64,
    pub lag_fog_p99: f64,
    pub lag_sync_p99: f64,
    pub recall: f64,
    pub precision: f64,
    pub attempted: u64,
    pub failed: u64,
    pub counts: BTreeMap<&'static str, u64>,
}

/// Wall-clock side of a traced pass that spans alone do not give.
#[derive(Clone, Debug, Default)]
pub struct TraceExtra {
    /// Records applied, the denominator of `apply.us`.
    pub applied: u64,
    /// Largest fleet-wide `sync.pending` seen after a platform round.
    pub pending_max: f64,
    /// `(total µs, calls)` for key lookup, AEAD open and decode, timed
    /// on a sample of the pass's sealed frames.
    pub key: (f64, u64),
    pub open: (f64, u64),
    pub decode: (f64, u64),
}

/// One pass: set-up, the timed workload, then the untimed checks.
pub struct Pass {
    pub setup_s: f64,
    pub wall_s: f64,
    pub records: u64,
    pub round_ms: Vec<f64>,
    pub query_us: Vec<f64>,
    pub det: Det,
    pub extra: TraceExtra,
}

/// Platform rounds run, with the cloud-tier size after each, so a
/// record's visibility time is known without reading the tier mid-run.
#[derive(Default)]
pub struct Visibility {
    marks: Vec<(SimTime, usize)>,
    pub round: u64,
}

impl Visibility {
    /// When the cloud tier first held record `i`.
    fn visible_at(&self, i: usize) -> Option<SimTime> {
        let k = self.marks.partition_point(|&(_, n)| n <= i);
        self.marks.get(k).map(|&(t, _)| t)
    }

    pub fn mark(&mut self, sp: &ShardedPlatform, now: SimTime) {
        self.marks.push((now, sp.aggregate_store().record_count()));
    }
}

/// One platform round at `now`. Untraced it is `Drive::round`; traced,
/// each shard's `Platform::pump` and then `ShardedPlatform::aggregate` run
/// on this thread so each gets its own span.
pub fn platform_round<T: Trace>(
    sp: &mut ShardedPlatform,
    now: SimTime,
    trace: &mut T,
    vis: &mut Visibility,
) {
    if T::ON {
        for i in 0..sp.shard_count() {
            trace.span(Layer::Pump, vis.round, || {
                sp.shard_mut(i).map(|p| p.pump(now))
            });
        }
        trace.span(Layer::Aggregate, vis.round, || sp.aggregate(now));
    } else {
        sp.round(now);
    }
    vis.round += 1;
    vis.mark(sp, now);
}

/// Settles the aggregation fabric and records when the tail landed.
pub fn flush(sp: &mut ShardedPlatform, now: SimTime, vis: &mut Visibility) {
    let horizon = sp.flush_aggregation(now);
    vis.mark(sp, horizon);
}

/// The sum of every shard's `sync.pending` gauge.
pub fn pending(sp: &ShardedPlatform) -> f64 {
    sp.shards()
        .filter_map(|p| p.observe().gauge("sync.pending").ok().flatten())
        .sum()
}

/// A cloud-tier record with the fields the checks read decoded from its
/// payload.
pub struct CloudRecord<'a> {
    pub record: &'a UpdateRecord,
    pub at: SimTime,
    pub visible: SimTime,
    pub seq: Option<f64>,
    pub moisture: Option<f64>,
    pub flow: Option<f64>,
}

impl CloudRecord<'_> {
    pub fn write(&self) -> crate::reads::Write {
        crate::reads::Write {
            entity: self.record.key.clone(),
            at: self.at,
            moisture: self.moisture,
            flow: self.flow,
        }
    }
}

/// Decodes the cloud tier. A record whose payload is not an entity with a
/// stamped [`ATTR`] sample, or that never became visible, is left out and
/// counted in the second value, which callers add to their failures.
pub fn cloud_records<'a>(sp: &'a ShardedPlatform, vis: &Visibility) -> (Vec<CloudRecord<'a>>, u64) {
    let mut bad = 0;
    let mut out = Vec::new();
    for (i, record) in sp.aggregate_store().history().iter().enumerate() {
        let entity = std::str::from_utf8(&record.payload)
            .ok()
            .and_then(|s| Json::parse(s).ok())
            .and_then(|j| Entity::from_json(&j).ok());
        let at = entity
            .as_ref()
            .and_then(|e| e.attribute(ATTR))
            .and_then(|a| a.observed_at_ms)
            .map(SimTime::from_millis);
        match (entity, at, vis.visible_at(i)) {
            (Some(e), Some(at), Some(visible)) => out.push(CloudRecord {
                record,
                at,
                visible,
                seq: e.number("seq"),
                moisture: e.number(ATTR),
                flow: e.number(FLOW),
            }),
            _ => bad += 1,
        }
    }
    (out, bad)
}

/// Freshness and lag percentiles plus the digest of the cloud tier.
pub struct TierSummary {
    pub digest: u64,
    pub fresh_p50: f64,
    pub fresh_p99: f64,
    pub lag_fog_p99: f64,
    pub lag_sync_p99: f64,
}

pub fn summarize(records: &[CloudRecord<'_>]) -> TierSummary {
    let secs =
        |later: SimTime, earlier: SimTime| later.saturating_duration_since(earlier).as_secs_f64();
    let fresh: Vec<f64> = records.iter().map(|r| secs(r.visible, r.at)).collect();
    let lag_fog: Vec<f64> = records
        .iter()
        .map(|r| secs(r.record.created_at, r.at))
        .collect();
    let lag_sync: Vec<f64> = records
        .iter()
        .map(|r| secs(r.visible, r.record.created_at))
        .collect();
    let mut keyed: Vec<(&str, &[u8])> = records
        .iter()
        .map(|r| (r.record.key.as_str(), r.record.payload.as_slice()))
        .collect();
    keyed.sort_unstable();
    let mut h = Fnv::new();
    for (key, payload) in keyed {
        h.write(key.as_bytes());
        h.write(&[0xff]);
        h.write(payload);
        h.write(&[0xfe]);
    }
    TierSummary {
        digest: h.0,
        fresh_p50: percentile(&fresh, 0.5),
        fresh_p99: percentile(&fresh, 0.99),
        lag_fog_p99: percentile(&lag_fog, 0.99),
        lag_sync_p99: percentile(&lag_sync, 0.99),
    }
}

/// Counters from `Drive::observe`.
pub fn counts(sp: &ShardedPlatform) -> BTreeMap<&'static str, u64> {
    let snap = Drive::observe(sp);
    COUNTERS
        .iter()
        .map(|&name| (name, snap.counter(name).unwrap_or(0)))
        .collect()
}

/// Device-level detection score as E16 keeps it: an empty truth set has
/// recall 1, an empty flag set has precision 1.
pub fn score(flagged: &[String], truth: &[String]) -> (f64, f64) {
    let tp = flagged.iter().filter(|d| truth.contains(d)).count();
    let recall = if truth.is_empty() {
        1.0
    } else {
        tp as f64 / truth.len() as f64
    };
    let precision = if flagged.is_empty() {
        1.0
    } else {
        tp as f64 / flagged.len() as f64
    };
    (recall, precision)
}

/// Every device the behavioral baseline has flagged, across shards.
pub fn flagged(sp: &ShardedPlatform) -> Vec<String> {
    let mut out: Vec<String> = sp
        .shards()
        .flat_map(|p| p.behavior.flags().keys().cloned())
        .collect();
    out.sort();
    out
}

/// Checks a round's answers against the reference; returns mismatches.
pub fn check_answers(
    reads: &[crate::reads::Read],
    answers: &[swamp_core::query::QueryResponse],
    reference: &crate::reads::Reference,
) -> u64 {
    let wrong = reads
        .iter()
        .zip(answers)
        .filter(|(read, resp)| !reference.agrees(&read.req, resp))
        .count();
    (wrong + reads.len().abs_diff(answers.len())) as u64
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
