//! The dashboard reader: a seeded read plan over `Drive::query`, and the
//! reference fold every answer is checked against.
//!
//! Read windows follow a dashboard: the latest value, the last hour of
//! raw samples, a one-day aggregate, whole-history extremes, a
//! whole-history downsample in one-hour buckets, and the materialized
//! views. The reference is rebuilt from the benchmark's own write ledger
//! outside every timed span.

use std::collections::HashMap;
use std::time::Instant;

use swamp_core::history::{Extremes, Sample, WindowAggregate};
use swamp_core::query::{QueryRequest, QueryResponse};
use swamp_shard::ShardedPlatform;
use swamp_sim::stats::OnlineStats;
use swamp_sim::{SimDuration, SimRng, SimTime};
use swamp_views::{farm_of, ViewSnapshot};

use crate::trace::{Layer, Trace};

/// The attribute every read targets (soil moisture, the signal every
/// workload writes).
pub const ATTR: &str = "moisture_vwc";

/// The attribute the views sum as water consumption.
pub const FLOW: &str = "water_flow";

const HOUR: SimDuration = SimDuration::from_hours(1);
const DAY: SimDuration = SimDuration::from_days(1);

/// The kinds of read a dashboard sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    Last,
    Range,
    Aggregate,
    Extremes,
    Downsample,
    Views,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Last,
        Kind::Range,
        Kind::Aggregate,
        Kind::Extremes,
        Kind::Downsample,
        Kind::Views,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Last => "last",
            Kind::Range => "range",
            Kind::Aggregate => "aggregate",
            Kind::Extremes => "extremes",
            Kind::Downsample => "downsample",
            Kind::Views => "views",
        }
    }
}

/// One planned read.
pub struct Read {
    pub kind: Kind,
    pub req: QueryRequest,
}

/// Zipfian rank sampler (s = 1) over `n` ranks; rank 0 is the hottest.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|rank| {
                acc += 1.0 / (rank + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.uniform_f64();
        self.cdf
            .partition_point(|&c| c < u)
            .min(self.cdf.len().saturating_sub(1))
    }
}

/// `now - d`, clamped at zero.
fn back(now: SimTime, d: SimDuration) -> SimTime {
    SimTime::ZERO + (now - SimTime::ZERO).saturating_sub(d)
}

/// Plans `per_round` history reads for each read time in `times`: the
/// entity is zipfian over `entities` (shuffled once, so the hot set is
/// seeded), the kind is drawn from `mix` (weights per kind). `views_every`
/// appends one `Views` read every that many rounds (0: never).
pub fn plan(
    rng: &mut SimRng,
    entities: &[String],
    mix: &[(Kind, f64)],
    per_round: usize,
    views_every: usize,
    times: &[SimTime],
) -> Vec<Vec<Read>> {
    let mut order: Vec<usize> = (0..entities.len()).collect();
    rng.shuffle(&mut order);
    let zipf = Zipf::new(entities.len());
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    times
        .iter()
        .enumerate()
        .map(|(r, &now)| {
            let mut reads: Vec<Read> = (0..per_round)
                .map(|_| {
                    let entity = entities[order[zipf.sample(rng)]].clone();
                    let mut u = rng.uniform_f64() * total;
                    let kind = mix
                        .iter()
                        .find(|(_, w)| {
                            u -= w;
                            u < 0.0
                        })
                        .map_or(mix[mix.len() - 1].0, |(k, _)| *k);
                    history_read(kind, entity, now)
                })
                .collect();
            if views_every > 0 && r % views_every == views_every - 1 {
                reads.push(Read {
                    kind: Kind::Views,
                    req: QueryRequest::Views,
                });
            }
            reads
        })
        .collect()
}

fn history_read(kind: Kind, entity: String, now: SimTime) -> Read {
    let attr = ATTR.to_owned();
    let whole = (SimTime::ZERO, SimTime::MAX);
    let req = match kind {
        Kind::Last => QueryRequest::Last { entity, attr },
        Kind::Range => QueryRequest::Range {
            entity,
            attr,
            from: back(now, HOUR),
            to: now,
        },
        Kind::Aggregate => QueryRequest::Aggregate {
            entity,
            attr,
            from: back(now, DAY),
            to: now,
        },
        Kind::Extremes => QueryRequest::Extremes {
            entity,
            attr,
            from: whole.0,
            to: whole.1,
        },
        Kind::Downsample | Kind::Views => QueryRequest::Downsample {
            entity,
            attr,
            from: whole.0,
            to: whole.1,
            bucket: HOUR,
        },
    };
    Read { kind, req }
}

/// Runs one round's reads, timing each call, and keeps the answers for
/// the check.
pub fn run_reads<T: Trace>(
    sp: &mut ShardedPlatform,
    reads: &[Read],
    trace: &mut T,
    next_id: &mut u64,
    latency_us: &mut Vec<f64>,
    answers: &mut Vec<QueryResponse>,
) {
    for read in reads {
        let t = Instant::now();
        let resp = trace.span(Layer::Query(read.kind), *next_id, || sp.query(&read.req));
        latency_us.push(t.elapsed().as_secs_f64() * 1e6);
        *next_id += 1;
        answers.push(resp);
    }
}

/// One write as the reference sees it: the entity, its sample time and
/// the two attributes the reads and views look at.
#[derive(Clone, Debug)]
pub struct Write {
    pub entity: String,
    pub at: SimTime,
    pub moisture: Option<f64>,
    pub flow: Option<f64>,
}

/// The reference fold: per-entity history of [`ATTR`] (time-sorted, equal
/// times in arrival order, as the history store keeps them) and the
/// per-entity write order the cloud replica applies.
#[derive(Default)]
pub struct Reference {
    history: HashMap<String, Vec<Sample>>,
    writes: HashMap<String, Vec<Write>>,
}

impl Reference {
    /// Adds history only (a preload that never replicates).
    pub fn preload(&mut self, entity: &str, at: SimTime, value: f64) {
        push_sorted(
            self.history.entry(entity.to_owned()).or_default(),
            at,
            value,
        );
    }

    /// Adds a write that reached the fog history and the sync queue.
    pub fn write(&mut self, w: Write) {
        if let Some(v) = w.moisture {
            push_sorted(self.history.entry(w.entity.clone()).or_default(), w.at, v);
        }
        self.writes.entry(w.entity.clone()).or_default().push(w);
    }

    /// Whether `resp` is the answer the reference gives to `req`.
    pub fn agrees(&self, req: &QueryRequest, resp: &QueryResponse) -> bool {
        match (req, resp) {
            (QueryRequest::Views, QueryResponse::Views(v)) => self.views_agree(v),
            _ => self.answer(req).as_ref() == Some(resp),
        }
    }

    fn series(&self, entity: &str, attr: &str) -> &[Sample] {
        if attr != ATTR {
            return &[];
        }
        self.history.get(entity).map_or(&[], Vec::as_slice)
    }

    fn window(&self, entity: &str, attr: &str, from: SimTime, to: SimTime) -> &[Sample] {
        let s = self.series(entity, attr);
        let lo = s.partition_point(|x| x.at < from);
        let hi = s.partition_point(|x| x.at < to);
        &s[lo..hi.max(lo)]
    }

    fn answer(&self, req: &QueryRequest) -> Option<QueryResponse> {
        Some(match req {
            QueryRequest::Last { entity, attr } => {
                QueryResponse::Sample(self.series(entity, attr).last().copied())
            }
            QueryRequest::Range {
                entity,
                attr,
                from,
                to,
            } => QueryResponse::Samples(self.window(entity, attr, *from, *to).to_vec()),
            QueryRequest::Aggregate {
                entity,
                attr,
                from,
                to,
            } => QueryResponse::Aggregate(fold(self.window(entity, attr, *from, *to))),
            QueryRequest::Extremes {
                entity,
                attr,
                from,
                to,
            } => {
                let w = self.window(entity, attr, *from, *to);
                QueryResponse::Extremes((!w.is_empty()).then(|| Extremes {
                    count: w.len() as u64,
                    min: w.iter().map(|s| s.value).fold(f64::INFINITY, f64::min),
                    max: w.iter().map(|s| s.value).fold(f64::NEG_INFINITY, f64::max),
                }))
            }
            QueryRequest::Downsample {
                entity,
                attr,
                from,
                to,
                bucket,
            } => {
                let w = self.window(entity, attr, *from, *to);
                let width = bucket.as_millis();
                let mut out: Vec<(SimTime, WindowAggregate)> = Vec::new();
                let mut i = 0;
                while i < w.len() {
                    let idx = (w[i].at.as_millis() - from.as_millis()) / width;
                    let j = i + w[i..]
                        .partition_point(|s| (s.at.as_millis() - from.as_millis()) / width == idx);
                    let start = SimTime::from_millis(from.as_millis() + idx * width);
                    out.push((start, fold(&w[i..j])?));
                    i = j;
                }
                QueryResponse::Buckets(out)
            }
            _ => return None,
        })
    }

    /// Every entity in the views must hold the fold of a prefix of its
    /// writes, in write order, and the totals must add up.
    fn views_agree(&self, v: &ViewSnapshot) -> bool {
        let mut applied = 0;
        let per_entity = v.entities.iter().all(|(key, acc)| {
            applied += acc.records;
            let Some(writes) = self.writes.get(key) else {
                return false;
            };
            let Some(prefix) = writes.get(..acc.records as usize) else {
                return false;
            };
            let consumption = prefix.iter().filter_map(|w| w.flow).fold(0.0, |a, f| a + f);
            let last_alert = prefix.iter().rev().find_map(|w| w.moisture);
            let low = prefix
                .iter()
                .filter_map(|w| w.moisture)
                .filter(|&m| m < v.config.alert_below)
                .count() as u64;
            acc.farm == farm_of(key)
                && acc.consumption.to_bits() == consumption.to_bits()
                && acc.last_alert_value == last_alert
                && acc.low_events == low
        });
        per_entity && applied == v.applied && v.malformed == 0
    }
}

fn push_sorted(series: &mut Vec<Sample>, at: SimTime, value: f64) {
    let idx = series.partition_point(|s| s.at <= at);
    series.insert(idx, Sample { at, value });
}

fn fold(samples: &[Sample]) -> Option<WindowAggregate> {
    let mut stats = OnlineStats::new();
    for s in samples {
        stats.push(s.value);
    }
    Some(WindowAggregate {
        count: stats.count(),
        mean: stats.mean(),
        min: stats.min(),
        max: stats.max(),
        last: samples.last()?.value,
    })
}
