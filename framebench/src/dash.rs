//! `dashboard_reads`: one FarmFog shard with the builder's default
//! history layout, deep per-minute history preloaded, and a single
//! closed-loop reader beside a steady write stream.
//!
//! History, query and views do most of the work. The writes beside the
//! reads mean a read-side gain that taxes ingest shows in
//! `records_per_s`, and because the default layout is used, a change of
//! default is measured too. The preload is the fog's archive from before
//! the run: it goes straight into the shard's history store and never
//! replicates.

use std::time::Instant;

use swamp_codec::ngsi::{Attribute, Entity};
use swamp_core::Drive;
use swamp_pilots::experiments::scale::e14_builder;
use swamp_shard::ShardedPlatform;
use swamp_sim::{SimDuration, SimRng, SimTime};

use crate::common::{
    check_answers, cloud_records, counts, flagged, flush, pending, platform_round, score,
    summarize, Det, Pass, TraceExtra, Visibility, STEP,
};
use crate::fleet::multiset_difference;
use crate::reads::{plan, run_reads, Kind, Read, Reference, Write, ATTR, FLOW};
use crate::stats::{ms_since, Stopwatch};
use crate::trace::{Layer, Trace};

const FARMS: usize = 8;
const PROBES_PER_FARM: usize = 125;
const PRELOAD: SimDuration = SimDuration::from_days(2);
const ROUNDS: usize = 200;
const WRITES_PER_ROUND: usize = 50;
const READS_PER_ROUND: usize = 1_000;
const MAX_DRAIN_ROUNDS: usize = 1_000;

/// The history reads of the dashboard mix; one `Views` read closes every
/// round.
const MIX: [(Kind, f64); 5] = [
    (Kind::Last, 0.35),
    (Kind::Range, 0.25),
    (Kind::Aggregate, 0.15),
    (Kind::Extremes, 0.15),
    (Kind::Downsample, 0.1),
];

pub struct Dash {
    seed: u64,
    entities: Vec<String>,
    /// Per-minute preload values per entity, from time zero.
    preload: Vec<Vec<f64>>,
    batches: Vec<Vec<Entity>>,
    writes: Vec<Vec<Write>>,
    reads: Vec<Vec<Read>>,
    offered: Vec<(String, Vec<u8>)>,
}

fn round_time(r: usize) -> SimTime {
    SimTime::ZERO + PRELOAD + STEP * r as u64
}

impl Dash {
    pub fn new(seed: u64) -> Dash {
        let mut rng = SimRng::seed_from(seed).split("dashboard_reads");
        let entities: Vec<String> = (0..FARMS * PROBES_PER_FARM)
            .map(|i| format!("urn:swamp:farm-{}:probe-{i:04}", i % FARMS))
            .collect();
        let minutes = (PRELOAD.as_millis() / STEP.as_millis()) as usize;
        let mut level: Vec<f64> = entities
            .iter()
            .map(|_| rng.uniform_range(0.15, 0.35))
            .collect();
        let preload: Vec<Vec<f64>> = level
            .iter_mut()
            .map(|v| {
                (0..minutes)
                    .map(|_| {
                        *v = (*v + rng.uniform_range(-0.004, 0.004)).clamp(0.05, 0.45);
                        *v
                    })
                    .collect()
            })
            .collect();
        let mut batches = Vec::with_capacity(ROUNDS);
        let mut writes = Vec::with_capacity(ROUNDS);
        for r in 0..ROUNDS {
            let mut batch = Vec::with_capacity(WRITES_PER_ROUND);
            let mut ledger = Vec::with_capacity(WRITES_PER_ROUND);
            for j in 0..WRITES_PER_ROUND {
                let i = (r * WRITES_PER_ROUND + j) % entities.len();
                // Sampled during the minute before its round.
                let at =
                    SimTime::from_millis(round_time(r).as_millis() - rng.below(STEP.as_millis()));
                level[i] = (level[i] + rng.uniform_range(-0.02, 0.02)).clamp(0.05, 0.45);
                let flow = rng.uniform_range(0.0, 40.0);
                let mut e = Entity::new(entities[i].as_str(), "SoilProbe");
                e.set_attribute(ATTR, Attribute::new(level[i]).observed_at(at.as_millis()));
                e.set_attribute(FLOW, Attribute::new(flow).observed_at(at.as_millis()));
                batch.push(e);
                ledger.push(Write {
                    entity: entities[i].clone(),
                    at,
                    moisture: Some(level[i]),
                    flow: Some(flow),
                });
            }
            batches.push(batch);
            writes.push(ledger);
        }
        let mut offered: Vec<(String, Vec<u8>)> = batches
            .iter()
            .flatten()
            .map(|e: &Entity| {
                (
                    e.id().as_str().to_owned(),
                    e.to_json().to_compact_string().into_bytes(),
                )
            })
            .collect();
        offered.sort_unstable();
        let times: Vec<SimTime> = (0..ROUNDS).map(round_time).collect();
        let reads = plan(
            &mut rng.split("reads"),
            &entities,
            &MIX,
            READS_PER_ROUND,
            1,
            &times,
        );
        Dash {
            seed,
            entities,
            preload,
            batches,
            writes,
            reads,
            offered,
        }
    }

    pub fn shape(&self) -> String {
        format!(
            "{} entities x {} preloaded minutes, {ROUNDS} rounds of {WRITES_PER_ROUND} writes and {} reads",
            self.entities.len(),
            self.preload[0].len(),
            READS_PER_ROUND + 1
        )
    }

    /// Builds the shard and preloads the history archive.
    pub fn setup(&self) -> ShardedPlatform {
        let mut sp = ShardedPlatform::build(&e14_builder(self.seed, 1));
        for (entity, values) in self.entities.iter().zip(&self.preload) {
            let shard = sp.shard_of(entity);
            let history = &mut sp.shard_mut(shard).expect("routed shard exists").history;
            let id = history.intern(entity, ATTR);
            for (m, &v) in values.iter().enumerate() {
                history.append_to(id, SimTime::ZERO + STEP * m as u64, v);
            }
        }
        sp
    }

    pub fn pass<T: Trace>(&self, trace: &mut T) -> Pass {
        let mut reference = Reference::default();
        for (entity, values) in self.entities.iter().zip(&self.preload) {
            for (m, &v) in values.iter().enumerate() {
                reference.preload(entity, SimTime::ZERO + STEP * m as u64, v);
            }
        }
        let batches = self.batches.clone();

        let setup = Instant::now();
        let mut sp = self.setup();
        let setup_s = setup.elapsed().as_secs_f64();

        let mut vis = Visibility::default();
        let mut round_ms = Vec::with_capacity(ROUNDS);
        let mut query_us = Vec::with_capacity(ROUNDS * (READS_PER_ROUND + 1));
        let mut answers = Vec::with_capacity(READS_PER_ROUND + 1);
        let mut extra = TraceExtra::default();
        let mut failed = 0u64;
        let mut query_id = 0u64;

        let mut clock = Stopwatch::start();
        for (r, batch) in batches.into_iter().enumerate() {
            let now = round_time(r);
            let started = Instant::now();
            trace.enter(Layer::Round, r as u64);
            extra.applied += batch.len() as u64;
            trace.span(Layer::Apply, r as u64, || sp.ingest(now, batch));
            platform_round(&mut sp, now, trace, &mut vis);
            round_ms.push(ms_since(started));
            run_reads(
                &mut sp,
                &self.reads[r],
                trace,
                &mut query_id,
                &mut query_us,
                &mut answers,
            );
            trace.exit();
            clock.pause();
            if T::ON {
                extra.pending_max = extra.pending_max.max(pending(&sp));
            }
            for w in &self.writes[r] {
                reference.write(w.clone());
            }
            failed += check_answers(&self.reads[r], &answers, &reference);
            answers.clear();
            clock.resume();
        }
        let mut now = round_time(ROUNDS - 1);
        for _ in 0..MAX_DRAIN_ROUNDS {
            if sp.aggregate_store().record_count() >= self.offered.len() {
                break;
            }
            now += STEP;
            platform_round(&mut sp, now, trace, &mut vis);
        }
        flush(&mut sp, now, &mut vis);
        let wall_s = clock.seconds();

        let (records, bad) = cloud_records(&sp, &vis);
        failed += bad;
        let mut held: Vec<(&str, &[u8])> = records
            .iter()
            .map(|r| (r.record.key.as_str(), r.record.payload.as_slice()))
            .collect();
        held.sort_unstable();
        failed += multiset_difference(&self.offered, &held);

        let tier = summarize(&records);
        let (recall, precision) = score(&flagged(&sp), &[]);
        let reads: usize = self.reads.iter().map(Vec::len).sum();
        Pass {
            setup_s,
            wall_s,
            records: self.offered.len() as u64,
            round_ms,
            query_us,
            det: Det {
                digest: tier.digest,
                fresh_p50: tier.fresh_p50,
                fresh_p99: tier.fresh_p99,
                lag_fog_p99: tier.lag_fog_p99,
                lag_sync_p99: tier.lag_sync_p99,
                recall,
                precision,
                attempted: (self.offered.len() + reads) as u64,
                failed,
                counts: counts(&sp),
            },
            extra,
        }
    }
}
