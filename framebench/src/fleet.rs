//! `pilot_fleet`: the four pilot streams with every attack overlay,
//! applied post-admission to four shards on two workers.
//!
//! Each pilot compiles `e16_spec` at about 1,000 devices for 120 workload
//! rounds of 30 minutes; the behavioral baseline is phased live. The
//! traffic is bursty — drone flushes, partitions then reconnection
//! storms, late samples — so apply, fog→cloud sync backlog, the shard
//! pool and cross-shard aggregation do the work, and crypto and frame
//! decoding are bypassed. Open loop in simulated time: each round's batch
//! goes in through `Drive::ingest` whatever the backlog, then 30 platform
//! rounds of 60 s run before the next batch.
//!
//! The traced pass drives the same calls on one worker: `Drive::ingest`,
//! then each shard's `Platform::pump` and `ShardedPlatform::aggregate`.
//! Its deterministic outcome must equal the two-worker pass's.

use std::collections::BTreeSet;
use std::time::Instant;

use swamp_codec::ngsi::Entity;
use swamp_core::platform::PlatformBuilder;
use swamp_core::Drive;
use swamp_pilots::experiments::{e16_builder, e16_config, e16_spec};
use swamp_sensors::device::DeviceKind;
use swamp_shard::ShardedPlatform;
use swamp_sim::{SimRng, SimTime};
use swamp_workload::Pilot;

use crate::common::{
    check_answers, cloud_records, counts, flagged, flush, pending, platform_round, score,
    summarize, Det, Pass, TraceExtra, Visibility, OWNER, STEP,
};
use crate::reads::{plan, run_reads, Kind, Read, Reference, Write, ATTR, FLOW};
use crate::stats::{ms_since, Stopwatch};
use crate::trace::{Layer, Trace};

const DEVICES: usize = 1_000;
const ROUNDS: usize = 120;
const SHARDS: usize = 4;
const WORKERS: usize = 2;
const READS_PER_ROUND: usize = 40;
const MAX_DRAIN_ROUNDS: usize = 20_000;

/// The dashboard poll between workload rounds: cheap history reads.
const MIX: [(Kind, f64); 5] = [
    (Kind::Last, 0.4),
    (Kind::Range, 0.25),
    (Kind::Aggregate, 0.15),
    (Kind::Extremes, 0.1),
    (Kind::Downsample, 0.1),
];

pub struct Fleet {
    builder: PlatformBuilder,
    devices: Vec<String>,
    times: Vec<SimTime>,
    pumps_per_round: u64,
    batches: Vec<Vec<Entity>>,
    writes: Vec<Vec<Write>>,
    reads: Vec<Vec<Read>>,
    /// Every offered `(key, payload)` the cloud tier must hold, sorted.
    offered: Vec<(String, Vec<u8>)>,
    truth: Vec<String>,
}

impl Fleet {
    pub fn new(seed: u64) -> Fleet {
        let specs: Vec<_> = Pilot::all()
            .into_iter()
            .map(|pilot| e16_spec(pilot, seed, DEVICES, ROUNDS))
            .collect();
        let compiled: Vec<_> = specs.iter().map(|s| s.compile()).collect();
        let spec = &specs[0];
        let builder = e16_builder(seed, e16_config(spec))
            .shards(SHARDS)
            .workers(WORKERS);
        let times: Vec<SimTime> = (0..ROUNDS).map(|r| spec.round_time(r)).collect();
        let pumps_per_round = spec.step.as_millis() / STEP.as_millis();
        let mut batches = Vec::with_capacity(ROUNDS);
        let mut writes = Vec::with_capacity(ROUNDS);
        for r in 0..ROUNDS {
            let records: Vec<_> = compiled
                .iter()
                .flat_map(|w| &w.batches[r].records)
                .collect();
            batches.push(records.iter().map(|rec| rec.entity.clone()).collect());
            writes.push(
                records
                    .iter()
                    .map(|rec| Write {
                        entity: rec.device.clone(),
                        at: rec.sampled_at,
                        moisture: rec.entity.number(ATTR),
                        flow: rec.entity.number(FLOW),
                    })
                    .collect(),
            );
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
        let devices: Vec<String> = compiled.iter().flat_map(|w| w.devices.clone()).collect();
        let truth: BTreeSet<String> = compiled
            .iter()
            .flat_map(|w| w.attack_devices.iter().cloned())
            .collect();
        let last_pump = STEP * (pumps_per_round - 1);
        let read_times: Vec<SimTime> = times.iter().map(|&t| t + last_pump).collect();
        let reads = plan(
            &mut SimRng::seed_from(seed).split("pilot_fleet/reads"),
            &devices,
            &MIX,
            READS_PER_ROUND,
            0,
            &read_times,
        );
        Fleet {
            builder,
            devices,
            times,
            pumps_per_round,
            batches,
            writes,
            reads,
            offered,
            truth: truth.into_iter().collect(),
        }
    }

    pub fn shape(&self) -> String {
        format!(
            "4 pilots x {DEVICES} devices, {ROUNDS} rounds of 30 min, {} records, {SHARDS} shards on {WORKERS} workers, {READS_PER_ROUND} reads/round",
            self.offered.len()
        )
    }

    /// Builds the shards and registers every legitimate probe (the Sybil
    /// identities never are).
    pub fn setup(&self) -> ShardedPlatform {
        let mut sp = ShardedPlatform::build(&self.builder);
        for id in &self.devices {
            sp.register_device(SimTime::ZERO, id, DeviceKind::SoilProbe, OWNER)
                .expect("device ids are unique");
        }
        sp
    }

    /// A pass on the configured two workers (one when traced).
    pub fn pass<T: Trace>(&self, trace: &mut T) -> Pass {
        self.pass_on(trace, if T::ON { 1 } else { WORKERS })
    }

    /// A pass with rounds run on `workers` threads.
    pub fn pass_on<T: Trace>(&self, trace: &mut T, workers: usize) -> Pass {
        let setup = Instant::now();
        let mut sp = self.setup();
        let setup_s = setup.elapsed().as_secs_f64();
        sp.set_workers(workers);

        let batches = self.batches.clone();
        let mut vis = Visibility::default();
        let mut round_ms = Vec::with_capacity(ROUNDS);
        let mut query_us = Vec::new();
        let mut answers = Vec::new();
        let mut reference = Reference::default();
        let mut extra = TraceExtra::default();
        let mut failed = 0u64;
        let mut query_id = 0u64;

        let mut clock = Stopwatch::start();
        for (r, batch) in batches.into_iter().enumerate() {
            let t = self.times[r];
            let started = Instant::now();
            trace.enter(Layer::Round, r as u64);
            extra.applied += batch.len() as u64;
            trace.span(Layer::Apply, r as u64, || sp.ingest(t, batch));
            for j in 0..self.pumps_per_round {
                platform_round(&mut sp, t + STEP * j, trace, &mut vis);
                if T::ON {
                    clock.pause();
                    extra.pending_max = extra.pending_max.max(pending(&sp));
                    clock.resume();
                }
            }
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
            for w in &self.writes[r] {
                reference.write(w.clone());
            }
            failed += check_answers(&self.reads[r], &answers, &reference);
            answers.clear();
            clock.resume();
        }
        let mut now = self.times[ROUNDS - 1] + STEP * (self.pumps_per_round - 1);
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
        let (recall, precision) = score(&flagged(&sp), &self.truth);
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

/// Size of the symmetric difference of two sorted multisets.
pub fn multiset_difference(want: &[(String, Vec<u8>)], got: &[(&str, &[u8])]) -> u64 {
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < want.len() || j < got.len() {
        let a = want.get(i).map(|(k, p)| (k.as_str(), p.as_slice()));
        match (a, got.get(j).copied()) {
            (Some(a), Some(b)) if a == b => {
                i += 1;
                j += 1;
            }
            (Some(a), Some(b)) if a < b => {
                i += 1;
                diff += 1;
            }
            (Some(_), None) => {
                i += 1;
                diff += 1;
            }
            _ => {
                j += 1;
                diff += 1;
            }
        }
    }
    diff
}
