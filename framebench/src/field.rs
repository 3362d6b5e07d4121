//! `field_secure`: sealed telemetry over the LPWAN radio into one FarmFog
//! shard — the workload where admission (key derivation, AEAD, JSON
//! decode, screening) does most of the work.
//!
//! About 6,000 probes each seal a frame every 30 simulated minutes at
//! their own phase (about 200 frames per 60 s platform round) for 360
//! rounds; one frame in a hundred re-sends its device's previous `seq`.
//! Open loop in simulated time: frames are offered on their schedule
//! whatever the backlog.
//!
//! The untraced pass publishes through `ShardedPlatform::device_publish`
//! and lets `Drive::round` admit the frames. `Platform::pump` hides
//! admission, so the traced pass seals each frame in the benchmark with
//! the device's key and submits it to the shard's `validate_frame` and
//! then `ingest_entities` before the round. It skips the radio: no frame
//! is lost, and the network's cost lands in `residual_share`. The same
//! direct path also runs untraced, as the baseline for tracing overhead.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use swamp_codec::json::Json;
use swamp_codec::ngsi::{Attribute, Entity};
use swamp_core::platform::IngestError;
use swamp_core::query::QueryResponse;
use swamp_crypto::aead::NonceSequence;
use swamp_pilots::experiments::scale::e14_builder;
use swamp_sensors::device::DeviceKind;
use swamp_shard::ShardedPlatform;
use swamp_sim::{SimDuration, SimRng, SimTime};

use crate::common::{
    check_answers, cloud_records, counts, flagged, flush, pending, platform_round, score,
    summarize, Det, Pass, TraceExtra, Visibility, OWNER, STEP,
};
use crate::reads::{plan, run_reads, Kind, Read, Reference, ATTR};
use crate::stats::{ms_since, Stopwatch};
use crate::trace::{Layer, Trace};

const DEVICES: usize = 6_000;
const ROUNDS: usize = 360;
const FARMS: usize = 8;
const PERIOD: SimDuration = SimDuration::from_mins(30);
const REPLAY_CHANCE: f64 = 0.01;
const READS_PER_ROUND: usize = 20;
/// One sealed frame in this many is kept for the admission breakdown.
const SAMPLE_EVERY: usize = 16;
const MAX_DRAIN_ROUNDS: usize = 1_000;

/// The dashboard poll beside the radio traffic: cheap history reads.
const MIX: [(Kind, f64); 5] = [
    (Kind::Last, 0.4),
    (Kind::Range, 0.25),
    (Kind::Aggregate, 0.15),
    (Kind::Extremes, 0.1),
    (Kind::Downsample, 0.1),
];

struct Frame {
    dev: usize,
    at: SimTime,
    entity: Entity,
}

pub struct Field {
    seed: u64,
    devices: Vec<String>,
    rounds: Vec<Vec<Frame>>,
    reads: Vec<Vec<Read>>,
    frames: u64,
    replays: u64,
    /// Plaintext of every fresh frame, by `(device, seq)`.
    sent: HashMap<(String, u64), String>,
}

fn round_time(k: usize) -> SimTime {
    SimTime::ZERO + STEP * (k as u64 + 1)
}

impl Field {
    pub fn new(seed: u64) -> Field {
        let mut rng = SimRng::seed_from(seed).split("field_secure");
        let devices: Vec<String> = (0..DEVICES)
            .map(|i| format!("urn:swamp:farm-{}:probe-{i:04}", i % FARMS))
            .collect();
        let mut rounds: Vec<Vec<Frame>> = (0..ROUNDS).map(|_| Vec::new()).collect();
        let mut sent = HashMap::new();
        let mut replays = 0;
        let horizon = STEP * ROUNDS as u64;
        for (dev, id) in devices.iter().enumerate() {
            let phase = SimDuration::from_millis(rng.below(PERIOD.as_millis()));
            let mut seq = 0u64;
            let mut prev: Option<Entity> = None;
            let mut at = SimTime::ZERO + phase;
            while at - SimTime::ZERO < horizon {
                let entity = match &prev {
                    Some(p) if rng.chance(REPLAY_CHANCE) => {
                        replays += 1;
                        p.clone()
                    }
                    _ => {
                        let ms = at.as_millis();
                        let mut e = Entity::new(id.as_str(), "SoilProbe");
                        e.set_attribute(
                            ATTR,
                            Attribute::new(rng.uniform_range(0.12, 0.38)).observed_at(ms),
                        );
                        e.set_attribute(
                            "battery_fraction",
                            Attribute::new(rng.uniform_range(0.5, 1.0)).observed_at(ms),
                        );
                        e.set("seq", seq as f64);
                        sent.insert((id.clone(), seq), e.to_json().to_compact_string());
                        seq += 1;
                        prev = Some(e.clone());
                        e
                    }
                };
                let k = ((at - SimTime::ZERO).as_millis() / STEP.as_millis()) as usize;
                rounds[k].push(Frame { dev, at, entity });
                at += PERIOD;
            }
        }
        for frames in &mut rounds {
            frames.sort_by_key(|f| (f.at, f.dev));
        }
        let frames = rounds.iter().map(|r| r.len() as u64).sum();
        let times: Vec<SimTime> = (0..ROUNDS).map(round_time).collect();
        let reads = plan(
            &mut rng.split("reads"),
            &devices,
            &MIX,
            READS_PER_ROUND,
            0,
            &times,
        );
        Field {
            seed,
            devices,
            rounds,
            reads,
            frames,
            replays,
            sent,
        }
    }

    pub fn shape(&self) -> String {
        format!(
            "{DEVICES} probes, {ROUNDS} rounds of 60 s, {} frames ({} replays), {READS_PER_ROUND} reads/round",
            self.frames, self.replays
        )
    }

    /// Builds the shard and registers every probe.
    pub fn setup(&self) -> ShardedPlatform {
        let mut sp = ShardedPlatform::build(&e14_builder(self.seed, 1));
        for id in &self.devices {
            sp.register_device(SimTime::ZERO, id, DeviceKind::SoilProbe, OWNER)
                .expect("device ids are unique");
        }
        sp
    }

    /// A pass over the radio, or bench-sealed and admitted directly when
    /// traced.
    pub fn pass<T: Trace>(&self, trace: &mut T) -> Pass {
        self.pass_on(trace, T::ON)
    }

    /// A pass that publishes over the radio, or (`direct`) seals in the
    /// benchmark and calls `validate_frame` and `ingest_entities` itself.
    pub fn pass_on<T: Trace>(&self, trace: &mut T, direct: bool) -> Pass {
        let setup = Instant::now();
        let mut sp = self.setup();
        let setup_s = setup.elapsed().as_secs_f64();

        let mut nonces: Vec<NonceSequence> = (0..self.devices.len())
            .map(|i| NonceSequence::new(i as u32 + 1))
            .collect();
        let mut vis = Visibility::default();
        let mut round_ms = Vec::with_capacity(ROUNDS);
        let mut query_us = Vec::new();
        let mut answers: Vec<Vec<QueryResponse>> = Vec::with_capacity(ROUNDS);
        let mut sample: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut extra = TraceExtra::default();
        let (mut replay_rejected, mut other_rejected, mut refused) = (0u64, 0u64, 0u64);
        let mut frame_id = 0usize;
        let mut query_id = 0u64;

        let mut clock = Stopwatch::start();
        for (k, frames) in self.rounds.iter().enumerate() {
            let now = round_time(k);
            let started = Instant::now();
            trace.enter(Layer::Round, k as u64);
            if direct {
                let mut batches: Vec<Vec<Entity>> = vec![Vec::new(); sp.shard_count()];
                for f in frames {
                    let dev = self.devices[f.dev].as_str();
                    let shard = sp.shard_of(dev);
                    let p = sp.shard_mut(shard).expect("routed shard exists");
                    let nonce = nonces[f.dev].next_nonce();
                    let sealed = trace.span(Layer::Seal, frame_id as u64, || {
                        let key = p.keystore.device_key(dev).expect("device is provisioned");
                        let text = f.entity.to_json().to_compact_string();
                        key.key.seal(&nonce, dev.as_bytes(), text.as_bytes())
                    });
                    match trace.span(Layer::Admit, frame_id as u64, || {
                        p.validate_frame(now, dev, &sealed)
                    }) {
                        Ok(entity) => batches[shard].push(entity),
                        Err(IngestError::Replay(_)) => replay_rejected += 1,
                        Err(_) => other_rejected += 1,
                    }
                    if frame_id.is_multiple_of(SAMPLE_EVERY) {
                        sample.push((f.dev, sealed));
                    }
                    frame_id += 1;
                }
                for (shard, batch) in batches.into_iter().enumerate() {
                    extra.applied += batch.len() as u64;
                    let p = sp.shard_mut(shard).expect("shard exists");
                    trace.span(Layer::Apply, k as u64, || p.ingest_entities(now, batch));
                }
            } else {
                for f in frames {
                    if sp
                        .device_publish(f.at, &self.devices[f.dev], &f.entity)
                        .is_err()
                    {
                        refused += 1;
                    }
                }
            }
            platform_round(&mut sp, now, trace, &mut vis);
            round_ms.push(ms_since(started));
            let mut got = Vec::with_capacity(self.reads[k].len());
            run_reads(
                &mut sp,
                &self.reads[k],
                trace,
                &mut query_id,
                &mut query_us,
                &mut got,
            );
            answers.push(got);
            trace.exit();
            if T::ON {
                clock.pause();
                extra.pending_max = extra.pending_max.max(pending(&sp));
                clock.resume();
            }
        }
        let mut now = round_time(ROUNDS - 1);
        for _ in 0..MAX_DRAIN_ROUNDS {
            let accepted = counts(&sp)["ingest.accepted"];
            let idle = sp.shards().all(|p| p.net.in_flight() == 0);
            if idle && sp.aggregate_store().record_count() as u64 >= accepted {
                break;
            }
            now += STEP;
            platform_round(&mut sp, now, trace, &mut vis);
        }
        flush(&mut sp, now, &mut vis);
        let wall_s = clock.seconds();

        if T::ON {
            for (dev, sealed) in &sample {
                let dev = self.devices[*dev].as_str();
                let p = sp.shard(sp.shard_of(dev)).expect("routed shard exists");
                let t = Instant::now();
                let key = black_box(p.keystore.device_key(dev).expect("device is provisioned"));
                let t_key = t.elapsed();
                let t = Instant::now();
                let plain = black_box(key.key.open(dev.as_bytes(), sealed).expect("sealed here"));
                let t_open = t.elapsed();
                let t = Instant::now();
                let text = std::str::from_utf8(&plain).expect("JSON is UTF-8");
                let entity = Json::parse(text)
                    .ok()
                    .and_then(|j| Entity::from_json(&j).ok());
                black_box(entity.expect("sealed from an entity"));
                let t_decode = t.elapsed();
                for (acc, d) in [
                    (&mut extra.key, t_key),
                    (&mut extra.open, t_open),
                    (&mut extra.decode, t_decode),
                ] {
                    acc.0 += d.as_secs_f64() * 1e6;
                    acc.1 += 1;
                }
            }
        }

        let c = counts(&sp);
        let snap = swamp_core::Drive::observe(&sp);
        let rejected_elsewhere: u64 = [
            "ingest.rejected_auth",
            "ingest.rejected_malformed",
            "ingest.rejected_unregistered",
        ]
        .iter()
        .map(|n| snap.counter(n).unwrap_or(0))
        .sum();
        let (records, mut failed) = cloud_records(&sp, &vis);
        let accepted = c["ingest.accepted"];
        let (lost, rejected) = if direct {
            (0, replay_rejected)
        } else {
            (c["net.lost"], c["ingest.rejected_replay"])
        };
        // Exactly once, and only what a device sealed.
        let mut seen = HashSet::new();
        for r in &records {
            let seq = r.seq.map_or(u64::MAX, |s| s as u64);
            let key = (r.record.key.clone(), seq);
            let genuine = self
                .sent
                .get(&key)
                .is_some_and(|text| text.as_bytes() == r.record.payload.as_slice());
            if !genuine || !seen.insert(key) {
                failed += 1;
            }
        }
        // Every frame the radio delivered is either in the cloud tier or
        // a rejected replay.
        failed += (records.len() as u64).abs_diff(accepted);
        failed += (self.frames - lost).abs_diff(accepted + rejected);
        failed += other_rejected + rejected_elsewhere + refused;
        if direct {
            // Without the radio every fresh frame lands and every replay
            // is caught.
            failed += rejected.abs_diff(self.replays);
        }

        // Reads saw exactly the frames ingested by then.
        let mut by_round: Vec<Vec<crate::reads::Write>> = (0..ROUNDS).map(|_| Vec::new()).collect();
        for r in &records {
            let k = (r.record.created_at.as_millis() / STEP.as_millis()) as usize;
            if let Some(slot) = k.checked_sub(1).and_then(|k| by_round.get_mut(k)) {
                slot.push(r.write());
            }
        }
        let mut reference = Reference::default();
        for (k, writes) in by_round.into_iter().enumerate() {
            for w in writes {
                reference.write(w);
            }
            failed += check_answers(&self.reads[k], &answers[k], &reference);
        }

        let tier = summarize(&records);
        let (recall, precision) = score(&flagged(&sp), &[]);
        let reads: usize = self.reads.iter().map(Vec::len).sum();
        Pass {
            setup_s,
            wall_s,
            records: self.frames,
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
                attempted: self.frames + reads as u64,
                failed,
                counts: c,
            },
            extra,
        }
    }
}
