//! `bench e14`: E14b shard scale-out throughput. Each fleet size is
//! replayed at 1, 4 and 16 shards under 1, 2 and 8 worker threads (cells
//! with more workers than shards are skipped — they would only time idle
//! threads). Each cell ingests one update per device and is pumped until
//! every record reaches the cross-shard aggregate store.
//!
//! Honesty note: since the sync engine became O(transmissions +
//! due-timers) per round, total drain work is linear in backlog — so
//! single-threaded sharding yields ~1× speedup, and any real gain must
//! come from the worker pool. Whether it *can* depends on the machine:
//! the JSON records `available_parallelism`, and the gate scales with it
//! (see [`check`]). DESIGN.md §14 separates the per-shard working-set
//! effect from true core scaling.

use swamp_codec::json::Json;
use swamp_pilots::experiments::e14_shard_throughput_observed;
use swamp_pilots::experiments::scale::E14ThroughputResult;

use crate::{cores, envelope, rounded, Args, Clock, Outcome};

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// The gate: full replication everywhere, and at the largest fleet the
/// parallel schedule must beat serial where the hardware can express a
/// speedup (≥2 cores). On 1 core there is nothing to win — timeslicing
/// two workers over one cache and one allocator can cost up to ~3× on
/// big working sets — so the gate only bounds pathological collapse
/// (parallel ≥ ¼ of serial).
fn check(result: &E14ThroughputResult, sizes: &[usize]) -> Result<(), String> {
    for row in &result.rows {
        if row.updates != row.devices as u64 {
            return Err(format!(
                "{} shards / {} workers / {} devices: only {} of {} updates replicated",
                row.shards, row.workers, row.devices, row.updates, row.devices
            ));
        }
    }
    let largest = *sizes.iter().max().ok_or("empty fleet-size list")?;
    let floor = if cores() >= 2 { 1.0 } else { 0.25 };
    for &shards in SHARD_COUNTS.iter().filter(|&&s| s >= 2) {
        let serial = result
            .throughput(shards, 1, largest)
            .ok_or_else(|| format!("missing serial cell at {shards} shards"))?;
        let best_parallel = result
            .rows
            .iter()
            .filter(|r| r.shards == shards && r.workers >= 2 && r.devices == largest)
            .map(|r| r.throughput_per_s)
            .fold(f64::NAN, f64::max);
        // NaN (no parallel cell found at this shard count) must fail too.
        if best_parallel.is_nan() || best_parallel < serial * floor {
            return Err(format!(
                "{shards} shards / {largest} devices: best parallel throughput \
                 {best_parallel:.0}/s < {floor}x serial {serial:.0}/s ({} cores)",
                cores()
            ));
        }
    }
    Ok(())
}

pub fn run(args: &Args, clock: &Clock) -> Outcome {
    let (result, obs_reports) =
        e14_shard_throughput_observed(&SHARD_COUNTS, &WORKER_COUNTS, &args.nums, |run| {
            clock.time(run)
        });
    eprintln!("{}", result.report());

    let rows: Vec<Json> = result
        .rows
        .iter()
        .map(|r| {
            // Speedup relative to the serial 1-shard cell of the same
            // fleet size, and relative to the serial schedule of the same
            // shard count (isolating what the worker pool buys).
            let speedup_vs = |shards| {
                result
                    .throughput(shards, 1, r.devices)
                    .filter(|base| *base > 0.0)
                    .map(|base| r.throughput_per_s / base)
                    .unwrap_or(0.0)
            };
            Json::object([
                ("shards", Json::Number(r.shards as f64)),
                ("workers", Json::Number(r.workers as f64)),
                ("devices", Json::Number(r.devices as f64)),
                ("updates", Json::Number(r.updates as f64)),
                ("pumps", Json::Number(r.pumps as f64)),
                ("elapsed_ms", rounded(r.elapsed_ms, 10.0)),
                ("updates_per_s", Json::Number(r.throughput_per_s.round())),
                ("speedup_vs_1shard", rounded(speedup_vs(1), 100.0)),
                ("speedup_vs_serial", rounded(speedup_vs(r.shards), 100.0)),
            ])
        })
        .collect();
    let doc = envelope(
        "e14_shard_throughput",
        "Wall-clock time to fully replicate one update per device \
         through ingest, per-shard fog sync and cross-shard cloud \
         aggregation, per shard count, worker-thread count and \
         fleet size.",
        [
            ("available_parallelism", Json::Number(cores() as f64)),
            ("rows", Json::Array(rows)),
        ],
    );
    Outcome {
        doc,
        obs: Some(obs_reports),
        gate: check(&result, &args.nums),
    }
}
