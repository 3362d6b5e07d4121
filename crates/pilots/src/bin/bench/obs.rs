//! `bench obs`: observability overhead. Runs the same FarmFog ingest+pump
//! workload per fleet size with the obs subsystem live and muted (via
//! `Platform::set_obs_enabled(false)`) and reports the per-update cost of
//! instrumentation.
//!
//! Gate: the aggregate instrumented cost may exceed the muted cost by at
//! most 5% — the regression guard for the obs hot path (indexed slab
//! adds; no hashing, no allocation). Both variants run interleaved and
//! the minimum per variant is compared, so transient machine noise
//! biases both sides equally.

use swamp_codec::json::Json;
use swamp_codec::ngsi::Entity;
use swamp_core::platform::{DeploymentConfig, Platform};
use swamp_pilots::reps::best_of_interleaved;
use swamp_sim::SimTime;

use crate::{envelope, rounded, Args, Clock, Outcome};

/// Gate: instrumented cost may exceed muted cost by at most this.
const MAX_OVERHEAD: f64 = 0.05;

struct Cell {
    devices: usize,
    updates: u64,
    muted_secs: f64,
    live_secs: f64,
}

impl Cell {
    fn overhead(&self) -> f64 {
        if self.muted_secs > 0.0 {
            self.live_secs / self.muted_secs - 1.0
        } else {
            0.0
        }
    }
}

/// One timed sweep: `rounds` minute-spaced batches of `devices` updates
/// through the post-validation ingest + pump path (the same hot path
/// `bench e11` measures). Only ingest+pump are timed; batch construction
/// is identical across variants and excluded.
fn run_variant(devices: usize, muted: bool, clock: &Clock) -> (u64, f64) {
    let mut platform = Platform::builder(DeploymentConfig::FarmFog).seed(7).build();
    platform.set_obs_enabled(!muted);
    let rounds = (100_000 / devices).clamp(5, 1000);
    let mut updates = 0u64;
    let mut secs = 0.0f64;
    for round in 0..rounds {
        let t = SimTime::from_secs(round as u64 * 60);
        let mut batch: Vec<Entity> = (0..devices)
            .map(|i| {
                let mut e = Entity::new(format!("urn:swamp:device:probe-{i}"), "SoilProbe");
                e.set("moisture_vwc", 0.2 + (round % 100) as f64 * 0.001);
                e.set("seq", round as f64);
                e
            })
            .collect();
        secs += clock.time(&mut || {
            updates += platform.ingest_entities(t, std::mem::take(&mut batch)) as u64;
            platform.pump(t);
        });
    }
    (updates, secs)
}

pub fn run(args: &Args, clock: &Clock) -> Outcome {
    let cells: Vec<Cell> = args
        .nums
        .iter()
        .map(|&devices| {
            let mut updates = 0;
            // Arm 0 is muted, arm 1 live.
            let best = best_of_interleaved(2, |_, arm| {
                let (u, secs) = run_variant(devices, arm == 0, clock);
                updates = u;
                secs
            });
            Cell {
                devices,
                updates,
                muted_secs: best[0],
                live_secs: best[1],
            }
        })
        .collect();

    eprintln!("devices  updates  muted_us/upd  live_us/upd  overhead");
    for c in &cells {
        eprintln!(
            "{:>7}  {:>7}  {:>12.3}  {:>11.3}  {:>+7.2}%",
            c.devices,
            c.updates,
            c.muted_secs * 1e6 / c.updates as f64,
            c.live_secs * 1e6 / c.updates as f64,
            c.overhead() * 100.0
        );
    }
    let total_muted: f64 = cells.iter().map(|c| c.muted_secs).sum();
    let total_live: f64 = cells.iter().map(|c| c.live_secs).sum();
    let agg = if total_muted > 0.0 {
        total_live / total_muted - 1.0
    } else {
        0.0
    };
    eprintln!("aggregate overhead: {:+.2}%", agg * 100.0);

    let rows: Vec<Json> = cells
        .iter()
        .map(|c| {
            Json::object([
                ("devices", Json::Number(c.devices as f64)),
                ("updates", Json::Number(c.updates as f64)),
                (
                    "muted_us_per_update",
                    rounded(c.muted_secs * 1e6 / c.updates as f64, 1e3),
                ),
                (
                    "instrumented_us_per_update",
                    rounded(c.live_secs * 1e6 / c.updates as f64, 1e3),
                ),
                (
                    "overhead_pct",
                    Json::Number((c.overhead() * 1e4).round() / 1e2),
                ),
            ])
        })
        .collect();
    let doc = envelope(
        "obs_overhead",
        "Wall-clock cost of the obs subsystem on the ingest+pump hot \
         path: the same FarmFog workload with instrumentation live vs \
         muted (handles registered, recording gated off). Best-of-3 \
         interleaved runs per variant.",
        [
            (
                "aggregate_overhead_pct",
                Json::Number((agg * 1e4).round() / 1e2),
            ),
            ("rows", Json::Array(rows)),
        ],
    );
    let gate = if agg > MAX_OVERHEAD {
        Err(format!(
            "instrumentation overhead {:.2}% exceeds the {:.0}% budget",
            agg * 100.0,
            MAX_OVERHEAD * 100.0
        ))
    } else {
        Ok(())
    };
    Outcome {
        doc,
        obs: None,
        gate,
    }
}
