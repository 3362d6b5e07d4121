//! `bench e11`: E11c broker throughput. Runs the devices × deployment
//! sweep over the post-validation broker hot path.

use swamp_codec::json::Json;
use swamp_pilots::experiments::e11_broker_scale_observed;

use crate::{envelope, rounded, Args, Clock, Outcome};

pub fn run(args: &Args, clock: &Clock) -> Outcome {
    let (result, obs_reports) = e11_broker_scale_observed(&args.nums, |run| clock.time(run));
    eprintln!("{}", result.report());

    let rows: Vec<Json> = result
        .rows
        .iter()
        .map(|r| {
            Json::object([
                ("deployment", Json::String(r.deployment.to_owned())),
                ("devices", Json::Number(r.devices as f64)),
                ("updates", Json::Number(r.updates as f64)),
                ("elapsed_ms", rounded(r.elapsed_ms, 10.0)),
                ("updates_per_s", Json::Number(r.throughput_per_s.round())),
                ("us_per_update", rounded(r.mean_update_us, 100.0)),
            ])
        })
        .collect();
    let doc = envelope(
        "e11_broker_scale",
        "Wall-clock ingest throughput of the post-validation broker hot \
         path (history appends, batched upsert with subscriber fan-out, \
         fog replication) per deployment and fleet size.",
        [("rows", Json::Array(rows))],
    );
    Outcome {
        doc,
        obs: Some(obs_reports),
        gate: Ok(()),
    }
}
