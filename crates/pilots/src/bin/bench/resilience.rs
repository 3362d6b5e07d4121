//! `bench resilience`: the E13 fault-injection sweep (loss × deployment
//! config, with a mid-run 1 h partition). Sim-time deterministic: the
//! same seed reproduces the same JSON and `OBS_resilience.json` bit for
//! bit.

use swamp_codec::json::Json;
use swamp_pilots::experiments::e13_resilience_observed;

use crate::{envelope, rounded, Args, Clock, Outcome};

pub fn run(args: &Args, _clock: &Clock) -> Outcome {
    let seed = args.nums[0] as u64;
    let (result, obs_reports) = e13_resilience_observed(seed);
    eprintln!("{}", result.report());

    let rows: Vec<Json> = result
        .rows
        .iter()
        .map(|r| {
            Json::object([
                ("deployment", Json::String(r.deployment.to_owned())),
                ("loss", Json::Number(r.loss)),
                ("offered", Json::Number(r.offered as f64)),
                ("delivered", Json::Number(r.delivered as f64)),
                ("delivery_ratio", rounded(r.delivery_ratio(), 1e4)),
                (
                    "duplicate_applies",
                    Json::Number(r.duplicate_applies as f64),
                ),
                (
                    "duplicates_discarded",
                    Json::Number(r.duplicates_discarded as f64),
                ),
                ("retransmissions", Json::Number(r.retransmissions as f64)),
                (
                    "mode_during_outage",
                    Json::String(r.mode_during_outage.to_string()),
                ),
                ("final_mode", Json::String(r.final_mode.to_string())),
                ("recovery_secs", Json::Number(r.recovery_secs as f64)),
            ])
        })
        .collect();
    let doc = envelope(
        "e13_resilience",
        "End-to-end uplink resilience under injected loss and a 1 h \
         scheduled partition: records offered to the retry/ack engine \
         vs records applied at the cloud store (exactly once), \
         retransmission cost, degraded-mode behavior and seconds to \
         drain the backlog after the partition heals.",
        [
            ("seed", Json::Number(seed as f64)),
            ("rows", Json::Array(rows)),
        ],
    );
    Outcome {
        doc,
        obs: Some(obs_reports),
        gate: Ok(()),
    }
}
