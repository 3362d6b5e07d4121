//! `bench e16`: E16 behavioral baseline. Runs the deterministic per-pilot
//! precision/recall scorecard plus the wall-clock live-vs-muted detector
//! overhead sweep. `devices`/`rounds` size the overhead workload only;
//! the detection scorecard always runs at the canonical E16 scale so its
//! numbers match EXPERIMENTS.md.
//!
//! The gate holds the claims the detector makes:
//!
//! 1. **Per-pilot recall** — the bank must flag at least 3/4 of the
//!    planted attack devices (Sybil burst + tamper drift + actuator
//!    takeover) in every pilot profile;
//! 2. **Per-pilot precision** — at least 90% of flagged devices must
//!    be real attackers (at most a stray honest flag per fleet);
//! 3. **Overhead** — ingest+pump with the bank live must cost at most
//!    10% more wall-clock time than with the bank muted (a single
//!    branch), best-of-3 interleaved. Wall clock on a shared box is
//!    noisy, so `--check` re-measures up to twice before failing.

use swamp_codec::json::Json;
use swamp_pilots::experiments::{
    e16_baseline_detection, e16_overhead_observed, E16OverheadResult, E16Result,
};

use crate::{cores, envelope, rounded, Args, Clock, Outcome};

const RECALL_FLOOR: f64 = 0.75;
const PRECISION_FLOOR: f64 = 0.9;
const OVERHEAD_BUDGET: f64 = 0.10;

fn check(detection: &E16Result, overhead: &E16OverheadResult) -> Result<(), String> {
    if detection.rows.len() != 4 {
        return Err(format!(
            "expected 4 pilot rows, got {}",
            detection.rows.len()
        ));
    }
    for row in &detection.rows {
        if row.truth == 0 {
            return Err(format!("{}: no planted attack devices", row.pilot.name()));
        }
        if row.recall < RECALL_FLOOR {
            return Err(format!(
                "{}: recall {:.2} below the {RECALL_FLOOR} floor ({} of {} attack \
                 devices missed)",
                row.pilot.name(),
                row.recall,
                row.fn_missed,
                row.truth
            ));
        }
        if row.precision < PRECISION_FLOOR {
            return Err(format!(
                "{}: precision {:.2} below the {PRECISION_FLOOR} floor ({} honest \
                 devices flagged)",
                row.pilot.name(),
                row.precision,
                row.fp
            ));
        }
    }
    if overhead.records == 0 {
        return Err("overhead workload generated no records".to_owned());
    }
    if overhead.overhead_frac > OVERHEAD_BUDGET {
        return Err(format!(
            "live detector overhead {:.1}% exceeds the {:.0}% budget",
            overhead.overhead_frac * 100.0,
            OVERHEAD_BUDGET * 100.0
        ));
    }
    Ok(())
}

pub fn run(args: &Args, clock: &Clock) -> Outcome {
    let (devices, rounds) = (args.nums[0], args.nums[1]);
    let detection = e16_baseline_detection(42);
    eprintln!("{}", detection.report());

    let measure = || e16_overhead_observed(42, devices, rounds, |run| clock.time(run));
    let (mut overhead, mut obs_reports) = measure();
    if args.check {
        // A wall-clock gate on a shared box sees noisy-neighbor
        // spikes; re-measure before failing rather than flaking CI.
        let mut attempt = 1;
        while overhead.overhead_frac > OVERHEAD_BUDGET && attempt < 3 {
            attempt += 1;
            eprintln!(
                "bench e16: overhead {:.1}% over budget, re-measuring (attempt {attempt}/3)",
                overhead.overhead_frac * 100.0
            );
            let (o, r) = measure();
            if o.overhead_frac < overhead.overhead_frac {
                (overhead, obs_reports) = (o, r);
            }
        }
    }
    eprintln!("{}", overhead.report());

    let detection_rows: Vec<Json> = detection
        .rows
        .iter()
        .map(|r| {
            let caught: Vec<Json> = r
                .caught
                .iter()
                .map(|(label, (c, t))| {
                    Json::object([
                        ("label", Json::String(label.as_str().into())),
                        ("caught", Json::Number(*c as f64)),
                        ("total", Json::Number(*t as f64)),
                    ])
                })
                .collect();
            Json::object([
                ("pilot", Json::String(r.pilot.name().into())),
                ("devices", Json::Number(r.devices as f64)),
                ("rounds", Json::Number(r.rounds as f64)),
                ("records", Json::Number(r.records as f64)),
                ("attack_devices", Json::Number(r.truth as f64)),
                ("flagged", Json::Number(r.flagged as f64)),
                ("tp", Json::Number(r.tp as f64)),
                ("fp", Json::Number(r.fp as f64)),
                ("fn", Json::Number(r.fn_missed as f64)),
                ("precision", rounded(r.precision, 1000.0)),
                ("recall", rounded(r.recall, 1000.0)),
                ("by_label", Json::Array(caught)),
            ])
        })
        .collect();
    let overhead_rows: Vec<Json> = overhead
        .rows
        .iter()
        .map(|r| {
            Json::object([
                ("arm", Json::String(r.arm.into())),
                ("records", Json::Number(r.records as f64)),
                ("elapsed_ms", rounded(r.elapsed_ms, 100.0)),
                ("records_per_s", Json::Number(r.records_per_s.round())),
            ])
        })
        .collect();
    let doc = envelope(
        "e16_behavioral_baseline",
        "Streaming behavioral baseline vs the four labeled pilot \
         workloads: device-level precision/recall per pilot \
         (deterministic, seed 42) and the wall-clock ingest+pump \
         overhead of the live detector vs a muted bank on the \
         densest (CBEC) stream, best-of-3 interleaved.",
        [
            ("available_parallelism", Json::Number(cores() as f64)),
            ("seed", Json::Number(42.0)),
            ("detection", Json::Array(detection_rows)),
            ("overhead_devices", Json::Number(overhead.devices as f64)),
            ("overhead_rounds", Json::Number(overhead.rounds as f64)),
            ("overhead_reps", Json::Number(overhead.reps as f64)),
            ("overhead", Json::Array(overhead_rows)),
            ("overhead_frac", rounded(overhead.overhead_frac, 10000.0)),
            ("recall_floor", Json::Number(RECALL_FLOOR)),
            ("precision_floor", Json::Number(PRECISION_FLOOR)),
            ("overhead_budget", Json::Number(OVERHEAD_BUDGET)),
        ],
    );
    Outcome {
        doc,
        obs: Some(obs_reports),
        gate: check(&detection, &overhead),
    }
}
