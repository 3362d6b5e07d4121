//! `bench sync`: deep-backlog drain. Enqueues a backlog of B records on
//! one FogSync engine and times draining it to the cloud store over a
//! lossless LAN.
//!
//! With the indexed engine (seq-keyed record table + ready queue + timer
//! wheel) a drain is O(B): each round touches only the records it
//! transmits and each ack is a keyed remove. The pre-indexed engine
//! rescanned the whole buffer every round and every ack, making the same
//! drain O(B²). Gate: drain time may not grow superlinearly between
//! adjacent backlog sizes (time ratio > size ratio × slack — a quadratic
//! engine shows ~size²). Repetitions interleave across sizes and minima
//! are compared, so transient machine noise biases every cell equally.

use swamp_codec::json::Json;
use swamp_fog::sync::{CloudStore, DropPolicy, FogSync};
use swamp_net::link::LinkSpec;
use swamp_net::network::Network;
use swamp_pilots::reps::best_of_interleaved;
use swamp_sim::{SimDuration, SimTime};

use crate::{envelope, rounded, Args, Clock, Outcome};

/// Gate: between adjacent sizes, drain time may grow at most
/// `size_ratio × SLACK`. Linear drains sit near the size ratio itself;
/// a quadratic engine shows ~size_ratio² (≈ 100× for a 10× step).
const SLACK: f64 = 3.0;
/// Pairs whose faster cell is below this are too noisy to ratio-test.
const MIN_BASE_SECS: f64 = 0.005;
/// Transmissions per sync round (the platform's pump batch).
const BATCH: usize = 256;

struct Cell {
    backlog: usize,
    rounds: u64,
    drain_secs: f64,
}

/// One timed drain: backlog enqueued outside the timer, then rounds of
/// sync → deliver → store/ack → deliver → poll until the buffer empties.
/// Returns (rounds, seconds); panics if the drain stalls (that would be
/// an engine bug, and this harness exists to catch engine regressions).
fn run_drain(backlog: usize, clock: &Clock) -> (u64, f64) {
    let mut net = Network::new(17);
    net.add_node("fog");
    net.add_node("cloud");
    net.connect("fog", "cloud", LinkSpec::farm_lan());
    let mut sync = FogSync::builder("fog", "cloud")
        .capacity(backlog)
        .drop_policy(DropPolicy::Oldest)
        .base_timeout(SimDuration::from_secs(3600))
        .jitter(0.0)
        .build();
    let mut cloud = CloudStore::new("cloud");
    for i in 0..backlog {
        sync.enqueue(SimTime::ZERO, "probe", vec![i as u8])
            .expect("under capacity");
    }

    let round_budget = (backlog as u64 / BATCH as u64 + 16) * 3;
    let mut rounds = 0u64;
    let mut now = SimTime::ZERO;
    let secs = clock.time(&mut || {
        while sync.pending() > 0 {
            assert!(
                rounds < round_budget,
                "drain stalled: {} of {backlog} records still pending after {rounds} rounds",
                sync.pending()
            );
            sync.sync_round(&mut net, now, BATCH);
            now += SimDuration::from_secs(1);
            net.advance_to(now);
            cloud.process(&mut net, now);
            now += SimDuration::from_secs(1);
            net.advance_to(now);
            sync.poll_acks(&mut net, now);
            rounds += 1;
        }
    });
    assert_eq!(cloud.record_count(), backlog, "lossless drain lost records");
    (rounds, secs)
}

pub fn run(args: &Args, clock: &Clock) -> Outcome {
    let mut sizes = args.nums.clone();
    sizes.sort_unstable();

    let mut rounds = vec![0; sizes.len()];
    let best = best_of_interleaved(sizes.len(), |_, i| {
        let (r, secs) = run_drain(sizes[i], clock);
        rounds[i] = r;
        secs
    });
    let cells: Vec<Cell> = sizes
        .iter()
        .zip(rounds)
        .zip(best)
        .map(|((&backlog, rounds), drain_secs)| Cell {
            backlog,
            rounds,
            drain_secs,
        })
        .collect();

    eprintln!("backlog  rounds  drain_s  us/record");
    for c in &cells {
        eprintln!(
            "{:>7}  {:>6}  {:>7.3}  {:>9.3}",
            c.backlog,
            c.rounds,
            c.drain_secs,
            c.drain_secs * 1e6 / c.backlog as f64
        );
    }

    let mut violations = Vec::new();
    let mut ratio_rows: Vec<Json> = Vec::new();
    for pair in cells.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        let size_ratio = hi.backlog as f64 / lo.backlog as f64;
        let time_ratio = if lo.drain_secs > 0.0 {
            hi.drain_secs / lo.drain_secs
        } else {
            0.0
        };
        let allowed = size_ratio * SLACK;
        let tested = lo.drain_secs >= MIN_BASE_SECS;
        eprintln!(
            "{} -> {}: time ratio {:.1}x (size ratio {:.0}x, allowed {:.0}x{})",
            lo.backlog,
            hi.backlog,
            time_ratio,
            size_ratio,
            allowed,
            if tested {
                ""
            } else {
                ", base too small to test"
            }
        );
        if tested && time_ratio > allowed {
            violations.push(format!(
                "{}->{}: drain time grew {time_ratio:.1}x for a {size_ratio:.0}x backlog \
                 (allowed {allowed:.0}x)",
                lo.backlog, hi.backlog
            ));
        }
        ratio_rows.push(Json::object([
            ("from_backlog", Json::Number(lo.backlog as f64)),
            ("to_backlog", Json::Number(hi.backlog as f64)),
            ("size_ratio", Json::Number(size_ratio)),
            ("time_ratio", rounded(time_ratio, 1e3)),
            ("allowed_ratio", Json::Number(allowed)),
        ]));
    }

    let rows: Vec<Json> = cells
        .iter()
        .map(|c| {
            Json::object([
                ("backlog", Json::Number(c.backlog as f64)),
                ("rounds", Json::Number(c.rounds as f64)),
                ("drain_secs", rounded(c.drain_secs, 1e4)),
                (
                    "us_per_record",
                    rounded(c.drain_secs * 1e6 / c.backlog as f64, 1e3),
                ),
            ])
        })
        .collect();
    let doc = envelope(
        "sync_drain",
        "Wall-clock cost of draining a deep fog backlog through the \
         indexed sync engine (record table + ready queue + timer \
         wheel) over a lossless LAN, one shard, batch 256. \
         Best-of-3 interleaved runs per size; near-linear growth is \
         the witness that per-round work no longer scans the backlog.",
        [
            ("batch", Json::Number(BATCH as f64)),
            ("slack", Json::Number(SLACK)),
            ("rows", Json::Array(rows)),
            ("adjacent_ratios", Json::Array(ratio_rows)),
        ],
    );
    let gate = if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("superlinear drain: {}", violations.join("; ")))
    };
    Outcome {
        doc,
        obs: None,
        gate,
    }
}
