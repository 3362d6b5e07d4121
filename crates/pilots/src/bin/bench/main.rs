//! The bench harness: one binary for every wall-clock sweep and CI gate.
//!
//! Usage: `cargo run --release -p swamp-pilots --bin bench -- \
//!             <subcommand> [--check] [args ...] > BENCH_<subcommand>.json`
//!
//! | subcommand   | arguments (default)                    | measures                                  |
//! |--------------|----------------------------------------|-------------------------------------------|
//! | `obs`        | `[devices ...]` (100 1000 10000)       | obs instrumentation overhead, ingest+pump |
//! | `sync`       | `[backlog ...]` (10000 100000 1000000) | deep-backlog drain through the sync engine|
//! | `e11`        | `[devices ...]` (100 1000 10000)       | E11c broker throughput per deployment     |
//! | `e14`        | `[devices ...]` (1000 10000 100000)    | E14b shard scale-out, shards × workers    |
//! | `e15`        | `[devices ...]` (1000 10000 100000)    | E15 flat vs segmented read path           |
//! | `e16`        | `[devices [rounds]]` (512 96)          | E16 detection scorecard + overhead        |
//! | `resilience` | `[seed]` (42)                          | E13 loss × deployment, 1 h partition      |
//!
//! Every subcommand prints its human-readable tables on stderr and its
//! JSON document on stdout. Those that record deterministic per-cell
//! observability snapshots also write `OBS_<subcommand>.json` to the
//! working directory, except under `--check`: CI runs reduced sizes and
//! must not overwrite the committed full sweep. `--check` is accepted by
//! the subcommands with a gate (all but `e11` and `resilience`) and exits 1
//! when the gate fails. Arguments are positive integers; an unknown
//! subcommand, a zero, a non-number or any other argument exits 2.
//!
//! The library is clock-free: this file holds the workspace's one wall
//! clock ([`Clock`]) and hands it to the subcommand modules.

mod e11;
mod e14;
mod e15;
mod e16;
mod obs;
mod resilience;
mod sync;

use std::process::exit;
use std::time::Instant;

use swamp_codec::json::Json;
use swamp_obs::ObsReport;

/// The parsed command line of one subcommand.
pub struct Args {
    /// `--check` was given.
    pub check: bool,
    /// The positional arguments, with the subcommand's defaults filled in.
    pub nums: Vec<usize>,
}

/// What a subcommand produces.
pub struct Outcome {
    /// The JSON document printed on stdout.
    pub doc: Json,
    /// Snapshots for `OBS_<subcommand>.json`, if the subcommand records any.
    pub obs: Option<Vec<ObsReport>>,
    /// The gate verdict, enforced only under `--check`.
    pub gate: Result<(), String>,
}

/// The wall clock, started when the harness starts.
pub struct Clock(Instant);

impl Clock {
    /// Seconds since the harness started.
    pub fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Runs `body` once and returns the seconds it took.
    pub fn time(&self, body: &mut dyn FnMut()) -> f64 {
        let start = self.now();
        body();
        self.now() - start
    }
}

struct Sub {
    name: &'static str,
    /// Positional arguments, for the usage line.
    args: &'static str,
    defaults: &'static [usize],
    /// `true`: the arguments are a list that replaces `defaults`; `false`:
    /// they override `defaults` position by position.
    list: bool,
    /// The subcommand has a gate, so it accepts `--check`.
    gated: bool,
    run: fn(&Args, &Clock) -> Outcome,
}

const SUBS: &[Sub] = &[
    Sub {
        name: "obs",
        args: "[devices ...]",
        defaults: &[100, 1_000, 10_000],
        list: true,
        gated: true,
        run: obs::run,
    },
    Sub {
        name: "sync",
        args: "[backlog ...]",
        defaults: &[10_000, 100_000, 1_000_000],
        list: true,
        gated: true,
        run: sync::run,
    },
    Sub {
        name: "e11",
        args: "[devices ...]",
        defaults: &[100, 1_000, 10_000],
        list: true,
        gated: false,
        run: e11::run,
    },
    Sub {
        name: "e14",
        args: "[devices ...]",
        defaults: &[1_000, 10_000, 100_000],
        list: true,
        gated: true,
        run: e14::run,
    },
    Sub {
        name: "e15",
        args: "[devices ...]",
        defaults: &[1_000, 10_000, 100_000],
        list: true,
        gated: true,
        run: e15::run,
    },
    Sub {
        name: "e16",
        args: "[devices [rounds]]",
        defaults: &[512, 96],
        list: false,
        gated: true,
        run: e16::run,
    },
    Sub {
        name: "resilience",
        args: "[seed]",
        defaults: &[42],
        list: false,
        gated: false,
        run: resilience::run,
    },
];

impl Sub {
    fn usage(&self) -> String {
        let check = if self.gated { " [--check]" } else { "" };
        let defaults: Vec<String> = self.defaults.iter().map(usize::to_string).collect();
        format!(
            "bench {}{check} {}   (default: {})",
            self.name,
            self.args,
            defaults.join(" ")
        )
    }

    fn parse(&self, raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut check = false;
        let mut given = Vec::new();
        for arg in raw {
            match arg.parse::<usize>() {
                Ok(n) if n > 0 => given.push(n),
                _ if arg == "--check" && self.gated => check = true,
                _ => return Err(format!("expected a positive integer, got {arg:?}")),
            }
        }
        let nums = if self.list && !given.is_empty() {
            given
        } else if given.len() <= self.defaults.len() {
            let mut nums = self.defaults.to_vec();
            nums[..given.len()].copy_from_slice(&given);
            nums
        } else {
            return Err(format!(
                "at most {} arguments, got {given:?}",
                self.defaults.len()
            ));
        };
        Ok(Args { check, nums })
    }
}

/// The JSON envelope every subcommand shares: `experiment`,
/// `description` and `build`, plus the subcommand's own `fields`.
pub fn envelope<'a>(
    experiment: &str,
    description: &str,
    fields: impl IntoIterator<Item = (&'a str, Json)>,
) -> Json {
    let head = [
        ("experiment", Json::String(experiment.into())),
        ("description", Json::String(description.into())),
        ("build", Json::String("release".into())),
    ];
    Json::object(head.into_iter().chain(fields))
}

/// `x` rounded to a multiple of `1 / scale`, as a JSON number.
pub fn rounded(x: f64, scale: f64) -> Json {
    Json::Number((x * scale).round() / scale)
}

/// Hardware threads available, recorded so a gate is honest about what
/// it could test.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn main() {
    let mut raw = std::env::args().skip(1);
    let name = raw.next().unwrap_or_default();
    let Some(sub) = SUBS.iter().find(|s| s.name == name) else {
        eprintln!("bench: unknown subcommand {name:?}; usage:");
        for sub in SUBS {
            eprintln!("  {}", sub.usage());
        }
        exit(2);
    };
    let args = sub.parse(raw).unwrap_or_else(|msg| {
        eprintln!("bench {}: {msg}", sub.name);
        eprintln!("usage: {}", sub.usage());
        exit(2);
    });

    let out = (sub.run)(&args, &Clock(Instant::now()));

    if let (Some(reports), false) = (&out.obs, args.check) {
        let path = format!("OBS_{}.json", sub.name);
        match std::fs::write(&path, ObsReport::array_to_json_string(reports)) {
            Ok(()) => eprintln!("wrote {path} ({} reports)", reports.len()),
            Err(e) => eprintln!("bench {}: could not write {path}: {e}", sub.name),
        }
    }
    println!("{}", out.doc.to_pretty_string());

    if args.check {
        match out.gate {
            Ok(()) => eprintln!("bench {} --check: ok ({} cores)", sub.name, cores()),
            Err(msg) => {
                eprintln!("bench {} --check FAILED: {msg}", sub.name);
                exit(1);
            }
        }
    }
}
