//! # swamp-pilots — the four SWAMP pilots and the experiment harness
//!
//! The paper's §I describes four pilots on one platform; this crate runs
//! them and quantifies every claim:
//!
//! - [`season`] — the growing-season loop (weather → ET → decision → soil →
//!   yield → water/energy/cost accounting) over heterogeneous zones.
//! - [`pilots`] — CBEC, Intercrop, Guaspari, MATOPIBA configurations with
//!   smart-vs-baseline comparisons.
//! - [`driver`] — the shared [`swamp_core::Drive`]-based round/drain loops
//!   every harness runs on, deployment-shape agnostic.
//! - [`experiments`] — E1–E14, one per claim/challenge in the paper (see
//!   EXPERIMENTS.md), all seeded and reproducible.
//! - [`report`] — the result tables the harness prints.
//! - [`reps`] — the interleaved best-of-reps loop behind every wall-clock
//!   measurement; the `bench` binary supplies the clock.
//!
//! ## Example: run the MATOPIBA pilot
//!
//! ```
//! use swamp_pilots::pilots::{run_pilot, PilotSite};
//! let report = run_pilot(PilotSite::Matopiba, 42);
//! assert!(report.water_saving() > 0.0);
//! ```

pub mod driver;
pub mod experiments;
pub mod pilots;
pub mod report;
pub mod reps;
pub mod season;

pub use pilots::{run_pilot, PilotReport, PilotSite};
pub use report::Report;
pub use season::{run_season, SeasonConfig, SeasonOutcome};
