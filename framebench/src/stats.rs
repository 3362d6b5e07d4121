//! Order statistics, the pausable wall clock and the process's peak memory.

use std::time::{Duration, Instant};

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted values; 0 when
/// there are none.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Resets the peak resident set size to the current one, so the next
/// [`peak_rss_mb`] covers only what runs after this call. Where the
/// kernel refuses, the peak stays process-wide.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A wall clock that can be paused, so the benchmark's own checking and
/// probing between rounds stays out of the measured span.
pub struct Stopwatch {
    acc: Duration,
    since: Option<Instant>,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            acc: Duration::ZERO,
            since: Some(Instant::now()),
        }
    }

    pub fn pause(&mut self) {
        if let Some(since) = self.since.take() {
            self.acc += since.elapsed();
        }
    }

    pub fn resume(&mut self) {
        if self.since.is_none() {
            self.since = Some(Instant::now());
        }
    }

    pub fn seconds(&self) -> f64 {
        (self.acc + self.since.map_or(Duration::ZERO, |s| s.elapsed())).as_secs_f64()
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
