//! Small numeric helpers: quantiles, medians, process memory, host CPU
//! steal.

use std::time::Instant;

/// Nearest-rank quantile of `sorted` (ascending). `q` in `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host's CPU tick counters (`/proc/stat` line `cpu`): total and steal.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        fields.iter().take(8).sum(),
        fields.get(7).copied().unwrap_or(0),
    )
}

/// Reads of the host's steal counter taken every `STEAL_READ_MS` while
/// a load phase runs.
pub const STEAL_READ_MS: u64 = 20;

/// Slices of a load phase between consecutive reads of the host's steal
/// counter, and whether the counter advanced in each: whether the
/// hypervisor took CPU time away from this machine then.
pub struct StealSlices {
    /// The first read, ms after the phase's start.
    first_ms: f64,
    /// End of each slice, ms after the phase's start.
    ends_ms: Vec<f64>,
    stolen: Vec<bool>,
}

impl StealSlices {
    pub fn new(t0: Instant, reads: &[(Instant, u64)]) -> StealSlices {
        let ms = |at: Instant| {
            if at >= t0 {
                at.duration_since(t0).as_secs_f64() * 1e3
            } else {
                -(t0.duration_since(at).as_secs_f64() * 1e3)
            }
        };
        StealSlices {
            first_ms: reads.first().map_or(f64::INFINITY, |r| ms(r.0)),
            ends_ms: reads.iter().skip(1).map(|r| ms(r.0)).collect(),
            stolen: reads.windows(2).map(|w| w[1].1 > w[0].1).collect(),
        }
    }

    /// Whether any slice overlapping `[from_ms, to_ms]` saw steal. Time
    /// outside the read slices counts as stolen.
    pub fn overlaps(&self, from_ms: f64, to_ms: f64) -> bool {
        if from_ms < self.first_ms {
            return true;
        }
        let first = self.ends_ms.partition_point(|&end| end < from_ms);
        for i in first..self.ends_ms.len() {
            if self.stolen[i] {
                return true;
            }
            if self.ends_ms[i] >= to_ms {
                return false;
            }
        }
        true
    }
}

/// Bytes under `dir`, recursively.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
    }

    #[test]
    fn steal_slices() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        // slices [0, 20] clean, [20, 40] stolen, [40, 60] clean
        let s = StealSlices::new(t0, &[(at(0), 5), (at(20), 5), (at(40), 6), (at(60), 6)]);
        assert!(!s.overlaps(1.0, 19.0));
        assert!(s.overlaps(15.0, 25.0));
        assert!(s.overlaps(30.0, 35.0));
        assert!(!s.overlaps(41.0, 59.0));
        assert!(s.overlaps(50.0, 70.0));
    }
}
