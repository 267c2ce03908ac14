//! Statistics the benchmark reports: nearest-rank percentiles that refuse to
//! answer from too few samples, a plain median for small repetition counts,
//! and the process's peak resident memory.

use std::time::Duration;

/// A percentile is reported only when at least this many samples lie beyond
/// its rank; otherwise its value would be set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile (`0 < p < 100`) of `samples`.
///
/// The rank is `ceil(p * n / 100)` (1-based) over the sorted samples, computed
/// in integers so that, e.g., p90 of 100 samples is exactly the 90th value.
/// Returns `None` when fewer than [`MIN_BEYOND`] samples lie above that rank.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    let n = samples.len();
    if n == 0 || p == 0 || p >= 100 {
        return None;
    }
    let rank = (p as usize * n).div_ceil(100);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a small set of repetitions (set-up times), with no minimum
/// sample count: the nearest-rank 50th value, i.e. the middle one for an odd
/// count.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[(sorted.len() - 1) / 2])
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`), or `None` where the file is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// The `VmHWM` value, in kB, of a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Reversed, so the percentile code has to sort.
        (1..=n).rev().map(|x| x as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s = one_to(100);
        assert_eq!(percentile(&s, 50), Some(50.0));
        assert_eq!(percentile(&s, 90), Some(90.0));
        let s = one_to(21);
        // ceil(0.5 * 21) = 11th value; exactly ten samples lie beyond it.
        assert_eq!(percentile(&s, 50), Some(11.0));
    }

    #[test]
    fn refuses_without_ten_samples_beyond_the_rank() {
        assert_eq!(percentile(&one_to(19), 50), None);
        assert_eq!(percentile(&one_to(20), 50), Some(10.0));
        assert_eq!(percentile(&one_to(39), 75), None);
        assert_eq!(percentile(&one_to(40), 75), Some(30.0));
        assert_eq!(percentile(&one_to(99), 90), None);
        assert_eq!(percentile(&one_to(100), 90), Some(90.0));
        assert_eq!(percentile(&one_to(999), 99), None);
        assert_eq!(percentile(&one_to(1000), 99), Some(990.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn rejects_degenerate_percentiles() {
        let s = one_to(1000);
        assert_eq!(percentile(&s, 0), None);
        assert_eq!(percentile(&s, 100), None);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tbench\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t100 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t100 MB\n"), None);
    }

    #[test]
    fn reads_this_process_peak_rss() {
        if std::path::Path::new("/proc/self/status").exists() {
            let mb = peak_rss_mb().expect("VmHWM present on Linux");
            assert!(mb > 0.0);
        }
    }
}
