//! Order statistics and process memory.

use std::time::Duration;

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile `p` in `[0, 1]` of `values` (sorted in
/// place); 0 for an empty sample.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// The median of `values` (sorted in place); 0 for an empty sample.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Percentile `p` of the `(time, value)` samples in each consecutive
/// `window` of time, and the median of those; a single window when
/// `window` is `None`. One bad window moves the result no further than
/// one window's rank.
pub fn windowed(samples: &[(Duration, f64)], window: Option<Duration>, p: f64) -> f64 {
    let Some(window) = window else {
        return percentile(&mut samples.iter().map(|s| s.1).collect::<Vec<_>>(), p);
    };
    let first = samples.iter().map(|s| s.0).min().unwrap_or_default();
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(at, value) in samples {
        let w = ((at - first).as_secs_f64() / window.as_secs_f64()) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(value);
    }
    let mut each: Vec<f64> = windows
        .iter_mut()
        .filter(|v| !v.is_empty())
        .map(|v| percentile(v, p))
        .collect();
    median(&mut each)
}

/// The mean of `values` (sorted in place) without the lowest and the
/// highest `share` of them; 0 for an empty sample.
pub fn trimmed_mean(values: &mut [f64], share: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let cut = (values.len() as f64 * share) as usize;
    mean(&values[cut..values.len() - cut])
}

/// The arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, or `None` where
/// the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn trimmed_mean_cuts_both_ends() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        v[9] = 1000.0;
        assert_eq!(trimmed_mean(&mut v, 0.1), 5.5);
        assert_eq!(trimmed_mean(&mut [4.0, 2.0], 0.1), 3.0);
        assert_eq!(trimmed_mean(&mut [], 0.1), 0.0);
    }

    #[test]
    fn windowed_percentiles_take_the_median_window() {
        let s = |t: u64, v: f64| (Duration::from_secs(t), v);
        let samples = [
            s(0, 1.0),
            s(0, 2.0),
            s(1, 10.0),
            s(1, 20.0),
            s(2, 3.0),
            s(2, 4.0),
        ];
        assert_eq!(windowed(&samples, Some(Duration::from_secs(1)), 1.0), 4.0);
        assert_eq!(windowed(&samples, None, 1.0), 20.0);
        assert_eq!(windowed(&[], Some(Duration::from_secs(1)), 0.5), 0.0);
    }
}
